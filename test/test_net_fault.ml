(* Transport-fault behaviour of the socket driver: a SIGKILLed node
   must be detected and survived, and a severed link must reconnect
   and replay without the duplicate deliveries corrupting counters
   (Dispatch.deliver's seq dedup, backed by Process.note_delivery /
   prune_delivered, is what keeps the oracle clean here). *)

open Adgc_algebra
module Scenario = Adgc_net.Scenario
module Coordinator = Adgc_net.Coordinator
module Gather = Adgc_net.Gather
module Stats = Adgc_util.Stats

let check = Alcotest.check

let violations = Alcotest.list (Alcotest.testable Adgc_check.Invariant.pp ( = ))

let kill_scenario ?detector () =
  (* Pairs: each garbage cycle spans exactly one pair of ranks, so
     killing rank 2 floats only its own pair's cycle and the other
     pairs must still be reclaimed by the survivors. *)
  Scenario.make ~topology:Scenario.Pairs ~procs:6 ~seed:7 ?detector ()

let run_kill_node scenario () =
  let opts =
    Coordinator.options ~tick_us:400 ~deadline_s:30.
      ~spawn:(Test_net_conformance.spawn ())
      ~faults:[ Coordinator.Kill { rank = 2; after_s = 0.2 } ]
      scenario
  in
  let r = Coordinator.run opts in
  check Alcotest.bool "killed rank declared dead" true (List.mem 2 r.Coordinator.dead);
  check violations "oracle clean over survivors" [] r.Coordinator.verdict.Gather.violations;
  (* The completion target really did shrink: the dead pair's cycle is
     floating garbage, not owed by anybody. *)
  let all_garbage = (Scenario.expected scenario).Scenario.garbage in
  check Alcotest.bool "dead rank's component excluded from target" true
    (Oid.Set.cardinal r.Coordinator.required < Oid.Set.cardinal all_garbage);
  check Alcotest.bool "required matches garbage_excluding" true
    (Oid.Set.equal r.Coordinator.required (Scenario.garbage_excluding scenario ~dead:[ 2 ]));
  check Alcotest.bool "survivors reclaimed everything still owed" true
    (Oid.Set.subset r.Coordinator.required r.Coordinator.verdict.Gather.reclaimed);
  check Alcotest.bool "run ok" true (Coordinator.ok r)

let test_drop_link_reconnects () =
  let scenario = Scenario.make ~topology:Scenario.Star ~procs:5 ~seed:7 () in
  let opts =
    Coordinator.options ~deadline_s:30.
      ~spawn:(Test_net_conformance.spawn ())
      ~faults:[ Coordinator.Drop { rank = 1; peer = 0; after_s = 0.1 } ]
      scenario
  in
  let r = Coordinator.run opts in
  check Alcotest.(list int) "nobody died from a dropped link" [] r.Coordinator.dead;
  (* Reconnect replays the backlog; any duplicates must be absorbed by
     the receiver's seq dedup — a double-counted invocation would
     surface as Ic_regression in the gathered-state oracle. *)
  check violations "oracle clean after reconnect + replay" [] r.Coordinator.verdict.Gather.violations;
  check Alcotest.bool "all garbage reclaimed despite the drop" true
    (Oid.Set.subset r.Coordinator.required r.Coordinator.verdict.Gather.reclaimed);
  check Alcotest.bool "wire traffic flowed" true (Stats.get r.Coordinator.stats "net.wire.sent" > 0);
  check Alcotest.bool "run ok" true (Coordinator.ok r)

let suite =
  ( "net_fault",
    [
      Alcotest.test_case "kill -9 a node mid-run" `Slow
        (run_kill_node (kill_scenario ()));
      (* The same kill under the backtracking baseline: its traces
         towards the dead rank go unanswered, and the survivors must
         still reclaim the pairs that never involved it. *)
      Alcotest.test_case "kill -9 a node, backtracking baseline" `Slow
        (run_kill_node (kill_scenario ~detector:Adgc.Config.Backtrack ()));
      Alcotest.test_case "dropped link reconnects and replays" `Slow test_drop_link_reconnects;
    ] )
