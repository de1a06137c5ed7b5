(* The runtime's trace sites record a renderer and format only when the
   trace is read.  These tests pin what the sites render: every one of
   the thirteen [Runtime.log] sites fires in the four scenarios below,
   and each scenario's whole dump must match a digest of the text that
   eager formatting at record time produced.  LGC lines are compared
   sorted within each tick: an LGC run sweeps in [Oid] order, while the
   runs the digests come from swept in hash-table order. *)

open Adgc_rt
open Adgc_workload
module Sim = Adgc.Sim
module Config = Adgc.Config
module Trace = Adgc_util.Trace

let check = Alcotest.check

let render e = Format.asprintf "%a" Trace.pp_event e

(* Every event in recording order, except that the LGC lines go last,
   sorted by (tick, text). *)
let normalized trace =
  let lgc, rest =
    List.partition (fun (e : Trace.event) -> String.equal e.Trace.topic "lgc") (Trace.events trace)
  in
  let lgc =
    List.stable_sort
      (fun (a : Trace.event) (b : Trace.event) -> compare (a.time, a.text) (b.time, b.text))
      lgc
  in
  List.map render (rest @ lgc)

(* Fig. 4's cycles, a live ring whose scans abort, a garbage pair, and
   a rooted holder on P5 whose crash makes P0 reap its scion (failure
   detection on); P5 restarts at the end.  [at] sees the trace after
   each phase. *)
(* The digests were taken on the flat clique; [flat] keeps a group
   overlay selected through the environment out of these runs. *)
let flat config = Config.with_groups config 0

let dcda_scenario ?(at = fun (_ : Trace.t) -> ()) () =
  let config = flat (Config.quick ~seed:5 ~n_procs:6 ()) in
  let runtime =
    { config.Config.runtime with Runtime.failure_detection = true; holder_silence_limit = 5_000 }
  in
  let sim = Sim.create ~config:{ config with Config.runtime = runtime } () in
  let cluster = Sim.cluster sim in
  let _fig4 = Topology.fig4 cluster in
  let _live = Topology.rooted_ring cluster ~procs:[ 3; 4 ] in
  let _pair = Topology.ring cluster ~procs:[ 1; 5 ] in
  let holder = Mutator.alloc cluster ~proc:5 () in
  Mutator.add_root cluster holder;
  Mutator.wire_remote cluster ~holder ~target:(Mutator.alloc cluster ~proc:0 ());
  Sim.start sim;
  Sim.run_for sim 6_000;
  at (Sim.trace sim);
  Cluster.crash cluster 5;
  Sim.run_for sim 12_000;
  at (Sim.trace sim);
  Cluster.restart cluster 5;
  Sim.run_for sim 4_000;
  Sim.teardown sim;
  at (Sim.trace sim);
  Sim.trace sim

(* A deaf candidate maintainer: the audit duty logs its mismatch. *)
let audit_scenario () =
  Adgc_util.Mc_mutate.with_mutant "drop_label_updates" (fun () ->
      let sim = Sim.create ~config:(flat (Config.quick ~seed:11 ~n_procs:2 ())) () in
      let cluster = Sim.cluster sim in
      let r = Mutator.alloc cluster ~proc:0 () in
      Mutator.add_root cluster r;
      let a = Mutator.alloc cluster ~proc:0 () in
      Mutator.link cluster ~from_:r ~to_:a;
      let b = Mutator.alloc cluster ~proc:1 () in
      Mutator.add_root cluster b;
      Mutator.wire_remote cluster ~holder:b ~target:a;
      Sim.start sim;
      Sim.run_for sim 3_000;
      Sim.teardown sim;
      Sim.trace sim)

let hughes_scenario () =
  let config =
    {
      (Runtime.default_config ()) with
      Runtime.lgc_period = 300;
      new_set_period = 350;
      scion_grace = 3_000;
    }
  in
  let cluster = Cluster.create ~config ~n:3 () in
  Cluster.start_gc cluster;
  let _hughes = Adgc_baseline.Hughes.install ~round_period:200 cluster in
  let _ring = Topology.ring cluster ~procs:[ 0; 1; 2 ] in
  Cluster.run_for cluster 30_000;
  Cluster.trace cluster

let backtrack_scenario () =
  let config =
    { (flat (Config.quick ~seed:9 ~n_procs:3 ())) with Config.detector = Config.Backtrack }
  in
  let sim = Sim.create ~config () in
  let _ring = Topology.ring (Sim.cluster sim) ~procs:[ 0; 1; 2 ] in
  Sim.start sim;
  Sim.run_for sim 20_000;
  Sim.teardown sim;
  Sim.trace sim

(* Scenario, digest of its normalized dump, and one line per site it
   covers. *)
let cases =
  [
    ( "dcda",
      (fun () -> dcda_scenario ()),
      "5d48f401fd3a38e1a997e9535343e3c4",
      [
        "[   251] dcda       P3: detection D0@P3 starts from candidate P4->#0@P3";
        "[   319] dcda       P5: D0@P3 aborted (no_summary)";
        "[   446] dcda       P5: proven-cycle scion P1->#2@P5 deleted";
        "[   446] dcda       P5: CYCLE FOUND D0@P5 (2 refs, 2 hops)";
        "[   947] reflist    scion deleted P4->#0@P3 at P3";
        "[  6000] cluster    P5 crashed";
        "[ 11201] reflist    P0 declared P5 dead, 1 scions reaped";
        "[ 18000] cluster    P5 restarted";
        "[     1] snapshot   P0 summarized: 2 scions, 1 stubs, 210 bytes";
        "[   801] lgc        P4 swept #0@P4";
      ] );
    ( "audit",
      audit_scenario,
      "d60ee324e2aad4765710396febab7944",
      [ "[     1] dcda       P0: candidate audit MISMATCH (+1 incremental, +0 scan)" ] );
    ( "hughes",
      hughes_scenario,
      "549193949f3a0c397eb6d362e3f9721d",
      [ "[  2613] hughes     P2: scion P1->#0@P2 below threshold 1, deleted" ] );
    ( "backtrack",
      backtrack_scenario,
      "1620dcf87c1cfed048f5c17d10e5925f",
      [ "[   424] bt         P2: back-trace proved P1->#0@P2 garbage" ] );
  ]

let test_sites_render () =
  List.iter
    (fun (name, scenario, digest, lines) ->
      let trace = scenario () in
      check Alcotest.int (name ^ ": nothing dropped") 0 (Trace.dropped trace);
      let dump = normalized trace in
      List.iter
        (fun line -> check Alcotest.bool (name ^ ": " ^ line) true (List.mem line dump))
        lines;
      check Alcotest.string (name ^ ": whole dump")
        digest
        (Digest.to_hex (Digest.string (String.concat "\n" dump))))
    cases

(* An event's text is fixed when it is recorded: later crashes,
   restarts, sweeps and scion deletions change the processes the
   earlier events describe, never what those events read. *)
let test_text_is_stable () =
  let seen = ref [] in
  let record trace = seen := List.map render (Trace.events trace) :: !seen in
  let _trace = dcda_scenario ~at:record () in
  let rec prefix a b =
    match (a, b) with
    | [], _ -> true
    | x :: a, y :: b -> String.equal x y && prefix a b
    | _ :: _, [] -> false
  in
  match List.rev !seen with
  | [ running; crashed; restarted ] ->
      check Alcotest.bool "running events unchanged after the crash" true (prefix running crashed);
      check Alcotest.bool "crash-phase events unchanged after the restart" true
        (prefix crashed restarted);
      check Alcotest.bool "the crash still reads as a crash" true
        (List.mem "[  6000] cluster    P5 crashed" restarted)
  | _ -> Alcotest.fail "expected three phases"

let suite =
  ( "trace-sites",
    [
      Alcotest.test_case "every site renders its recorded text (4 scenarios)" `Quick
        test_sites_render;
      Alcotest.test_case "recorded text survives later state changes" `Quick test_text_is_stable;
    ] )
