(* Crash-stop failures: the system must stay safe unconditionally, and
   with failure detection enabled it must also reclaim the state a
   crashed process pinned — including the documented unsafety when a
   partition is mistaken for a crash. *)

open Adgc_algebra
open Adgc_rt
open Adgc_workload
module Sim = Adgc.Sim
module Config = Adgc.Config

let check = Alcotest.check

let mk ?(n = 4) ?(failure_detection = false) () =
  let config = Config.quick ~n_procs:n () in
  let runtime =
    { config.Config.runtime with Runtime.failure_detection; holder_silence_limit = 5_000 }
  in
  let config = { config with Config.runtime = runtime } in
  let sim = Sim.create ~config () in
  (sim, Sim.cluster sim)

let test_dead_process_is_silent () =
  let sim, cluster = mk () in
  let a = Mutator.alloc cluster ~proc:0 () in
  let b = Mutator.alloc cluster ~proc:1 () in
  Mutator.add_root cluster a;
  Mutator.add_root cluster b;
  Mutator.wire_remote cluster ~holder:a ~target:b;
  Sim.start sim;
  Sim.run_for sim 3_000;
  Cluster.crash cluster 0;
  let crashed_at = Cluster.now cluster in
  (* Sample the wire faster than the minimum latency: every message
     P0 originated after the crash would be caught in flight. *)
  let originated_dead = ref 0 in
  let audit =
    Scheduler.every (Cluster.sched cluster) ~phase:1 ~period:3 (fun () ->
        List.iter
          (fun (m : Msg.t) ->
            if Proc_id.equal m.Msg.src (Proc_id.of_int 0) && m.Msg.sent_at > crashed_at then
              incr originated_dead)
          (List.map snd (Network.pending (Cluster.net cluster))))
  in
  Sim.run_for sim 5_000;
  Scheduler.cancel audit;
  (* P1 keeps probing (owner side), but nothing originates at P0. *)
  let dead_drops = Adgc_util.Stats.get (Sim.stats sim) "net.msg.dead_endpoint" in
  check Alcotest.bool "messages to the dead are dropped" true (dead_drops > 0);
  check Alcotest.int "nothing originates at the dead process" 0 !originated_dead;
  (* Direct attempt: a send whose source is dead is swallowed before
     it reaches the wire. *)
  let sent = Adgc_util.Stats.get (Sim.stats sim) "net.msg.sent" in
  Runtime.send (Cluster.rt cluster) ~src:(Proc_id.of_int 0) ~dst:(Proc_id.of_int 1)
    Msg.Scion_probe;
  check Alcotest.int "dead source never hits the wire" sent
    (Adgc_util.Stats.get (Sim.stats sim) "net.msg.sent");
  check Alcotest.bool "p0 reported dead" false (Cluster.alive cluster 0)

let test_crash_without_detection_leaks () =
  let sim, cluster = mk () in
  let holder = Mutator.alloc cluster ~proc:0 () in
  let target = Mutator.alloc cluster ~proc:1 () in
  Mutator.add_root cluster holder;
  Mutator.wire_remote cluster ~holder ~target;
  Sim.start sim;
  Sim.run_for sim 3_000;
  Cluster.crash cluster 0;
  Sim.run_for sim 60_000;
  (* Without failure detection the scion (and object) leak — the
     conservative default. *)
  let p1 = Cluster.proc cluster 1 in
  check Alcotest.bool "object leaks conservatively" true
    (Heap.mem p1.Process.heap target.Heap.oid)

let test_crash_with_detection_reclaims () =
  let sim, cluster = mk ~failure_detection:true () in
  let holder = Mutator.alloc cluster ~proc:0 () in
  let target = Mutator.alloc cluster ~proc:1 () in
  Mutator.add_root cluster holder;
  Mutator.wire_remote cluster ~holder ~target;
  Sim.start sim;
  Sim.run_for sim 3_000;
  Cluster.crash cluster 0;
  Sim.run_for sim 60_000;
  let p1 = Cluster.proc cluster 1 in
  check Alcotest.bool "scion reaped, object reclaimed" false
    (Heap.mem p1.Process.heap target.Heap.oid);
  check Alcotest.bool "reap counted" true
    (Adgc_util.Stats.get (Sim.stats sim) "reflist.scions_reaped" >= 1)

let test_live_holder_never_reaped () =
  (* Failure detection on, healthy network: periodic stub sets keep
     every live holder fresh and nothing is reaped. *)
  let sim, cluster = mk ~failure_detection:true () in
  let holder = Mutator.alloc cluster ~proc:0 () in
  let target = Mutator.alloc cluster ~proc:1 () in
  Mutator.add_root cluster holder;
  Mutator.wire_remote cluster ~holder ~target;
  Sim.start sim;
  Sim.run_for sim 60_000;
  check Alcotest.int "nothing reaped" 0
    (Adgc_util.Stats.get (Sim.stats sim) "reflist.scions_reaped");
  check Alcotest.bool "object alive" true
    (Heap.mem (Cluster.proc cluster 1).Process.heap target.Heap.oid)

let test_cycle_through_crashed_process () =
  (* A distributed cycle spanning a crashed process: the crash breaks
     the cycle; failure detection reclaims the remnants at the
     survivors. *)
  let sim, cluster = mk ~n:3 ~failure_detection:true () in
  let _built = Topology.ring cluster ~procs:[ 0; 1; 2 ] in
  Sim.start sim;
  Sim.run_for sim 1_000;
  Cluster.crash cluster 1;
  Sim.run_for sim 100_000;
  check Alcotest.int "survivor remnants reclaimed" 0 (Cluster.total_objects cluster)

let test_false_suspicion_is_unsafe () =
  (* The documented trade-off: partition a live holder for longer than
     the silence limit; its objects get reclaimed under it.  This test
     asserts the unsafety actually manifests — the reason
     failure_detection defaults to off. *)
  let sim, cluster = mk ~failure_detection:true () in
  let checker = Metrics.install_safety_checker cluster in
  let holder = Mutator.alloc cluster ~proc:0 () in
  let target = Mutator.alloc cluster ~proc:1 () in
  Mutator.add_root cluster holder;
  Mutator.wire_remote cluster ~holder ~target;
  Sim.start sim;
  Sim.run_for sim 2_000;
  (* Partition both directions: P0 is alive but unreachable. *)
  Network.block_link (Cluster.net cluster) (Proc_id.of_int 0) (Proc_id.of_int 1);
  Network.block_link (Cluster.net cluster) (Proc_id.of_int 1) (Proc_id.of_int 0);
  Sim.run_for sim 60_000;
  check Alcotest.bool "live object was reclaimed (documented unsafety)" true
    (List.length (Metrics.violations checker) >= 1)

let test_detection_dies_at_crashed_process () =
  (* A CDM addressed to a dead process vanishes; the detection never
     concludes and everything stays safe. *)
  let sim, cluster = mk ~n:3 () in
  let built = Topology.ring cluster ~procs:[ 0; 1; 2 ] in
  Sim.snapshot_all sim;
  Cluster.crash cluster 2;
  ignore
    (Adgc_dcda.Detector.initiate (Sim.detector sim 0)
       (Topology.scion_key built ~src:2 "n0_0")
      : bool);
  ignore (Cluster.drain cluster : int);
  check Alcotest.int "no conclusion" 0 (List.length (Sim.reports sim))

let test_crash_is_idempotent () =
  let _sim, cluster = mk () in
  Cluster.crash cluster 0;
  Cluster.crash cluster 0;
  check Alcotest.int "one crash counted" 1
    (Adgc_util.Stats.get (Cluster.stats cluster) "cluster.crashes")

let test_survivors_keep_collecting () =
  (* Normal distributed collection among survivors is unaffected by an
     unrelated crash. *)
  let sim, cluster = mk ~n:4 () in
  let a = Mutator.alloc cluster ~proc:0 () in
  let b = Mutator.alloc cluster ~proc:1 () in
  Mutator.wire_remote cluster ~holder:a ~target:b;
  Mutator.add_root cluster a;
  Sim.start sim;
  Cluster.crash cluster 3;
  Sim.run_for sim 2_000;
  Mutator.remove_root cluster a;
  check Alcotest.bool "chain reclaimed despite crash elsewhere" true
    (Sim.run_until_clean ~max_time:100_000 sim)

(* qcheck: with failure detection on and only true crash-stop failures
   (no partitions), safety holds under random topology, churn and
   crash schedule, and the survivors converge. *)
let prop_random_crash_schedules_safe =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"random crashes stay safe and converge" ~count:10
       QCheck2.Gen.(triple (int_range 0 1000) (int_range 0 3) (int_range 1 20_000))
       (fun (seed, victim, crash_time) ->
         let config = Config.quick ~seed ~n_procs:4 () in
         let runtime =
           {
             config.Config.runtime with
             Runtime.failure_detection = true;
             holder_silence_limit = 5_000;
           }
         in
         let config = { config with Config.runtime = runtime } in
         let sim = Sim.create ~config () in
         let cluster = Sim.cluster sim in
         let checker = Metrics.install_safety_checker cluster in
         let rng = Adgc_util.Rng.create (seed + 1) in
         let _built =
           Topology.random cluster ~rng ~objects:40 ~edges:80 ~remote_prob:0.3 ~root_prob:0.2
         in
         let churn = Churn.create ~cluster ~rng:(Adgc_util.Rng.create (seed + 2)) () in
         Churn.run churn ~steps:200 ~every:13;
         Adgc_rt.Scheduler.schedule_after (Cluster.sched cluster) ~delay:crash_time (fun () ->
             Cluster.crash cluster victim);
         Sim.start sim;
         Sim.run_for sim 40_000;
         let clean = Sim.run_until_clean ~step:5_000 ~max_time:2_000_000 sim in
         Metrics.assert_safe checker;
         clean))

(* --------------------------------------------------------------- *)
(* Duplicate-suppression truncation at restart quiescence.          *)

let test_prune_delivered_semantics () =
  let p = Process.create ~id:(Proc_id.of_int 0) ~rng:(Adgc_util.Rng.create 7) in
  let src = Proc_id.of_int 1 in
  for seq = 0 to 199 do
    check Alcotest.bool "first delivery accepted" true (Process.note_delivery p ~src ~seq)
  done;
  check Alcotest.int "table holds every entry" 200 (Process.delivered_count p);
  let removed = Process.prune_delivered p in
  (* floor = 199 - 64: everything below is summarised away. *)
  check Alcotest.int "entries below the floor removed" 135 removed;
  check Alcotest.int "slack window retained" 65 (Process.delivered_count p);
  check Alcotest.bool "sub-floor replay refused" false (Process.note_delivery p ~src ~seq:10);
  check Alcotest.bool "retained entry still suppresses" false
    (Process.note_delivery p ~src ~seq:150);
  check Alcotest.bool "fresh sequence accepted" true (Process.note_delivery p ~src ~seq:200);
  (* Pruning again moves the floor with the high-water mark but never
     above it. *)
  ignore (Process.prune_delivered p : int);
  check Alcotest.bool "post-prune fresh sequence accepted" true
    (Process.note_delivery p ~src ~seq:201)

let test_restart_bounds_delivered_table () =
  let sim, cluster = mk () in
  (* Steady cross-process traffic: remote references in both directions
     keep the reference-listing rounds (and their sequence numbers)
     flowing for the whole run. *)
  let a = Mutator.alloc cluster ~proc:0 () in
  let b = Mutator.alloc cluster ~proc:1 () in
  let c = Mutator.alloc cluster ~proc:2 () in
  Mutator.add_root cluster a;
  Mutator.add_root cluster b;
  Mutator.add_root cluster c;
  Mutator.wire_remote cluster ~holder:a ~target:b;
  Mutator.wire_remote cluster ~holder:b ~target:a;
  Mutator.wire_remote cluster ~holder:c ~target:a;
  Sim.start sim;
  let p0 = Cluster.proc cluster 0 in
  (* Without truncation this grows with every round; each restart is a
     quiescence point that must cap it at the per-sender slack
     window. *)
  let bound = 3 * 65 in
  for _round = 1 to 5 do
    Sim.run_for sim 20_000;
    Cluster.crash cluster 0;
    Cluster.restart cluster 0;
    check Alcotest.bool "delivered table bounded after restart" true
      (Process.delivered_count p0 <= bound)
  done;
  check Alcotest.bool "truncation actually fired" true
    (Adgc_util.Stats.get (Sim.stats sim) "cluster.delivered_pruned" > 0);
  (* The run stays healthy after repeated truncation: the listing
     exchange keeps flowing and nothing was reclaimed unsafely. *)
  Sim.run_for sim 2_000;
  check Alcotest.bool "reference listing still flowing" true
    (Adgc_util.Stats.get (Sim.stats sim) "reflist.sets_sent" > 0);
  List.iter
    (fun (o : Heap.obj) ->
      let owner = Proc_id.to_int (Oid.owner o.Heap.oid) in
      check Alcotest.bool "rooted object survives" true
        (Heap.mem (Cluster.proc cluster owner).Process.heap o.Heap.oid))
    [ a; b; c ]

let suite =
  ( "failures",
    [
      Alcotest.test_case "dead process is silent" `Quick test_dead_process_is_silent;
      Alcotest.test_case "crash without detection leaks (conservative)" `Quick
        test_crash_without_detection_leaks;
      Alcotest.test_case "crash with detection reclaims" `Quick test_crash_with_detection_reclaims;
      Alcotest.test_case "live holder never reaped" `Quick test_live_holder_never_reaped;
      Alcotest.test_case "cycle through crashed process" `Quick test_cycle_through_crashed_process;
      Alcotest.test_case "false suspicion is unsafe (documented)" `Quick
        test_false_suspicion_is_unsafe;
      Alcotest.test_case "detection dies at crashed process" `Quick
        test_detection_dies_at_crashed_process;
      Alcotest.test_case "crash is idempotent" `Quick test_crash_is_idempotent;
      Alcotest.test_case "survivors keep collecting" `Quick test_survivors_keep_collecting;
      Alcotest.test_case "prune_delivered semantics" `Quick test_prune_delivered_semantics;
      Alcotest.test_case "restart bounds the delivered table" `Quick
        test_restart_bounds_delivered_table;
      prop_random_crash_schedules_safe;
    ] )
