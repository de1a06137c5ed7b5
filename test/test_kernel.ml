(* Kernel-level guarantees: a snapshot prepare touches no shared
   state, the bulk helpers are the layered per-process path in
   ascending order, the ground-truth tracer refines in-flight replies,
   and the clean-poll staleness guard skips without changing answers. *)

open Adgc_algebra
open Adgc_rt
open Adgc_workload
module Sim = Adgc.Sim
module Config = Adgc.Config
module Snapshot_store = Adgc_snapshot.Snapshot_store
module Export = Adgc_obs.Export
module Json = Adgc_util.Json
module Stats = Adgc_util.Stats

let check = Alcotest.check

(* ---------------------------------------------------------------- *)
(* Kernel purity: a snapshot prepare may read its process but must
   leave every shared observable — stats, spans, the store — alone,
   so the prepare/commit split the layer profile times is a real
   split: every effect lands in commit. *)

let test_prepare_touches_no_shared_state () =
  let sim = Sim.create ~config:(Config.quick ()) () in
  let cluster = Sim.cluster sim in
  let _ = Topology.ring cluster ~procs:[ 0; 1; 2 ] in
  Sim.run_for sim 500;
  let stats_json () = Json.to_string (Stats.to_json (Sim.stats sim)) in
  let before_stats = stats_json () in
  let before_spans = Export.span_digest (Sim.obs sim) in
  let store = Sim.store sim in
  let p = Cluster.proc cluster 0 in
  let pr = Snapshot_store.prepare store p in
  let _pr2 = Snapshot_store.prepare store p in
  check Alcotest.string "stats untouched by prepare" before_stats (stats_json ());
  check Alcotest.string "spans untouched by prepare" before_spans
    (Export.span_digest (Sim.obs sim));
  check Alcotest.bool "store untouched by prepare" true
    (Snapshot_store.latest store (Proc_id.of_int 0) = None);
  ignore (Snapshot_store.commit store pr : Adgc_snapshot.Summary.t);
  check Alcotest.int "exactly one publication" 1
    (Stats.get (Sim.stats sim) "snapshot.taken");
  check Alcotest.bool "commit published" true
    (Snapshot_store.latest store (Proc_id.of_int 0) <> None);
  Sim.teardown sim

(* ---------------------------------------------------------------- *)
(* One execution path: [Sim.snapshot_all], [Sim.scan_all] and
   [Sim.run_gc_cycle] must do exactly what the layered per-process
   calls do when driven by hand in ascending process order —
   snapshot prepare/commit, detector scan, LGC plan/apply, then the
   stub sets.  No timers run, so every collection step comes from the
   bulk rounds.  Same seed, same workload: the two runs must end with
   byte-identical stats, span digests and survivors. *)

let bulk_round_run ~by_hand =
  let config = { (Config.quick ~seed:13 ~n_procs:6 ()) with Config.telemetry = true } in
  let sim = Sim.create ~config () in
  let cluster = Sim.cluster sim in
  let _garbage = Topology.ring cluster ~procs:[ 0; 1; 2 ] in
  let _live = Topology.rooted_ring cluster ~procs:[ 2; 3; 4; 5 ] in
  let _deep = Topology.chain_into_ring cluster ~procs:[ 1; 3; 5 ] in
  let rt = Sim.rt sim and store = Sim.store sim in
  let procs = Array.to_list rt.Runtime.procs in
  let started = ref 0 in
  for _ = 1 to 30 do
    Sim.run_for sim 1_500;
    if by_hand then begin
      List.iter
        (fun p ->
          ignore (Snapshot_store.commit store (Snapshot_store.prepare store p) : Adgc_snapshot.Summary.t))
        procs;
      List.iteri
        (fun i _ -> started := !started + Adgc_dcda.Detector.scan (Sim.detector sim i))
        procs;
      List.iter
        (fun p ->
          ignore (Snapshot_store.commit store (Snapshot_store.prepare store p) : Adgc_snapshot.Summary.t))
        procs;
      List.iter (fun p -> ignore (Lgc.apply rt (Lgc.plan rt p) : Lgc.report)) procs;
      List.iter (fun p -> Reflist.send_new_sets rt p) procs
    end
    else begin
      Sim.snapshot_all sim;
      started := !started + Sim.scan_all sim;
      Sim.run_gc_cycle sim
    end
  done;
  let garbage = Sim.garbage_count sim in
  Sim.teardown sim;
  ( garbage,
    Json.to_string (Stats.to_json (Sim.stats sim)),
    Export.span_digest (Sim.obs sim),
    Oid.Set.elements (Sim.live_oids sim),
    !started )

let test_bulk_helpers_match_layered_loop () =
  let garbage_b, stats_b, spans_b, live_b, started_b = bulk_round_run ~by_hand:false in
  let garbage_h, stats_h, spans_h, live_h, started_h = bulk_round_run ~by_hand:true in
  check Alcotest.bool "detections were started" true (started_b > 0);
  check Alcotest.int "bulk rounds collected the garbage" 0 garbage_b;
  check Alcotest.int "same garbage left" garbage_h garbage_b;
  check Alcotest.int "same detections started" started_h started_b;
  check Alcotest.string "same stats" stats_h stats_b;
  check Alcotest.string "same span digest" spans_h spans_b;
  check Alcotest.(list string) "same survivors"
    (List.map Oid.to_string live_h) (List.map Oid.to_string live_b)

(* ---------------------------------------------------------------- *)
(* The in-flight-reply race (satellite of the shared-tracer move): an
   RMI reply's [target] is routing metadata — it is never imported on
   delivery — so the one ground-truth tracer must not count it live,
   while the reply's [results] genuinely travel and must stay
   pinned. *)

let test_inflight_reply_target_not_pinned () =
  let config = Config.quick ~n_procs:2 () in
  config.Config.net.Network.delivery <- Network.Manual;
  let sim = Sim.create ~config () in
  let cluster = Sim.cluster sim in
  let target = Mutator.alloc cluster ~proc:1 () in
  let result = Mutator.alloc cluster ~proc:1 () in
  let payload =
    Msg.Rmi_reply { req_id = 0; target = target.Heap.oid; results = [ result.Heap.oid ] }
  in
  Runtime.send (Sim.rt sim) ~src:(Proc_id.of_int 1) ~dst:(Proc_id.of_int 0) payload;
  check Alcotest.int "reply parked in flight" 1 (Network.in_flight_count (Sim.net sim));
  let live = Cluster.globally_live cluster in
  check Alcotest.bool "in-flight results are live" true (Oid.Set.mem result.Heap.oid live);
  check Alcotest.bool "in-flight reply target is not" false
    (Oid.Set.mem target.Heap.oid live);
  (* The refinement is real: the raw payload walk does list the
     target, so an unrefined tracer would wrongly pin it. *)
  check Alcotest.bool "naive walk would pin it" true
    (List.mem target.Heap.oid (Msg.payload_refs payload));
  Sim.teardown sim

(* ---------------------------------------------------------------- *)
(* Staleness guard on the clean poll *)

let test_clean_poll_skips_when_quiet () =
  (* No timers, one garbage object, nothing ever moves: the first
     poll computes, every later poll is a signature hit. *)
  let sim = Sim.create ~config:(Config.quick ~n_procs:2 ()) () in
  let cluster = Sim.cluster sim in
  let _garbage = Mutator.alloc cluster ~proc:0 () in
  check Alcotest.bool "never becomes clean" false
    (Sim.run_until_clean ~step:100 ~max_time:1_000 sim);
  check Alcotest.int "one real trace" 1 (Stats.get (Sim.stats sim) "sim.clean_checks");
  check Alcotest.bool "quiet polls skipped" true
    (Stats.get (Sim.stats sim) "sim.clean_checks.skipped" >= 5);
  Sim.teardown sim

let test_clean_poll_stays_correct () =
  (* With live timers the guard must not change the verdict: the ring
     is collected and the poll reports clean. *)
  let sim = Sim.create ~config:(Config.quick ~n_procs:4 ()) () in
  let _ = Topology.ring (Sim.cluster sim) ~procs:[ 0; 1; 2; 3 ] in
  Sim.start sim;
  check Alcotest.bool "converges to clean" true
    (Sim.run_until_clean ~step:1_000 ~max_time:300_000 sim);
  check Alcotest.int "clean means clean" 0 (Sim.garbage_count sim);
  check Alcotest.bool "guard engaged" true
    (Stats.get (Sim.stats sim) "sim.clean_checks" >= 1);
  Sim.teardown sim

let suite =
  ( "kernel",
    [
      Alcotest.test_case "snapshot prepare touches no shared state" `Quick
        test_prepare_touches_no_shared_state;
      Alcotest.test_case "bulk helpers match the layered loop" `Quick
        test_bulk_helpers_match_layered_loop;
      Alcotest.test_case "in-flight reply target is not pinned" `Quick
        test_inflight_reply_target_not_pinned;
      Alcotest.test_case "clean poll skips when quiet" `Quick test_clean_poll_skips_when_quiet;
      Alcotest.test_case "clean poll stays correct" `Quick test_clean_poll_stays_correct;
    ] )
