(* Deterministic replay: the same seed and scenario must reproduce the
   exact same run — byte-identical metrics JSON and an identical span
   digest — across detectors and fault profiles.  This pins down both
   the simulator's determinism and the exporters' stability (sorted
   keys, canonical float rendering, no wall-clock leakage).  Two
   workloads feed it: timer-driven churn, and timers interleaved with
   the explicit bulk helpers ([Sim.snapshot_all], [Sim.scan_all],
   [Sim.run_gc_cycle]). *)

module Sim = Adgc.Sim
module Config = Adgc.Config
module Faults = Adgc_rt.Faults
module Export = Adgc_obs.Export
module Json = Adgc_util.Json
open Adgc_workload

let check = Alcotest.check

type workload = Churn_run | Bulk_run

(* [Churn_run]: a garbage ring, a live ring and seeded mutator churn under
   the timers.  [Bulk_run]: a garbage ring, a live ring and a chain into
   it, with four explicit bulk rounds between timer stretches. *)
let run_sim ?(workload = Churn_run) ~seed ~detector ~faulty () =
  let n_procs = 6 in
  let config = Config.quick ~seed ~n_procs () in
  let faults =
    match (faulty, workload) with
    | false, _ -> Faults.none
    | true, Churn_run -> Faults.plan_of_profile ~n_procs Faults.Loss_burst
    | true, Bulk_run -> Faults.plan_of_profile ~start:1_000 ~stop:4_000 ~n_procs Faults.Loss_burst
  in
  let config = { config with Config.detector; faults; telemetry = true } in
  let sim = Sim.create ~config () in
  let cluster = Sim.cluster sim in
  let _garbage = Topology.ring cluster ~procs:[ 0; 1; 2 ] in
  (match workload with
  | Churn_run ->
      let _live = Topology.rooted_ring cluster ~procs:[ 3; 4 ] in
      let churn = Churn.create ~cluster ~rng:(Adgc_util.Rng.create ((seed * 7) + 1)) () in
      Churn.run churn ~steps:200 ~every:23;
      Sim.start sim;
      Sim.run_for sim 20_000
  | Bulk_run ->
      let _live = Topology.rooted_ring cluster ~procs:[ 2; 3; 4; 5 ] in
      let _deep = Topology.chain_into_ring cluster ~procs:[ 1; 3; 5 ] in
      Sim.start sim;
      for _ = 1 to 4 do
        Sim.run_for sim 1_500;
        Sim.snapshot_all sim;
        ignore (Sim.scan_all sim : int);
        Sim.run_gc_cycle sim
      done);
  Sim.teardown sim;
  sim

let run_once ?workload ~seed ~detector ~faulty () =
  let sim = run_sim ?workload ~seed ~detector ~faulty () in
  let metrics = Json.to_string (Export.metrics_document (Sim.stats sim)) in
  let digest = Export.span_digest (Sim.obs sim) in
  (metrics, digest)

let detector_name = function
  | Config.Dcda -> "dcda"
  | Config.Backtrack -> "backtrack"
  | Config.Hughes_gc | Config.No_detector -> "other"

let test_replay_identical () =
  List.iter
    (fun (wname, workload, seeds) ->
      List.iter
        (fun detector ->
          List.iter
            (fun faulty ->
              List.iter
                (fun seed ->
                  let label =
                    Printf.sprintf "%s/%s/%s/seed=%d" wname (detector_name detector)
                      (if faulty then "bursty" else "no-faults")
                      seed
                  in
                  let m1, d1 = run_once ~workload ~seed ~detector ~faulty () in
                  let m2, d2 = run_once ~workload ~seed ~detector ~faulty () in
                  check Alcotest.string (label ^ ": metrics JSON") m1 m2;
                  check Alcotest.string (label ^ ": span digest") d1 d2)
                seeds)
            [ false; true ])
        [ Config.Dcda; Config.Backtrack ])
    [ ("churn", Churn_run, [ 3; 17; 42 ]); ("bulk", Bulk_run, [ 7; 21 ]) ]

let test_seeds_actually_differ () =
  (* Guard against a trivially-constant export: different seeds must
     produce different runs. *)
  let m1, _ = run_once ~seed:3 ~detector:Config.Dcda ~faulty:false () in
  let m2, _ = run_once ~seed:17 ~detector:Config.Dcda ~faulty:false () in
  check Alcotest.bool "seeds produce distinct metrics" false (String.equal m1 m2)

(* The DCDA's scan source is the maintained candidate label set; the
   audit duty re-derives it from a full root trace on its own timer.
   Across every DCDA replay scenario, clean and bursty, the audit must
   have run and never disagreed with the labels. *)
let test_candidate_audits_clean () =
  List.iter
    (fun (wname, workload, seeds) ->
      List.iter
        (fun faulty ->
          List.iter
            (fun seed ->
              let label =
                Printf.sprintf "%s/%s/seed=%d" wname
                  (if faulty then "bursty" else "no-faults")
                  seed
              in
              let stats = Sim.stats (run_sim ~workload ~seed ~detector:Config.Dcda ~faulty ()) in
              check Alcotest.bool (label ^ ": audits ran") true
                (Adgc_util.Stats.get stats "dcda.candidates.audits" > 0);
              check Alcotest.int (label ^ ": no audit mismatch") 0
                (Adgc_util.Stats.get stats "dcda.candidates.audit_mismatch"))
            seeds)
        [ false; true ])
    [ ("churn", Churn_run, [ 3; 17; 42 ]); ("bulk", Bulk_run, [ 7; 21 ]) ]

let suite =
  ( "replay",
    [
      Alcotest.test_case "same seed, same bytes (20 scenarios)" `Quick test_replay_identical;
      Alcotest.test_case "different seeds, different runs" `Quick test_seeds_actually_differ;
      Alcotest.test_case "candidate audits clean (10 scenarios)" `Quick
        test_candidate_audits_clean;
    ] )
