open Adgc_algebra
open Adgc_rt
module Detector = Adgc_dcda.Detector
module Backtrack = Adgc_baseline.Backtrack
module Snapshot_store = Adgc_snapshot.Snapshot_store

type detectors =
  | Dcda_instances of Detector.t array
  | Bt_instances of Backtrack.t array
  | Nothing

type t = {
  config : Config.t;
  cluster : Cluster.t;
  store : Snapshot_store.t;
  detectors : detectors;
  mutable hughes : Adgc_baseline.Hughes.t option;
  mutable handles : Scheduler.recurring list;
  mutable lanes : Scheduler.lane list;
}

let create ?config () =
  let config = match config with Some c -> c | None -> Config.default () in
  let cluster =
    Cluster.create ~seed:config.Config.seed ~config:config.Config.runtime
      ~net_config:config.Config.net ~faults:config.Config.faults
      ~telemetry:config.Config.telemetry ~n:config.Config.n_procs ()
  in
  let rt = Cluster.rt cluster in
  let store =
    Snapshot_store.create ~codec:config.Config.codec ~algo:config.Config.summarize rt
  in
  let detectors =
    match config.Config.detector with
    | Config.Dcda ->
        let arr =
          Array.map (fun p -> Detector.attach rt p ~policy:config.Config.policy) rt.Runtime.procs
        in
        Snapshot_store.subscribe store (fun summary ->
            let i = Proc_id.to_int summary.Adgc_snapshot.Summary.proc in
            Detector.set_summary arr.(i) summary);
        Dcda_instances arr
    | Config.Backtrack ->
        let arr =
          Array.map (fun p -> Backtrack.attach ~timeout:config.Config.bt_timeout rt p) rt.Runtime.procs
        in
        Snapshot_store.subscribe store (fun summary ->
            let i = Proc_id.to_int summary.Adgc_snapshot.Summary.proc in
            Backtrack.set_summary arr.(i) summary);
        Bt_instances arr
    | Config.Hughes_gc | Config.No_detector -> Nothing
  in
  { config; cluster; store; detectors; hughes = None; handles = []; lanes = [] }

let config t = t.config

let cluster t = t.cluster

let rt t = Cluster.rt t.cluster

let net t = Cluster.net t.cluster

let store t = t.store

let detector t i =
  match t.detectors with
  | Dcda_instances arr -> arr.(i)
  | Bt_instances _ | Nothing -> invalid_arg "Sim.detector: not running the DCDA"

let backtracker t i =
  match t.detectors with
  | Bt_instances arr -> arr.(i)
  | Dcda_instances _ | Nothing -> invalid_arg "Sim.backtracker: not running the baseline"

let stats t = Cluster.stats t.cluster

let trace t = Cluster.trace t.cluster

let now t = Cluster.now t.cluster

let run_for t delay = Cluster.run_for t.cluster delay

let snapshot_all t = Snapshot_store.take_all t.store

let scan_one t i =
  match t.detectors with
  | Dcda_instances arr -> Detector.scan arr.(i)
  | Bt_instances arr -> Backtrack.scan arr.(i) ~idle_threshold:t.config.Config.bt_idle_threshold
  | Nothing -> 0

(* The audit duty body: full-scan re-derivation of process [i]'s
   candidate labels.  Runs under every mode (the stats it writes must
   not depend on the mode) but only for the DCDA — the baselines have
   no candidate pipeline to audit. *)
let maintain_one t i =
  match t.detectors with
  | Dcda_instances arr -> ignore (Detector.audit_candidates arr.(i) : bool)
  | Bt_instances _ | Nothing -> ()

let kernel_ctx t =
  {
    Kernel.rt = rt t;
    store = t.store;
    scan_proc = (fun i -> scan_one t i);
    maintain_proc = (fun i -> maintain_one t i);
  }

let scan_all t =
  let n = Cluster.n_procs t.cluster in
  let rec go i acc = if i >= n then acc else go (i + 1) (acc + scan_one t i) in
  go 0 0

let start t =
  if t.lanes = [] && t.handles = [] then begin
    Cluster.start_gc t.cluster;
    (match (t.config.Config.detector, t.hughes) with
    | Config.Hughes_gc, None -> t.hughes <- Some (Adgc_baseline.Hughes.install t.cluster)
    | (Config.Hughes_gc | Config.Dcda | Config.Backtrack | Config.No_detector), _ -> ());
    let sched = Cluster.sched t.cluster in
    let n = Cluster.n_procs t.cluster in
    let policy = t.config.Config.policy in
    let ctx = kernel_ctx t in
    (* One scheduler lane per duty kind: member fire instants are the
       same [1 + i*period/n] staggering as before, but the global
       event queue carries three entries instead of [3n] — at 1k+
       processes that is most of the scheduler's heap pressure. *)
    let duty period mk =
      Scheduler.lane sched ~n
        ~phase_of:(fun i -> 1 + (i * period / n))
        ~period
        (fun i ->
          if (Cluster.proc t.cluster i).Process.alive then Kernel.run_duty ctx (mk i))
    in
    t.lanes <-
      [
        duty policy.Adgc_dcda.Policy.snapshot_period (fun i -> Kernel.Snapshot i);
        duty policy.Adgc_dcda.Policy.scan_period (fun i -> Kernel.Scan i);
        duty policy.Adgc_dcda.Policy.candidate_audit_period (fun i ->
            Kernel.Maintain_candidates i);
      ]
  end

let stop t =
  List.iter Scheduler.cancel t.handles;
  t.handles <- [];
  List.iter Scheduler.cancel_lane t.lanes;
  t.lanes <- [];
  (match t.hughes with
  | Some h ->
      Adgc_baseline.Hughes.stop h;
      t.hughes <- None
  | None -> ());
  Cluster.stop_gc t.cluster

let teardown t =
  stop t;
  Cluster.teardown t.cluster

let obs t = Cluster.obs t.cluster

let lineage t = Cluster.lineage t.cluster

let run_gc_cycle t =
  snapshot_all t;
  let rt = rt t in
  ignore (Lgc.collect_all rt : Lgc.report list);
  Array.iter (fun p -> Reflist.send_new_sets rt p) rt.Runtime.procs

let reports t =
  match t.detectors with
  | Dcda_instances arr ->
      Array.to_list arr
      |> List.concat_map Detector.reports
      |> List.sort (fun a b ->
             Int.compare a.Adgc_dcda.Report.concluded_time b.Adgc_dcda.Report.concluded_time)
  | Bt_instances _ | Nothing -> []

let garbage_count t = Cluster.garbage_count t.cluster

let live_oids t = Cluster.globally_live t.cluster

(* Staleness signature for [run_until_clean].  The poll only waits for
   one transition — the garbage count reaching zero — so the signature
   need only move when garbage can have been {e reclaimed}, not on
   every reachability-relevant change.  Per-heap we therefore fold
   [Heap.reclaim_mutations] (sweeps and reattachments), not
   [Heap.mutations]: local-only churn that can merely {e create}
   garbage (allocation, reference clears, root drops) leaves a cached
   nonzero count conservatively stale, which is sound because a
   nonzero answer keeps the poll running either way.  Aliveness still
   matters both ways (a crash orphans a dead process's objects out of
   the ground truth), so crash/restart counts stay in, as do the
   sent+delivered+dropped counts for every ref-carrying message kind
   (each in-flight message bumps "sent" on entering the window and
   exactly one of the other two on leaving it, so any change to the
   in-flight set changes the sum). *)
let ref_carrying_kinds = Cluster.ref_carrying_kinds

let reach_signature t =
  let rt = rt t in
  let stats = Cluster.stats t.cluster in
  let acc = ref 0 in
  Array.iter (fun p -> acc := !acc + Heap.reclaim_mutations p.Process.heap) rt.Runtime.procs;
  acc := !acc + Adgc_util.Stats.get stats "cluster.crashes";
  acc := !acc + Adgc_util.Stats.get stats "cluster.restarts";
  List.iter
    (fun kind ->
      List.iter
        (fun ev -> acc := !acc + Adgc_util.Stats.get stats ("net.msg." ^ ev ^ "." ^ kind))
        [ "sent"; "delivered"; "dropped" ])
    ref_carrying_kinds;
  !acc

let run_until_clean ?(step = 1_000) ?(max_time = 2_000_000) t =
  let stats = Cluster.stats t.cluster in
  let last_sig = ref (-1) in
  let last_count = ref max_int in
  let current_garbage () =
    let s = reach_signature t in
    if s = !last_sig then begin
      Adgc_util.Stats.incr stats "sim.clean_checks.skipped";
      !last_count
    end
    else begin
      Adgc_util.Stats.incr stats "sim.clean_checks";
      let c = garbage_count t in
      last_sig := s;
      last_count := c;
      c
    end
  in
  let rec go () =
    if current_garbage () = 0 then true
    else if now t >= max_time then false
    else begin
      run_for t step;
      go ()
    end
  in
  go ()
