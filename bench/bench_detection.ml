(* Detection section (new in the perf harness): end-to-end
   cycle-reclamation latency, in simulated ticks, with percentiles
   drawn from the lib/obs histograms the detector feeds under
   telemetry (dcda.detection_latency: initiation tick to conclusion
   tick, per proven cycle).

   Everything but the host wall column is a pure function of the
   seed, so these are the tightest gates in the document — and the
   p99 latency carries a hard SLO ceiling: blowing past it fails
   `adgc_sim perf check` even if someone also regresses the checked-in
   baseline to match. *)

module Sim = Adgc.Sim
module Config = Adgc.Config
module Stats = Adgc_util.Stats
module Table = Adgc_util.Table
module Topology = Adgc_workload.Topology
open Bench_common

type scenario = {
  label : string;
  procs : int;
  seed : int;
  slo_p99 : float;  (* ticks *)
  build : Adgc_rt.Cluster.t -> unit;
}

let ring ~label ~span ~slo_p99 =
  {
    label;
    procs = span;
    seed = 42;
    slo_p99;
    build =
      (fun cluster ->
        ignore
          (Topology.ring ~objs_per_proc:2 cluster ~procs:(List.init span (fun i -> i))
            : Topology.built));
  }

let scenarios () =
  let base =
    [
      ring ~label:"ring4" ~span:4 ~slo_p99:2048.0;
      {
        label = "fig4";
        procs = 6;
        seed = 42;
        slo_p99 = 2048.0;
        build = (fun cluster -> ignore (Topology.fig4 cluster : Topology.built));
      };
    ]
  in
  if smoke () then base else base @ [ ring ~label:"ring8" ~span:8 ~slo_p99:4096.0 ]

let run_scenario s =
  let config = { (Config.quick ~seed:s.seed ~n_procs:s.procs ()) with Config.telemetry = true } in
  let sim = Sim.create ~config () in
  s.build (Sim.cluster sim);
  Sim.start sim;
  let clean, wall = wall_ms (fun () -> Sim.run_until_clean ~step:500 ~max_time:600_000 sim) in
  let stats = Sim.stats sim in
  let pcts =
    match Adgc_obs.Export.percentiles ~ps:[ 50.0; 99.0 ] stats "dcda.detection_latency" with
    | Some [ (_, p50); (_, p99) ] -> Some (p50, p99)
    | Some _ | None -> None
  in
  let cycles = Stats.get stats "dcda.cycles_found" in
  let cdms = Stats.get stats "net.msg.sent.cdm" in
  let ticks = Sim.now sim in
  Sim.teardown sim;
  (clean, ticks, pcts, cycles, cdms, wall)

(* ------------------------------------------------------------------ *)
(* Incremental candidate maintenance: the detection.incremental series.

   Two workload shapes from the paper experiments: E6 (one distributed
   cycle around a ring — sparse, insert-only churn, the incremental
   maintainer's best case) and E18 (a dense garbage clique — every
   wire lands in an already-labelled region, the audit's stress
   case).  The deterministic columns gate the maintainer's work
   profile (events handled, eager BFS edges, deferred rebuilds, audit
   agreement) and the timing column tracks the run's wall cost. *)

let clique ~procs ~per_proc cluster =
  let module Mutator = Adgc_rt.Mutator in
  let module Heap = Adgc_rt.Heap in
  let module Cluster = Adgc_rt.Cluster in
  let objs =
    Array.init procs (fun p -> Array.init per_proc (fun _ -> Mutator.alloc cluster ~proc:p ()))
  in
  Array.iteri
    (fun p row ->
      Array.iter
        (fun o ->
          Array.iteri
            (fun q row' ->
              Array.iter
                (fun o' ->
                  if o != o' then
                    if p = q then
                      ignore
                        (Heap.add_ref (Cluster.proc cluster p).Adgc_rt.Process.heap o o'.Heap.oid
                          : int)
                    else Mutator.wire_remote cluster ~holder:o ~target:o')
                row')
            objs)
        row)
    objs

type inc_scenario = { ilabel : string; iprocs : int; ibuild : Adgc_rt.Cluster.t -> unit }

let inc_scenarios () =
  let e6 =
    {
      ilabel = "e6_ring6";
      iprocs = 6;
      ibuild =
        (fun cluster ->
          ignore
            (Topology.ring ~objs_per_proc:2 cluster ~procs:(List.init 6 (fun i -> i))
              : Topology.built);
          (* A rooted component besides the garbage ring: root and edge
             inserts land inside the region, so the eager label path
             (grow_from / flips) does measurable work instead of the
             whole workload degenerating to an empty region. *)
          ignore (Topology.rooted_ring cluster ~procs:[ 0; 1; 2 ] : Topology.built));
    }
  in
  let e18 = { ilabel = "e18_k4"; iprocs = 2; ibuild = clique ~procs:2 ~per_proc:2 } in
  if smoke () then [ e6 ] else [ e6; e18 ]

let run_inc s =
  let config = { (Config.quick ~seed:42 ~n_procs:s.iprocs ()) with Config.telemetry = true } in
  let sim = Sim.create ~config () in
  s.ibuild (Sim.cluster sim);
  Sim.start sim;
  let clean, wall = wall_ms (fun () -> Sim.run_until_clean ~step:500 ~max_time:600_000 sim) in
  let stats = Sim.stats sim in
  let get k = Stats.get stats ("dcda.candidates." ^ k) in
  let counters =
    ( get "events",
      get "flips",
      get "grow_edges",
      get "rebuilds",
      get "audits",
      get "audit_mismatch" )
  in
  let ticks = Sim.now sim in
  Sim.teardown sim;
  (clean, ticks, counters, wall)

let run_incremental recorder =
  section "detection.incremental: candidate-label maintenance";
  let rows =
    List.map
      (fun s ->
        let clean, ticks, (events, flips, grow_edges, rebuilds, audits, mismatches), wall =
          run_inc s
        in
        let config = [ "detection.incremental"; s.ilabel; string_of_int s.iprocs; "42" ] in
        let d name v =
          det recorder ~section:"detection"
            ~name:(Printf.sprintf "detection.incremental.%s.%s" s.ilabel name)
            ~unit_:"count" ~config (float_of_int v)
        in
        det recorder ~section:"detection"
          ~name:(Printf.sprintf "detection.incremental.%s.time_to_clean_ticks" s.ilabel)
          ~unit_:"ticks" ~config (float_of_int ticks);
        d "events" events;
        d "label_flips" flips;
        d "grow_edges" grow_edges;
        d "rebuilds" rebuilds;
        d "audits" audits;
        det recorder ~section:"detection"
          ~name:(Printf.sprintf "detection.incremental.%s.audit_mismatch" s.ilabel)
          ~unit_:"count" ~slo:0.0 ~config (float_of_int mismatches);
        timing recorder ~section:"detection"
          ~name:(Printf.sprintf "detection.incremental.%s.wall_ms" s.ilabel)
          ~unit_:"ms" ~config [ wall ];
        [
          s.ilabel;
          (if clean then Printf.sprintf "%d ticks" ticks else "NOT RECLAIMED");
          string_of_int events;
          string_of_int flips;
          string_of_int grow_edges;
          string_of_int rebuilds;
          Printf.sprintf "%d/%d" mismatches audits;
          Printf.sprintf "%.1f ms" wall;
        ])
      (inc_scenarios ())
  in
  Table.print
    ~header:
      [
        "workload";
        "time to clean";
        "events";
        "flips";
        "BFS edges";
        "rebuilds";
        "mismatch/audits";
        "wall";
      ]
    ~rows ();
  print_endline "the maintainer's work is deterministic (events, eager BFS edges, deferred";
  print_endline "rebuilds) and the audit duty must agree with the full scan every time it";
  print_endline "fires (mismatch gate 0)"

let run recorder =
  section "detection: end-to-end cycle-reclamation latency (obs histograms)";
  let rows =
    List.map
      (fun s ->
        let clean, ticks, pcts, cycles, cdms, wall = run_scenario s in
        let p50, p99 = match pcts with Some (a, b) -> (a, b) | None -> (Float.nan, Float.nan) in
        let config =
          [ "detection"; s.label; string_of_int s.procs; string_of_int s.seed ]
        in
        det recorder ~section:"detection"
          ~name:(Printf.sprintf "detection.%s.time_to_clean_ticks" s.label)
          ~unit_:"ticks" ~config (float_of_int ticks);
        det recorder ~section:"detection"
          ~name:(Printf.sprintf "detection.%s.dcda.detection_latency.p50" s.label)
          ~unit_:"ticks" ~config p50;
        det recorder ~section:"detection"
          ~name:(Printf.sprintf "detection.%s.dcda.detection_latency.p99" s.label)
          ~unit_:"ticks" ~slo:s.slo_p99 ~config p99;
        det recorder ~section:"detection"
          ~name:(Printf.sprintf "detection.%s.cycles_found" s.label)
          ~unit_:"cycles" ~direction:Sample.Higher_better ~config (float_of_int cycles);
        det recorder ~section:"detection"
          ~name:(Printf.sprintf "detection.%s.cdms_per_cycle" s.label)
          ~unit_:"msgs" ~config
          (float_of_int cdms /. float_of_int (Int.max 1 cycles));
        timing recorder ~section:"detection"
          ~name:(Printf.sprintf "detection.%s.wall_ms" s.label)
          ~unit_:"ms" ~config [ wall ];
        [
          s.label;
          (if clean then Printf.sprintf "%d ticks" ticks else "NOT RECLAIMED");
          Printf.sprintf "%.0f" p50;
          Printf.sprintf "%.0f (SLO %.0f)" p99 s.slo_p99;
          string_of_int cycles;
          string_of_int cdms;
          Printf.sprintf "%.1f ms" wall;
        ])
      (scenarios ())
  in
  Table.print
    ~header:
      [ "scenario"; "time to clean"; "latency p50"; "latency p99"; "cycles"; "CDMs"; "host wall" ]
    ~rows ();
  print_endline "latencies are simulated ticks from the dcda.detection_latency histogram";
  print_endline "(initiation to conclusion per proven cycle), so the p50/p99 gates are";
  print_endline "machine-independent; only the host-wall column is timing-class";
  run_incremental recorder
