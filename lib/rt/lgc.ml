open Adgc_algebra
module Stats = Adgc_util.Stats

type report = { live : int; swept : int; stubs_live : int; stubs_dropped : int }

type plan = {
  plan_proc : Process.t;
  doomed : Oid.t list;
  stubs_dropped : int;
}

(* Pure-ish per-process phase: trace from roots + protected scions,
   refresh stub liveness, and decide what to sweep.  Mutates only
   [p]'s own state (its stub table, its paged store's clocks), never a
   shared sink or another process.  The heap itself is not touched:
   sweeping happens in {!apply}, after the pre-sweep hook (the
   whole-system oracle reads every heap there). *)
let plan _rt (p : Process.t) =
  let heap = p.Process.heap in
  let from =
    (* Gauntlet mutant: forgetting that scions are GC roots reclaims
       anything only remote holders can reach. *)
    if Adgc_util.Mc_mutate.enabled "lgc_ignores_scions" then Heap.roots heap
    else Heap.roots heap @ Scion_table.protected_targets p.Process.scions
  in
  let { Heap.local = live_set; remote } = Heap.trace heap ~from in
  (* Report the trace to the paged store, if any: a full collection
     touches every live object (experiment E17). *)
  (match p.Process.pstore with
  | Some store -> Oid.Set.iter (Pstore.touch store) live_set
  | None -> ());
  (* Stub liveness. *)
  Stub_table.mark_all_dead p.Process.stubs;
  Oid.Set.iter (Stub_table.mark_live p.Process.stubs) remote;
  let dropped = Stub_table.sweep p.Process.stubs in
  let doomed =
    Heap.fold heap ~init:[] ~f:(fun acc obj ->
        if Oid.Set.mem obj.Heap.oid live_set then acc else obj.Heap.oid :: acc)
  in
  { plan_proc = p; doomed; stubs_dropped = List.length dropped }

(* Effect phase: the pre-sweep hook, the sweep itself, stats, spans
   and the reclamation hooks. *)
let apply rt { plan_proc = p; doomed; stubs_dropped } =
  Stats.incr rt.Runtime.stats "lgc.runs";
  Stats.add rt.Runtime.stats "dgc.stubs.dropped" stubs_dropped;
  let heap = p.Process.heap in
  (match rt.Runtime.on_pre_sweep with
  | Some f when doomed <> [] -> f p.Process.id doomed
  | Some _ | None -> ());
  List.iter
    (fun oid ->
      Heap.remove heap oid;
      (match p.Process.pstore with Some store -> Pstore.forget store oid | None -> ());
      Stats.incr rt.Runtime.stats "lgc.swept";
      (match rt.Runtime.on_reclaim with Some f -> f p.Process.id oid | None -> ());
      Runtime.log rt ~topic:"lgc" "%a swept %a" Proc_id.pp p.Process.id Oid.pp oid)
    doomed;
  let report =
    {
      live = Heap.size heap;
      swept = List.length doomed;
      stubs_live = Stub_table.size p.Process.stubs;
      stubs_dropped;
    }
  in
  if Adgc_obs.Span.enabled rt.Runtime.obs then
    ignore
      (Adgc_obs.Span.event rt.Runtime.obs
         ~time:(Scheduler.now rt.Runtime.sched)
         ~parent:rt.Runtime.run_span
         ~proc:(Proc_id.to_int p.Process.id)
         ~args:
           [ ("live", string_of_int report.live); ("swept", string_of_int report.swept) ]
         ~kind:Adgc_obs.Span.Lgc_sweep
         (Printf.sprintf "lgc %s" (Proc_id.to_string p.Process.id))
        : int);
  report

let run rt p = apply rt (plan rt p)

let collect_all rt = Array.to_list (Array.map (run rt) rt.Runtime.procs)
