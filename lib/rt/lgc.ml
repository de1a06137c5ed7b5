open Adgc_algebra
module Stats = Adgc_util.Stats

type report = { live : int; swept : int; stubs_live : int; stubs_dropped : int }

type plan = {
  plan_proc : Process.t;
  doomed : Oid.t list;
  stubs_dropped : int;
}

(* One byte per dense id, set when this run's trace reaches the
   object.  Shared by every process's collection (they run one at a
   time) and only ever grown, so a steady-state run allocates no
   marks. *)
let reached = ref Bytes.empty

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
  let n = Heap.dense_sync heap in
  if Bytes.length !reached < n then
    reached := Bytes.create (Int.max n (2 * Bytes.length !reached));
  let marks = !reached in
  Bytes.fill marks 0 n '\000';
  (* Stub liveness: the trace reports each remote reference once. *)
  Stub_table.mark_all_dead p.Process.stubs;
  Heap.trace_dense heap ~from
    ~visit_local:(fun id -> Bytes.unsafe_set marks id '\001')
    ~visit_remote:(Stub_table.mark_live p.Process.stubs);
  let dropped = Stub_table.sweep p.Process.stubs in
  let objects_marked bit =
    let acc = ref [] in
    Heap.iter_dense heap (fun id obj ->
        if Bytes.unsafe_get marks id = bit then acc := obj.Heap.oid :: !acc);
    List.sort Oid.compare !acc
  in
  (* Report the trace to the paged store, if any: a full collection
     touches every live object, in ascending order (experiment E17). *)
  (match p.Process.pstore with
  | Some store -> List.iter (Pstore.touch store) (objects_marked '\001')
  | None -> ());
  (* Live dense ids left unmarked are garbage.  Dense-id order follows
     the interner's compaction history (which the oracle's own syncs
     shift), so the sweep runs in [Oid] order instead: the same
     schedule whether or not anything else traced this heap. *)
  { plan_proc = p; doomed = objects_marked '\000'; stubs_dropped = List.length dropped }

(* Effect phase: the pre-sweep hook, the sweep itself, stats, spans
   and the reclamation hooks. *)
let apply rt { plan_proc = p; doomed; stubs_dropped } =
  Stats.incr rt.Runtime.stats "lgc.runs";
  Stats.add rt.Runtime.stats "dgc.stubs.dropped" stubs_dropped;
  let heap = p.Process.heap and id = p.Process.id in
  (match rt.Runtime.on_pre_sweep with
  | Some f when doomed <> [] -> f id doomed
  | Some _ | None -> ());
  let swept = List.length doomed in
  if swept > 0 then Stats.add rt.Runtime.stats "lgc.swept" swept;
  List.iter
    (fun oid ->
      Heap.remove heap oid;
      (match p.Process.pstore with Some store -> Pstore.forget store oid | None -> ());
      (match rt.Runtime.on_reclaim with Some f -> f id oid | None -> ());
      Runtime.log rt ~topic:"lgc" (fun ppf ->
          Format.fprintf ppf "%a swept %a" Proc_id.pp id Oid.pp oid))
    doomed;
  let report =
    {
      live = Heap.size heap;
      swept;
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
