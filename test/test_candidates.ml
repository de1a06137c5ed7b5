(* The incremental candidate maintainer checked against the full-scan
   oracle:

   - a QCheck property drives a small cluster through arbitrary
     scripted heap/scion churn — edge inserts and cuts, root flips,
     remote wiring, local collections — and asserts after EVERY step
     that {!Adgc_dcda.Candidates.audit} agrees with an independent
     full root trace (label exactness is an invariant, not an
     eventually-property);
   - a QCheck property runs the DCDA under churn, message loss and
     crash/restart and checks, at every summary publish, that the
     detector's scan source ({!Adgc_dcda.Candidates.published}) is
     exactly the summary's not-locally-reachable scions;
   - a sim-level matrix (3 seeds x {dcda, backtrack-coexistence})
     runs the real churn workload under timers and audits at
     checkpoints, proving the maintainer stays exact while an actual
     detector (or the backtracking baseline it merely coexists with)
     mutates heaps, scion tables and crash-prone schedules. *)

open Adgc_algebra
open Adgc_rt
module Sim = Adgc.Sim
module Config = Adgc.Config
module Candidates = Adgc_dcda.Candidates
module Detector = Adgc_dcda.Detector
module Rng = Adgc_util.Rng

let check = Alcotest.check

let fail_mismatch ~label i (only_inc, only_scan) =
  Alcotest.failf "%s: P%d candidate labels diverged (%d incremental-only, %d scan-only)" label
    i
    (Ref_key.Set.cardinal only_inc)
    (Ref_key.Set.cardinal only_scan)

let audit_all ~label maintainers =
  List.iteri
    (fun i c ->
      match Candidates.audit c with
      | None -> ()
      | Some diff -> fail_mismatch ~label i diff)
    maintainers

(* ------------------------------------------------------------------ *)
(* Property: label exactness under arbitrary churn scripts.

   Ops are abstract (tag + integer parameters) and resolved against
   the current cluster state by index, so any generated script is
   applicable and QCheck shrinking stays meaningful.  The property
   audits every process after every op: the incremental candidate set
   must equal the scan-derived one in every intermediate state. *)

type op =
  | Alloc of int  (** proc *)
  | Add_root of int * int  (** proc, object pick *)
  | Remove_root of int * int  (** proc, root pick *)
  | Link of int * int * int  (** proc, holder pick, target pick *)
  | Cut of int * int  (** proc, holder pick: clear its first Some field *)
  | Wire of int * int * int * int  (** holder proc, holder pick, target proc, target pick *)
  | Unwire of int * int  (** holder proc, stub pick *)
  | Collect of int  (** proc *)

let n_procs = 3

let gen_op =
  let open QCheck2.Gen in
  let proc = int_bound (n_procs - 1) in
  let pick = int_bound 31 in
  frequency
    [
      (4, map (fun p -> Alloc p) proc);
      (2, map2 (fun p k -> Add_root (p, k)) proc pick);
      (2, map2 (fun p k -> Remove_root (p, k)) proc pick);
      (4, map3 (fun p a b -> Link (p, a, b)) proc pick pick);
      (3, map2 (fun p a -> Cut (p, a)) proc pick);
      (3, map (fun (p, a, q, k) -> Wire (p, a, q, k)) (quad proc pick proc pick));
      (2, map2 (fun p k -> Unwire (p, k)) proc pick);
      (1, map (fun p -> Collect p) proc);
    ]

let gen_script = QCheck2.Gen.(list_size (int_range 1 60) gen_op)

let nth_mod l k = match l with [] -> None | _ -> List.nth_opt l (k mod List.length l)

let objs (p : Process.t) =
  Heap.fold p.Process.heap ~init:[] ~f:(fun acc o -> o :: acc)
  |> List.sort (fun (a : Heap.obj) b -> Oid.compare a.Heap.oid b.Heap.oid)

let apply_op cluster op =
  let rt = Cluster.rt cluster in
  match op with
  | Alloc p -> ignore (Heap.alloc (Cluster.proc cluster p).Process.heap : Heap.obj)
  | Add_root (p, k) -> (
      let heap = (Cluster.proc cluster p).Process.heap in
      match nth_mod (objs (Cluster.proc cluster p)) k with
      | Some o -> Heap.add_root heap o.Heap.oid
      | None -> ())
  | Remove_root (p, k) -> (
      let heap = (Cluster.proc cluster p).Process.heap in
      match nth_mod (Heap.roots heap |> List.sort Oid.compare) k with
      | Some r -> Heap.remove_root heap r
      | None -> ())
  | Link (p, a, b) -> (
      let proc = Cluster.proc cluster p in
      match (nth_mod (objs proc) a, nth_mod (objs proc) b) with
      | Some holder, Some target when not (Oid.equal holder.Heap.oid target.Heap.oid) ->
          ignore (Heap.add_ref proc.Process.heap holder target.Heap.oid : int)
      | _ -> ())
  | Cut (p, a) -> (
      let proc = Cluster.proc cluster p in
      match nth_mod (objs proc) a with
      | Some holder -> (
          let first_some = ref None in
          Array.iteri
            (fun slot f -> if f <> None && !first_some = None then first_some := Some slot)
            holder.Heap.fields;
          match !first_some with
          | Some slot -> Heap.set_field proc.Process.heap holder slot None
          | None -> ())
      | None -> ())
  | Wire (p, a, q, b) -> (
      if p = q then ()
      else
        let pp = Cluster.proc cluster p and pq = Cluster.proc cluster q in
        match (nth_mod (objs pp) a, nth_mod (objs pq) b) with
        | Some holder, Some target -> Mutator.wire_remote cluster ~holder ~target
        | _ -> ())
  | Unwire (p, k) -> (
      let proc = Cluster.proc cluster p in
      let stubs =
        Stub_table.entries proc.Process.stubs
        |> List.map (fun (e : Stub_table.entry) -> e.Stub_table.target)
        |> List.sort Oid.compare
      in
      match nth_mod stubs k with
      | Some target -> (
          let holder =
            List.find_opt
              (fun (o : Heap.obj) ->
                Array.exists (function Some f -> Oid.equal f target | None -> false) o.Heap.fields)
              (objs proc)
          in
          match holder with
          | Some h -> ignore (Heap.remove_ref proc.Process.heap h target : bool)
          | None -> ())
      | None -> ())
  | Collect p -> ignore (Lgc.run rt (Cluster.proc cluster p) : Lgc.report)

let prop_script_parity script =
  let config = { (Config.quick ~seed:7 ~n_procs ()) with Config.detector = Config.No_detector } in
  let sim = Sim.create ~config () in
  let cluster = Sim.cluster sim in
  let maintainers =
    List.init n_procs (fun i ->
        Candidates.attach ~stats:(Sim.stats sim) (Cluster.proc cluster i))
  in
  (* A root per process so collections don't empty the world at once. *)
  List.iter
    (fun i ->
      let o = Mutator.alloc cluster ~proc:i () in
      Mutator.add_root cluster o)
    [ 0; 1; 2 ];
  let ok = ref true in
  List.iter
    (fun op ->
      apply_op cluster op;
      List.iter (fun c -> if Candidates.audit c <> None then ok := false) maintainers)
    script;
  Sim.teardown sim;
  !ok

let test_property_parity =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"incremental labels == full scan after every churn op" ~count:120
       gen_script prop_script_parity)

(* ------------------------------------------------------------------ *)
(* Property: the scan source matches every published summary.

   The detector seeds its scans from {!Candidates.published}, the set
   frozen at each summary publish.  Whatever the run does — churn,
   message loss, a crash and restart — that set must equal the
   ascending keys of the published summary's scions whose target is
   not locally reachable: exactly what a walk over the summary would
   pick.  The store calls the latest subscriber first, so this
   subscriber runs just before the detector takes the new summary: it
   checks the pair the previous publish left, and the last pair is
   checked at the end. *)

let summary_candidates summary =
  List.filter_map
    (fun (si : Adgc_snapshot.Summary.scion_info) ->
      if si.Adgc_snapshot.Summary.target_locally_reachable then None
      else Some si.Adgc_snapshot.Summary.key)
    (Adgc_snapshot.Summary.scion_list summary)
  |> List.sort Ref_key.compare

let gen_publish_run =
  QCheck2.Gen.(
    quad (int_bound 999) (oneofl [ 0.0; 0.03; 0.1 ]) bool (int_range 2_000 8_000))

let print_publish_run (seed, loss, crash, at) =
  Printf.sprintf "seed=%d loss=%.2f crash=%b at=%d" seed loss crash at

let prop_published_matches_summary (seed, loss, crash, at) =
  let procs = 4 in
  let config = Config.quick ~seed ~n_procs:procs () in
  config.Config.net.Network.drop_prob <- loss;
  let faults =
    if crash then
      Faults.plan_of_profile ~start:at ~stop:(at + 6_000) ~n_procs:procs Faults.Crash_restart
    else Faults.none
  in
  let sim = Sim.create ~config:{ config with Config.faults } () in
  let cluster = Sim.cluster sim in
  let checked = ref 0 and ok = ref true in
  let check_proc i =
    let d = Sim.detector sim i in
    match Detector.summary d with
    | None -> ()
    | Some summary ->
        incr checked;
        if summary_candidates summary <> Candidates.published (Detector.candidates d) then
          ok := false
  in
  Adgc_snapshot.Snapshot_store.subscribe (Sim.store sim) (fun summary ->
      check_proc (Proc_id.to_int summary.Adgc_snapshot.Summary.proc));
  let _built =
    Adgc_workload.Topology.random cluster
      ~rng:(Rng.create (seed + 1))
      ~objects:60 ~edges:120 ~remote_prob:0.35 ~root_prob:0.15
  in
  let churn = Adgc_workload.Churn.create ~cluster ~rng:(Rng.create (seed + 2)) () in
  Adgc_workload.Churn.run churn ~steps:150 ~every:37;
  Sim.start sim;
  Sim.run_for sim 16_000;
  List.iter check_proc (List.init procs Fun.id);
  Sim.teardown sim;
  !ok && !checked > 0

let test_property_published =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make
       ~name:"published candidates == summary's unreachable scions at every publish" ~count:25
       ~print:print_publish_run gen_publish_run prop_published_matches_summary)

(* ------------------------------------------------------------------ *)
(* Sim-level matrix: real workload, real timers, the detector present
   (dcda) or merely coexisting (backtrack). *)

let run_matrix_cell ~seed ~detector =
  let procs = 4 in
  let config = Config.quick ~seed ~n_procs:procs () in
  let config = { config with Config.detector } in
  let sim = Sim.create ~config () in
  let cluster = Sim.cluster sim in
  let maintainers =
    match detector with
    | Config.Dcda -> List.init procs (fun i -> Detector.candidates (Sim.detector sim i))
    | _ -> List.init procs (fun i -> Candidates.attach ~stats:(Sim.stats sim) (Cluster.proc cluster i))
  in
  let _built =
    Adgc_workload.Topology.random cluster
      ~rng:(Rng.create (seed + 1))
      ~objects:80 ~edges:160 ~remote_prob:0.35 ~root_prob:0.15
  in
  let churn = Adgc_workload.Churn.create ~cluster ~rng:(Rng.create (seed + 2)) () in
  Adgc_workload.Churn.run churn ~steps:150 ~every:31;
  Sim.start sim;
  let label =
    Printf.sprintf "seed=%d %s" seed
      (match detector with Config.Dcda -> "dcda" | _ -> "backtrack")
  in
  for _checkpoint = 1 to 8 do
    Sim.run_for sim 2_500;
    audit_all ~label maintainers
  done;
  Sim.teardown sim;
  (* The maintainer actually did incremental work on this workload —
     the property is vacuous if the region never grows. *)
  check Alcotest.bool (label ^ ": maintainer saw churn") true
    (List.exists (fun c -> Candidates.label_updates c > 0 || Candidates.rebuilds c > 0) maintainers)

let test_matrix () =
  List.iter
    (fun seed ->
      List.iter (fun detector -> run_matrix_cell ~seed ~detector) [ Config.Dcda; Config.Backtrack ])
    [ 5; 23; 71 ]

(* ------------------------------------------------------------------ *)
(* Sensitivity guard: the audit is not trivially silent.  Under the
   [drop_label_updates] mutant (the maintainer goes deaf to heap
   events) the very first rooted-then-wired object must produce a
   mismatch — the same divergence the mc gauntlet minimizes. *)

let test_audit_catches_deaf_maintainer () =
  Adgc_util.Mc_mutate.with_mutant "drop_label_updates" (fun () ->
      let config =
        { (Config.quick ~seed:11 ~n_procs:2 ()) with Config.detector = Config.No_detector }
      in
      let sim = Sim.create ~config () in
      let cluster = Sim.cluster sim in
      let c0 = Candidates.attach (Cluster.proc cluster 0) in
      let r = Mutator.alloc cluster ~proc:0 () in
      Mutator.add_root cluster r;
      let a = Mutator.alloc cluster ~proc:0 () in
      Mutator.link cluster ~from_:r ~to_:a;
      let b = Mutator.alloc cluster ~proc:1 () in
      Mutator.add_root cluster b;
      (* scion for [a] lands at P0; a full trace sees [a] rooted via
         [r], but the deaf maintainer's region is still empty. *)
      Mutator.wire_remote cluster ~holder:b ~target:a;
      check Alcotest.bool "deaf maintainer caught" true (Candidates.audit c0 <> None);
      Sim.teardown sim)

(* ------------------------------------------------------------------ *)
(* Satellite 4 pin: which mutation classes move the staleness
   signature [Sim.run_until_clean] keys on.  Reclamation can only
   happen after a class that might shrink the garbage set — object
   removal, reference/root insertion, a stored field — never after
   pure garbage creation (alloc, root/reference removal, field
   clear). *)

let test_reclaim_mutation_classes () =
  let config = { (Config.quick ~seed:3 ~n_procs:1 ()) with Config.detector = Config.No_detector } in
  let sim = Sim.create ~config () in
  let heap = (Cluster.proc (Sim.cluster sim) 0).Process.heap in
  let count () = Heap.reclaim_mutations heap in
  let expect_bump label f =
    let before = count () in
    f ();
    check Alcotest.bool (label ^ " counts as a reclaim mutation") true (count () > before)
  in
  let expect_still label f =
    let before = count () in
    f ();
    check Alcotest.int (label ^ " is reclaim-neutral") before (count ())
  in
  let a = Heap.alloc heap and b = Heap.alloc heap in
  expect_still "alloc" (fun () -> ignore (Heap.alloc heap : Heap.obj));
  expect_bump "add_root" (fun () -> Heap.add_root heap a.Heap.oid);
  expect_bump "add_ref" (fun () -> ignore (Heap.add_ref heap a b.Heap.oid : int));
  expect_bump "set_field Some" (fun () -> Heap.set_field heap b 0 (Some a.Heap.oid));
  expect_still "set_field None" (fun () -> Heap.set_field heap b 0 None);
  expect_still "remove_ref" (fun () -> ignore (Heap.remove_ref heap a b.Heap.oid : bool));
  expect_still "remove_root" (fun () -> Heap.remove_root heap a.Heap.oid);
  expect_bump "remove" (fun () -> Heap.remove heap b.Heap.oid);
  Sim.teardown sim

let suite =
  ( "candidates",
    [
      test_property_parity;
      test_property_published;
      Alcotest.test_case "matrix: 3 seeds x {dcda,backtrack}" `Slow test_matrix;
      Alcotest.test_case "audit catches a deaf maintainer" `Quick
        test_audit_catches_deaf_maintainer;
      Alcotest.test_case "reclaim-mutation classes pinned" `Quick test_reclaim_mutation_classes;
    ] )
