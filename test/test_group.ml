(* Hierarchical process groups: the rank-arithmetic pins, the relay
   overlay's flat-vs-grouped reclamation identity (the PR's acceptance
   bar), the aggregation accounting, and the growable CSR adjacency
   underneath the heap tracer. *)

open Adgc_workload
module Sim = Adgc.Sim
module Config = Adgc.Config
module Cluster = Adgc_rt.Cluster
module Runtime = Adgc_rt.Runtime
module Heap = Adgc_rt.Heap
module Group = Adgc_rt.Group
module Oid = Adgc_algebra.Oid
module Stats = Adgc_util.Stats
module Rng = Adgc_util.Rng
module Csr = Adgc_util.Dense.Csr

let check = Alcotest.check

(* ------------------------------------------------------------------ *)
(* Pure rank arithmetic. *)

let test_group_arithmetic () =
  check Alcotest.bool "size 0 is flat" false (Group.enabled ~size:0);
  check Alcotest.bool "size 1 is flat" false (Group.enabled ~size:1);
  check Alcotest.bool "size 2 is grouped" true (Group.enabled ~size:2);
  check Alcotest.int "rank 7 in groups of 3" 2 (Group.of_rank ~size:3 7);
  check Alcotest.bool "0 and 2 share a group of 3" true (Group.same ~size:3 0 2);
  check Alcotest.bool "2 and 3 do not" false (Group.same ~size:3 2 3);
  check Alcotest.int "ceil(10/3) groups" 4 (Group.count ~size:3 ~n:10);
  check (Alcotest.list Alcotest.int) "full group" [ 3; 4; 5 ] (Group.members ~size:3 ~n:10 1);
  check (Alcotest.list Alcotest.int) "ragged tail" [ 9 ] (Group.members ~size:3 ~n:10 3);
  check (Alcotest.list Alcotest.int) "out of range" [] (Group.members ~size:3 ~n:10 4);
  (* Flat degenerate: every rank is its own group, and with no
     boundaries to cross [same] is vacuously true. *)
  check Alcotest.int "flat group = rank" 7 (Group.of_rank ~size:0 7);
  check Alcotest.bool "flat has no boundaries" true (Group.same ~size:0 1 2)

let test_group_proxy_failover () =
  let alive dead r = not (List.mem r dead) in
  check (Alcotest.option Alcotest.int) "healthy proxy is the lowest rank" (Some 3)
    (Group.proxy ~size:3 ~n:10 ~alive:(alive []) 1);
  check (Alcotest.option Alcotest.int) "crashed proxy fails over" (Some 4)
    (Group.proxy ~size:3 ~n:10 ~alive:(alive [ 3 ]) 1);
  check (Alcotest.option Alcotest.int) "whole group down" None
    (Group.proxy ~size:3 ~n:10 ~alive:(alive [ 3; 4; 5 ]) 1);
  check (Alcotest.option Alcotest.int) "ragged tail proxy" (Some 9)
    (Group.proxy ~size:3 ~n:10 ~alive:(alive []) 3)

(* ------------------------------------------------------------------ *)
(* Flat-vs-grouped reclamation identity.  The relay overlay reroutes
   and batches DGC control traffic but must not change what gets
   reclaimed: the same workload run flat and grouped ends with
   byte-identical surviving object sets (timing differs — identity is
   on the final sets after both runs converge).  The DCDA cells also
   show the candidate labels tracking the same heaps however the
   control traffic is routed.  Each cell runs once unbatched and once
   with sender-side DGC batching on in both legs: batched envelopes
   reach the proxies already coalesced, and the relays must still
   deliver every message inside them. *)

let surviving cluster =
  let rt = Cluster.rt cluster in
  let acc = ref Oid.Set.empty in
  Array.iter
    (fun (p : Adgc_rt.Process.t) ->
      Heap.fold p.Adgc_rt.Process.heap ~init:() ~f:(fun () (o : Heap.obj) ->
          acc := Oid.Set.add o.Heap.oid !acc))
    rt.Adgc_rt.Runtime.procs;
  !acc

let run_leg ~seed ~detector ~batching ~groups () =
  let n_procs = 8 in
  let config = Config.quick ~seed ~n_procs () in
  let runtime =
    if batching then
      { config.Config.runtime with Runtime.dgc_batching = true; dgc_batch_window = 40 }
    else config.Config.runtime
  in
  let config = { config with Config.detector; runtime } in
  let config = Config.with_groups config groups in
  let sim = Sim.create ~config () in
  let cluster = Sim.cluster sim in
  let _built =
    Topology.random cluster
      ~rng:(Rng.create (seed + 1))
      ~objects:120 ~edges:240 ~remote_prob:0.35 ~root_prob:0.15
  in
  Sim.start sim;
  let clean = Sim.run_until_clean ~max_time:900_000 sim in
  let s = surviving cluster in
  Sim.teardown sim;
  (clean, s)

let identity_cell ~seed ~detector ~batching () =
  (* Group size 3 over 8 ranks: two full groups and a ragged tail. *)
  let flat_clean, flat = run_leg ~seed ~detector ~batching ~groups:0 () in
  let grouped_clean, grouped = run_leg ~seed ~detector ~batching ~groups:3 () in
  check Alcotest.bool "flat run converged" true flat_clean;
  check Alcotest.bool "grouped run converged" true grouped_clean;
  check Alcotest.int "same number of survivors" (Oid.Set.cardinal flat)
    (Oid.Set.cardinal grouped);
  check Alcotest.bool "identical surviving sets" true (Oid.Set.equal flat grouped)

let identity_cases =
  List.concat_map
    (fun seed ->
      List.concat_map
        (fun (dname, detector) ->
          [
            Alcotest.test_case
              (Printf.sprintf "flat == grouped: %s seed %d" dname seed)
              `Slow
              (identity_cell ~seed ~detector ~batching:false);
            Alcotest.test_case
              (Printf.sprintf "flat == grouped: %s/batched seed %d" dname seed)
              `Slow
              (identity_cell ~seed ~detector ~batching:true);
          ])
        [ ("dcda", Config.Dcda); ("backtrack", Config.Backtrack) ])
    [ 5; 19; 33 ]

(* ------------------------------------------------------------------ *)
(* Aggregation accounting.  [group_size] alone turns on the boundary
   counters (so a flat-routing run with the same topology is an honest
   baseline); [group_relay] additionally funnels control traffic
   through the proxies.  The grouped run must put strictly fewer
   envelopes on cross-group links than the flat baseline. *)

let run_accounting ~relay () =
  let n_procs = 16 in
  let config = Config.quick ~seed:7 ~n_procs () in
  let config =
    {
      config with
      Config.runtime =
        { config.Config.runtime with Runtime.group_size = 4; group_relay = relay };
    }
  in
  let sim = Sim.create ~config () in
  let cluster = Sim.cluster sim in
  let _built = Topology.ring ~objs_per_proc:2 cluster ~procs:(List.init n_procs Fun.id) in
  Sim.start sim;
  let clean = Sim.run_until_clean ~max_time:900_000 sim in
  check Alcotest.bool "run converged" true clean;
  let stats = Stats.counters (Sim.stats sim) in
  Sim.teardown sim;
  fun key -> try List.assoc key stats with Not_found -> 0

let test_aggregation_accounting () =
  let flat = run_accounting ~relay:false () in
  let grouped = run_accounting ~relay:true () in
  check Alcotest.int "flat routing sends no relays" 0 (flat "group.relays");
  Alcotest.(check bool) "flat baseline counts boundary traffic" true (flat "net.msg.xgroup.dgc" > 0);
  Alcotest.(check bool) "grouped run relays" true (grouped "group.relays" > 0);
  Alcotest.(check bool)
    "relays aggregate at least one entry each" true
    (grouped "group.relay_entries" >= grouped "group.relays");
  Alcotest.(check bool)
    "relay envelopes were delivered" true
    (grouped "net.msg.delivered.group_relay" > 0);
  Alcotest.(check bool)
    (Printf.sprintf "grouped cuts cross-group DGC traffic (flat %d vs grouped %d)"
       (flat "net.msg.xgroup.dgc") (grouped "net.msg.xgroup.dgc"))
    true
    (grouped "net.msg.xgroup.dgc" < flat "net.msg.xgroup.dgc")

(* ------------------------------------------------------------------ *)
(* The CSR adjacency: multiset semantics against a reference model
   under random add/remove churn, plus block recycling. *)

let csr_matches_model =
  let gen =
    QCheck2.Gen.(list_size (int_bound 400) (triple bool (int_bound 12) (int_bound 8)))
  in
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"csr matches a reference multiset" ~count:200 gen (fun ops ->
         let t = Csr.create ~capacity:4 () in
         let model = Array.make 13 [] in
         List.iter
           (fun (add, row, v) ->
             if add then begin
               Csr.add t row v;
               model.(row) <- v :: model.(row)
             end
             else begin
               let present = List.mem v model.(row) in
               let removed = Csr.remove t row v in
               if present <> removed then QCheck2.Test.fail_report "remove disagrees";
               if present then begin
                 let rec drop_one = function
                   | [] -> []
                   | x :: rest -> if x = v then rest else x :: drop_one rest
                 in
                 model.(row) <- drop_one model.(row)
               end
             end)
           ops;
         Array.iteri
           (fun row expected ->
             if Csr.length t row <> List.length expected then
               QCheck2.Test.fail_report "length disagrees";
             let got = ref [] in
             Csr.iter t row (fun v -> got := v :: !got);
             if List.sort compare !got <> List.sort compare expected then
               QCheck2.Test.fail_report "contents disagree")
           model;
         true))

let test_csr_recycles_blocks () =
  let t = Csr.create ~capacity:8 () in
  for v = 0 to 99 do
    Csr.add t 0 v
  done;
  let words_full = Csr.words t in
  check Alcotest.int "nothing parked while in use" 0 (Csr.free_blocks t);
  Csr.clear_row t 0;
  Alcotest.(check bool) "cleared blocks are parked" true (Csr.free_blocks t > 0);
  check Alcotest.int "row is empty" 0 (Csr.length t 0);
  (* Refill a different row: the parked blocks are reused, so the
     arena does not grow. *)
  for v = 0 to 99 do
    Csr.add t 1 v
  done;
  check Alcotest.int "recycling kept the arena flat" words_full (Csr.words t);
  check Alcotest.int "refilled row complete" 100 (Csr.length t 1);
  Csr.reset t;
  check Alcotest.int "reset empties every row" 0 (Csr.length t 1)

let suite =
  ( "group",
    [
      Alcotest.test_case "rank arithmetic" `Quick test_group_arithmetic;
      Alcotest.test_case "proxy failover is pure arithmetic" `Quick test_group_proxy_failover;
      Alcotest.test_case "aggregation accounting" `Slow test_aggregation_accounting;
      csr_matches_model;
      Alcotest.test_case "csr recycles cleared blocks" `Quick test_csr_recycles_blocks;
    ]
    @ identity_cases )
