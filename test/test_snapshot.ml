(* Tests for graph summarization (StubsFrom / ScionsTo / Local.Reach),
   the naive-vs-condensed equivalence property, snapshot serialization
   and the heap imaging used by experiment E2. *)

open Adgc_algebra
open Adgc_rt
module Summary = Adgc_snapshot.Summary
module Summarize = Adgc_snapshot.Summarize
module Graph_image = Adgc_snapshot.Graph_image
module Snapshot_store = Adgc_snapshot.Snapshot_store

let check = Alcotest.check

let mk ?(n = 4) () = Cluster.create ~n ()

let key src target = Ref_key.make ~src:(Proc_id.of_int src) ~target

(* Build the paper's Fig. 3 situation restricted to P2: scion for F
   (from P1), local F -> G -> H -> J, F -> H, and J holds the remote
   reference to Q@P4. *)
let build_p2_like () =
  let cluster = mk () in
  let f = Mutator.alloc cluster ~proc:1 () in
  let g = Mutator.alloc cluster ~proc:1 () in
  let h = Mutator.alloc cluster ~proc:1 () in
  let j = Mutator.alloc cluster ~proc:1 () in
  let q = Mutator.alloc cluster ~proc:3 () in
  let b = Mutator.alloc cluster ~proc:0 () in
  Mutator.add_root cluster b;
  Mutator.link cluster ~from_:f ~to_:g;
  Mutator.link cluster ~from_:f ~to_:h;
  Mutator.link cluster ~from_:g ~to_:h;
  Mutator.link cluster ~from_:h ~to_:j;
  Mutator.wire_remote cluster ~holder:b ~target:f;
  Mutator.wire_remote cluster ~holder:j ~target:q;
  (cluster, f, j, q)

let test_stubs_from () =
  let cluster, f, _, q = build_p2_like () in
  let summary = Summarize.run ~algo:Summarize.Naive ~now:0 (Cluster.proc cluster 1) in
  match Summary.find_scion summary (key 0 f.Heap.oid) with
  | Some si ->
      check Alcotest.int "one stub" 1 (Oid.Set.cardinal si.Summary.stubs_from);
      check Alcotest.bool "it is Q" true (Oid.Set.mem q.Heap.oid si.Summary.stubs_from);
      check Alcotest.bool "F not locally reachable" false si.Summary.target_locally_reachable
  | None -> Alcotest.fail "scion missing from summary"

let test_scions_to () =
  let cluster, f, _, q = build_p2_like () in
  let summary = Summarize.run ~algo:Summarize.Naive ~now:0 (Cluster.proc cluster 1) in
  match Summary.find_stub summary q.Heap.oid with
  | Some st ->
      check Alcotest.int "one scion leads here" 1 (Ref_key.Set.cardinal st.Summary.scions_to);
      check Alcotest.bool "it is F's scion" true
        (Ref_key.Set.mem (key 0 f.Heap.oid) st.Summary.scions_to);
      check Alcotest.bool "not locally reachable" false st.Summary.local_reach
  | None -> Alcotest.fail "stub missing from summary"

let test_local_reach_flag () =
  (* Root -> holder -> remote ref: Local.Reach must be true. *)
  let cluster = mk () in
  let holder = Mutator.alloc cluster ~proc:0 () in
  let target = Mutator.alloc cluster ~proc:1 () in
  Mutator.add_root cluster holder;
  Mutator.wire_remote cluster ~holder ~target;
  let summary = Summarize.run ~now:0 (Cluster.proc cluster 0) in
  match Summary.find_stub summary target.Heap.oid with
  | Some st -> check Alcotest.bool "locally reachable" true st.Summary.local_reach
  | None -> Alcotest.fail "stub missing"

let test_scion_target_locally_reachable () =
  let cluster = mk () in
  let x = Mutator.alloc cluster ~proc:0 () in
  let holder = Mutator.alloc cluster ~proc:1 () in
  Mutator.add_root cluster x;
  Mutator.add_root cluster holder;
  Mutator.wire_remote cluster ~holder ~target:x;
  let summary = Summarize.run ~now:0 (Cluster.proc cluster 0) in
  match Summary.find_scion summary (key 1 x.Heap.oid) with
  | Some si -> check Alcotest.bool "rooted target" true si.Summary.target_locally_reachable
  | None -> Alcotest.fail "scion missing"

let test_internal_refs_compiled_away () =
  let cluster, _, _, _ = build_p2_like () in
  let summary = Summarize.run ~now:0 (Cluster.proc cluster 1) in
  let scions, stubs = Summary.counts summary in
  (* Four local objects, four local references — but the summary holds
     only 1 scion and 1 stub. *)
  check Alcotest.int "scions" 1 scions;
  check Alcotest.int "stubs" 1 stubs

let test_shared_stub_multiple_scions () =
  (* Fig. 4's P5: V and Y both lead to the single stub to T. *)
  let cluster = mk ~n:6 () in
  let v = Mutator.alloc cluster ~proc:4 () in
  let y = Mutator.alloc cluster ~proc:4 () in
  let t = Mutator.alloc cluster ~proc:3 () in
  let f = Mutator.alloc cluster ~proc:1 () in
  let zd = Mutator.alloc cluster ~proc:5 () in
  Mutator.wire_remote cluster ~holder:f ~target:v;
  Mutator.wire_remote cluster ~holder:zd ~target:y;
  Mutator.wire_remote cluster ~holder:v ~target:t;
  ignore (Heap.add_ref (Cluster.proc cluster 4).Process.heap y t.Heap.oid : int);
  let summary = Summarize.run ~now:0 (Cluster.proc cluster 4) in
  (match Summary.find_stub summary t.Heap.oid with
  | Some st -> check Alcotest.int "two scions converge" 2 (Ref_key.Set.cardinal st.Summary.scions_to)
  | None -> Alcotest.fail "stub missing");
  match Summary.find_scion summary (key 5 y.Heap.oid) with
  | Some si -> check Alcotest.bool "Y reaches the stub" true (Oid.Set.mem t.Heap.oid si.Summary.stubs_from)
  | None -> Alcotest.fail "Y scion missing"

let test_diamond_and_cycle_local_structure () =
  (* Local diamond with an internal cycle, remote ref at the bottom:
     both summarizers must agree the scion reaches the stub. *)
  let cluster = mk () in
  let top = Mutator.alloc cluster ~proc:0 () in
  let l = Mutator.alloc cluster ~proc:0 () in
  let r = Mutator.alloc cluster ~proc:0 () in
  let bottom = Mutator.alloc cluster ~proc:0 () in
  let remote_obj = Mutator.alloc cluster ~proc:1 () in
  let holder = Mutator.alloc cluster ~proc:2 () in
  Mutator.link cluster ~from_:top ~to_:l;
  Mutator.link cluster ~from_:top ~to_:r;
  Mutator.link cluster ~from_:l ~to_:bottom;
  Mutator.link cluster ~from_:r ~to_:bottom;
  Mutator.link cluster ~from_:bottom ~to_:top;
  Mutator.wire_remote cluster ~holder:bottom ~target:remote_obj;
  Mutator.wire_remote cluster ~holder ~target:top;
  let naive = Summarize.run ~algo:Summarize.Naive ~now:0 (Cluster.proc cluster 0) in
  let cond = Summarize.run ~algo:Summarize.Condensed ~now:0 (Cluster.proc cluster 0) in
  check Alcotest.bool "summarizers agree" true (Summary.equal naive cond);
  match Summary.find_scion naive (key 2 top.Heap.oid) with
  | Some si -> check Alcotest.bool "reaches stub through diamond" true (Oid.Set.mem remote_obj.Heap.oid si.Summary.stubs_from)
  | None -> Alcotest.fail "scion missing"

let test_naive_equals_condensed_random () =
  (* Property: on random graphs both algorithms produce identical
     summaries. *)
  let rng = Adgc_util.Rng.create 2024 in
  for _case = 1 to 25 do
    let cluster = Cluster.create ~n:3 () in
    let _built =
      Adgc_workload.Topology.random cluster ~rng ~objects:40 ~edges:80 ~remote_prob:0.3
        ~root_prob:0.2
    in
    for proc = 0 to 2 do
      let p = Cluster.proc cluster proc in
      let naive = Summarize.run ~algo:Summarize.Naive ~now:0 p in
      let cond = Summarize.run ~algo:Summarize.Condensed ~now:0 p in
      if not (Summary.equal naive cond) then
        Alcotest.failf "summaries disagree on proc %d" proc
    done
  done

let test_all_summarizers_agree_under_churn () =
  (* Property: Naive and the dense Condensed summarizer produce equal
     summaries on randomized graphs subjected to churn (allocation,
     linking, unlinking, RMIs) — the parity that lets Condensed stay
     the default. *)
  List.iter
    (fun seed ->
      let rng = Adgc_util.Rng.create seed in
      let cluster = Cluster.create ~n:3 () in
      let _built =
        Adgc_workload.Topology.random cluster ~rng ~objects:40 ~edges:80 ~remote_prob:0.3
          ~root_prob:0.2
      in
      let churn =
        Adgc_workload.Churn.create ~cluster ~rng:(Adgc_util.Rng.create (seed * 13 + 1)) ()
      in
      for round = 1 to 5 do
        for _ = 1 to 15 do
          Adgc_workload.Churn.step churn
        done;
        ignore (Cluster.drain cluster : int);
        for proc = 0 to 2 do
          let p = Cluster.proc cluster proc in
          let naive = Summarize.run ~algo:Summarize.Naive ~now:round p in
          let dense = Summarize.run ~algo:Summarize.Condensed ~now:round p in
          if not (Summary.equal naive dense) then
            Alcotest.failf "seed %d round %d proc %d: naive <> condensed" seed round proc
        done
      done)
    [ 101; 202; 303 ]

let test_summary_captures_ics () =
  let cluster = mk ~n:2 () in
  let caller = Mutator.alloc cluster ~proc:0 () in
  let callee = Mutator.alloc cluster ~proc:1 () in
  Mutator.add_root cluster caller;
  Mutator.add_root cluster callee;
  Mutator.wire_remote cluster ~holder:caller ~target:callee;
  Mutator.invoke cluster ~src:0 ~target:callee.Heap.oid;
  ignore (Cluster.drain cluster : int);
  let s0 = Summarize.run ~now:1 (Cluster.proc cluster 0) in
  let s1 = Summarize.run ~now:1 (Cluster.proc cluster 1) in
  (match Summary.find_stub s0 callee.Heap.oid with
  | Some st -> check Alcotest.int "stub ic in summary" 1 st.Summary.stub_ic
  | None -> Alcotest.fail "stub missing");
  match Summary.find_scion s1 (key 0 callee.Heap.oid) with
  | Some si ->
      check Alcotest.int "scion ic in summary" 1 si.Summary.scion_ic;
      check Alcotest.bool "last_invoked recorded" true (si.Summary.last_invoked > 0)
  | None -> Alcotest.fail "scion missing"

let test_summary_is_immutable_snapshot () =
  (* Mutations after the summary is taken must not show up in it. *)
  let cluster, f, j, q = build_p2_like () in
  ignore f;
  let p1 = Cluster.proc cluster 1 in
  let summary = Summarize.run ~now:0 p1 in
  (* Remove the remote reference afterwards. *)
  ignore (Heap.remove_ref p1.Process.heap j q.Heap.oid : bool);
  match Summary.find_stub summary q.Heap.oid with
  | Some _ -> ()
  | None -> Alcotest.fail "summary changed retroactively"

let test_summary_sval_roundtrip () =
  let cluster, _, _, _ = build_p2_like () in
  let summary = Summarize.run ~now:7 (Cluster.proc cluster 1) in
  match Summary.of_sval (Summary.to_sval summary) with
  | Some s ->
      check Alcotest.bool "roundtrip" true (Summary.equal summary s);
      check Alcotest.int "taken_at preserved" 7 s.Summary.taken_at
  | None -> Alcotest.fail "decode failed"

let test_summary_sval_rejects_junk () =
  check Alcotest.bool "junk" true (Summary.of_sval (Adgc_serial.Sval.Int 1) = None)

(* ------------------------------------------------------------------ *)
(* Direct compact-codec path: [Summary.encode_net]/[decode_net] must
   match the generic [to_sval] -> Net_codec -> [of_sval] pair, which
   stays the oracle. *)

module Net_codec = Adgc_serial.Net_codec
module Wire = Adgc_serial.Wire

let gen_serial =
  QCheck2.Gen.(
    oneof
      [ int_bound 64; map (fun d -> max_int - d) (int_bound 64); map (fun i -> i land max_int) int ])

let gen_counter =
  QCheck2.Gen.(oneof [ int_range (-64) 64; int; pure min_int; pure max_int ])

let gen_oid =
  QCheck2.Gen.(
    let+ owner = int_bound 1000 and+ serial = gen_serial in
    Oid.make ~owner:(Proc_id.of_int owner) ~serial)

let gen_key =
  QCheck2.Gen.(
    let+ src = int_bound 1000 and+ target = gen_oid in
    Ref_key.make ~src:(Proc_id.of_int src) ~target)

let gen_scion =
  QCheck2.Gen.(
    let+ key = gen_key
    and+ scion_ic = gen_counter
    and+ stubs = list_size (int_bound 4) gen_oid
    and+ target_locally_reachable = bool
    and+ last_invoked = gen_counter in
    {
      Summary.key;
      scion_ic;
      stubs_from = Oid.Set.of_list stubs;
      target_locally_reachable;
      last_invoked;
    })

let gen_stub =
  QCheck2.Gen.(
    let+ target = gen_oid
    and+ stub_ic = gen_counter
    and+ keys = list_size (int_bound 4) gen_key
    and+ local_reach = bool in
    { Summary.target; stub_ic; scions_to = Ref_key.Set.of_list keys; local_reach })

(* The four intern orders: which of the scion and stub sections is
   empty decides which names are interned first and at what index. *)
let gen_summary =
  QCheck2.Gen.(
    let some g = list_size (int_range 1 4) g in
    let* scions, stubs =
      oneof
        [
          pair (pure []) (some gen_stub);
          pair (some gen_scion) (pure []);
          pair (pure []) (pure []);
          pair (some gen_scion) (some gen_stub);
        ]
    in
    let+ proc = int_bound 1000 and+ taken_at = gen_counter in
    Summary.make ~proc:(Proc_id.of_int proc) ~taken_at ~scions ~stubs)

let print_summary s = Format.asprintf "%a" Summary.pp s

(* [Ok (Some s)], [Ok None] (well-formed bytes, not a summary) or
   [Error ()] ([Wire.Malformed]); any other exception fails the test. *)
let generic_decode bytes =
  match Summary.of_sval (Net_codec.decode bytes) with
  | v -> Ok v
  | exception Wire.Malformed _ -> Error ()

let direct_decode bytes =
  match Summary.decode_net bytes with v -> Ok v | exception Wire.Malformed _ -> Error ()

let same_summary a b = Summary.equal a b && a.Summary.taken_at = b.Summary.taken_at

let decoders_agree bytes =
  match (generic_decode bytes, direct_decode bytes) with
  | Ok (Some a), Ok (Some b) -> same_summary a b
  | Ok None, Ok None | Error (), Error () -> true
  | _, _ -> false

let test_direct_encode_matches_generic =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"direct encode = Net_codec.encode . to_sval" ~count:300
       ~print:print_summary gen_summary (fun s ->
         let bytes = Summary.encode_net s in
         String.equal bytes (Net_codec.encode (Summary.to_sval s))
         &&
         match Summary.decode_net bytes with
         | Some d -> same_summary s d
         | None -> false))

let test_direct_decode_agrees_on_damage =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"direct decode = generic on truncation and corruption" ~count:20
       ~print:print_summary gen_summary (fun s ->
         let bytes = Summary.encode_net s in
         let n = String.length bytes in
         let ok = ref true in
         for len = 0 to n - 1 do
           ok := !ok && decoders_agree (String.sub bytes 0 len)
         done;
         (* Every position, every other byte value. *)
         let b = Bytes.of_string bytes in
         for pos = 0 to n - 1 do
           for v = 0 to 255 do
             if v <> Char.code bytes.[pos] then begin
               Bytes.set b pos (Char.chr v);
               ok := !ok && decoders_agree (Bytes.to_string b)
             end
           done;
           Bytes.set b pos bytes.[pos]
         done;
         !ok))

let test_direct_decode_rejects_foreign_documents () =
  (* Well-formed Net_codec documents that are not summaries decode to
     [None] on both paths; a trailing byte is malformed on both. *)
  let cluster, _, _, _ = build_p2_like () in
  let s = Summarize.run ~now:3 (Cluster.proc cluster 1) in
  let foreign =
    [
      Adgc_serial.Sval.Int 1;
      Adgc_serial.Sval.Record ("summary", []);
      (match Summary.to_sval s with
      | Adgc_serial.Sval.Record (_, fields) -> Adgc_serial.Sval.Record ("summaries", fields)
      | v -> v);
    ]
  in
  List.iter
    (fun v ->
      let bytes = Net_codec.encode v in
      check Alcotest.bool "generic None" true (generic_decode bytes = Ok None);
      check Alcotest.bool "direct agrees" true (decoders_agree bytes))
    foreign;
  let trailing = Summary.encode_net s ^ "\000" in
  check Alcotest.bool "trailing byte is malformed" true (direct_decode trailing = Error ());
  check Alcotest.bool "agrees on trailing byte" true (decoders_agree trailing)

(* ------------------------------------------------------------------ *)
(* Condensed summarizer across mutations.  The condensed summarizer
   runs on the heap's persistent dense index (resynchronised lazily,
   compacted after heavy sweeping), so repeated runs on one heap must
   track every edit, root change and compaction in between. *)

let condensed_matches_naive label ~now p =
  let cond = Summarize.run ~algo:Summarize.Condensed ~now p in
  let naive = Summarize.run ~algo:Summarize.Naive ~now p in
  if not (Summary.equal cond naive) then Alcotest.failf "%s: condensed diverged" label;
  cond

let test_condensed_tracks_edits () =
  let cluster, _, j, _ = build_p2_like () in
  let p1 = Cluster.proc cluster 1 in
  ignore (condensed_matches_naive "initial" ~now:0 p1 : Summary.t);
  ignore (condensed_matches_naive "no mutation" ~now:1 p1 : Summary.t);
  (* Grow the scion's region by a fresh object holding a second remote
     reference, then cut it off again. *)
  let extra = Mutator.alloc cluster ~proc:1 () in
  let far = Mutator.alloc cluster ~proc:2 () in
  Mutator.link cluster ~from_:j ~to_:extra;
  Mutator.wire_remote cluster ~holder:extra ~target:far;
  ignore (condensed_matches_naive "after link" ~now:2 p1 : Summary.t);
  Mutator.unlink cluster ~from_:j ~to_:extra;
  ignore (condensed_matches_naive "after unlink" ~now:3 p1 : Summary.t)

let test_condensed_stable_when_unmutated () =
  let cluster, _, _, _ = build_p2_like () in
  let p1 = Cluster.proc cluster 1 in
  let heap = p1.Process.heap in
  let first = Summarize.run ~algo:Summarize.Condensed ~now:0 p1 in
  let mutations = Heap.mutations heap and rebuilds = Heap.dense_generation heap in
  let second = Summarize.run ~algo:Summarize.Condensed ~now:0 p1 in
  check Alcotest.bool "same summary" true (Summary.equal first second);
  check Alcotest.int "summarizing does not mutate the heap" mutations (Heap.mutations heap);
  check Alcotest.int "dense index reused, not rebuilt" rebuilds (Heap.dense_generation heap)

let test_condensed_sees_root_changes () =
  let cluster, f, _, _ = build_p2_like () in
  let p1 = Cluster.proc cluster 1 in
  let reachable label ~now =
    let s = condensed_matches_naive label ~now p1 in
    match Summary.find_scion s (key 0 f.Heap.oid) with
    | Some si -> si.Summary.target_locally_reachable
    | None -> Alcotest.failf "%s: scion missing" label
  in
  check Alcotest.bool "unrooted at first" false (reachable "initial" ~now:0);
  Mutator.add_root cluster f;
  check Alcotest.bool "sees the new root" true (reachable "rooted" ~now:1);
  Mutator.remove_root cluster f;
  check Alcotest.bool "sees the root go" false (reachable "unrooted" ~now:2)

let test_condensed_across_compaction () =
  (* Sweep most of a heap between two runs: the dense interner is
     rebuilt with every id reassigned, and the next summary must still
     equal the naive one. *)
  let cluster = Cluster.create ~n:3 () in
  let rng = Adgc_util.Rng.create 77 in
  let _built =
    Adgc_workload.Topology.random cluster ~rng ~objects:30 ~edges:60 ~remote_prob:0.3
      ~root_prob:0.2
  in
  let p0 = Cluster.proc cluster 0 in
  for _ = 1 to 200 do
    ignore (Mutator.alloc cluster ~proc:0 () : Heap.obj)
  done;
  ignore (condensed_matches_naive "before the sweep" ~now:0 p0 : Summary.t);
  let rebuilds = Heap.dense_generation p0.Process.heap in
  let report = Adgc_rt.Lgc.run (Cluster.rt cluster) p0 in
  check Alcotest.bool "the sweep reclaimed the litter" true (report.Adgc_rt.Lgc.swept >= 200);
  ignore (condensed_matches_naive "after the sweep" ~now:1 p0 : Summary.t);
  check Alcotest.bool "dense index was compacted" true
    (Heap.dense_generation p0.Process.heap > rebuilds)

(* ------------------------------------------------------------------ *)
(* Snapshot store *)

let test_store_roundtrips_through_codec () =
  let cluster, _, _, _ = build_p2_like () in
  let rt = Cluster.rt cluster in
  let store = Snapshot_store.create rt in
  let received = ref [] in
  Snapshot_store.subscribe store (fun s -> received := s :: !received);
  let s = Snapshot_store.take store (Cluster.proc cluster 1) in
  check Alcotest.int "subscriber called" 1 (List.length !received);
  check Alcotest.bool "published = returned" true (Summary.equal s (List.hd !received));
  check Alcotest.bool "bytes on disk" true
    (Snapshot_store.bytes_on_disk store (Proc_id.of_int 1) > 0);
  match Snapshot_store.latest store (Proc_id.of_int 1) with
  | Some latest -> check Alcotest.bool "latest matches" true (Summary.equal s latest)
  | None -> Alcotest.fail "no latest"

let test_store_take_all () =
  let cluster, _, _, _ = build_p2_like () in
  let store = Snapshot_store.create (Cluster.rt cluster) in
  Snapshot_store.take_all store;
  for i = 0 to 3 do
    check Alcotest.bool
      (Printf.sprintf "proc %d stored" i)
      true
      (Snapshot_store.latest store (Proc_id.of_int i) <> None)
  done

let test_store_with_rotor_codec () =
  let cluster, _, _, _ = build_p2_like () in
  let store =
    Snapshot_store.create
      ~codec:(module Adgc_serial.Rotor_codec : Adgc_serial.Codec.S)
      (Cluster.rt cluster)
  in
  let s = Snapshot_store.take store (Cluster.proc cluster 1) in
  check Alcotest.int "decodes fine" 1 (fst (Summary.counts s))

(* ------------------------------------------------------------------ *)
(* Graph image (E2) *)

let test_graph_image_counts () =
  let cluster, _, _, _ = build_p2_like () in
  let image = Graph_image.of_process (Cluster.proc cluster 1) in
  check (Alcotest.option Alcotest.int) "objects" (Some 4) (Graph_image.object_count image)

let test_graph_image_stub_surcharge () =
  let cluster, _, _, _ = build_p2_like () in
  let p = Cluster.proc cluster 1 in
  let plain = Adgc_serial.Net_codec.encode (Graph_image.of_process p) in
  let with_stubs = Adgc_serial.Net_codec.encode (Graph_image.of_process ~include_stubs:true p) in
  check Alcotest.bool "stubs add bytes" true
    (String.length with_stubs > String.length plain)

let suite =
  ( "snapshot",
    [
      Alcotest.test_case "StubsFrom" `Quick test_stubs_from;
      Alcotest.test_case "ScionsTo" `Quick test_scions_to;
      Alcotest.test_case "Local.Reach flag" `Quick test_local_reach_flag;
      Alcotest.test_case "scion target local reachability" `Quick
        test_scion_target_locally_reachable;
      Alcotest.test_case "internal refs compiled away" `Quick test_internal_refs_compiled_away;
      Alcotest.test_case "shared stub, multiple scions" `Quick test_shared_stub_multiple_scions;
      Alcotest.test_case "diamond + local cycle" `Quick test_diamond_and_cycle_local_structure;
      Alcotest.test_case "naive = condensed on random graphs" `Quick
        test_naive_equals_condensed_random;
      Alcotest.test_case "all summarizers agree under churn" `Quick
        test_all_summarizers_agree_under_churn;
      Alcotest.test_case "summary captures ICs" `Quick test_summary_captures_ics;
      Alcotest.test_case "summary is immutable" `Quick test_summary_is_immutable_snapshot;
      Alcotest.test_case "summary sval roundtrip" `Quick test_summary_sval_roundtrip;
      Alcotest.test_case "summary sval rejects junk" `Quick test_summary_sval_rejects_junk;
      test_direct_encode_matches_generic;
      test_direct_decode_agrees_on_damage;
      Alcotest.test_case "direct decode rejects foreign documents" `Quick
        test_direct_decode_rejects_foreign_documents;
      Alcotest.test_case "condensed = naive across edits (known graph)" `Quick
        test_condensed_tracks_edits;
      Alcotest.test_case "condensed reuses the dense index when unmutated" `Quick
        test_condensed_stable_when_unmutated;
      Alcotest.test_case "condensed sees root changes" `Quick test_condensed_sees_root_changes;
      Alcotest.test_case "condensed = naive across a compaction" `Quick
        test_condensed_across_compaction;
      Alcotest.test_case "store: codec roundtrip publish" `Quick test_store_roundtrips_through_codec;
      Alcotest.test_case "store: take_all" `Quick test_store_take_all;
      Alcotest.test_case "store: rotor codec" `Quick test_store_with_rotor_codec;
      Alcotest.test_case "graph image: object count" `Quick test_graph_image_counts;
      Alcotest.test_case "graph image: stub surcharge" `Quick test_graph_image_stub_surcharge;
    ] )
