open Adgc_algebra
open Adgc_rt

type algo = Naive | Condensed

(* Shared post-processing: given [stubs_from] per scion target and the
   root-trace result, assemble the summary. *)
let assemble ~now (p : Process.t) ~root_local ~root_remote ~stubs_from_of_target =
  let stub_entries = Stub_table.entries p.Process.stubs in
  let stub_targets =
    List.fold_left (fun s (e : Stub_table.entry) -> Oid.Set.add e.Stub_table.target s)
      Oid.Set.empty stub_entries
  in
  let scion_entries = Scion_table.entries p.Process.scions in
  let scions =
    List.map
      (fun (e : Scion_table.entry) ->
        let target = e.Scion_table.key.Ref_key.target in
        let stubs_from = Oid.Set.inter (stubs_from_of_target target) stub_targets in
        {
          Summary.key = e.Scion_table.key;
          scion_ic = e.Scion_table.ic;
          stubs_from;
          target_locally_reachable = Oid.Set.mem target root_local;
          last_invoked = e.Scion_table.last_invoked;
        })
      scion_entries
  in
  let scions_to =
    List.fold_left
      (fun acc (s : Summary.scion_info) ->
        Oid.Set.fold
          (fun stub_target acc ->
            let prev =
              match Oid.Map.find_opt stub_target acc with
              | Some set -> set
              | None -> Ref_key.Set.empty
            in
            Oid.Map.add stub_target (Ref_key.Set.add s.Summary.key prev) acc)
          s.Summary.stubs_from acc)
      Oid.Map.empty scions
  in
  let stubs =
    List.map
      (fun (e : Stub_table.entry) ->
        {
          Summary.target = e.Stub_table.target;
          stub_ic = e.Stub_table.ic;
          scions_to =
            Option.value ~default:Ref_key.Set.empty (Oid.Map.find_opt e.Stub_table.target scions_to);
          local_reach = Oid.Set.mem e.Stub_table.target root_remote;
        })
      stub_entries
  in
  Summary.make ~proc:p.Process.id ~taken_at:now ~scions ~stubs

let run_naive ~now (p : Process.t) =
  let heap = p.Process.heap in
  let { Heap.local = root_local; remote = root_remote } =
    Heap.trace heap ~from:(Heap.roots heap)
  in
  let cache : Oid.Set.t Oid.Tbl.t = Oid.Tbl.create 16 in
  let stubs_from_of_target target =
    match Oid.Tbl.find_opt cache target with
    | Some set -> set
    | None ->
        let { Heap.remote; _ } = Heap.trace heap ~from:[ target ] in
        Oid.Tbl.add cache target remote;
        remote
  in
  assemble ~now p ~root_local ~root_remote ~stubs_from_of_target

(* ------------------------------------------------------------------ *)
(* Condensed variant: iterative Tarjan SCC + DAG dynamic program over
   the heap's dense index.  The local graph is laid out in CSR form
   (one flat successor array + offsets), every per-node attribute is a
   plain int array indexed by dense id, and the whole scratch is a
   domain-local pool reused across runs (the arrays are fully
   re-initialized for [0, n) each run), so steady-state summarization
   allocates only at the Summary boundary.  Domain-local, not
   module-level: the parallel engine summarizes several processes
   concurrently, and each domain must own its scratch. *)

type scratch = {
  mutable index : int array; (* Tarjan discovery index, -1 = unvisited *)
  mutable lowlink : int array;
  mutable on_stack : Bytes.t;
  mutable scc : int array; (* node -> scc id, -1 = unassigned *)
  mutable off : int array; (* CSR: node -> start in succ_flat, length n+1 *)
  mutable succ_flat : int array; (* CSR: concatenated local successor ids *)
  mutable remote : Oid.t list array; (* node -> direct remote refs *)
  mutable stack : int array; (* Tarjan SCC stack *)
  mutable work_id : int array; (* explicit DFS stack: node... *)
  mutable work_child : int array; (* ...and its next-child cursor *)
  mutable scc_off : int array; (* scc -> start in member_flat *)
  mutable member_flat : int array; (* members bucketed by scc id *)
  mutable root_mark : Bytes.t; (* node -> reached from the local roots *)
  mutable stubs_from : Oid.Set.t option array; (* scc -> StubsFrom, once computed *)
}

let scratch_key =
  Domain.DLS.new_key (fun () ->
      {
        index = [||];
        lowlink = [||];
        on_stack = Bytes.empty;
        scc = [||];
        off = [||];
        succ_flat = [||];
        remote = [||];
        stack = [||];
        work_id = [||];
        work_child = [||];
        scc_off = [||];
        member_flat = [||];
        root_mark = Bytes.empty;
        stubs_from = [||];
      })

let ensure_int_array get set n =
  if Array.length (get ()) < n then set (Array.make (Int.max 64 n) 0)

(* [assemble] on dense ids: local root reachability is a byte per
   node marked by the dense root trace, StubsFrom is computed once per
   SCC and shared by every scion whose target lies in it, and ScionsTo
   fills in the same pass over the scions, with a stub's slot found by
   binary search over the stub targets in ascending order. *)
let assemble_dense s ~now (p : Process.t) ~n ~nscc ~reach =
  let heap = p.Process.heap in
  let stub_arr = Array.of_list (Stub_table.entries p.Process.stubs) in
  Array.sort
    (fun (a : Stub_table.entry) (b : Stub_table.entry) ->
      Oid.compare a.Stub_table.target b.Stub_table.target)
    stub_arr;
  let nstubs = Array.length stub_arr in
  let stub_index target =
    let lo = ref 0 and hi = ref nstubs in
    while !lo < !hi do
      let mid = (!lo + !hi) lsr 1 in
      if Oid.compare stub_arr.(mid).Stub_table.target target < 0 then lo := mid + 1
      else hi := mid
    done;
    if !lo < nstubs && Oid.equal stub_arr.(!lo).Stub_table.target target then !lo else -1
  in
  if Bytes.length s.root_mark < n then s.root_mark <- Bytes.make (Int.max 64 n) '\000';
  if Array.length s.stubs_from < nscc then s.stubs_from <- Array.make (Int.max 64 nscc) None;
  Bytes.fill s.root_mark 0 n '\000';
  Array.fill s.stubs_from 0 nscc None;
  let stub_root = Bytes.make nstubs '\000' in
  Heap.trace_dense heap ~from:(Heap.roots heap)
    ~visit_local:(fun id -> Bytes.unsafe_set s.root_mark id '\001')
    ~visit_remote:(fun target ->
      let i = stub_index target in
      if i >= 0 then Bytes.unsafe_set stub_root i '\001');
  let scions_to = Array.make nstubs Ref_key.Set.empty in
  let scions =
    List.map
      (fun (e : Scion_table.entry) ->
        let key = e.Scion_table.key in
        let stubs_from, target_locally_reachable =
          match Heap.dense_id heap key.Ref_key.target with
          | None -> (Oid.Set.empty, false)
          | Some id ->
              let c = s.scc.(id) in
              let stubs_from =
                match s.stubs_from.(c) with
                | Some set -> set
                | None ->
                    let set = Oid.Set.filter (fun r -> stub_index r >= 0) reach.(c) in
                    s.stubs_from.(c) <- Some set;
                    set
              in
              (stubs_from, Bytes.unsafe_get s.root_mark id = '\001')
        in
        Oid.Set.iter
          (fun target ->
            let i = stub_index target in
            scions_to.(i) <- Ref_key.Set.add key scions_to.(i))
          stubs_from;
        {
          Summary.key;
          scion_ic = e.Scion_table.ic;
          stubs_from;
          target_locally_reachable;
          last_invoked = e.Scion_table.last_invoked;
        })
      (Scion_table.entries p.Process.scions)
  in
  let stubs =
    List.init nstubs (fun i ->
        let e = stub_arr.(i) in
        {
          Summary.target = e.Stub_table.target;
          stub_ic = e.Stub_table.ic;
          scions_to = scions_to.(i);
          local_reach = Bytes.unsafe_get stub_root i = '\001';
        })
  in
  Summary.make ~proc:p.Process.id ~taken_at:now ~scions ~stubs

let run_condensed ~now (p : Process.t) =
  let heap = p.Process.heap in
  let me = p.Process.id in
  let n = Heap.dense_sync heap in
  let s = Domain.DLS.get scratch_key in
  ensure_int_array (fun () -> s.index) (fun a -> s.index <- a) n;
  ensure_int_array (fun () -> s.lowlink) (fun a -> s.lowlink <- a) n;
  ensure_int_array (fun () -> s.scc) (fun a -> s.scc <- a) n;
  ensure_int_array (fun () -> s.off) (fun a -> s.off <- a) (n + 1);
  ensure_int_array (fun () -> s.stack) (fun a -> s.stack <- a) n;
  ensure_int_array (fun () -> s.work_id) (fun a -> s.work_id <- a) (n + 1);
  ensure_int_array (fun () -> s.work_child) (fun a -> s.work_child <- a) (n + 1);
  ensure_int_array (fun () -> s.scc_off) (fun a -> s.scc_off <- a) (n + 2);
  ensure_int_array (fun () -> s.member_flat) (fun a -> s.member_flat <- a) n;
  if Bytes.length s.on_stack < n then s.on_stack <- Bytes.make (Int.max 64 n) '\000';
  if Array.length s.remote < n then s.remote <- Array.make (Int.max 64 n) [];
  Array.fill s.index 0 n (-1);
  Array.fill s.scc 0 n (-1);
  Bytes.fill s.on_stack 0 n '\000';
  Array.fill s.remote 0 n [];
  (* CSR layout in one pass: iter_dense walks ids in ascending order,
     so successor runs land contiguously in [succ_flat]. *)
  let edge = ref 0 in
  let push_succ id =
    if !edge >= Array.length s.succ_flat then begin
      let bigger = Array.make (Int.max 256 (2 * Array.length s.succ_flat)) 0 in
      Array.blit s.succ_flat 0 bigger 0 (Array.length s.succ_flat);
      s.succ_flat <- bigger
    end;
    s.succ_flat.(!edge) <- id;
    incr edge
  in
  let last = ref 0 in
  Heap.iter_dense heap (fun id obj ->
      (* Dead ids between [last] and [id] keep empty successor runs. *)
      for i = !last to id do
        s.off.(i) <- !edge
      done;
      last := id + 1;
      Array.iter
        (function
          | None -> ()
          | Some target ->
              if Proc_id.equal (Oid.owner target) me then begin
                match Heap.dense_id heap target with
                | Some sid -> push_succ sid
                | None -> () (* dangling local reference *)
              end
              else s.remote.(id) <- target :: s.remote.(id))
        obj.Heap.fields);
  for i = !last to n do
    s.off.(i) <- !edge
  done;
  (* Iterative Tarjan: an explicit work stack of (node, next-child).
     SCCs are numbered in emission order, i.e. reverse topological
     order of the condensation (every successor SCC of [c] has a
     number smaller than [c]). *)
  let counter = ref 0 in
  let scc_count = ref 0 in
  let sp = ref 0 in
  (* Tarjan stack pointer *)
  let visit start =
    if s.index.(start) = -1 then begin
      let wp = ref 0 in
      let push_work id child =
        s.work_id.(!wp) <- id;
        s.work_child.(!wp) <- child;
        incr wp
      in
      let discover id =
        s.index.(id) <- !counter;
        s.lowlink.(id) <- !counter;
        incr counter;
        Bytes.unsafe_set s.on_stack id '\001';
        s.stack.(!sp) <- id;
        incr sp
      in
      discover start;
      push_work start 0;
      while !wp > 0 do
        decr wp;
        let id = s.work_id.(!wp) and child = s.work_child.(!wp) in
        if s.off.(id) + child < s.off.(id + 1) then begin
          push_work id (child + 1);
          let succ = s.succ_flat.(s.off.(id) + child) in
          if s.index.(succ) = -1 then begin
            discover succ;
            push_work succ 0
          end
          else if Bytes.unsafe_get s.on_stack succ = '\001' then
            s.lowlink.(id) <- Int.min s.lowlink.(id) s.index.(succ)
        end
        else begin
          (* All children done: propagate lowlink to the parent and
             emit an SCC when this node is its root. *)
          (if !wp > 0 then
             let parent = s.work_id.(!wp - 1) in
             s.lowlink.(parent) <- Int.min s.lowlink.(parent) s.lowlink.(id));
          if s.lowlink.(id) = s.index.(id) then begin
            let cid = !scc_count in
            incr scc_count;
            let continue = ref true in
            while !continue do
              decr sp;
              let member = s.stack.(!sp) in
              Bytes.unsafe_set s.on_stack member '\000';
              s.scc.(member) <- cid;
              if member = id then continue := false
            done
          end
        end
      done
    end
  in
  Heap.iter_dense heap (fun id _ -> visit id);
  let nscc = !scc_count in
  (* Bucket members by SCC id (counting sort), then run the DP over
     the condensation: reachable remote references per SCC.  Successor
     SCCs always carry smaller ids, so ascending order works. *)
  Array.fill s.scc_off 0 (nscc + 1) 0;
  Heap.iter_dense heap (fun id _ -> s.scc_off.(s.scc.(id) + 1) <- s.scc_off.(s.scc.(id) + 1) + 1);
  for c = 1 to nscc do
    s.scc_off.(c) <- s.scc_off.(c) + s.scc_off.(c - 1)
  done;
  (* scc_off now holds start offsets; fill and restore in one pass by
     shifting a cursor copy. *)
  let cursor = Array.sub s.scc_off 0 (nscc + 1) in
  Heap.iter_dense heap (fun id _ ->
      let c = s.scc.(id) in
      s.member_flat.(cursor.(c)) <- id;
      cursor.(c) <- cursor.(c) + 1);
  let reach = Array.make (Int.max nscc 1) Oid.Set.empty in
  for c = 0 to nscc - 1 do
    let acc = ref Oid.Set.empty in
    for m = s.scc_off.(c) to s.scc_off.(c + 1) - 1 do
      let id = s.member_flat.(m) in
      List.iter (fun r -> acc := Oid.Set.add r !acc) s.remote.(id);
      for e = s.off.(id) to s.off.(id + 1) - 1 do
        let succ_scc = s.scc.(s.succ_flat.(e)) in
        if succ_scc <> c then acc := Oid.Set.union !acc reach.(succ_scc)
      done
    done;
    reach.(c) <- !acc
  done;
  assemble_dense s ~now p ~n ~nscc ~reach

let run ?(algo = Condensed) ~now p =
  match algo with
  | Naive -> run_naive ~now p
  | Condensed -> run_condensed ~now p

module Incremental = struct
  type region = { r_local : Oid.Set.t; r_remote : Oid.Set.t }

  type state = {
    (* Cached per scion target: the local region its trace covered and
       the remote references found (= StubsFrom). *)
    regions : region Oid.Tbl.t;
    mutable root_region : region option;
    mutable recomputed : int;
    mutable reused : int;
  }

  let create () = { regions = Oid.Tbl.create 32; root_region = None; recomputed = 0; reused = 0 }

  let last_recomputed t = t.recomputed

  let last_reused t = t.reused

  let intersects set dirty = not (Oid.Set.is_empty (Oid.Set.inter set dirty))

  let run t ~now (p : Process.t) =
    let heap = p.Process.heap in
    let dirty, roots_dirty = Heap.take_dirty heap in
    t.recomputed <- 0;
    t.reused <- 0;
    (* Root region. *)
    let root =
      match t.root_region with
      | Some r when (not roots_dirty) && not (intersects r.r_local dirty) ->
          t.reused <- t.reused + 1;
          r
      | Some _ | None ->
          t.recomputed <- t.recomputed + 1;
          let { Heap.local; remote } = Heap.trace heap ~from:(Heap.roots heap) in
          let r = { r_local = local; r_remote = remote } in
          t.root_region <- Some r;
          r
    in
    (* Per-scion-target regions: refresh stale ones, drop vanished
       targets, trace new ones. *)
    let wanted =
      List.fold_left
        (fun acc (e : Scion_table.entry) -> Oid.Set.add e.Scion_table.key.Ref_key.target acc)
        Oid.Set.empty
        (Scion_table.entries p.Process.scions)
    in
    let vanished =
      Oid.Tbl.fold
        (fun target _ acc -> if Oid.Set.mem target wanted then acc else target :: acc)
        t.regions []
    in
    List.iter (Oid.Tbl.remove t.regions) vanished;
    Oid.Set.iter
      (fun target ->
        match Oid.Tbl.find_opt t.regions target with
        | Some r when not (intersects r.r_local dirty) -> t.reused <- t.reused + 1
        | Some _ | None ->
            t.recomputed <- t.recomputed + 1;
            let { Heap.local; remote } = Heap.trace heap ~from:[ target ] in
            Oid.Tbl.replace t.regions target { r_local = local; r_remote = remote })
      wanted;
    let stubs_from_of_target target =
      match Oid.Tbl.find_opt t.regions target with
      | Some r -> r.r_remote
      | None -> Oid.Set.empty
    in
    assemble ~now p ~root_local:root.r_local ~root_remote:root.r_remote ~stubs_from_of_target
end
