open Adgc_algebra
module Sval = Adgc_serial.Sval

type scion_info = {
  key : Ref_key.t;
  scion_ic : int;
  stubs_from : Oid.Set.t;
  target_locally_reachable : bool;
  last_invoked : int;
}

type stub_info = {
  target : Oid.t;
  stub_ic : int;
  scions_to : Ref_key.Set.t;
  local_reach : bool;
}

type t = {
  proc : Proc_id.t;
  taken_at : int;
  scions : scion_info Ref_key.Map.t;
  stubs : stub_info Oid.Map.t;
}

let make ~proc ~taken_at ~scions ~stubs =
  {
    proc;
    taken_at;
    scions = List.fold_left (fun m s -> Ref_key.Map.add s.key s m) Ref_key.Map.empty scions;
    stubs = List.fold_left (fun m s -> Oid.Map.add s.target s m) Oid.Map.empty stubs;
  }

let find_scion t key = Ref_key.Map.find_opt key t.scions

let find_stub t target = Oid.Map.find_opt target t.stubs

let scion_list t = List.map snd (Ref_key.Map.bindings t.scions)

let stub_list t = List.map snd (Oid.Map.bindings t.stubs)

let counts t = (Ref_key.Map.cardinal t.scions, Oid.Map.cardinal t.stubs)

let scion_equal a b =
  Ref_key.equal a.key b.key && a.scion_ic = b.scion_ic
  && Oid.Set.equal a.stubs_from b.stubs_from
  && a.target_locally_reachable = b.target_locally_reachable
  && a.last_invoked = b.last_invoked

let stub_equal a b =
  Oid.equal a.target b.target && a.stub_ic = b.stub_ic
  && Ref_key.Set.equal a.scions_to b.scions_to
  && a.local_reach = b.local_reach

let equal a b =
  Proc_id.equal a.proc b.proc
  && Ref_key.Map.equal scion_equal a.scions b.scions
  && Oid.Map.equal stub_equal a.stubs b.stubs

(* ------------------------------------------------------------------ *)
(* Wire format *)

let oid_sval (o : Oid.t) = Sval.List [ Sval.Int (Proc_id.to_int (Oid.owner o)); Sval.Int o.Oid.serial ]

let oid_of_sval = function
  | Sval.List [ Sval.Int owner; Sval.Int serial ] when owner >= 0 && serial >= 0 ->
      Some (Oid.make ~owner:(Proc_id.of_int owner) ~serial)
  | _ -> None

let key_sval (k : Ref_key.t) =
  Sval.List [ Sval.Int (Proc_id.to_int k.Ref_key.src); oid_sval k.Ref_key.target ]

let key_of_sval = function
  | Sval.List [ Sval.Int src; target ] when src >= 0 ->
      Option.map (fun target -> Ref_key.make ~src:(Proc_id.of_int src) ~target) (oid_of_sval target)
  | _ -> None

let scion_sval s =
  Sval.Record
    ( "scion",
      [
        ("key", key_sval s.key);
        ("ic", Sval.Int s.scion_ic);
        ("stubs_from", Sval.List (List.map oid_sval (Oid.Set.elements s.stubs_from)));
        ("root", Sval.Bool s.target_locally_reachable);
        ("last_invoked", Sval.Int s.last_invoked);
      ] )

let stub_sval s =
  Sval.Record
    ( "stub",
      [
        ("target", oid_sval s.target);
        ("ic", Sval.Int s.stub_ic);
        ("scions_to", Sval.List (List.map key_sval (Ref_key.Set.elements s.scions_to)));
        ("local_reach", Sval.Bool s.local_reach);
      ] )

let to_sval t =
  Sval.Record
    ( "summary",
      [
        ("proc", Sval.Int (Proc_id.to_int t.proc));
        ("taken_at", Sval.Int t.taken_at);
        ("scions", Sval.List (List.map scion_sval (scion_list t)));
        ("stubs", Sval.List (List.map stub_sval (stub_list t)));
      ] )

let all_some l =
  List.fold_left
    (fun acc v -> match (acc, v) with Some acc, Some v -> Some (v :: acc) | _, _ -> None)
    (Some []) l
  |> Option.map List.rev

let scion_of_sval = function
  | Sval.Record
      ( "scion",
        [
          ("key", key);
          ("ic", Sval.Int scion_ic);
          ("stubs_from", Sval.List stubs_from);
          ("root", Sval.Bool target_locally_reachable);
          ("last_invoked", Sval.Int last_invoked);
        ] ) ->
      Option.bind (key_of_sval key) (fun key ->
          Option.map
            (fun stubs ->
              {
                key;
                scion_ic;
                stubs_from = Oid.Set.of_list stubs;
                target_locally_reachable;
                last_invoked;
              })
            (all_some (List.map oid_of_sval stubs_from)))
  | _ -> None

let stub_of_sval = function
  | Sval.Record
      ( "stub",
        [
          ("target", target);
          ("ic", Sval.Int stub_ic);
          ("scions_to", Sval.List scions_to);
          ("local_reach", Sval.Bool local_reach);
        ] ) ->
      Option.bind (oid_of_sval target) (fun target ->
          Option.map
            (fun keys ->
              { target; stub_ic; scions_to = Ref_key.Set.of_list keys; local_reach })
            (all_some (List.map key_of_sval scions_to)))
  | _ -> None

let of_sval = function
  | Sval.Record
      ( "summary",
        [
          ("proc", Sval.Int proc);
          ("taken_at", Sval.Int taken_at);
          ("scions", Sval.List scions);
          ("stubs", Sval.List stubs);
        ] )
    when proc >= 0 ->
      Option.bind (all_some (List.map scion_of_sval scions)) (fun scions ->
          Option.map
            (fun stubs -> make ~proc:(Proc_id.of_int proc) ~taken_at ~scions ~stubs)
            (all_some (List.map stub_of_sval stubs)))
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Direct Net_codec path: the bytes [Net_codec.encode (to_sval t)]
   writes, produced and parsed without the Sval tree.  The tag values
   and the first-occurrence interning mirror [Net_codec]; the parity
   property in the tests pins the two paths byte for byte. *)

module W = Adgc_serial.Wire.Writer
module R = Adgc_serial.Wire.Reader

let tag_bool_false = 1
let tag_bool_true = 2
let tag_int = 3
let tag_list = 6
let tag_record = 7

(* Every record and field name [to_sval] can write; indices below. *)
let names =
  [| "summary"; "proc"; "taken_at"; "scions"; "scion"; "key"; "ic"; "stubs_from"; "root";
     "last_invoked"; "stubs"; "stub"; "target"; "scions_to"; "local_reach" |]

let n_summary = 0
let n_proc = 1
let n_taken_at = 2
let n_scions = 3
let n_scion = 4
let n_key = 5
let n_ic = 6
let n_stubs_from = 7
let n_root = 8
let n_last_invoked = 9
let n_stubs = 10
let n_stub = 11
let n_target = 12
let n_scions_to = 13
let n_local_reach = 14

(* [slots.(name)] is the intern index the name got on first write, or
   -1 while it has not been written yet. *)
type enc = { w : W.t; slots : int array; mutable next : int }

let put_name e id =
  let slot = e.slots.(id) in
  if slot >= 0 then W.varint e.w slot
  else begin
    W.varint e.w e.next;
    W.string e.w names.(id);
    e.slots.(id) <- e.next;
    e.next <- e.next + 1
  end

let put_record e id fields =
  W.byte e.w tag_record;
  put_name e id;
  W.varint e.w fields

let put_list e n =
  W.byte e.w tag_list;
  W.varint e.w n

let put_int e v =
  W.byte e.w tag_int;
  W.varint e.w v

let put_oid e (o : Oid.t) =
  put_list e 2;
  put_int e (Proc_id.to_int (Oid.owner o));
  put_int e o.Oid.serial

let put_key e (k : Ref_key.t) =
  put_list e 2;
  put_int e (Proc_id.to_int k.Ref_key.src);
  put_oid e k.Ref_key.target

let put_bool e b = W.byte e.w (if b then tag_bool_true else tag_bool_false)

let put_scion e s =
  put_record e n_scion 5;
  put_name e n_key;
  put_key e s.key;
  put_name e n_ic;
  put_int e s.scion_ic;
  put_name e n_stubs_from;
  put_list e (Oid.Set.cardinal s.stubs_from);
  Oid.Set.iter (put_oid e) s.stubs_from;
  put_name e n_root;
  put_bool e s.target_locally_reachable;
  put_name e n_last_invoked;
  put_int e s.last_invoked

let put_stub e s =
  put_record e n_stub 4;
  put_name e n_target;
  put_oid e s.target;
  put_name e n_ic;
  put_int e s.stub_ic;
  put_name e n_scions_to;
  put_list e (Ref_key.Set.cardinal s.scions_to);
  Ref_key.Set.iter (put_key e) s.scions_to;
  put_name e n_local_reach;
  put_bool e s.local_reach

let encode_net t =
  let e =
    { w = W.create ~initial:1024 (); slots = Array.make (Array.length names) (-1); next = 0 }
  in
  put_record e n_summary 4;
  put_name e n_proc;
  put_int e (Proc_id.to_int t.proc);
  put_name e n_taken_at;
  put_int e t.taken_at;
  put_name e n_scions;
  put_list e (Ref_key.Map.cardinal t.scions);
  Ref_key.Map.iter (fun _ s -> put_scion e s) t.scions;
  put_name e n_stubs;
  put_list e (Oid.Map.cardinal t.stubs);
  Oid.Map.iter (fun _ s -> put_stub e s) t.stubs;
  W.contents e.w

(* The parser accepts exactly the documents [of_sval] accepts, read in
   the order [Net_codec.decode] reads them.  Anything else — a shape
   [of_sval] would reject or bytes [Net_codec.decode] would reject —
   raises [Mismatch] or [Wire.Malformed], and [decode_net] hands the
   input to the generic pair, so failures agree with it by
   construction. *)
exception Mismatch

(* [ids.(i)] is the name the [i]-th interned string spelled. *)
type dec = { r : R.t; mutable ids : int array; mutable count : int }

let get_tag d tag = if R.byte d.r <> tag then raise_notrace Mismatch

let get_name d id =
  let idx = R.varint d.r in
  if idx >= 0 && idx < d.count then begin
    if d.ids.(idx) <> id then raise_notrace Mismatch
  end
  else if idx = d.count then begin
    if not (String.equal (R.string d.r) names.(id)) then raise_notrace Mismatch;
    if d.count = Array.length d.ids then begin
      let bigger = Array.make (2 * d.count) (-1) in
      Array.blit d.ids 0 bigger 0 d.count;
      d.ids <- bigger
    end;
    d.ids.(d.count) <- id;
    d.count <- d.count + 1
  end
  else raise_notrace Mismatch

(* [Net_codec]'s plausibility check: each element costs a byte. *)
let get_length d =
  let n = R.varint d.r in
  if n < 0 || n > R.remaining d.r then raise_notrace Mismatch;
  n

let get_record d id fields =
  get_tag d tag_record;
  get_name d id;
  if get_length d <> fields then raise_notrace Mismatch

let get_int d =
  get_tag d tag_int;
  R.varint d.r

let get_nonneg d =
  let v = get_int d in
  if v < 0 then raise_notrace Mismatch;
  v

let get_bool d =
  let b = R.byte d.r in
  if b = tag_bool_true then true else if b = tag_bool_false then false else raise_notrace Mismatch

let get_pair d = if get_length d <> 2 then raise_notrace Mismatch

let get_oid d =
  get_tag d tag_list;
  get_pair d;
  let owner = get_nonneg d in
  let serial = get_nonneg d in
  Oid.make ~owner:(Proc_id.of_int owner) ~serial

let get_key d =
  get_tag d tag_list;
  get_pair d;
  let src = get_nonneg d in
  let target = get_oid d in
  Ref_key.make ~src:(Proc_id.of_int src) ~target

let get_list d =
  get_tag d tag_list;
  get_length d

let get_scion d =
  get_record d n_scion 5;
  get_name d n_key;
  let key = get_key d in
  get_name d n_ic;
  let scion_ic = get_int d in
  get_name d n_stubs_from;
  let stubs_from = ref Oid.Set.empty in
  for _ = 1 to get_list d do
    stubs_from := Oid.Set.add (get_oid d) !stubs_from
  done;
  get_name d n_root;
  let target_locally_reachable = get_bool d in
  get_name d n_last_invoked;
  let last_invoked = get_int d in
  { key; scion_ic; stubs_from = !stubs_from; target_locally_reachable; last_invoked }

let get_stub d =
  get_record d n_stub 4;
  get_name d n_target;
  let target = get_oid d in
  get_name d n_ic;
  let stub_ic = get_int d in
  get_name d n_scions_to;
  let scions_to = ref Ref_key.Set.empty in
  for _ = 1 to get_list d do
    scions_to := Ref_key.Set.add (get_key d) !scions_to
  done;
  get_name d n_local_reach;
  let local_reach = get_bool d in
  { target; stub_ic; scions_to = !scions_to; local_reach }

let decode_direct s =
  let d = { r = R.of_string s; ids = Array.make 16 (-1); count = 0 } in
  get_record d n_summary 4;
  get_name d n_proc;
  let proc = Proc_id.of_int (get_nonneg d) in
  get_name d n_taken_at;
  let taken_at = get_int d in
  get_name d n_scions;
  (* Later duplicates replace earlier ones, as in [make]. *)
  let scions = ref Ref_key.Map.empty in
  for _ = 1 to get_list d do
    let sc = get_scion d in
    scions := Ref_key.Map.add sc.key sc !scions
  done;
  get_name d n_stubs;
  let stubs = ref Oid.Map.empty in
  for _ = 1 to get_list d do
    let st = get_stub d in
    stubs := Oid.Map.add st.target st !stubs
  done;
  if not (R.at_end d.r) then raise_notrace Mismatch;
  { proc; taken_at; scions = !scions; stubs = !stubs }

let decode_net s =
  match decode_direct s with
  | t -> Some t
  | exception (Mismatch | Adgc_serial.Wire.Malformed _) ->
      of_sval (Adgc_serial.Net_codec.decode s)

let pp ppf t =
  Format.fprintf ppf "@[<v>summary of %a at %d@," Proc_id.pp t.proc t.taken_at;
  List.iter
    (fun s ->
      Format.fprintf ppf "  scion %a ic=%d root=%b StubsFrom={%a}@," Ref_key.pp s.key s.scion_ic
        s.target_locally_reachable
        (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf ", ") Oid.pp)
        (Oid.Set.elements s.stubs_from))
    (scion_list t);
  List.iter
    (fun s ->
      Format.fprintf ppf "  stub  %a ic=%d local=%b ScionsTo={%a}@," Oid.pp s.target s.stub_ic
        s.local_reach
        (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf ", ") Ref_key.pp)
        (Ref_key.Set.elements s.scions_to))
    (stub_list t);
  Format.fprintf ppf "@]"
