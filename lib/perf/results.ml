module Json = Adgc_util.Json

let schema_version = 1

type host = { cores : int }

type t = {
  rev : string;
  smoke : bool;
  host : host;
  sections : (string * Sample.t list) list;
}

let normalize t =
  let sections =
    t.sections
    |> List.map (fun (name, samples) ->
           (name, List.sort (fun (a : Sample.t) b -> String.compare a.Sample.name b.name) samples))
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  in
  { t with sections }

let samples t = List.concat_map snd t.sections

let find t name =
  List.find_opt (fun (s : Sample.t) -> s.Sample.name = name) (samples t)

let to_json t =
  let t = normalize t in
  Json.Obj
    [
      ("schema_version", Json.Int schema_version);
      ("rev", Json.Str t.rev);
      ("smoke", Json.Bool t.smoke);
      ("host", Json.Obj [ ("cores", Json.Int t.host.cores) ]);
      ( "sections",
        Json.obj_sorted
          (List.map
             (fun (name, samples) -> (name, Json.Arr (List.map Sample.to_json samples)))
             t.sections) );
    ]

let member k = function Json.Obj fields -> List.assoc_opt k fields | _ -> None

let of_json j =
  let ( let* ) r f = match r with Ok v -> f v | Error _ as e -> e in
  let* () =
    match member "schema_version" j with
    | Some (Json.Int v) when v = schema_version -> Ok ()
    | Some (Json.Int v) -> Error (Printf.sprintf "unsupported schema_version %d" v)
    | _ -> Error "missing schema_version"
  in
  let* rev =
    match member "rev" j with Some (Json.Str s) -> Ok s | _ -> Error "missing rev"
  in
  let* smoke =
    match member "smoke" j with Some (Json.Bool b) -> Ok b | _ -> Error "missing smoke"
  in
  (* Older documents also carry a [worker_domains] count; it is
     ignored. *)
  let* host =
    match member "host" j with
    | Some h -> (
        match member "cores" h with
        | Some (Json.Int cores) -> Ok { cores }
        | _ -> Error "malformed host")
    | None -> Error "missing host"
  in
  let* sections =
    match member "sections" j with
    | Some (Json.Obj fields) ->
        List.fold_left
          (fun acc (name, v) ->
            let* acc = acc in
            match v with
            | Json.Arr items ->
                let* samples =
                  List.fold_left
                    (fun acc item ->
                      let* acc = acc in
                      let* s = Sample.of_json item in
                      Ok (s :: acc))
                    (Ok []) items
                in
                Ok ((name, List.rev samples) :: acc)
            | _ -> Error (Printf.sprintf "section %S is not an array" name))
          (Ok []) fields
        |> Result.map List.rev
    | _ -> Error "missing sections"
  in
  Ok (normalize { rev; smoke; host; sections })

let of_string s = Result.bind (Json.of_string s) of_json

let to_string t = Json.to_string_pretty (to_json t)

(* The non-timing identity of a document: every structural field plus
   the values of Deterministic samples, with Timing values blanked.
   Two same-seed runs must agree on this byte string however noisy
   the host clock was. *)
let fingerprint t =
  let t = normalize t in
  let sample (s : Sample.t) =
    let v f = match s.klass with Sample.Deterministic -> Json.of_float f | Timing -> Json.Null in
    Json.obj_sorted
      [
        ("name", Json.Str s.name);
        ("unit", Json.Str s.unit_);
        ("reps", Json.Int s.reps);
        ("median", v s.median);
        ("min", v s.min);
        ("direction", Json.Str (Sample.direction_to_string s.direction));
        ("class", Json.Str (Sample.klass_to_string s.klass));
        ("slo", match s.slo with Some x -> Json.of_float x | None -> Json.Null);
        ("config_digest", Json.Str s.config_digest);
      ]
  in
  Json.to_string
    (Json.obj_sorted
       (List.map (fun (name, ss) -> (name, Json.Arr (List.map sample ss))) t.sections))

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file path contents =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out_noerr oc) (fun () -> output_string oc contents)

let load path =
  match read_file path with
  | exception Sys_error e -> Error e
  | contents -> (
      match of_string contents with
      | Ok t -> Ok t
      | Error e -> Error (Printf.sprintf "%s: %s" path e))

let save path t = write_file path (to_string t)

let mkdir_p dir =
  let rec go d =
    if d <> "" && d <> "." && d <> "/" && not (Sys.file_exists d) then begin
      go (Filename.dirname d);
      (try Sys.mkdir d 0o755 with Sys_error _ -> ())
    end
  in
  go dir

(* One canonical landing spot per revision plus a stable alias the
   comparator and CI read by default. *)
let save_results ~dir t =
  mkdir_p dir;
  let rev_path = Filename.concat dir (t.rev ^ ".json") in
  save rev_path t;
  let latest = Filename.concat dir "latest.json" in
  save latest t;
  (rev_path, latest)
