type event = { time : int; topic : string; text : string }

(* A recorded event: the text is rendered only when the trace is read,
   so recording allocates this slot and the caller's closure and
   nothing else. *)
type slot = { at : int; about : string; render : Format.formatter -> unit }

let empty = { at = 0; about = ""; render = ignore }

(* The ring starts small and doubles up to [capacity]: a run that
   records little (a model-checker replay, a unit test) never pays for
   a full-size array, which the major GC would otherwise scan on every
   cycle.  Until the ring is full it never wraps, so growing is one
   blit. *)
type t = {
  capacity : int;
  mutable buf : slot array;
  mutable head : int; (* next write slot *)
  mutable count : int;
  mutable dropped : int;
  mutable enabled : bool;
}

let initial capacity = Array.make (Int.min capacity 64) empty

let create ?(capacity = 65536) () =
  { capacity; buf = initial capacity; head = 0; count = 0; dropped = 0; enabled = true }

let enabled t = t.enabled

let set_enabled t b = t.enabled <- b

let record t ~time ~topic render =
  if t.enabled then begin
    let size = Array.length t.buf in
    if t.count = size && size < t.capacity then begin
      let bigger = Array.make (Int.min t.capacity (2 * size)) empty in
      Array.blit t.buf 0 bigger 0 size;
      t.buf <- bigger;
      t.head <- size
    end;
    if t.count = t.capacity then t.dropped <- t.dropped + 1
    else t.count <- t.count + 1;
    t.buf.(t.head) <- { at = time; about = topic; render };
    t.head <- (t.head + 1) mod Array.length t.buf
  end

let add t ~time ~topic text = record t ~time ~topic (fun ppf -> Format.pp_print_string ppf text)

let rendered s = { time = s.at; topic = s.about; text = Format.asprintf "%t" s.render }

(* Slots oldest first, keeping those [keep] accepts, each rendered. *)
let collect t keep =
  let size = Array.length t.buf in
  let start = (t.head - t.count + size) mod size in
  let rec go i n acc =
    if n = 0 then List.rev acc
    else
      let s = t.buf.(i) in
      go ((i + 1) mod size) (n - 1) (if keep s then rendered s :: acc else acc)
  in
  go start t.count []

let events t = collect t (fun _ -> true)

let by_topic t topic = collect t (fun s -> String.equal s.about topic)

let dropped t = t.dropped

let clear t =
  t.buf <- initial t.capacity;
  t.head <- 0;
  t.count <- 0;
  t.dropped <- 0

let pp_event ppf e = Format.fprintf ppf "[%6d] %-10s %s" e.time e.topic e.text

let dump ppf t =
  List.iter (fun e -> Format.fprintf ppf "%a@." pp_event e) (events t)
