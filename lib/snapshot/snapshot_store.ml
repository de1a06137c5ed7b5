open Adgc_algebra
open Adgc_rt
module Stats = Adgc_util.Stats

type t = {
  rt : Runtime.t;
  codec : Adgc_serial.Codec.t;
  direct : bool; (* codec is Net_codec: use Summary's direct wire path *)
  algo : Summarize.algo;
  store : (int, Summary.t * string) Hashtbl.t; (* proc -> summary, encoded bytes *)
  mutable subscribers : (Summary.t -> unit) list;
}

let create ?codec ?(algo = Summarize.Condensed) rt =
  let codec =
    match codec with Some c -> c | None -> (module Adgc_serial.Net_codec : Adgc_serial.Codec.S)
  in
  {
    rt;
    codec;
    direct = String.equal (Adgc_serial.Codec.name codec) Adgc_serial.Net_codec.name;
    algo;
    store = Hashtbl.create 16;
    subscribers = [];
  }

type prepared = {
  p_proc : Process.t;
  p_time : int;
  p_encoded : string;
  p_published : Summary.t;
  p_decode_failed : bool;
}

(* The pure per-process phase: summarize, encode and round-trip
   decode.  Reads only [p]'s heap and tables and touches no shared
   sink. *)
let prepare t (p : Process.t) =
  let now = Runtime.now t.rt in
  let summary = Summarize.run ~algo:t.algo ~now p in
  (* The direct pair writes and reads the same bytes as the generic
     Sval path, which stays the route for every other codec. *)
  let encoded, decoded =
    if t.direct then
      let encoded = Summary.encode_net summary in
      (encoded, Summary.decode_net encoded)
    else
      let encoded = Adgc_serial.Codec.encode t.codec (Summary.to_sval summary) in
      (encoded, Summary.of_sval (Adgc_serial.Codec.decode t.codec encoded))
  in
  (* Publish what survives the round-trip, not the in-memory value. *)
  let published, p_decode_failed =
    match decoded with
    | Some s -> (s, false)
    | None -> (summary, true)
  in
  { p_proc = p; p_time = now; p_encoded = encoded; p_published = published; p_decode_failed }

(* The effect phase: stats, spans, the published store, the log and
   the subscribers (detectors). *)
let commit t pr =
  let p = pr.p_proc and encoded = pr.p_encoded and published = pr.p_published in
  Stats.incr t.rt.Runtime.stats "snapshot.taken";
  Stats.add t.rt.Runtime.stats "snapshot.bytes" (String.length encoded);
  if pr.p_decode_failed then Stats.incr t.rt.Runtime.stats "snapshot.decode_failures";
  if Adgc_obs.Span.enabled t.rt.Runtime.obs then begin
    Stats.observe t.rt.Runtime.stats "snapshot.size_bytes" (float_of_int (String.length encoded));
    ignore
      (Adgc_obs.Span.event t.rt.Runtime.obs ~time:pr.p_time ~parent:t.rt.Runtime.run_span
         ~proc:(Proc_id.to_int p.Process.id)
         ~args:[ ("bytes", string_of_int (String.length encoded)) ]
         ~kind:Adgc_obs.Span.Snapshot
         (Printf.sprintf "snapshot %s" (Proc_id.to_string p.Process.id))
        : int)
  end;
  Hashtbl.replace t.store (Proc_id.to_int p.Process.id) (published, encoded);
  (* [counts] is O(n) and must run now (the renderer may not keep the
     summary), so compute it only when the trace buffer is on. *)
  if Adgc_util.Trace.enabled t.rt.Runtime.trace then begin
    let scions, stubs = Summary.counts published
    and at = p.Process.id
    and bytes = String.length encoded in
    Runtime.log t.rt ~topic:"snapshot" (fun ppf ->
        Format.fprintf ppf "%a summarized: %d scions, %d stubs, %d bytes" Proc_id.pp at scions
          stubs bytes)
  end;
  List.iter (fun f -> f published) t.subscribers;
  published

let take t (p : Process.t) = commit t (prepare t p)

let take_all t = Array.iter (fun p -> ignore (take t p : Summary.t)) t.rt.Runtime.procs

let latest t proc = Option.map fst (Hashtbl.find_opt t.store (Proc_id.to_int proc))

let bytes_on_disk t proc =
  match Hashtbl.find_opt t.store (Proc_id.to_int proc) with
  | Some (_, bytes) -> String.length bytes
  | None -> 0

let subscribe t f = t.subscribers <- f :: t.subscribers
