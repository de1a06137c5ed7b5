(** Snapshot pipeline: summarize, serialize, publish.

    The paper's processes periodically store a snapshot "on disk" and
    the DCDA works on the summarized form.  This store performs the
    honest equivalent: it summarizes the process, encodes the summary
    through the configured codec, keeps the bytes (our "disk"), and
    publishes the {e decoded} summary — so the detector always reads
    what survived a serialization round-trip, never the live tables.

    Sizes and durations are recorded in the cluster statistics. *)

open Adgc_algebra

type t

val create :
  ?codec:Adgc_serial.Codec.t ->
  ?algo:Summarize.algo ->
  Adgc_rt.Runtime.t ->
  t
(** Default codec: the compact one; default algorithm: [Condensed]. *)

val take : t -> Adgc_rt.Process.t -> Summary.t
(** Snapshot one process now; returns (and publishes) the summary.
    Equivalent to {!commit} of {!prepare}. *)

val take_all : t -> unit
(** Snapshot every process now, in ascending process order. *)

(** {2 Timed split}

    {!prepare} is the pure per-process phase (summarize + encode +
    round-trip decode): it reads only the process's own state and
    touches no shared sink.  {!commit} applies the effects — stats,
    spans, the published store, subscribers.  {!take} is the two in
    sequence; the split exists so profilers can time each phase as a
    layer of its own. *)

type prepared

val prepare : t -> Adgc_rt.Process.t -> prepared

val commit : t -> prepared -> Summary.t

val latest : t -> Proc_id.t -> Summary.t option

val bytes_on_disk : t -> Proc_id.t -> int
(** Size of the stored encoded summary (0 when none). *)

val subscribe : t -> (Summary.t -> unit) -> unit
(** Called with every newly published summary (the detector hooks in
    here). *)
