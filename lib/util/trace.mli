(** Bounded in-memory event trace.

    Subsystems append one-line events tagged with a simulated
    timestamp and a topic; tests assert on the recorded sequence and
    examples replay it to print paper-style step traces (e.g. the
    algebra steps of the paper's Section 3).  The buffer is bounded so
    long runs cannot exhaust memory; when full, the oldest events are
    dropped and [dropped] counts them.

    Recording is cheap: an event stores its time, its topic and a
    renderer, and no formatting happens until the trace is read
    ({!events}, {!by_topic}, {!dump}).  A renderer must therefore
    capture only immutable values (process ids, oids, keys, ints,
    strings) — never a process, a table or a summary — so the text it
    renders later is the text the event had when it was recorded. *)

type event = { time : int; topic : string; text : string }

type t

val create : ?capacity:int -> unit -> t
(** Default capacity: 65536 events. *)

val enabled : t -> bool

val set_enabled : t -> bool -> unit
(** Disabling makes {!add} and {!record} no-ops.  The runtime never
    disables its trace; tests do. *)

val record : t -> time:int -> topic:string -> (Format.formatter -> unit) -> unit
(** Append an event whose text the renderer prints when the trace is
    read.  The renderer is never called while recording, and not at
    all for events dropped before a read. *)

val add : t -> time:int -> topic:string -> string -> unit
(** {!record} of a fixed string. *)

val events : t -> event list
(** Oldest first, rendered now. *)

val by_topic : t -> string -> event list
(** Only the topic's events are rendered. *)

val dropped : t -> int

val clear : t -> unit

val pp_event : Format.formatter -> event -> unit

val dump : Format.formatter -> t -> unit
