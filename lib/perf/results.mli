(** The canonical, schema-versioned benchmark results document:
    sections of {!Sample.t} records plus the host facts a reader
    needs to judge the numbers (core count, smoke flag, source
    revision).

    The JSON rendering is deterministic — sections and samples are
    sorted by name, floats print canonically — so two same-seed runs
    produce byte-comparable documents and {!fingerprint} can pin the
    non-timing fields in a regression test. *)

module Json = Adgc_util.Json

val schema_version : int

type host = { cores : int }

type t = {
  rev : string;  (** source revision, or "dev" outside a checkout *)
  smoke : bool;
  host : host;
  sections : (string * Sample.t list) list;
}

val normalize : t -> t
(** Sections and samples sorted by name. *)

val samples : t -> Sample.t list

val find : t -> string -> Sample.t option
(** Lookup a sample by name across all sections. *)

val to_json : t -> Json.t

val of_json : Json.t -> (t, string) result

val to_string : t -> string
(** Pretty, deterministic; what [save] writes. *)

val of_string : string -> (t, string) result

val fingerprint : t -> string
(** Deterministic digest-input string of the non-timing content:
    section/sample names, units, reps, directions, classes, SLOs,
    config digests, and the values of [Deterministic]-class samples.
    [Timing]-class values are blanked. *)

val load : string -> (t, string) result

val save : string -> t -> unit

val save_results : dir:string -> t -> string * string
(** Write [<dir>/<rev>.json] and [<dir>/latest.json] (creating [dir]
    if needed); returns both paths. *)
