(** The local tracing collector.

    A stop-the-world (per process — the rest of the system keeps
    running) mark-and-sweep that honours the reference-listing
    contract (paper §4):

    - scion targets are extra roots, so remotely referenced objects
      survive even when locally unreachable;
    - the trace reports every remote reference held by live objects,
      which is exactly the information the stub table needs: stubs
      not found live (and neither fresh nor pinned) are dropped and
      will vanish from the next [NewSetStubs]. *)

type report = {
  live : int;  (** objects surviving the sweep *)
  swept : int;  (** objects reclaimed *)
  stubs_live : int;
  stubs_dropped : int;
}

val run : Runtime.t -> Process.t -> report
(** Runs synchronously inside the current event.  Each swept object is
    reported through [rt.on_reclaim] (the test safety hook).
    Equivalent to {!apply} of {!plan}. *)

val collect_all : Runtime.t -> report list
(** Run the LGC once on every process, in process order. *)

(** {2 Timed split}

    {!plan} is the per-process phase (root + scion trace, stub
    liveness refresh, sweep decision): it mutates only the process's
    own stub table and paged-store clocks — never the heap, a shared
    sink or another process.  {!apply} performs the sweep and every
    shared-sink effect (pre-sweep hook, stats, spans, reclamation
    hooks).  {!run} is the two in sequence; the split exists so
    profilers can time each phase as a layer of its own. *)

type plan

val plan : Runtime.t -> Process.t -> plan

val apply : Runtime.t -> plan -> report
