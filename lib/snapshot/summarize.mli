(** Building a {!Summary} from a live process.

    Two interchangeable implementations:

    - [Naive] — one breadth-first trace per distinct scion target
      (plus one from the roots), the direct transcription of the
      paper's description;
    - [Condensed] — a single Tarjan strongly-connected-components
      condensation of the local graph followed by a dynamic program
      over the resulting DAG, sharing work between scions that reach
      the same region (the paper's "breadth-first, to minimize
      re-tracing" concern, taken further).  Runs on the heap's
      persistent dense index: CSR adjacency, int-array Tarjan state,
      root reachability as a byte per node and [StubsFrom] computed
      once per SCC, with one scratch pool reused across runs, so
      steady-state summarization allocates little beyond the
      {!Summary} itself.

    All variants produce identical summaries (a property test) and the
    E10 / tracer benchmarks compare their cost profiles.

    The summarizer reads the process {e synchronously} inside one
    simulator event, which models the paper's serialize-then-summarize
    pipeline: the snapshot reflects one instant of the process, while
    the rest of the system keeps running. *)

type algo = Naive | Condensed

val run : ?algo:algo -> now:int -> Adgc_rt.Process.t -> Summary.t
(** Default algorithm: [Condensed]. *)

(** Incremental summarization — the paper's "performed, lazily and
    incrementally, in each process" (§4), implemented with dirty-region
    tracking: the heap logs which objects' fields changed
    ({!Adgc_rt.Heap.take_dirty}); a scion's [StubsFrom] is re-traced
    only when its cached region intersects the dirty set (any edge
    change that alters reachability from a scion necessarily dirties
    an object inside the old region).  Invocation counters and table
    membership are always refreshed from the live tables — they are
    cheap.  Produces summaries identical to a full run (a qcheck
    property). *)
module Incremental : sig
  type state
  (** Per-process cache; create one per process and keep it across
      runs.  It consumes the heap's dirty log, so give each heap at
      most one incremental summarizer. *)

  val create : unit -> state

  val run : state -> now:int -> Adgc_rt.Process.t -> Summary.t

  val last_recomputed : state -> int
  (** Regions re-traced by the most recent run (diagnostics and the
      E14 benchmark). *)

  val last_reused : state -> int
end
