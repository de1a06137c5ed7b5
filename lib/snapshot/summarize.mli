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
