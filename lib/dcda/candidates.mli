(** Incremental cycle-candidate maintenance.

    The DCDA's candidate heuristic needs, for every scion, one bit:
    is the scion's target reachable from the local root?  The
    summarizer recomputes that bit with a full root trace at every
    snapshot — O(heap) work per period, paid even when nothing
    changed.  This module maintains the bit {e incrementally} on the
    heap's edge mutation events instead, in the style of incremental
    cycle/topological-order maintenance (Cohen–Fiat–Kaplan–Roditty):

    - the {e region} is the set of local objects reachable from the
      root set, mirrored as a label on every object that carries one;
    - an inserted edge whose holder is inside the region grows the
      region by a bounded BFS over exactly the newly reachable
      objects (O(new area), not O(heap));
    - a cut touching the region only {e marks it stale}: deletions
      cannot be repaired locally without recomputing, so the rebuild
      (one root trace) is deferred to the next {!refresh} — O(heap)
      work happens only after a churn burst actually removed edges,
      never on a quiet or insert-only heap;
    - scion creations and deletions keep a per-target index in step,
      so the candidate set (scions whose target is outside the
      region) updates in O(1) per membership change.

    A {!t} is attached to one process and subscribes to its heap
    ({!Adgc_rt.Heap.on_event}), scion table
    ({!Adgc_rt.Scion_table.on_change}) and crash-recovery
    ({!Adgc_rt.Process.on_revive}) hooks.  The detector snapshots the
    candidate set at every summary publish ({!note_publish}) so the
    incremental scan source is exactly as stale as the published
    summary — which is what makes it byte-identical to the full-scan
    path.  {!audit} is the self-check duty: an independent full root
    trace recomputes the candidate set from the live tables and
    compares; a disagreement is a maintenance bug (or an injected
    mutant), never an expected state. *)

open Adgc_algebra

type t

val attach : ?stats:Adgc_util.Stats.t -> Adgc_rt.Process.t -> t
(** Subscribe to the process's heap, scion-table and revive hooks and
    build the initial labels from the current state.  All counters
    land in [stats] under ["dcda.candidates.*"] when given. *)

val proc_id : t -> Proc_id.t

val refresh : t -> unit
(** Apply any deferred rebuild: when a cut (or a crash recovery) has
    marked the region stale, redo the root trace and relabel; a no-op
    otherwise. *)

val stale : t -> bool
(** A cut has invalidated the region and {!refresh} has not yet run. *)

val live : t -> Ref_key.Set.t
(** The current candidate set — scions (live table) whose target is
    outside the root region — after {!refresh}. *)

val note_publish : t -> unit
(** The detector published a fresh summary: {!refresh}, then freeze
    the current candidate set as the scan source ({!published}).
    Called under the summary-store commit. *)

val published : t -> Ref_key.t list
(** The candidate keys frozen by the last {!note_publish}, in
    ascending key order — the incremental scan iterates these instead
    of every scion in the summary. *)

val audit : t -> (Ref_key.Set.t * Ref_key.Set.t) option
(** Full-scan self-check: {!refresh}, recompute the candidate set
    from scratch (independent root trace over the live heap and scion
    table) and compare with the incrementally maintained one.  [None]
    on agreement; [Some (only_incremental, only_scan)] — and a bumped
    ["dcda.candidates.audit_mismatch"] counter — on divergence. *)

(** {1 Diagnostics} *)

val region_size : t -> int
(** Objects currently labelled root-reachable (before any deferred
    rebuild). *)

val candidate_count : t -> int

val rebuilds : t -> int
(** Deferred full rebuilds performed so far (staleness repairs). *)

val label_updates : t -> int
(** Objects whose label flipped through the eager insert path so far
    — the O(churn) work measure the benchmarks gate on. *)
