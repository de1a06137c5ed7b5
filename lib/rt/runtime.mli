(** Shared context threading the simulator's pieces together.

    This record owns only the
    {e shared, process-agnostic} machinery: the scheduler, the
    network, stats/trace/telemetry sinks and the immutable run
    configuration.  All {e protocol} state (request/notice counters,
    pending calls and export handshakes, DGC batch queues, RMI
    behaviors) lives on the individual {!Process.t}, so handling a
    delivery or running a duty is a per-process transition plus
    outbound messages.  {!Reflist}, {!Rmi}, {!Lgc} and the detectors
    all operate through this record; {!Cluster} builds it and
    installs {!Dispatch.deliver} as the network's delivery
    function. *)

open Adgc_algebra

type config = {
  dgc_enabled : bool;
      (** master switch for the reference-listing bookkeeping on the
          RMI path (stub/scion creation, pins, counters).  Disabling
          it models the original platform without any DGC — the
          baseline of the paper's Table 1.  Marshalling and message
          traffic are unaffected, so the comparison isolates the DGC
          overhead. *)
  count_replies : bool;
      (** bump the invocation counters on RMI replies too (the paper
          allows either; default off) *)
  export_retry_delay : int;
      (** delay between retransmissions of an unacknowledged
          [Export_notice] *)
  rmi_pin_timeout : int;
      (** after this long, pins taken for an RMI whose reply never
          arrived are dropped (limits floating garbage under loss) *)
  rmi_marshal : bool;
      (** marshal RMI argument descriptors through the compact codec
          on the caller (the real work Table 1's base cost measures) *)
  lgc_period : int;
  new_set_period : int;
  scion_grace : int;
      (** how long an unconfirmed scion is protected from stub sets
          that do not list it; must exceed the maximum message
          lifetime plus one advertisement period (see
          {!Scion_table.apply_new_set}) *)
  failure_detection : bool;
      (** reclaim scions whose holder has been silent (no stub set,
          despite probes) for {!field:holder_silence_limit} ticks —
          lease-like semantics for crash-stop failures.  UNSAFE under
          false suspicion: a partition outlasting the limit reclaims
          objects a live-but-unreachable holder still references; the
          tests demonstrate both directions of the trade-off. *)
  holder_silence_limit : int;
  dgc_batching : bool;
      (** coalesce DGC control traffic (stub sets, probes, CDMs,
          proven-cycle deletions) per destination into {!Msg.Batch}
          envelopes flushed every {!field:dgc_batch_window} ticks;
          default off (every message hits the wire individually, the
          seed behaviour) *)
  dgc_batch_window : int;
      (** how long {!send_dgc} may hold a queued payload before its
          batch is flushed.  Bounds the extra latency added to CDM
          propagation and stub-set timeliness — keep it well under
          [new_set_period] and the detector's scan period. *)
  group_size : int;
      (** hierarchical-group overlay: ranks are partitioned into
          contiguous groups of this many processes ({!Group}).  [<= 1]
          means the flat clique (the default).  Turning this on alone
          only adds accounting — every envelope crossing a group
          boundary bumps [net.msg.xgroup] (and [net.msg.xgroup.dgc]
          for control-plane kinds) — which is what makes the flat
          baseline of the cut-factor comparison honest. *)
  group_relay : bool;
      (** route cross-group DGC control traffic ({!send_dgc}) through
          group proxies as aggregated {!Msg.Group_relay} envelopes
          instead of point-to-point.  Requires [group_size > 1] to
          have any effect.  Protocol outcomes are unaffected (the
          handlers see the original sender); only message topology and
          latency change. *)
  group_window : int;
      (** how long a cross-group entry may sit in its per-group relay
          queue before the {!Msg.Group_relay} flush.  [0] flushes
          synchronously inside {!send_dgc} — no scheduler involvement,
          which the model checker's frozen-clock mode requires. *)
}
(** Immutable: fix the knobs before building the cluster (functional
    record update on {!default_config}).  Sharing one config value
    between clusters is now harmless — nothing can mutate it under a
    reader's feet. *)

val default_config : unit -> config

type t = {
  sched : Scheduler.t;
  net : Network.t;
  procs : Process.t array;
  rng : Adgc_util.Rng.t;
  stats : Adgc_util.Stats.t;
  trace : Adgc_util.Trace.t;
  obs : Adgc_obs.Span.t;
      (** structured span ring; disabled (and then zero-cost) unless
          the cluster was created with [~telemetry:true] *)
  lineage : Adgc_obs.Lineage.t;
      (** per-detection hop provenance; same enablement as [obs] *)
  mutable run_span : int;  (** root span every other span nests under *)
  config : config;
  mutable on_reclaim : (Proc_id.t -> Oid.t -> unit) option;
      (** called for every object swept by any LGC (test hook) *)
  mutable on_pre_sweep : (Proc_id.t -> Oid.t list -> unit) option;
      (** called with the full doomed list before an LGC removes
          anything, while every heap is still intact — the safety
          checker computes ground truth here *)
}

type behavior = t -> Process.t -> target:Oid.t -> args:Oid.t list -> Oid.t list
(** The user-facing RMI body: receives the runtime context and the
    callee process plus the imported argument references; returns the
    references to ship back in the reply.  {!Rmi.call} closes it over
    the context and stores the result on the caller as a
    {!Process.behavior}. *)

val create :
  sched:Scheduler.t ->
  net:Network.t ->
  procs:Process.t array ->
  rng:Adgc_util.Rng.t ->
  stats:Adgc_util.Stats.t ->
  trace:Adgc_util.Trace.t ->
  ?obs:Adgc_obs.Span.t ->
  ?lineage:Adgc_obs.Lineage.t ->
  config:config ->
  unit ->
  t
(** When [obs]/[lineage] are omitted, disabled instances are used (a
    1-slot span ring), so instrumented code never needs a null
    check. *)

val proc : t -> Proc_id.t -> Process.t

val proc_count : t -> int

val now : t -> int

val log : t -> topic:string -> ('a, Format.formatter, unit, unit) format4 -> 'a
(** Append to the trace buffer, stamped with simulated time. *)

val send : t -> src:Proc_id.t -> dst:Proc_id.t -> Msg.payload -> unit

val send_dgc : t -> src:Proc_id.t -> dst:Proc_id.t -> Msg.payload -> unit
(** Like {!send}, for delay-tolerant DGC control traffic.  With
    [config.dgc_batching] off this is exactly [send]; with it on, the
    payload joins the sender's per-destination queue and travels
    inside one {!Msg.Batch} when the window closes
    ([net.msg.batched] / [net.msg.batch_flushes] count the
    coalescing).  Crash-stop filtering applies at flush time. *)

val flush_batch : t -> src:Proc_id.t -> dst:Proc_id.t -> unit
(** Flush one pending batch immediately (idempotent). *)

val flush_all_batches : t -> unit
(** Flush every process's pending batches immediately (tests and
    shutdown). *)

(** {2 Hierarchical groups} — see {!field:config.group_size}. *)

val same_group : t -> Proc_id.t -> Proc_id.t -> bool
(** Whether two processes share a group ([true] for everyone in flat
    mode). *)

val group_of : t -> Proc_id.t -> int

val group_proxy : t -> int -> int option
(** The group's current proxy rank — its lowest alive member — or
    [None] when the whole group is down.  Recomputed from the live
    aliveness view on every call (crash failover needs no handshake). *)

val relay_enqueue : t -> src:Proc_id.t -> orig_src:Proc_id.t -> final_dst:Proc_id.t -> Msg.payload -> unit
(** Queue one cross-group control payload at [src] for the group of
    [final_dst]; flushed as part of one {!Msg.Group_relay} after
    [config.group_window] ticks (synchronously when the window is 0).
    {!Dispatch} uses this to forward relay entries that are still
    short of their destination group. *)

val flush_relay : t -> src:Proc_id.t -> group:int -> unit
(** Flush [src]'s pending relay queue toward one destination group
    (idempotent).  Elects next hop at flush time. *)

val flush_all_relays : t -> unit
(** Flush every process's pending relay queues (tests and shutdown). *)
