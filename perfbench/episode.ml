(* One episode of a workload: build the cluster, bootstrap it, run the
   generator through warm-up, the measured window and a drain, and
   account every generated garbage object from the tick the generator
   made it unreachable to the tick its heap reported it [Removed].

   The generator runs only what a program could: allocation and local
   stores at the process it acts for, and RMIs ([Mutator.call]) with
   its own behaviors.  Bootstrap wiring happens before the periodic
   duties start, never after — except in the [Bootstrap_wired] variant,
   which exists to show that the safety check catches that mistake. *)

open Adgc_algebra
open Adgc_rt
module Rng = Adgc_util.Rng
module Stats = Adgc_util.Stats
module Sim = Adgc.Sim
module Config = Adgc.Config
module Snapshot_store = Adgc_snapshot.Snapshot_store
module Detector = Adgc_dcda.Detector
module Policy = Adgc_dcda.Policy
module Topology = Adgc_workload.Topology
module Metrics = Adgc_workload.Metrics

type spec = {
  name : string;
  procs : int;
  loss : float;  (** uniform message loss probability *)
  peers : int;  (** service objects each process holds a stub for *)
  export_gap : int;  (** ticks between export RMIs *)
  args_per_call : int;  (** fresh objects each export RMI carries *)
  ring_slots : int;  (** argument slots of each service object *)
  cycle_gap : int;  (** ticks between new distributed cycles *)
  span_min : int;  (** processes a cycle spans, inclusive bounds *)
  span_max : int;
  tail_prob : float;  (** share of cycles that carry an acyclic tail *)
  lifetime : int;  (** ticks a built cycle stays rooted *)
  invoke_gap : int;  (** ticks between invocations on rooted cycles *)
  graph_objects : int;  (** random bootstrap graph, 0 = none *)
  graph_edges : int;
  settle : int;  (** ticks between start and the generator's first action *)
  warmup : int;  (** generator ticks before the window *)
  window : int;  (** measured ticks *)
  chunk : int;  (** ticks per separately timed slice of the window *)
  drain_max : int;  (** ticks after the window to sweep its garbage *)
}

type leg = Dgc_on | Dgc_off

type cycles_via = Rmi_built | Bootstrap_wired

type run_mode = Timed | Checked | Traced of Spans.t

(* What the benchmark measures, pinned whatever the environment says:
   [Config.default] reads ADGC_ENGINE, ADGC_CANDIDATES and ADGC_GROUPS. *)
let pinned = [ ("engine", "seq"); ("candidates", "scan"); ("groups", "off") ]

let config spec ~seed ~leg ~account_bytes =
  let c = Config.quick ~seed ~n_procs:spec.procs () in
  let runtime =
    {
      c.Config.runtime with
      Runtime.dgc_enabled = (leg = Dgc_on);
      group_size = 0;
      group_relay = false;
    }
  in
  let net = Network.default_config () in
  net.Network.drop_prob <- spec.loss;
  net.Network.account_bytes <- account_bytes;
  {
    c with
    Config.runtime;
    net;
    detector = (match leg with Dgc_on -> Config.Dcda | Dgc_off -> Config.No_detector);
    engine = Config.Seq;
    candidates = Config.Scan_candidates;
    telemetry = false;
  }

let dgc_kinds =
  [ "new_set_stubs"; "scion_probe"; "export_notice"; "export_ack"; "cdm"; "cdm_delete" ]

let sum_stats stats prefix = List.fold_left (fun acc k -> acc + Stats.get stats (prefix ^ k)) 0 dgc_kinds

(* ------------------------------------------------------------------ *)
(* Garbage accounting                                                  *)

type cls = Acyclic | Cyclic

type tracker = {
  track : bool;
  live : (Oid.t, unit) Hashtbl.t;  (** generated objects still reachable *)
  born : (Oid.t, int * cls) Hashtbl.t;  (** generated garbage not yet swept *)
  mutable w0 : int;
  mutable w1 : int;
  mutable lat_acyclic : int list;  (** window births, newest first *)
  mutable lat_cycle : int list;
  mutable window_born : int;
  mutable window_pending : int;  (** window births not yet swept *)
  mutable reclaimed_in_window : int;
  mutable premature : int;  (** generated objects swept before their birth *)
  mutable removed : int;
  mutable removed_hash : int;
  mutable retained : int;
  mutable area : float;
  mutable last : int;
}

(* [Scheduler.run_for] runs the events due at its end tick, so the
   window's events are those of ticks [(w0, w1]]. *)
let in_window tr now = now > tr.w0 && now <= tr.w1

(* Integrate the retained-garbage count over the window's ticks. *)
let advance tr now =
  let lo = Int.max tr.last tr.w0 and hi = Int.min now tr.w1 in
  if hi > lo then tr.area <- tr.area +. (float_of_int tr.retained *. float_of_int (hi - lo));
  tr.last <- now

let register tr oid = if tr.track then Hashtbl.replace tr.live oid ()

let birth tr ~now cls oid =
  if tr.track && Hashtbl.mem tr.live oid then begin
    Hashtbl.remove tr.live oid;
    advance tr now;
    Hashtbl.replace tr.born oid (now, cls);
    tr.retained <- tr.retained + 1;
    if in_window tr now then begin
      tr.window_born <- tr.window_born + 1;
      tr.window_pending <- tr.window_pending + 1
    end
  end

let on_removed tr ~now oid =
  tr.removed <- tr.removed + 1;
  tr.removed_hash <- (tr.removed_hash + Oid.hash oid + (now * 7919)) land max_int;
  if tr.track then
    match Hashtbl.find_opt tr.born oid with
    | Some (t, cls) ->
        Hashtbl.remove tr.born oid;
        advance tr now;
        tr.retained <- tr.retained - 1;
        if in_window tr now then tr.reclaimed_in_window <- tr.reclaimed_in_window + 1;
        if in_window tr t then begin
          tr.window_pending <- tr.window_pending - 1;
          match cls with
          | Acyclic -> tr.lat_acyclic <- (now - t) :: tr.lat_acyclic
          | Cyclic -> tr.lat_cycle <- (now - t) :: tr.lat_cycle
        end
    | None ->
        if Hashtbl.mem tr.live oid then begin
          Hashtbl.remove tr.live oid;
          tr.premature <- tr.premature + 1
        end

(* ------------------------------------------------------------------ *)
(* Generator                                                           *)

type op = {
  in_win : bool;
  mutable replied : bool;
  mutable result : Oid.t list option;  (** callee-side memo of the first execution *)
}

type cycle = { drop_at : int; edges : (int * Oid.t) array  (** (holder process, target) *) }

type gen = {
  spec : spec;
  sim : Sim.t;
  cluster : Cluster.t;
  rng : Rng.t;
  tr : tracker;
  probe : Spans.t option;
  via : cycles_via;
  services : Heap.obj array;
  cursor : int array;
  peer_of : int array array;
  mutable cycles : cycle array;
  mutable n_cycles : int;
  mutable timers : Scheduler.recurring list;
  mutable rmi_attempted : int;
  mutable rmi_failed : int;
  mutable replies_in_window : int;
}

let retry_after = 150

let max_attempts = 5

let invoke_margin = (retry_after * max_attempts) + 100

let now g = Cluster.now g.cluster

let heap g i = (Cluster.proc g.cluster i).Process.heap

let mutator g f =
  match g.probe with
  | None -> f ()
  | Some p -> Spans.span p Spans.workload_mutator ~proc:(-1) ~tick:(now g) ~cause:(-1) f

(* At-most-once execution at the callee: a retried request whose first
   copy already ran gets the first run's result again, as an
   idempotent remote interface would give it. *)
let once g op body _rt p ~target ~args =
  match op.result with
  | Some r -> r
  | None ->
      let r = mutator g (fun () -> body p ~target ~args) in
      op.result <- Some r;
      r

(* An RMI with retries: a request or reply lost by the network is sent
   again after [retry_after] ticks, [max_attempts] times in all.  [k]
   runs once, on the first reply; [on_fail] when every attempt was lost. *)
let rmi g ~src ~target ~args ~body ~k ~on_fail =
  let op = { in_win = in_window g.tr (now g); replied = false; result = None } in
  if op.in_win then g.rmi_attempted <- g.rmi_attempted + 1;
  let behavior = once g op body in
  let on_reply res =
    if not op.replied then begin
      op.replied <- true;
      if in_window g.tr (now g) then g.replies_in_window <- g.replies_in_window + 1;
      mutator g (fun () -> k res)
    end
  in
  let rec attempt n =
    Mutator.call g.cluster ~src ~target ~args ~behavior ~on_reply ();
    Scheduler.schedule_after (Cluster.sched g.cluster) ~delay:retry_after (fun () ->
        if not op.replied then
          if n < max_attempts then mutator g (fun () -> attempt (n + 1))
          else begin
            if op.in_win then g.rmi_failed <- g.rmi_failed + 1;
            mutator g on_fail
          end)
  in
  attempt 1

(* Export RMI: a random caller passes fresh objects to a peer's service,
   which stores them in its ring of slots; each overwritten argument is
   acyclic distributed garbage from that tick on. *)
let export_step g =
  let n = g.spec.procs in
  let i = Rng.int g.rng n in
  let j = Rng.pick g.rng g.peer_of.(i) in
  let args =
    List.init g.spec.args_per_call (fun _ ->
        let o = Mutator.alloc g.cluster ~proc:i ~fields:0 () in
        register g.tr o.Heap.oid;
        o.Heap.oid)
  in
  let body (p : Process.t) ~target ~args =
    (match Heap.get p.Process.heap target with
    | Some svc ->
        List.iter
          (fun a ->
            let slot = g.cursor.(j) in
            g.cursor.(j) <- (slot + 1) mod g.spec.ring_slots;
            let old = svc.Heap.fields.(slot) in
            Heap.set_field p.Process.heap svc slot (Some a);
            match old with Some o -> birth g.tr ~now:(now g) Acyclic o | None -> ())
          args
    | None -> ());
    []
  in
  rmi g ~src:i ~target:g.services.(j).Heap.oid ~args ~body ~k:ignore ~on_fail:ignore

let add_cycle g c =
  if g.n_cycles = Array.length g.cycles then
    g.cycles <- Array.append g.cycles (Array.make (Int.max 16 g.n_cycles) c);
  g.cycles.(g.n_cycles) <- c;
  g.n_cycles <- g.n_cycles + 1

let drop_structure g ~root objs =
  Heap.remove_root (heap g (Proc_id.to_int (Oid.owner root))) root;
  List.iter (birth g.tr ~now:(now g) Cyclic) objs

(* A distributed cycle through RMIs.  The initiator [a] allocates the
   rooted head [o1]; each step asks the next process's service to
   allocate an object pointing back at the previous one and return it,
   and [a] keeps the newest in [o1]'s first slot:
   [o1 -> ok -> ... -> o2 -> o1].  A tail hangs off [o1]'s second slot.
   After [lifetime] ticks the root is dropped and the whole structure
   is garbage from that tick on. *)
let build_rmi_cycle g ~a ~members =
  let o1 = Mutator.alloc g.cluster ~proc:a ~fields:2 () in
  Mutator.add_root g.cluster o1;
  register g.tr o1.Heap.oid;
  let objs = ref [ o1.Heap.oid ] in
  let edges = ref [] in
  let abort () = drop_structure g ~root:o1.Heap.oid !objs in
  let complete last =
    edges := (a, last) :: !edges;
    let drop_at = now g + g.spec.lifetime in
    add_cycle g { drop_at; edges = Array.of_list !edges };
    Scheduler.schedule_at (Cluster.sched g.cluster) ~time:drop_at (fun () ->
        mutator g (fun () -> drop_structure g ~root:o1.Heap.oid !objs))
  in
  let close last =
    if Rng.float g.rng 1.0 < g.spec.tail_prob then begin
      let q = Rng.pick g.rng g.peer_of.(a) in
      let body (p : Process.t) ~target:_ ~args:_ =
        let t = Heap.alloc ~fields:1 p.Process.heap in
        let t2 = Heap.alloc ~fields:0 p.Process.heap in
        Heap.set_field p.Process.heap t 0 (Some t2.Heap.oid);
        register g.tr t.Heap.oid;
        register g.tr t2.Heap.oid;
        objs := t.Heap.oid :: t2.Heap.oid :: !objs;
        [ t.Heap.oid ]
      in
      rmi g ~src:a ~target:g.services.(q).Heap.oid ~args:[] ~body
        ~k:(fun res ->
          (match res with
          | [ t ] -> Heap.set_field (heap g a) o1 1 (Some t)
          | _ -> ());
          complete last)
        ~on_fail:(fun () -> complete last)
    end
    else complete last
  in
  let rec extend prev = function
    | [] -> close prev
    | p :: rest ->
        let body (at : Process.t) ~target:_ ~args =
          let o = Heap.alloc ~fields:1 at.Process.heap in
          (match args with [ back ] -> Heap.set_field at.Process.heap o 0 (Some back) | _ -> ());
          register g.tr o.Heap.oid;
          objs := o.Heap.oid :: !objs;
          edges := (p, prev) :: !edges;
          [ o.Heap.oid ]
        in
        rmi g ~src:a ~target:g.services.(p).Heap.oid ~args:[ prev ] ~body
          ~k:(fun res ->
            match res with
            | [ o ] ->
                Heap.set_field (heap g a) o1 0 (Some o);
                extend o rest
            | _ -> abort ())
          ~on_fail:abort
  in
  extend o1.Heap.oid members

(* The negative variant: the same cycles, wired with the bootstrap-only
   [Topology.rooted_ring] while the collector runs. *)
let build_wired_cycle g ~a ~members =
  let built = Topology.rooted_ring g.cluster ~procs:(a :: members) in
  let objs = List.map (fun (_, o) -> o.Heap.oid) built.Topology.objects in
  List.iter (register g.tr) objs;
  let root = (Topology.obj built (Printf.sprintf "n%d_0" a)).Heap.oid in
  Scheduler.schedule_at (Cluster.sched g.cluster) ~time:(now g + g.spec.lifetime) (fun () ->
      drop_structure g ~root objs)

let cycle_step g =
  let a = Rng.int g.rng g.spec.procs in
  let k = g.spec.span_min + Rng.int g.rng (g.spec.span_max - g.spec.span_min + 1) in
  let peers = Array.copy g.peer_of.(a) in
  Rng.shuffle g.rng peers;
  let members = Array.to_list (Array.sub peers 0 (Int.min (k - 1) (Array.length peers))) in
  match g.via with
  | Rmi_built -> build_rmi_cycle g ~a ~members
  | Bootstrap_wired -> build_wired_cycle g ~a ~members

(* An invocation through one reference of a still-rooted cycle: it
   bumps the invocation counters and so races any detection running
   over that cycle (the paper's Fig. 5). *)
let invoke_step g =
  let t = now g in
  let rec pick tries =
    if g.n_cycles = 0 || tries = 0 then None
    else
      let i = Rng.int g.rng g.n_cycles in
      let c = g.cycles.(i) in
      if t < c.drop_at - invoke_margin then Some c
      else begin
        g.n_cycles <- g.n_cycles - 1;
        g.cycles.(i) <- g.cycles.(g.n_cycles);
        pick (tries - 1)
      end
  in
  match pick 4 with
  | None -> ()
  | Some c ->
      let src, target = Rng.pick g.rng c.edges in
      rmi g ~src ~target ~args:[] ~body:(fun _ ~target:_ ~args:_ -> []) ~k:ignore ~on_fail:ignore

(* ------------------------------------------------------------------ *)
(* The duties, driven from the benchmark's own lanes for the traced
   run: the same lanes, periods, phases and creation order as
   [Cluster.start_gc] followed by [Sim.start]. *)

let traced_start sim probe =
  let cluster = Sim.cluster sim in
  let rt = Sim.rt sim in
  let sched = Cluster.sched cluster in
  let n = Cluster.n_procs cluster in
  let cfg = rt.Runtime.config in
  let policy = (Sim.config sim).Config.policy in
  let store = Sim.store sim in
  let lane period body =
    ignore
      (Scheduler.lane sched ~n
         ~phase_of:(fun i -> 1 + (i * period / n))
         ~period
         (fun i ->
           let p = rt.Runtime.procs.(i) in
           if p.Process.alive then body i p)
        : Scheduler.lane)
  in
  let span l i f = Spans.span probe l ~proc:i ~tick:(Scheduler.now sched) ~cause:(-1) f in
  lane cfg.Runtime.lgc_period (fun i p ->
      let plan = span Spans.lgc_plan i (fun () -> Lgc.plan rt p) in
      ignore (span Spans.lgc_apply i (fun () -> Lgc.apply rt plan) : Lgc.report));
  lane cfg.Runtime.new_set_period (fun i p ->
      span Spans.reflist_sets i (fun () ->
          Reflist.send_new_sets rt p;
          Reflist.probe_idle_scions rt p ~threshold:(3 * cfg.Runtime.new_set_period);
          Reflist.reap_dead_holders rt p));
  lane policy.Policy.snapshot_period (fun i p ->
      let pr = span Spans.snapshot_prepare i (fun () -> Snapshot_store.prepare store p) in
      ignore
        (span Spans.snapshot_commit i (fun () -> Snapshot_store.commit store pr)
          : Adgc_snapshot.Summary.t));
  lane policy.Policy.scan_period (fun i _ ->
      ignore (span Spans.dcda_scan i (fun () -> Detector.scan (Sim.detector sim i)) : int));
  lane policy.Policy.candidate_audit_period (fun i _ ->
      ignore
        (span Spans.dcda_audit i (fun () -> Detector.audit_candidates (Sim.detector sim i))
          : bool))

let cause_of (msg : Msg.t) =
  let pack p x = (Proc_id.to_int p lsl 32) lor x in
  match msg.Msg.payload with
  | Msg.Rmi_request { req_id; _ } -> pack msg.Msg.src req_id
  | Msg.Rmi_reply { req_id; _ } -> pack msg.Msg.dst req_id
  | Msg.Cdm { Cdm.id; _ } | Msg.Cdm_delete { id; _ } ->
      pack id.Detection_id.initiator id.Detection_id.seq
  | _ -> -1

(* The delivery wrapper: the same [Dispatch.deliver] [Cluster.create]
   installs, timed per message kind; CDM algebras are kept for the
   algebra replay. *)
let traced_deliver sim probe ~cdms =
  let rt = Sim.rt sim in
  let sched = rt.Runtime.sched in
  Network.set_deliver (Sim.net sim) (fun msg ->
      match Spans.dispatch_layer (Msg.kind msg.Msg.payload) with
      | None -> Dispatch.deliver rt msg
      | Some l ->
          (match msg.Msg.payload with
          | Msg.Cdm c when probe.Spans.on -> cdms := c.Cdm.algebra :: !cdms
          | _ -> ());
          Spans.span probe l ~proc:(Proc_id.to_int msg.Msg.dst) ~tick:(Scheduler.now sched)
            ~cause:(cause_of msg) (fun () -> Dispatch.deliver rt msg))

(* ------------------------------------------------------------------ *)
(* Episode                                                             *)

(* An episode runs in three stages so that the benchmark can interleave
   the measured windows of two episodes chunk by chunk (DGC on against
   off, traced against untraced): [start] builds, bootstraps and warms
   up; [run_chunk] advances the window by one chunk and returns its wall
   time; [finish] drains and accounts. *)
type t = {
  sim : Sim.t;
  g : gen;
  checker : Metrics.safety_checker option;
  cdms : Algebra.t list ref;
  setup_s : float;
  chunk_len : int;
  n_chunks : int;
  mutable next_chunk : int;
  mutable window_s : float;
  mutable minor_words : float;
  mutable major_collections : int;
  before : (string * int) list;
  msgs0 : int;
  bytes0 : int;
}

type result = {
  setup_s : float;
  window_s : float;
  digest : string;
  window_ticks : int;
  replies_in_window : int;
  lat_acyclic : int array;  (** sorted *)
  lat_cycle : int array;  (** sorted *)
  retained_mean : float;
  dgc_msgs : int;
  dgc_bytes : int;
  reclaimed_in_window : int;
  rmi_attempted : int;
  rmi_failed : int;
  garbage_attempted : int;
  garbage_failed : int;
  premature : int;
  violations : int;
  window_stats : string -> int;  (** counter delta over the window *)
  minor_words : float;  (** allocated in the window *)
  major_collections : int;
  summaries : Adgc_snapshot.Summary.t list;  (** latest published, at the end *)
  cdms : Algebra.t list;  (** CDM algebras delivered in a traced window *)
}

let chunks t = t.n_chunks

let start ?(via = Rmi_built) spec ~seed ~leg ~run_mode =
  let t_start = Unix.gettimeofday () in
  let account_bytes = match run_mode with Checked -> true | Timed | Traced _ -> false in
  let sim = Sim.create ~config:(config spec ~seed ~leg ~account_bytes) () in
  let cluster = Sim.cluster sim in
  let rt = Sim.rt sim in
  let n = spec.procs in
  let probe = match run_mode with Traced p -> Some p | Timed | Checked -> None in
  let cdms = ref [] in
  Option.iter (fun p -> traced_deliver sim p ~cdms) probe;
  let rng = Rng.create ((seed * 65_537) + 17) in
  (* Bootstrap: a rooted service object per process and a rooted client
     object holding a stub for [peers] other processes' services. *)
  let services =
    Array.init n (fun i ->
        let s = Mutator.alloc cluster ~proc:i ~fields:(Int.max 1 spec.ring_slots) () in
        Mutator.add_root cluster s;
        s)
  in
  let peer_of =
    Array.init n (fun i ->
        let others = Array.init (n - 1) (fun j -> if j >= i then j + 1 else j) in
        Rng.shuffle rng others;
        let ps = Array.sub others 0 (Int.min spec.peers (n - 1)) in
        Array.sort Int.compare ps;
        ps)
  in
  Array.iteri
    (fun i ps ->
      let client = Mutator.alloc cluster ~proc:i ~fields:(Array.length ps) () in
      Mutator.add_root cluster client;
      Array.iter (fun j -> Mutator.wire_remote cluster ~holder:client ~target:services.(j)) ps)
    peer_of;
  if spec.graph_objects > 0 then
    ignore
      (Topology.random cluster ~rng:(Rng.split rng) ~objects:spec.graph_objects
         ~edges:spec.graph_edges ~remote_prob:0.3 ~root_prob:0.25
        : Topology.built);
  let checker =
    match run_mode with
    | Checked -> Some (Metrics.install_safety_checker cluster)
    | Timed | Traced _ -> None
  in
  (match probe with Some p -> traced_start sim p | None -> Sim.start sim);
  let tr =
    {
      track = leg = Dgc_on;
      live = Hashtbl.create 4096;
      born = Hashtbl.create 4096;
      w0 = max_int;
      w1 = max_int;
      lat_acyclic = [];
      lat_cycle = [];
      window_born = 0;
      window_pending = 0;
      reclaimed_in_window = 0;
      premature = 0;
      removed = 0;
      removed_hash = 0;
      retained = 0;
      area = 0.;
      last = 0;
    }
  in
  Array.iter
    (fun (p : Process.t) ->
      Heap.on_event p.Process.heap (function
        | Heap.Removed oid -> on_removed tr ~now:(Cluster.now cluster) oid
        | Heap.Edge_added _ | Heap.Edge_removed _ | Heap.Root_added _ | Heap.Root_removed _ -> ()))
    rt.Runtime.procs;
  let g =
    {
      spec;
      sim;
      cluster;
      rng;
      tr;
      probe;
      via;
      services;
      cursor = Array.make n 0;
      peer_of;
      cycles = [||];
      n_cycles = 0;
      timers = [];
      rmi_attempted = 0;
      rmi_failed = 0;
      replies_in_window = 0;
    }
  in
  Sim.run_for sim spec.settle;
  let sched = Cluster.sched cluster in
  let every gap step =
    if gap > 0 then
      g.timers <-
        Scheduler.every sched ~period:gap (fun () -> mutator g (fun () -> step g)) :: g.timers
  in
  every spec.export_gap export_step;
  every spec.cycle_gap cycle_step;
  every spec.invoke_gap invoke_step;
  Sim.run_for sim spec.warmup;
  let stats = Sim.stats sim in
  let w0 = Cluster.now cluster in
  tr.w0 <- w0;
  tr.w1 <- w0 + spec.window;
  tr.last <- w0;
  let chunk_len = Int.min spec.window spec.chunk in
  {
    sim;
    g;
    checker;
    cdms;
    setup_s = Unix.gettimeofday () -. t_start;
    chunk_len;
    n_chunks = (spec.window + chunk_len - 1) / chunk_len;
    next_chunk = 0;
    window_s = 0.;
    minor_words = 0.;
    major_collections = 0;
    before = Stats.counters stats;
    msgs0 = sum_stats stats "net.msg.sent.";
    bytes0 = sum_stats stats "net.bytes.";
  }

let run_chunk t =
  let i = t.next_chunk in
  if i >= t.n_chunks then invalid_arg "Episode.run_chunk: window already measured";
  t.next_chunk <- i + 1;
  let ticks = Int.min t.chunk_len (t.g.spec.window - (i * t.chunk_len)) in
  let major0 = (Gc.quick_stat ()).Gc.major_collections in
  let minor0 = Gc.minor_words () in
  Option.iter (fun p -> p.Spans.on <- true) t.g.probe;
  let t0 = Unix.gettimeofday () in
  Sim.run_for t.sim ticks;
  let el = Unix.gettimeofday () -. t0 in
  Option.iter (fun p -> p.Spans.on <- false) t.g.probe;
  t.minor_words <- t.minor_words +. (Gc.minor_words () -. minor0);
  t.major_collections <- t.major_collections + ((Gc.quick_stat ()).Gc.major_collections - major0);
  t.window_s <- t.window_s +. el;
  el

let finish t =
  while t.next_chunk < t.n_chunks do
    ignore (run_chunk t : float)
  done;
  let { sim; g; _ } = t in
  let tr = g.tr in
  let spec = g.spec in
  let cluster = g.cluster in
  let stats = Sim.stats sim in
  advance tr tr.w1;
  let after = Stats.counters stats in
  let dgc_msgs = sum_stats stats "net.msg.sent." - t.msgs0 in
  let dgc_bytes = sum_stats stats "net.bytes." - t.bytes0 in
  let window_stats name =
    let get l = match List.assoc_opt name l with Some v -> v | None -> 0 in
    get after - get t.before
  in
  (* Drain: no new work; run until the window's garbage is swept and
     its RMIs have resolved, or the deadline passes. *)
  List.iter Scheduler.cancel g.timers;
  let deadline = tr.w1 + spec.drain_max in
  Sim.run_for sim invoke_margin;
  while tr.window_pending > 0 && Cluster.now cluster < deadline do
    Sim.run_for sim 1_000
  done;
  let lat_acyclic = Array.of_list (List.rev tr.lat_acyclic) in
  let lat_cycle = Array.of_list (List.rev tr.lat_cycle) in
  let digest =
    let b = Buffer.create 4096 in
    List.iter
      (fun (k, v) -> if String.starts_with ~prefix:"net.msg." k then Printf.bprintf b "%s=%d;" k v)
      (Stats.counters stats);
    Printf.bprintf b "removed=%d/%d;born=%d;pending=%d;premature=%d;" tr.removed tr.removed_hash
      tr.window_born tr.window_pending tr.premature;
    Array.iter (Printf.bprintf b "%d,") lat_acyclic;
    Buffer.add_char b '|';
    Array.iter (Printf.bprintf b "%d,") lat_cycle;
    Digest.to_hex (Digest.string (Buffer.contents b))
  in
  let summaries =
    List.filter_map
      (fun i -> Snapshot_store.latest (Sim.store sim) (Proc_id.of_int i))
      (List.init spec.procs Fun.id)
  in
  let violations =
    match t.checker with Some c -> List.length (Metrics.violations c) | None -> 0
  in
  Sim.teardown sim;
  Array.sort Int.compare lat_acyclic;
  Array.sort Int.compare lat_cycle;
  {
    setup_s = t.setup_s;
    window_s = t.window_s;
    digest;
    window_ticks = spec.window;
    replies_in_window = g.replies_in_window;
    lat_acyclic;
    lat_cycle;
    retained_mean = tr.area /. float_of_int spec.window;
    dgc_msgs;
    dgc_bytes;
    reclaimed_in_window = tr.reclaimed_in_window;
    rmi_attempted = g.rmi_attempted;
    rmi_failed = g.rmi_failed;
    garbage_attempted = tr.window_born;
    garbage_failed = tr.window_pending;
    premature = tr.premature;
    violations;
    window_stats;
    minor_words = t.minor_words;
    major_collections = t.major_collections;
    summaries;
    cdms = List.rev !(t.cdms);
  }

let run ?via spec ~seed ~leg ~run_mode = finish (start ?via spec ~seed ~leg ~run_mode)
