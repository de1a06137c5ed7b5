module Config = Adgc.Config
module Sim = Adgc.Sim
module Kernel = Adgc.Kernel
module Cluster = Adgc_rt.Cluster
module Runtime = Adgc_rt.Runtime
module Process = Adgc_rt.Process
module Dispatch = Adgc_rt.Dispatch
module Network = Adgc_rt.Network
module Scheduler = Adgc_rt.Scheduler
module Reflist = Adgc_rt.Reflist
module Msg = Adgc_rt.Msg
module Stats = Adgc_util.Stats
open Adgc_algebra

let sock_path ~dir rank = Filename.concat dir (Printf.sprintf "node-%d.sock" rank)

let coord_path ~dir = Filename.concat dir "coord.sock"

let log_path ~dir rank = Filename.concat dir (Printf.sprintf "node-%d.log" rank)

let ring = 64

type config = {
  rank : int;
  scenario : Scenario.t;
  dir : string;
  tick_us : int;
  max_ticks : int;
}

type peer = {
  prank : int;
  mutable conn : Transport.conn option;
  mutable backlog : Msg.t list;  (* replay window, newest first *)
  mutable backlog_len : int;
  mutable next_dial : float;
  mutable dial_delay : float;
}

type t = {
  cfg : config;
  sim : Sim.t;
  rt : Runtime.t;
  cluster : Cluster.t;
  log : out_channel;
  listener : Unix.file_descr;
  mutable coord : Transport.conn;
  peers : peer option array;  (* by rank; [None] at our own slot *)
  mutable pending_conns : (Transport.conn * float) list;  (* accepted, awaiting Hello *)
  mutable epoch : float option;
  mutable quit : bool;
  reclaimed : Oid.t list ref;  (* newest first *)
  mutable wire_sent : int;
  mutable wire_received : int;
  mutable last_heartbeat : float;
}

let logf t fmt =
  Printf.ksprintf
    (fun s ->
      Printf.fprintf t.log "[%.3f n%d] %s\n" (Unix.gettimeofday ()) t.cfg.rank s;
      flush t.log)
    fmt

(* ------------------------------------------------------------------ *)
(* Duties: the same four kernel transitions the simulator fires, with
   the same phase stagger (Sim.start / Cluster.start_gc), installed
   for this node's own rank only. *)

let install_duties sim rank =
  let cluster = Sim.cluster sim in
  let rt = Sim.rt sim in
  let sched = Cluster.sched cluster in
  let n = Cluster.n_procs cluster in
  let i = rank in
  let p = Cluster.proc cluster i in
  let rcfg = rt.Runtime.config in
  let ctx = Sim.kernel_ctx sim in
  let policy = (Sim.config sim).Config.policy in
  let snap = policy.Adgc_dcda.Policy.snapshot_period in
  let scan = policy.Adgc_dcda.Policy.scan_period in
  let every ~phase ~period f = ignore (Scheduler.every sched ~phase ~period f : Scheduler.recurring) in
  every ~phase:(1 + (i * snap / n)) ~period:snap (fun () ->
      if p.Process.alive then Kernel.run_duty ctx (Kernel.Snapshot i));
  every ~phase:(1 + (i * scan / n)) ~period:scan (fun () ->
      if p.Process.alive then Kernel.run_duty ctx (Kernel.Scan i));
  every
    ~phase:(1 + (i * rcfg.Runtime.lgc_period / n))
    ~period:rcfg.Runtime.lgc_period
    (fun () -> if p.Process.alive then Kernel.run_duty ctx (Kernel.Lgc i));
  every
    ~phase:(1 + (i * rcfg.Runtime.new_set_period / n))
    ~period:rcfg.Runtime.new_set_period
    (fun () ->
      if p.Process.alive then begin
        Kernel.run_duty ctx (Kernel.Send_sets i);
        Reflist.probe_idle_scions rt p ~threshold:(3 * rcfg.Runtime.new_set_period);
        Reflist.reap_dead_holders rt p
      end);
  let audit = policy.Adgc_dcda.Policy.candidate_audit_period in
  every ~phase:(1 + (i * audit / n)) ~period:audit (fun () ->
      if p.Process.alive then Kernel.run_duty ctx (Kernel.Maintain_candidates i))

(* ------------------------------------------------------------------ *)
(* Peer links. *)

let peer_exn t rank =
  match t.peers.(rank) with
  | Some p -> p
  | None -> invalid_arg (Printf.sprintf "node %d: no peer slot for rank %d" t.cfg.rank rank)

let send_peer t peer env =
  match peer.conn with
  | Some c when Transport.alive c ->
      Transport.send c env;
      t.wire_sent <- t.wire_sent + 1
  | Some _ | None -> ()

(* Replay the backlog oldest-first on a fresh connection; already
   delivered envelopes carry their original [Msg.seq] and are refused
   by the receiver's [Process.note_delivery]. *)
let replay_backlog t peer =
  let msgs = List.rev peer.backlog in
  if msgs <> [] then logf t "replaying %d envelopes to rank %d" (List.length msgs) peer.prank;
  List.iter (fun m -> send_peer t peer (Envelope.Net_msg m)) msgs

let attach_peer t peer conn =
  (match peer.conn with Some old -> Transport.close old | None -> ());
  peer.conn <- Some conn;
  peer.dial_delay <- 0.05;
  logf t "link to rank %d up" peer.prank;
  replay_backlog t peer

let forward t dst msg =
  let peer = peer_exn t dst in
  peer.backlog <- msg :: peer.backlog;
  if peer.backlog_len >= ring then
    peer.backlog <- List.filteri (fun i _ -> i < ring - 1) peer.backlog
  else peer.backlog_len <- peer.backlog_len + 1;
  send_peer t peer (Envelope.Net_msg msg)

let hello t = Envelope.Hello { rank = t.cfg.rank; procs = Scenario.n_procs t.cfg.scenario; seed = t.cfg.scenario.Scenario.seed }

let redial_due t now =
  Array.iter
    (function
      | Some peer
        when peer.prank < t.cfg.rank && peer.conn = None && now >= peer.next_dial && not t.quit
        -> (
          match
            Transport.dial ~attempts:1 (Transport.Unix_sock (sock_path ~dir:t.cfg.dir peer.prank))
          with
          | conn ->
              Transport.send conn (hello t);
              attach_peer t peer conn
          | exception Failure _ ->
              peer.dial_delay <- Float.min 1.0 (peer.dial_delay *. 1.5);
              peer.next_dial <- now +. peer.dial_delay)
      | Some _ | None -> ())
    t.peers

(* ------------------------------------------------------------------ *)
(* Envelope handling. *)

let status t =
  let ready =
    Array.for_all
      (function
        | Some peer -> ( match peer.conn with Some c -> Transport.alive c | None -> false)
        | None -> true)
      t.peers
  in
  Envelope.Status
    {
      st_rank = t.cfg.rank;
      st_tick = Cluster.now t.cluster;
      st_ready = ready;
      st_reclaimed = List.rev !(t.reclaimed);
      st_wire_sent = t.wire_sent;
      st_wire_received = t.wire_received;
      st_dup_ignored = Stats.get t.rt.Runtime.stats "net.msg.duplicate_ignored";
    }

let handle_coord t env =
  match env with
  | Envelope.Start ->
      if t.epoch = None then begin
        t.epoch <- Some (Unix.gettimeofday ());
        logf t "start (tick_us=%d)" t.cfg.tick_us
      end
  | Envelope.Status_req -> Transport.send t.coord (status t)
  | Envelope.State_req ->
      let ns =
        Gather.capture ~rt:t.rt ~rank:t.cfg.rank ~tick:(Cluster.now t.cluster)
          ~reclaimed:(List.rev !(t.reclaimed))
      in
      Transport.send t.coord (Envelope.State ns)
  | Envelope.Drop_peer rank ->
      logf t "drop_peer %d" rank;
      (match t.peers.(rank) with
      | Some peer -> (
          match peer.conn with
          | Some c ->
              Transport.close c;
              peer.conn <- None;
              peer.next_dial <- Unix.gettimeofday () +. peer.dial_delay
          | None -> ())
      | None -> ())
  | Envelope.Shutdown ->
      logf t "shutdown at tick %d" (Cluster.now t.cluster);
      Transport.send t.coord Envelope.Bye;
      t.quit <- true
  | Envelope.Net_msg m -> Dispatch.deliver t.rt m
  | Envelope.Hello _ | Envelope.Heartbeat _ | Envelope.Status _ | Envelope.State _ | Envelope.Bye
    ->
      ()

let handle_peer t env =
  match env with
  | Envelope.Net_msg m ->
      t.wire_received <- t.wire_received + 1;
      Dispatch.deliver t.rt m
  | Envelope.Hello _ | Envelope.Heartbeat _ -> ()
  | Envelope.Start | Envelope.Status_req | Envelope.Status _ | Envelope.State_req
  | Envelope.State _ | Envelope.Drop_peer _ | Envelope.Shutdown | Envelope.Bye ->
      ()

let handle_handshake t conn env =
  match env with
  | Envelope.Hello { rank; procs; seed }
    when rank >= 0
         && rank < Array.length t.peers
         && rank <> t.cfg.rank
         && procs = Scenario.n_procs t.cfg.scenario
         && seed = t.cfg.scenario.Scenario.seed ->
      attach_peer t (peer_exn t rank) conn;
      true
  | _ ->
      logf t "handshake rejected (%s)" (Envelope.kind env);
      Transport.close conn;
      false

(* ------------------------------------------------------------------ *)
(* The event loop. *)

let live_conns t =
  let acc = ref [] in
  (match t.coord with c when Transport.alive c -> acc := c :: !acc | _ -> ());
  Array.iter
    (function
      | Some peer -> (
          match peer.conn with Some c when Transport.alive c -> acc := c :: !acc | _ -> ())
      | None -> ())
    t.peers;
  List.iter (fun (c, _) -> if Transport.alive c then acc := c :: !acc) t.pending_conns;
  !acc

let reap t =
  let now = Unix.gettimeofday () in
  Array.iter
    (function
      | Some peer -> (
          match peer.conn with
          | Some c when not (Transport.alive c) ->
              logf t "link to rank %d down" peer.prank;
              peer.conn <- None;
              peer.next_dial <- now +. peer.dial_delay
          | Some _ | None -> ())
      | None -> ())
    t.peers;
  t.pending_conns <-
    List.filter
      (fun (c, since) ->
        if not (Transport.alive c) then false
        else if now -. since > 5.0 then (Transport.close c; false)
        else true)
      t.pending_conns;
  if not (Transport.alive t.coord) && not t.quit then begin
    logf t "coordinator link lost; exiting";
    t.quit <- true
  end

let advance t =
  match t.epoch with
  | None -> ()
  | Some e ->
      let now = Unix.gettimeofday () in
      let target = int_of_float ((now -. e) *. 1e6 /. float_of_int t.cfg.tick_us) in
      let target = Int.min target t.cfg.max_ticks in
      let cur = Cluster.now t.cluster in
      (* Bound catch-up so a stall never turns into one giant burst. *)
      if target > cur then Cluster.run_until t.cluster ~time:(Int.min target (cur + 10_000))

let step t =
  let now = Unix.gettimeofday () in
  let conns = live_conns t in
  let reads = t.listener :: List.map Transport.fd conns in
  let writes = List.filter_map (fun c -> if Transport.want_write c then Some (Transport.fd c) else None) conns in
  let timeout =
    match t.epoch with
    | None -> 0.05
    | Some e ->
        let next = e +. (float_of_int ((Cluster.now t.cluster + 1) * t.cfg.tick_us) /. 1e6) in
        Float.max 0.0 (Float.min 0.05 (next -. now))
  in
  let readable, writable, _ =
    try Unix.select reads writes [] timeout with Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
  in
  if List.mem t.listener readable then begin
    let continue = ref true in
    while !continue do
      match Transport.accept t.listener with
      | Some conn -> t.pending_conns <- (conn, now) :: t.pending_conns
      | None -> continue := false
    done
  end;
  (* Handshakes first so a freshly attached peer's traffic lands on
     the attached connection below. *)
  t.pending_conns <-
    List.filter
      (fun (conn, _) ->
        if List.mem (Transport.fd conn) readable then
          match Transport.recv conn with
          | [] -> Transport.alive conn
          | env :: rest ->
              if handle_handshake t conn env then begin
                List.iter (handle_peer t) rest;
                false
              end
              else false
        else Transport.alive conn)
      t.pending_conns;
  if Transport.alive t.coord && List.mem (Transport.fd t.coord) readable then
    List.iter (handle_coord t) (Transport.recv t.coord);
  Array.iter
    (function
      | Some peer -> (
          match peer.conn with
          | Some c when Transport.alive c && List.mem (Transport.fd c) readable ->
              List.iter (handle_peer t) (Transport.recv c)
          | Some _ | None -> ())
      | None -> ())
    t.peers;
  List.iter (fun c -> if List.mem (Transport.fd c) writable then Transport.flush c) conns;
  reap t;
  redial_due t (Unix.gettimeofday ());
  if not t.quit then advance t;
  let now = Unix.gettimeofday () in
  if Transport.alive t.coord && now -. t.last_heartbeat > 0.2 then begin
    t.last_heartbeat <- now;
    Transport.send t.coord (Envelope.Heartbeat { tick = Cluster.now t.cluster })
  end

(* ------------------------------------------------------------------ *)

let main cfg =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let n = Scenario.n_procs cfg.scenario in
  if cfg.rank < 0 || cfg.rank >= n then
    invalid_arg (Printf.sprintf "node rank %d out of range for %d processes" cfg.rank n);
  if cfg.scenario.Scenario.detector = Config.Hughes_gc then
    invalid_arg "socket driver does not support the hughes baseline";
  let log = open_out (log_path ~dir:cfg.dir cfg.rank) in
  let sim, _built = Scenario.build cfg.scenario in
  let rt = Sim.rt sim in
  let cluster = Sim.cluster sim in
  install_duties sim cfg.rank;
  let reclaimed = ref [] in
  rt.Runtime.on_reclaim <-
    Some
      (fun pid oid ->
        if Proc_id.to_int pid = cfg.rank then reclaimed := oid :: !reclaimed);
  let listener = Transport.listen (Transport.Unix_sock (sock_path ~dir:cfg.dir cfg.rank)) in
  let coord = Transport.dial (Transport.Unix_sock (coord_path ~dir:cfg.dir)) in
  let t =
    {
      cfg;
      sim;
      rt;
      cluster;
      log;
      listener;
      coord;
      peers = Array.init n (fun r -> if r = cfg.rank then None else Some {
          prank = r;
          conn = None;
          backlog = [];
          backlog_len = 0;
          next_dial = 0.0;
          dial_delay = 0.05;
        });
      pending_conns = [];
      epoch = None;
      quit = false;
      reclaimed;
      wire_sent = 0;
      wire_received = 0;
      last_heartbeat = 0.0;
    }
  in
  logf t "up: %s procs=%d seed=%d detector=%s"
    (Scenario.topology_to_string cfg.scenario.Scenario.topology)
    n cfg.scenario.Scenario.seed
    (match cfg.scenario.Scenario.detector with
    | Config.Dcda -> "dcda"
    | Config.Backtrack -> "backtrack"
    | Config.Hughes_gc -> "hughes"
    | Config.No_detector -> "none");
  Transport.send coord (hello t);
  (* Remote-bound envelopes leave through the socket; self-sends keep
     the simulated timed path. *)
  Network.set_transport (Sim.net sim) (fun (msg : Msg.t) ->
      let dst = Proc_id.to_int msg.Msg.dst in
      if dst = cfg.rank then false
      else begin
        forward t dst msg;
        true
      end);
  (* Dial every lower rank; they are already listening (everyone
     listens before dialing anyone). *)
  for r = 0 to cfg.rank - 1 do
    let conn = Transport.dial (Transport.Unix_sock (sock_path ~dir:cfg.dir r)) in
    Transport.send conn (hello t);
    attach_peer t (peer_exn t r) conn
  done;
  (try
     while not t.quit do
       step t
     done
   with exn -> logf t "fatal: %s" (Printexc.to_string exn));
  (* Best-effort drain of the goodbye. *)
  let deadline = Unix.gettimeofday () +. 1.0 in
  while Transport.want_write t.coord && Unix.gettimeofday () < deadline do
    ignore (Unix.select [] [ Transport.fd t.coord ] [] 0.05);
    Transport.flush t.coord
  done;
  List.iter Transport.close (live_conns t);
  (try Unix.close t.listener with Unix.Unix_error _ -> ());
  Sim.teardown t.sim;
  logf t "down";
  close_out t.log
