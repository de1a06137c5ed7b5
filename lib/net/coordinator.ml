module Config = Adgc.Config
module Stats = Adgc_util.Stats
module Span = Adgc_obs.Span
open Adgc_algebra

type spawn = Fork | Exec of string list

type fault =
  | Kill of { rank : int; after_s : float }
  | Drop of { rank : int; peer : int; after_s : float }

type options = {
  scenario : Scenario.t;
  dir : string option;
  tick_us : int;
  deadline_s : float;
  faults : fault list;
  spawn : spawn;
  keep_dir : bool;
}

let options ?dir ?(tick_us = 100) ?(deadline_s = 60.0) ?(faults = []) ?(spawn = Fork)
    ?(keep_dir = false) scenario =
  { scenario; dir; tick_us; deadline_s; faults; spawn; keep_dir }

type result = {
  verdict : Gather.verdict;
  states : Gather.node_state list;
  statuses : Envelope.status list;
  dead : int list;
  required : Oid.Set.t;
  wall_s : float;
  max_tick : int;
  timed_out : bool;
  stats : Stats.t;
  obs : Span.t;
  dir : string;
}

let ok r =
  Gather.clean r.verdict
  && Oid.Set.is_empty (Oid.Set.diff r.required r.verdict.Gather.reclaimed)
  && not r.timed_out

let pp_result ppf r =
  Format.fprintf ppf "@[<v>net run: %s in %.2fs (max tick %d)%s@,%a@]"
    (if ok r then "ok" else "FAILED")
    r.wall_s r.max_tick
    (match r.dead with
    | [] -> ""
    | d -> Format.asprintf ", dead ranks %s" (String.concat "," (List.map string_of_int d)))
    Gather.pp_verdict r.verdict

(* ------------------------------------------------------------------ *)

type node = {
  rank : int;
  pid : int;
  mutable conn : Transport.conn option;
  mutable last_seen : float;
  mutable status : Envelope.status option;
  mutable state : Gather.node_state option;
  mutable bye : bool;
  mutable dead : bool;
  mutable reaped : bool;
}

let mkdir_p dir = if not (Sys.file_exists dir) then Unix.mkdir dir 0o755

let fresh_dir () =
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "adgc-net-%d-%.0f" (Unix.getpid ()) (Unix.gettimeofday () *. 1e3))
  in
  mkdir_p dir;
  dir

let rm_rf dir =
  if Sys.file_exists dir && Sys.is_directory dir then begin
    Array.iter (fun f -> try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
      (Sys.readdir dir);
    try Unix.rmdir dir with Unix.Unix_error _ -> ()
  end

let node_config opts ~dir rank =
  let max_ticks =
    int_of_float (opts.deadline_s *. 1e6 /. float_of_int opts.tick_us) + 100_000
  in
  { Node.rank; scenario = opts.scenario; dir; tick_us = opts.tick_us; max_ticks }

let spawn_fork opts ~dir ~listener rank =
  let err = Filename.concat dir (Printf.sprintf "node-%d.err" rank) in
  match Unix.fork () with
  | 0 ->
      let code =
        try
          let fd = Unix.openfile err [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
          Unix.dup2 fd Unix.stdout;
          Unix.dup2 fd Unix.stderr;
          Unix.close fd;
          (try Unix.close listener with Unix.Unix_error _ -> ());
          Node.main (node_config opts ~dir rank);
          0
        with exn ->
          Printf.eprintf "node %d: %s\n%!" rank (Printexc.to_string exn);
          1
      in
      Unix._exit code
  | pid -> pid

let spawn_exec opts ~dir argv rank =
  let sc = opts.scenario in
  let cfg = node_config opts ~dir rank in
  let args =
    argv
    @ [
        "--dir"; dir;
        "--rank"; string_of_int rank;
        "--topology"; Scenario.topology_to_string sc.Scenario.topology;
        "--procs"; string_of_int (Scenario.n_procs sc);
        "--seed"; string_of_int sc.Scenario.seed;
        "--detector"; Scenario.detector_to_string sc.Scenario.detector;
        "--groups"; string_of_int sc.Scenario.groups;
        "--objects"; string_of_int sc.Scenario.objects;
        "--edges"; string_of_int sc.Scenario.edges;
        "--tick-us"; string_of_int cfg.Node.tick_us;
        "--max-ticks"; string_of_int cfg.Node.max_ticks;
      ]
  in
  let err =
    Unix.openfile
      (Filename.concat dir (Printf.sprintf "node-%d.err" rank))
      [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ]
      0o644
  in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let pid = Unix.create_process (List.hd argv) (Array.of_list args) devnull err err in
  Unix.close err;
  Unix.close devnull;
  pid

(* ------------------------------------------------------------------ *)

let heartbeat_silence = 3.0

let reap_children ?(mark_dead = true) nodes =
  Array.iter
    (fun nd ->
      if not nd.reaped then
        match Unix.waitpid [ Unix.WNOHANG ] nd.pid with
        | 0, _ -> ()
        | _, _ ->
            nd.reaped <- true;
            if mark_dead then nd.dead <- true
        | exception Unix.Unix_error (Unix.ECHILD, _, _) ->
            nd.reaped <- true;
            if mark_dead then nd.dead <- true)
    nodes

let handle_envelope nd ~now ~max_tick env =
  nd.last_seen <- now;
  match env with
  | Envelope.Status s ->
      nd.status <- Some s;
      max_tick := Int.max !max_tick s.Envelope.st_tick
  | Envelope.State ns -> nd.state <- Some ns
  | Envelope.Heartbeat { tick } -> max_tick := Int.max !max_tick tick
  | Envelope.Bye -> nd.bye <- true
  | Envelope.Hello _ | Envelope.Start | Envelope.Status_req | Envelope.State_req
  | Envelope.Net_msg _ | Envelope.Drop_peer _ | Envelope.Shutdown ->
      ()

type pump = {
  listener : Unix.file_descr;
  nodes : node array;
  mutable pending : Transport.conn list;
  max_tick : int ref;
  started : bool ref;
  closing : bool ref;  (* Shutdown broadcast: exits and EOFs are expected now *)
}

(* One select round: accept, handshake, drain node traffic, flush. *)
let poll pump timeout =
  let now = Unix.gettimeofday () in
  let node_conns =
    Array.to_list pump.nodes
    |> List.filter_map (fun nd ->
           match nd.conn with Some c when Transport.alive c -> Some (nd, c) | _ -> None)
  in
  let pending = List.filter Transport.alive pump.pending in
  let all_conns = pending @ List.map snd node_conns in
  let reads = pump.listener :: List.map Transport.fd all_conns in
  let writes =
    List.filter_map (fun c -> if Transport.want_write c then Some (Transport.fd c) else None)
      all_conns
  in
  let readable, writable, _ =
    try Unix.select reads writes [] timeout
    with Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
  in
  if List.mem pump.listener readable then begin
    let continue = ref true in
    while !continue do
      match Transport.accept pump.listener with
      | Some conn -> pump.pending <- conn :: pump.pending
      | None -> continue := false
    done
  end;
  let pending = List.filter Transport.alive pump.pending in
  pump.pending <-
    List.filter
      (fun conn ->
        if List.mem (Transport.fd conn) readable then
          match Transport.recv conn with
          | [] -> Transport.alive conn
          | Envelope.Hello { rank; _ } :: rest
            when rank >= 0 && rank < Array.length pump.nodes ->
              let nd = pump.nodes.(rank) in
              (match nd.conn with Some old -> Transport.close old | None -> ());
              nd.conn <- Some conn;
              nd.last_seen <- Unix.gettimeofday ();
              List.iter (handle_envelope nd ~now ~max_tick:pump.max_tick) rest;
              false
          | _ ->
              Transport.close conn;
              false
        else Transport.alive conn)
      pending;
  List.iter
    (fun (nd, c) ->
      if List.mem (Transport.fd c) readable then
        List.iter (handle_envelope nd ~now ~max_tick:pump.max_tick) (Transport.recv c))
    node_conns;
  List.iter (fun c -> if List.mem (Transport.fd c) writable then Transport.flush c) all_conns;
  (* Death detection: child exit, connection EOF, heartbeat silence.
     Once the shutdown phase begins, exits are the desired outcome. *)
  let mark_dead = not !(pump.closing) in
  reap_children ~mark_dead pump.nodes;
  Array.iter
    (fun nd ->
      (match nd.conn with
      | Some c when not (Transport.alive c) ->
          nd.conn <- None;
          if !(pump.started) && mark_dead then nd.dead <- true
      | Some _ | None -> ());
      if
        !(pump.started) && mark_dead && (not nd.dead) && nd.conn <> None
        && now -. nd.last_seen > heartbeat_silence
      then nd.dead <- true)
    pump.nodes

let broadcast pump env =
  Array.iter
    (fun nd ->
      if not nd.dead then
        match nd.conn with Some c when Transport.alive c -> Transport.send c env | _ -> ())
    pump.nodes

let live pump = Array.to_list pump.nodes |> List.filter (fun nd -> not nd.dead)

(* ------------------------------------------------------------------ *)

let kill_all nodes =
  Array.iter
    (fun nd ->
      if not nd.reaped then begin
        (try Unix.kill nd.pid Sys.sigkill with Unix.Unix_error _ -> ());
        (try ignore (Unix.waitpid [] nd.pid) with Unix.Unix_error _ -> ());
        nd.reaped <- true
      end)
    nodes

let run opts =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let scenario = opts.scenario in
  let n = Scenario.n_procs scenario in
  let dir, temp_dir =
    match opts.dir with
    | Some d ->
        mkdir_p d;
        (d, false)
    | None -> (fresh_dir (), true)
  in
  let stats = Stats.create () in
  let obs = Span.create () in
  Span.set_enabled obs true;
  let t0 = Unix.gettimeofday () in
  let us () = int_of_float ((Unix.gettimeofday () -. t0) *. 1e6) in
  let run_span = Span.begin_span obs ~time:(us ()) ~kind:Span.Run "net.run" in
  let phase name f =
    let id = Span.begin_span obs ~time:(us ()) ~parent:run_span ~kind:(Span.Custom "net.phase") name in
    let r = f () in
    Span.end_span obs ~time:(us ()) id;
    r
  in
  let expected = phase "net.expect" (fun () -> Scenario.expected scenario) in
  let expected_dead =
    List.filter_map (function Kill { rank; _ } -> Some rank | Drop _ -> None) opts.faults
  in
  let required =
    if expected_dead = [] then expected.Scenario.garbage
    else Scenario.garbage_excluding scenario ~dead:expected_dead
  in
  let listener = Transport.listen (Transport.Unix_sock (Node.coord_path ~dir)) in
  let nodes =
    phase "net.spawn" (fun () ->
        Array.init n (fun rank ->
            let pid =
              match opts.spawn with
              | Fork -> spawn_fork opts ~dir ~listener rank
              | Exec argv -> spawn_exec opts ~dir argv rank
            in
            {
              rank;
              pid;
              conn = None;
              last_seen = Unix.gettimeofday ();
              status = None;
              state = None;
              bye = false;
              dead = false;
              reaped = false;
            }))
  in
  let max_tick = ref 0 in
  let pump = { listener; nodes; pending = []; max_tick; started = ref false; closing = ref false } in
  let fail fmt =
    Format.kasprintf
      (fun msg ->
        kill_all nodes;
        (try Unix.close listener with Unix.Unix_error _ -> ());
        failwith ("coordinator: " ^ msg ^ " (logs in " ^ dir ^ ")"))
      fmt
  in
  (* Handshake: every node dials in and says Hello. *)
  phase "net.handshake" (fun () ->
      let deadline = Unix.gettimeofday () +. 20.0 in
      while Array.exists (fun nd -> nd.conn = None) nodes do
        if Unix.gettimeofday () > deadline then
          fail "nodes %s never reported in"
            (String.concat ","
               (Array.to_list nodes
               |> List.filter (fun nd -> nd.conn = None)
               |> List.map (fun nd -> string_of_int nd.rank)));
        if Array.exists (fun nd -> nd.dead) nodes then
          fail "node died during handshake";
        poll pump 0.05
      done);
  (* Ready gate: every node has its full peer mesh up. *)
  phase "net.ready" (fun () ->
      let deadline = Unix.gettimeofday () +. 20.0 in
      let last_req = ref 0.0 in
      let all_ready () =
        Array.for_all
          (fun nd ->
            match nd.status with Some s -> s.Envelope.st_ready | None -> false)
          nodes
      in
      while not (all_ready ()) do
        if Unix.gettimeofday () > deadline then fail "peer mesh never completed";
        if Array.exists (fun nd -> nd.dead) nodes then fail "node died before start";
        let now = Unix.gettimeofday () in
        if now -. !last_req > 0.1 then begin
          last_req := now;
          broadcast pump Envelope.Status_req
        end;
        poll pump 0.05
      done);
  (* Go. *)
  broadcast pump Envelope.Start;
  pump.started := true;
  let start_t = Unix.gettimeofday () in
  let faults = ref (List.map (fun f -> (f, false)) opts.faults) in
  let reclaimed_union () =
    Array.fold_left
      (fun acc nd ->
        match nd.status with
        | Some s ->
            List.fold_left (fun acc o -> Oid.Set.add o acc) acc s.Envelope.st_reclaimed
        | None -> acc)
      Oid.Set.empty nodes
  in
  let timed_out = ref false in
  phase "net.collect" (fun () ->
      let last_req = ref 0.0 in
      (* Not done until every scheduled fault has actually fired —
         otherwise a fast run completes before the fault it was meant
         to survive. *)
      let done_ () =
        List.for_all (fun (_, fired) -> fired) !faults
        && Oid.Set.subset required (reclaimed_union ())
      in
      while not (done_ ()) && not !timed_out do
        let now = Unix.gettimeofday () in
        if now -. start_t > opts.deadline_s then timed_out := true
        else begin
          faults :=
            List.map
              (fun (f, fired) ->
                let due after_s = (not fired) && now -. start_t >= after_s in
                match f with
                | Kill { rank; after_s } when due after_s ->
                    (try Unix.kill nodes.(rank).pid Sys.sigkill
                     with Unix.Unix_error _ -> ());
                    (f, true)
                | Drop { rank; peer; after_s } when due after_s ->
                    (match nodes.(rank).conn with
                    | Some c when Transport.alive c ->
                        Transport.send c (Envelope.Drop_peer peer)
                    | _ -> ());
                    (f, true)
                | (Kill _ | Drop _) -> (f, fired))
              !faults;
          if now -. !last_req > 0.1 then begin
            last_req := now;
            broadcast pump Envelope.Status_req
          end;
          poll pump 0.05
        end
      done);
  let wall_s = Unix.gettimeofday () -. start_t in
  (* Gather authoritative state from the survivors. *)
  phase "net.gather" (fun () ->
      broadcast pump Envelope.State_req;
      let deadline = Unix.gettimeofday () +. 10.0 in
      let missing () = List.filter (fun nd -> nd.state = None) (live pump) in
      while missing () <> [] && Unix.gettimeofday () < deadline do
        poll pump 0.05
      done);
  phase "net.shutdown" (fun () ->
      pump.closing := true;
      broadcast pump Envelope.Shutdown;
      let deadline = Unix.gettimeofday () +. 5.0 in
      while
        List.exists (fun nd -> not nd.bye) (live pump) && Unix.gettimeofday () < deadline
      do
        poll pump 0.05
      done;
      Array.iter
        (fun nd -> match nd.conn with Some c -> Transport.close c | None -> ())
        nodes;
      (try Unix.close listener with Unix.Unix_error _ -> ());
      (* Give children a moment to exit cleanly, then make sure. *)
      let deadline = Unix.gettimeofday () +. 3.0 in
      let rec wait_all () =
        reap_children ~mark_dead:false nodes;
        if Array.exists (fun nd -> not nd.reaped) nodes then
          if Unix.gettimeofday () > deadline then kill_all nodes
          else begin
            Unix.sleepf 0.02;
            wait_all ()
          end
      in
      wait_all ());
  let dead =
    Array.to_list nodes |> List.filter (fun nd -> nd.dead) |> List.map (fun nd -> nd.rank)
  in
  let states =
    Array.to_list nodes
    |> List.filter_map (fun nd -> nd.state)
    |> List.sort (fun (a : Gather.node_state) b -> compare a.Gather.rank b.Gather.rank)
  in
  let statuses =
    Array.to_list nodes
    |> List.filter (fun nd -> not nd.dead)
    |> List.filter_map (fun nd -> nd.status)
  in
  let verdict =
    Gather.check ~expected_live:expected.Scenario.live ~expected_garbage:expected.Scenario.garbage
      ~dead states
  in
  (* Merge node counters (summed across ranks, original names) plus
     the driver's own net.* series. *)
  List.iter
    (fun (ns : Gather.node_state) ->
      List.iter (fun (k, v) -> Stats.add stats k v) ns.Gather.counters)
    states;
  List.iter
    (fun (s : Envelope.status) ->
      Stats.add stats "net.wire.sent" s.Envelope.st_wire_sent;
      Stats.add stats "net.wire.received" s.Envelope.st_wire_received;
      Stats.add stats "net.wire.dup_ignored" s.Envelope.st_dup_ignored;
      Stats.add_l stats "net.wire.sent.rank"
        ~labels:[ ("rank", string_of_int s.Envelope.st_rank) ]
        s.Envelope.st_wire_sent)
    statuses;
  Stats.add stats "net.nodes" n;
  Stats.add stats "net.dead" (List.length dead);
  Stats.add stats "net.run.max_tick" !max_tick;
  Stats.record stats "net.run.wall_s" wall_s;
  Span.end_span obs ~time:(us ()) run_span;
  let result =
    {
      verdict;
      states;
      statuses;
      dead;
      required;
      wall_s;
      max_tick = !max_tick;
      timed_out = !timed_out;
      stats;
      obs;
      dir;
    }
  in
  if ok result && temp_dir && not opts.keep_dir then rm_rf dir;
  result
