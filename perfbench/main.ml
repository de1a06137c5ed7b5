(* The repository benchmark: three steady-state DGC workloads, their
   end-to-end metrics (untraced) and a per-layer profile (traced).
   See README.md in this directory. *)

module E = Episode
module Codec = Adgc_serial.Codec
module Algebra = Adgc_algebra.Algebra
module Summary = Adgc_snapshot.Summary

let base =
  {
    E.name = "";
    procs = 16;
    loss = 0.0;
    peers = 8;
    export_gap = 0;
    args_per_call = 4;
    ring_slots = 8;
    cycle_gap = 0;
    span_min = 2;
    span_max = 3;
    tail_prob = 0.0;
    lifetime = 2_000;
    invoke_gap = 0;
    graph_objects = 0;
    graph_edges = 0;
    settle = 500;
    warmup = 6_000;
    window = 20_000;
    chunk = 2_000;
    drain_max = 60_000;
  }

(* Why each workload exists is in README.md. *)
let workloads =
  [
    {
      base with
      E.name = "rmi_export";
      procs = 16;
      peers = 15;
      export_gap = 4;
      cycle_gap = 80;
      window = 40_000;
    };
    {
      base with
      E.name = "cycle_churn";
      procs = 64;
      loss = 0.01;
      peers = 8;
      export_gap = 20;
      args_per_call = 2;
      cycle_gap = 40;
      span_max = 6;
      tail_prob = 0.3;
      invoke_gap = 20;
      warmup = 8_000;
      window = 30_000;
    };
    {
      base with
      E.name = "wide_heap";
      procs = 256;
      peers = 4;
      export_gap = 3;
      args_per_call = 2;
      ring_slots = 4;
      cycle_gap = 12;
      tail_prob = 0.2;
      invoke_gap = 20;
      graph_objects = 50_000;
      graph_edges = 50_000;
      settle = 1_000;
      warmup = 1_500;
      window = 3_000;
      chunk = 500;
    };
  ]

(* The negative self-test: the cycle generator wired with bootstrap-only
   calls while the collector runs.  The safety check must flag it. *)
let miswired =
  {
    base with
    E.name = "miswired";
    procs = 8;
    peers = 7;
    cycle_gap = 200;
    span_max = 4;
    settle = 0;
    warmup = 0;
    window = 20_000;
    drain_max = 0;
  }

(* ------------------------------------------------------------------ *)

let median xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 0 then nan else if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Nearest-rank percentile of a sorted array. *)
let pct sorted p =
  let n = Array.length sorted in
  if n = 0 then nan
  else
    float_of_int
      sorted.(Int.min (n - 1) (Int.max 0 (int_of_float (ceil (p *. float_of_int n)) - 1)))

let time_loop ~min_s f =
  let t0 = Unix.gettimeofday () in
  let rec go calls =
    let calls = calls + f () in
    let el = Unix.gettimeofday () -. t0 in
    if el >= min_s then el /. float_of_int calls else go calls
  in
  go 0

(* Host-speed reference: a fixed stretch of hashing and small
   allocations, the simulator's own mix, timed between the measured
   chunks.  Wall-time metrics are reported in reference seconds — wall
   time scaled by [reference_s] over the reference time measured next to
   it (see [interleaved]) — so a host that runs slower for a while (other
   tenants, frequency changes) slows the reference by about the same
   factor and the metric holds still.  The raw wall figures are printed
   beside them. *)
let reference_s = 0.010

let reference () =
  let t0 = Unix.gettimeofday () in
  let h = Hashtbl.create 16 in
  for i = 0 to 110_000 do
    Hashtbl.replace h (i land 16383) [ i ]
  done;
  ignore (Sys.opaque_identity h);
  Unix.gettimeofday () -. t0

let git_revision () =
  let read f = In_channel.with_open_text f In_channel.input_line in
  try
    match read ".git/HEAD" with
    | Some l when String.starts_with ~prefix:"ref: " l -> (
        match read (Filename.concat ".git" (String.sub l 5 (String.length l - 5))) with
        | Some r -> r
        | None -> "unknown")
    | Some r -> r
    | None -> "unknown"
  with Sys_error _ -> "none"

let fingerprint () =
  [
    ("nproc", string_of_int (Domain.recommended_domain_count ()));
    ("ocaml", Sys.ocaml_version);
    ("git", git_revision ());
  ]
  @ E.pinned

(* ------------------------------------------------------------------ *)

type metric = { name : string; value : float; unit_ : string; note : string }

let m ?(note = "") name unit_ value = { name; value; unit_; note }

let print_table title ms =
  Printf.printf "== %s\n" title;
  List.iter (fun x -> Printf.printf "  %-34s %14.4f %-8s %s\n" x.name x.value x.unit_ x.note) ms

let json_line ~correct ~attempted ~failed ms =
  let metric x =
    Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" x.name
      (if Float.is_finite x.value then Printf.sprintf "%.17g" x.value else "null")
      x.unit_
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n" correct
    attempted failed
    (String.concat ", " (List.map metric ms))

let percentiles prefix lat =
  let n = Array.length lat in
  let at p =
    let beyond = n - int_of_float (ceil (p *. float_of_int n)) in
    m ~note:(Printf.sprintf "n=%d, %d beyond" n beyond)
      (Printf.sprintf "%s_p%02.0f_ticks" prefix (100. *. p))
      "ticks" (pct lat p)
  in
  [ at 0.5; at 0.99 ]

(* ------------------------------------------------------------------ *)
(* Correctness                                                        *)

let problems = ref []

let check ok what = if not ok then problems := what :: !problems

let checked_run spec ~seed ~digest =
  let t0 = Unix.gettimeofday () in
  let c = E.run spec ~seed ~leg:E.Dgc_on ~run_mode:E.Checked in
  let t1 = Unix.gettimeofday () in
  check (c.E.digest = digest) "checked run digest differs from the timed run";
  check (c.E.violations = 0) (Printf.sprintf "safety checker: %d violations" c.E.violations);
  check (c.E.premature = 0)
    (Printf.sprintf "%d generated objects swept while reachable" c.E.premature);
  let neg = E.run ~via:E.Bootstrap_wired miswired ~seed ~leg:E.Dgc_on ~run_mode:E.Checked in
  Printf.printf "  checked run: %d safety violations, %d premature sweeps (%.1f s)\n"
    c.E.violations c.E.premature (t1 -. t0);
  Printf.printf "  negative self-test (%s): %d violations, %d premature sweeps (%.1f s)\n"
    miswired.E.name neg.E.violations neg.E.premature
    (Unix.gettimeofday () -. t1);
  check (neg.E.violations > 0) "negative self-test: the safety checker flagged nothing";
  c

let outcome (r : E.result) =
  (r.E.rmi_attempted + r.E.garbage_attempted, r.E.rmi_failed + r.E.garbage_failed)

(* Two episodes with the same window length, started one after the
   other (order alternating by [rep]) and measured chunk by chunk in
   alternation, with the host reference timed between chunk pairs.  A
   chunk's time in reference seconds uses the mean of the two reference
   times around it, so the scaling follows the host's speed as it
   changes during the window. *)
type pair = {
  a : E.result;
  b : E.result;
  reference : float;  (** median reference time *)
  a_s : float;  (** [a]'s window in reference seconds *)
}

let interleaved ~rep (start_a, start_b) =
  let a, b =
    if rep mod 2 = 0 then
      let a = start_a () in
      (a, start_b ())
    else
      let b = start_b () in
      (start_a (), b)
  in
  let refs = ref [ reference () ] in
  let a_s = ref 0. in
  for i = 0 to E.chunks a - 1 do
    let ta =
      if i mod 2 = 0 then begin
        let ta = E.run_chunk a in
        ignore (E.run_chunk b : float);
        ta
      end
      else begin
        ignore (E.run_chunk b : float);
        E.run_chunk a
      end
    in
    let before = List.hd !refs in
    let after = reference () in
    refs := after :: !refs;
    a_s := !a_s +. (ta *. reference_s /. ((before +. after) /. 2.))
  done;
  let ra = E.finish a in
  let rb = E.finish b in
  { a = ra; b = rb; reference = median !refs; a_s = !a_s }

let repeat ~seconds ~min_reps f =
  let t0 = Unix.gettimeofday () in
  let rec go rep acc =
    if rep >= min_reps && Unix.gettimeofday () -. t0 >= seconds then List.rev acc
    else begin
      Gc.compact ();
      go (rep + 1) (f rep :: acc)
    end
  in
  go 0 []

(* ------------------------------------------------------------------ *)
(* Timed mode: end-to-end metrics                                      *)

let timed spec ~seed ~seconds =
  (* One DGC-on episode alone first: it sets the process's heap peak
     before two episodes are ever alive together. *)
  let first = E.run spec ~seed ~leg:E.Dgc_on ~run_mode:E.Timed in
  let peak_mb =
    float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.
  in
  let reps =
    repeat ~seconds ~min_reps:3 (fun rep ->
        interleaved ~rep
          ( (fun () -> E.start spec ~seed ~leg:E.Dgc_on ~run_mode:E.Timed),
            fun () -> E.start spec ~seed ~leg:E.Dgc_off ~run_mode:E.Timed ))
  in
  List.iter
    (fun p ->
      Printf.printf "  rep: setup %.3f s, window %.3f s, DGC off %.3f s, reference %.4f s\n"
        p.a.E.setup_s p.a.E.window_s p.b.E.window_s p.reference)
    reps;
  List.iter (fun p -> check (p.a.E.digest = first.E.digest) "timed repetitions differ") reps;
  check (first.E.premature = 0)
    (Printf.sprintf "%d generated objects swept while reachable" first.E.premature);
  let c = checked_run spec ~seed ~digest:first.E.digest in
  let r = first in
  let attempted, failed = outcome r in
  let med f = median (List.map f reps) in
  let raw f = Printf.sprintf "raw wall %.4f; median of %d" (med f) (List.length reps) in
  let ticks (o : E.result) = float_of_int o.E.window_ticks in
  let replies (o : E.result) = float_of_int o.E.replies_in_window in
  let ms =
    [
      m "setup_s" "s"
        ~note:(raw (fun p -> p.a.E.setup_s))
        (med (fun p -> p.a.E.setup_s *. reference_s /. p.reference));
      m "ticks_per_s" "ticks/s"
        ~note:(raw (fun p -> ticks p.a /. p.a.E.window_s))
        (med (fun p -> ticks p.a /. p.a_s));
      m "rmi_per_s" "calls/s"
        ~note:(raw (fun p -> replies p.a /. p.a.E.window_s))
        (med (fun p -> replies p.a /. p.a_s));
      m "rmi_cost_ratio" "ratio"
        ~note:(Printf.sprintf "median of %d interleaved pairs" (List.length reps))
        (med (fun p -> p.a.E.window_s /. p.b.E.window_s));
    ]
    @ percentiles "acyclic_reclaim" r.E.lat_acyclic
    @ percentiles "cycle_reclaim" r.E.lat_cycle
    @ [
        m "retained_garbage_mean" "objects" r.E.retained_mean;
        m "dgc_msgs_per_reclaimed" "msgs"
          (float_of_int r.E.dgc_msgs /. float_of_int (Int.max 1 r.E.reclaimed_in_window))
          ~note:(Printf.sprintf "%d msgs / %d reclaimed" r.E.dgc_msgs r.E.reclaimed_in_window);
        m "dgc_bytes_per_reclaimed" "bytes"
          (float_of_int c.E.dgc_bytes /. float_of_int (Int.max 1 c.E.reclaimed_in_window))
          ~note:"checked run";
        m "peak_heap_mb" "MB" peak_mb;
      ]
  in
  (* Not in the JSON result: it is 0 on a healthy run, and the
     operation counts it comes from are reported there as
     [attempted]/[failed]. *)
  let failed_pct =
    m "failed_pct" "%"
      (100. *. float_of_int failed /. float_of_int (Int.max 1 attempted))
      ~note:(Printf.sprintf "%d of %d operations" failed attempted)
  in
  print_table
    (spec.E.name
   ^ " (DGC on; wall metrics in reference seconds; tick metrics depend only on the seed)")
    (ms @ [ failed_pct ]);
  (attempted, failed, ms)

(* ------------------------------------------------------------------ *)
(* Traced mode: per-layer metrics                                      *)

let write_spans spec ~seed probe path =
  try
    let dir = Filename.dirname path in
    if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
    Spans.write probe
      ~header:
        (Printf.sprintf "workload=%s seed=%d" spec.E.name seed
        :: List.map (fun (k, v) -> k ^ "=" ^ v) (fingerprint ()))
      path;
    Printf.printf "  %d spans written to %s\n" (Spans.spans probe) path
  with Sys_error e -> check false ("writing spans: " ^ e)

let traced spec ~seed ~seconds ~spans_out =
  let reps =
    repeat ~seconds ~min_reps:1 (fun rep ->
        let p = Spans.create () in
        let pair =
          interleaved ~rep
            ( (fun () -> E.start spec ~seed ~leg:E.Dgc_on ~run_mode:E.Timed),
              fun () -> E.start spec ~seed ~leg:E.Dgc_on ~run_mode:(E.Traced p) )
        in
        (pair.a, pair.b, p))
  in
  let r, _, _ = List.hd reps in
  List.iter
    (fun ((o : E.result), (tr : E.result), _) ->
      check (o.E.digest = r.E.digest) "untraced repetitions differ";
      check (tr.E.digest = r.E.digest) "traced run digest differs from the untraced run")
    reps;
  ignore (checked_run spec ~seed ~digest:r.E.digest : E.result);
  let attempted, failed = outcome r in
  (* Aggregate the traced windows. *)
  let n = Spans.n_layers in
  let calls = Array.make n 0 and self_s = Array.make n 0. and self_w = Array.make n 0. in
  let wall = ref 0. and words = ref 0. and ticks = ref 0 in
  List.iter
    (fun (_, (o : E.result), (p : Spans.t)) ->
      for l = 0 to n - 1 do
        calls.(l) <- calls.(l) + p.Spans.calls.(l);
        self_s.(l) <- self_s.(l) +. p.Spans.self_s.(l);
        self_w.(l) <- self_w.(l) +. p.Spans.self_words.(l)
      done;
      wall := !wall +. o.E.window_s;
      words := !words +. o.E.minor_words;
      ticks := !ticks + o.E.window_ticks)
    reps;
  let covered = Array.fold_left ( +. ) 0. self_s in
  let covered_w = Array.fold_left ( +. ) 0. self_w in
  let per c x = if c = 0 then 0. else x /. float_of_int c in
  let layer_ms =
    List.concat
      (List.init n (fun l ->
           let name = Spans.layers.(l) in
           [
             m (name ^ ".share_pct") "%" (100. *. self_s.(l) /. !wall);
             m (name ^ ".calls") "count" (float_of_int calls.(l));
             m (name ^ ".us_per_call") "us" (per calls.(l) (1e6 *. self_s.(l)));
             m (name ^ ".words_per_call") "words" (per calls.(l) self_w.(l));
           ]))
  in
  let residual =
    [
      m "scheduler_network.share_pct" "%" (100. *. (!wall -. covered) /. !wall);
      m "scheduler_network.us_per_tick" "us" (1e6 *. (!wall -. covered) /. float_of_int !ticks);
      m "scheduler_network.words_per_tick" "words" ((!words -. covered_w) /. float_of_int !ticks);
    ]
  in
  (* Sub-layer replays: the codec over the summaries published last and
     the algebra's matching over the CDMs the traced window delivered. *)
  let _, last, last_p = List.nth reps (List.length reps - 1) in
  let codec = (module Adgc_serial.Net_codec : Codec.S) in
  let svals = List.map Summary.to_sval last.E.summaries in
  let encoded = List.map (Codec.encode codec) svals in
  let n_sum = List.length svals in
  let encode_s =
    time_loop ~min_s:0.05 (fun () ->
        List.iter (fun s -> ignore (Sys.opaque_identity (Codec.encode codec s))) svals;
        n_sum)
  in
  let decode_s =
    time_loop ~min_s:0.05 (fun () ->
        List.iter (fun s -> ignore (Sys.opaque_identity (Codec.decode codec s))) encoded;
        n_sum)
  in
  let bytes = List.fold_left (fun acc s -> acc + String.length s) 0 encoded in
  let cdms = last.E.cdms in
  let n_cdm = List.length cdms in
  let matching_s =
    if n_cdm = 0 then 0.
    else
      time_loop ~min_s:0.05 (fun () ->
          List.iter (fun a -> ignore (Sys.opaque_identity (Algebra.matching a))) cdms;
          n_cdm)
  in
  let entries =
    List.fold_left
      (fun acc a ->
        let s, t = Algebra.cardinal a in
        acc + s + t)
      0 cdms
  in
  let ws = r.E.window_stats in
  let ratio a b = float_of_int a /. float_of_int (Int.max 1 b) in
  let replay_ms =
    [
      m "serial.encode_us" "us" (1e6 *. encode_s) ~note:(Printf.sprintf "%d summaries" n_sum);
      m "serial.decode_us" "us" (1e6 *. decode_s);
      m "serial.summary_bytes" "bytes" (ratio bytes n_sum);
      m "algebra.matching_us" "us" (1e6 *. matching_s) ~note:(Printf.sprintf "%d CDMs" n_cdm);
      m "algebra.cdm_entries" "count" (ratio entries n_cdm);
      m "dcda.useful_ratio" "ratio" (ratio (ws "dcda.cycles_found") (ws "dcda.detections_started"));
      m "dcda.cdms_per_cycle" "msgs" (ratio (ws "net.msg.sent.cdm") (ws "dcda.cycles_found"));
      m "lgc.swept_per_run" "objects" (ratio (ws "lgc.swept") (ws "lgc.runs"));
      m "gc.minor_words_per_tick" "words" (r.E.minor_words /. float_of_int r.E.window_ticks);
      m "gc.major_collections" "count" (float_of_int r.E.major_collections);
    ]
  in
  let overhead =
    median
      (List.map (fun ((o : E.result), (tr : E.result), _) -> tr.E.window_s /. o.E.window_s) reps)
  in
  let trace_ms =
    [
      m "trace.coverage_pct" "%" (100. *. covered /. !wall);
      m "trace.overhead_pct" "%"
        (100. *. (overhead -. 1.))
        ~note:(Printf.sprintf "median of %d interleaved pairs" (List.length reps));
    ]
  in
  check (covered /. !wall >= 0.85) "named layers cover less than 85% of traced wall time";
  let ms = layer_ms @ residual @ replay_ms @ trace_ms in
  print_table (spec.E.name ^ " (traced, DGC on)") ms;
  write_spans spec ~seed last_p spans_out;
  (attempted, failed, ms)

(* ------------------------------------------------------------------ *)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  let spans_out = ref "" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, " rmi_export | cycle_churn | wide_heap");
      ("--seed", Arg.Set_int seed, " workload seed");
      ("--seconds", Arg.Set_float seconds, " measuring time");
      ("--trace", Arg.Set_int trace, " 0: end-to-end metrics, 1: per-layer trace");
      ("--spans", Arg.Set_string spans_out, " span file (default .bench_out/spans-<workload>.tsv)");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload NAME --seed N --seconds S --trace 0|1";
  let spec =
    match List.find_opt (fun w -> w.E.name = !workload) workloads with
    | Some w -> w
    | None ->
        prerr_endline ("unknown workload: " ^ !workload);
        exit 2
  in
  if !spans_out = "" then spans_out := Printf.sprintf ".bench_out/spans-%s.tsv" spec.E.name;
  Printf.printf "workload=%s seed=%d seconds=%g trace=%d %s\n" spec.E.name !seed !seconds !trace
    (String.concat " " (List.map (fun (k, v) -> k ^ "=" ^ v) (fingerprint ())));
  let attempted, failed, ms =
    if !trace = 0 then timed spec ~seed:!seed ~seconds:!seconds
    else traced spec ~seed:!seed ~seconds:!seconds ~spans_out:!spans_out
  in
  List.iter (fun p -> Printf.printf "CHECK FAILED: %s\n" p) (List.rev !problems);
  let correct = !problems = [] in
  json_line ~correct ~attempted ~failed ms;
  if not correct then exit 1
