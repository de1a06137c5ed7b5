(* In-memory span recorder for the traced run.

   Spans are taken from outside the program, around calls into each
   layer's public functions.  A span's self time is its duration minus
   the time covered by the spans nested inside it (a behavior running
   inside an RMI delivery, say), so self times never double count and
   everything outside any span is the scheduler/network residual. *)

let layers =
  [|
    "snapshot.prepare";
    "snapshot.commit";
    "lgc.plan";
    "lgc.apply";
    "reflist.sets";
    "dcda.scan";
    "dcda.audit";
    "dispatch.rmi_request";
    "dispatch.rmi_reply";
    "dispatch.export_notice";
    "dispatch.export_ack";
    "dispatch.new_set_stubs";
    "dispatch.scion_probe";
    "dispatch.cdm";
    "dispatch.cdm_delete";
    "workload.mutator";
  |]

let n_layers = Array.length layers

let layer name =
  let rec find i =
    if i >= n_layers then invalid_arg ("Spans.layer: " ^ name)
    else if String.equal layers.(i) name then i
    else find (i + 1)
  in
  find 0

let snapshot_prepare = layer "snapshot.prepare"
let snapshot_commit = layer "snapshot.commit"
let lgc_plan = layer "lgc.plan"
let lgc_apply = layer "lgc.apply"
let reflist_sets = layer "reflist.sets"
let dcda_scan = layer "dcda.scan"
let dcda_audit = layer "dcda.audit"
let workload_mutator = layer "workload.mutator"

(* [Msg.kind] -> dispatch layer; kinds the workloads never send (the
   baselines' traffic, batching and group relays) get no span and land
   in the residual. *)
let dispatch_layers =
  let t = Hashtbl.create 16 in
  Array.iteri
    (fun i name ->
      match String.split_on_char '.' name with
      | [ "dispatch"; kind ] -> Hashtbl.replace t kind i
      | _ -> ())
    layers;
  t

let dispatch_layer kind = Hashtbl.find_opt dispatch_layers kind

let max_depth = 16

type t = {
  mutable on : bool;
  calls : int array;
  self_s : float array;
  self_words : float array;
  (* open-span stack *)
  mutable depth : int;
  st_child_s : float array;
  st_child_w : float array;
  st_idx : int array;
  (* span log, one entry per span, in start order *)
  mutable n : int;
  mutable lay : int array;
  mutable beg : float array;
  mutable fin : float array;
  mutable proc : int array;
  mutable tick : int array;
  mutable cause : int array;
  mutable parent : int array;
}

let create () =
  let cap = 1 lsl 16 in
  {
    on = false;
    calls = Array.make n_layers 0;
    self_s = Array.make n_layers 0.;
    self_words = Array.make n_layers 0.;
    depth = 0;
    st_child_s = Array.make max_depth 0.;
    st_child_w = Array.make max_depth 0.;
    st_idx = Array.make max_depth 0;
    n = 0;
    lay = Array.make cap 0;
    beg = Array.make cap 0.;
    fin = Array.make cap 0.;
    proc = Array.make cap 0;
    tick = Array.make cap 0;
    cause = Array.make cap 0;
    parent = Array.make cap 0;
  }

let grow t =
  let cap = 2 * Array.length t.lay in
  let g a z = Array.append a (Array.make (cap - Array.length a) z) in
  t.lay <- g t.lay 0;
  t.beg <- g t.beg 0.;
  t.fin <- g t.fin 0.;
  t.proc <- g t.proc 0;
  t.tick <- g t.tick 0;
  t.cause <- g t.cause 0;
  t.parent <- g t.parent 0

(* [cause] ties a span to what caused it: the RMI request id for RMI
   deliveries, the detection id for CDM traffic, -1 for duties (whose
   cause is the (layer, proc, tick) triple itself). *)
let span t l ~proc ~tick ~cause f =
  if not t.on then f ()
  else begin
    if t.n = Array.length t.lay then grow t;
    let idx = t.n in
    t.n <- idx + 1;
    let d = t.depth in
    t.lay.(idx) <- l;
    t.proc.(idx) <- proc;
    t.tick.(idx) <- tick;
    t.cause.(idx) <- cause;
    t.parent.(idx) <- (if d > 0 then t.st_idx.(d - 1) else -1);
    t.st_idx.(d) <- idx;
    t.st_child_s.(d) <- 0.;
    t.st_child_w.(d) <- 0.;
    t.depth <- d + 1;
    let w0 = Gc.minor_words () in
    let t0 = Unix.gettimeofday () in
    let r = f () in
    let t1 = Unix.gettimeofday () in
    let w1 = Gc.minor_words () in
    t.depth <- d;
    t.beg.(idx) <- t0;
    t.fin.(idx) <- t1;
    let dur = t1 -. t0 and words = w1 -. w0 in
    t.calls.(l) <- t.calls.(l) + 1;
    t.self_s.(l) <- t.self_s.(l) +. (dur -. t.st_child_s.(d));
    t.self_words.(l) <- t.self_words.(l) +. (words -. t.st_child_w.(d));
    if d > 0 then begin
      t.st_child_s.(d - 1) <- t.st_child_s.(d - 1) +. dur;
      t.st_child_w.(d - 1) <- t.st_child_w.(d - 1) +. words
    end;
    r
  end

let spans t = t.n

(* One line per span: layer, start and end (microseconds from the
   first span), process, tick, cause and parent span index. *)
let write t ~header path =
  let oc = open_out path in
  List.iter (fun line -> Printf.fprintf oc "# %s\n" line) header;
  output_string oc "layer\tstart_us\tend_us\tproc\ttick\tcause\tparent\n";
  let base = if t.n > 0 then t.beg.(0) else 0. in
  for i = 0 to t.n - 1 do
    Printf.fprintf oc "%s\t%.3f\t%.3f\t%d\t%d\t%d\t%d\n" layers.(t.lay.(i))
      ((t.beg.(i) -. base) *. 1e6)
      ((t.fin.(i) -. base) *. 1e6)
      t.proc.(i) t.tick.(i) t.cause.(i) t.parent.(i)
  done;
  close_out oc
