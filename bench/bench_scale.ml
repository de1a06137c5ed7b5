(* Scale section (E26): the clique curves and the hierarchical-group
   aggregation cut, small enough to gate in CI but shaped exactly like
   the 256→1024-proc runs the scale job drives through the CLI.

   Three legs per cell:
     - flat      : plain clique routing (the historical configuration)
     - flat+acct : same routing, but [group_size] set with relays off —
                   the honest baseline that counts how much DGC
                   control traffic crosses group boundaries when
                   nothing aggregates it (only constructible through
                   the runtime record: [Config.with_groups] always
                   couples relaying to the size)
     - grouped   : the real overlay, relays on
   The reclamation outcome must be identical across all three (the
   overlay reroutes, it must not change results); the interesting
   series are the cross-group DGC envelope cut and the usual
   ticks/messages/live-words columns.  Deterministic series gate
   tightly, wall-clock ones are timing-class. *)

module Sim = Adgc.Sim
module Config = Adgc.Config
module Cluster = Adgc_rt.Cluster
module Heap = Adgc_rt.Heap
module Runtime = Adgc_rt.Runtime
module Process = Adgc_rt.Process
module Topology = Adgc_workload.Topology
module Stats = Adgc_util.Stats
module Table = Adgc_util.Table
module Rng = Adgc_util.Rng
open Bench_common

type leg = Flat | Flat_accounting | Grouped

let leg_name = function Flat -> "flat" | Flat_accounting -> "flat+acct" | Grouped -> "grouped"

let config_of ~seed ~procs ~groups = function
  | Flat -> Config.quick ~seed ~n_procs:procs ()
  | Flat_accounting ->
      let c = Config.quick ~seed ~n_procs:procs () in
      {
        c with
        Config.runtime =
          { c.Config.runtime with Runtime.group_size = groups; group_relay = false };
      }
  | Grouped -> Config.with_groups (Config.quick ~seed ~n_procs:procs ()) groups

type outcome = {
  clean : bool;
  ticks : int;
  msgs_per_proc : float;
  dense_words : int;
  xgroup_dgc : int;
  survivors : int;
  wall_ms : float;
}

let run_leg ~seed ~procs ~objects ~groups leg =
  let config = config_of ~seed ~procs ~groups leg in
  let sim = Sim.create ~config () in
  let cluster = Sim.cluster sim in
  let _built =
    Topology.random cluster
      ~rng:(Rng.create (seed + 1))
      ~objects ~edges:(2 * objects) ~remote_prob:0.35 ~root_prob:0.15
  in
  (* Peak live-words proxy: the dense-trace arenas right after the
     build, when the population is at its maximum. *)
  let rt = Cluster.rt cluster in
  let dense_words = ref 0 in
  Array.iter
    (fun (p : Process.t) ->
      ignore (Heap.dense_sync p.Process.heap : int);
      dense_words := !dense_words + Heap.dense_words p.Process.heap)
    rt.Runtime.procs;
  Sim.start sim;
  let clean, wall_ms = wall_ms (fun () -> Sim.run_until_clean ~step:1_000 ~max_time:600_000 sim) in
  let stats = Sim.stats sim in
  let ticks = Sim.now sim in
  let msgs = Stats.get stats "net.msg.sent" in
  let xgroup_dgc = Stats.get stats "net.msg.xgroup.dgc" in
  let survivors =
    Array.fold_left
      (fun acc (p : Process.t) -> acc + Heap.size p.Process.heap)
      0 rt.Runtime.procs
  in
  Sim.teardown sim;
  {
    clean;
    ticks;
    msgs_per_proc = float_of_int msgs /. float_of_int procs;
    dense_words = !dense_words;
    xgroup_dgc;
    survivors;
    wall_ms;
  }

let run recorder =
  section "E26: scale curves and hierarchical process groups";
  let seed = 11 in
  (* ADGC_SCALE_{PROCS,OBJECTS,GROUPS} override the full-mode sizes:
     the E26 curves (256–1024 procs) are produced by sweeping these,
     while CI's smoke leg stays pinned and cheap. *)
  let env_int var default =
    match Option.bind (Sys.getenv_opt var) int_of_string_opt with
    | Some v when v > 0 -> v
    | Some _ | None -> default
  in
  let procs, objects, groups =
    if smoke () then (16, 2_000, 4)
    else
      ( env_int "ADGC_SCALE_PROCS" 64,
        env_int "ADGC_SCALE_OBJECTS" 50_000,
        env_int "ADGC_SCALE_GROUPS" 8 )
  in
  let legs = [ Flat; Flat_accounting; Grouped ] in
  let outcomes = List.map (fun l -> (l, run_leg ~seed ~procs ~objects ~groups l)) legs in
  let flat = List.assoc Flat outcomes in
  let acct = List.assoc Flat_accounting outcomes in
  let grouped = List.assoc Grouped outcomes in
  let config_digest =
    [ "scale"; string_of_int procs; string_of_int objects; string_of_int groups;
      string_of_bool (smoke ()) ]
  in
  List.iter
    (fun (l, o) ->
      let name fmt = Printf.sprintf "scale.%s.%s" (leg_name l) fmt in
      det recorder ~section:"scale" ~name:(name "ticks") ~unit_:"ticks" ~config:config_digest
        (float_of_int o.ticks);
      det recorder ~section:"scale" ~name:(name "msgs_per_proc") ~unit_:"msgs"
        ~config:config_digest o.msgs_per_proc;
      det recorder ~section:"scale" ~name:(name "dense_words") ~unit_:"words"
        ~config:config_digest (float_of_int o.dense_words);
      timing recorder ~section:"scale" ~name:(name "wall_ms") ~unit_:"ms" ~config:config_digest
        [ o.wall_ms ])
    outcomes;
  (* The aggregation claim: grouped routing cuts cross-group DGC
     envelopes vs the honest flat-accounting baseline.  At this bench
     scale the cut is real but modest; the ≥4x figure belongs to the
     256-proc CLI runs (EXPERIMENTS.md E26). *)
  let cut =
    float_of_int (Int.max 1 acct.xgroup_dgc) /. float_of_int (Int.max 1 grouped.xgroup_dgc)
  in
  det recorder ~section:"scale" ~name:"scale.grouped.xgroup_cut" ~unit_:"ratio"
    ~direction:Sample.Higher_better ~config:config_digest cut;
  det recorder ~section:"scale" ~name:"scale.identical.survivors" ~unit_:"bool"
    ~config:config_digest
    (if flat.survivors = grouped.survivors && acct.survivors = grouped.survivors then 1.0
     else 0.0);
  Table.print
    ~header:[ "leg"; "clean"; "ticks"; "msgs/proc"; "dense words"; "xgroup dgc"; "wall" ]
    ~rows:
      (List.map
         (fun (l, o) ->
           [
             leg_name l;
             string_of_bool o.clean;
             string_of_int o.ticks;
             Printf.sprintf "%.1f" o.msgs_per_proc;
             string_of_int o.dense_words;
             string_of_int o.xgroup_dgc;
             Printf.sprintf "%.0f ms" o.wall_ms;
           ])
         outcomes)
    ();
  Printf.printf "cross-group DGC cut (flat+acct vs grouped): %.2fx\n" cut
