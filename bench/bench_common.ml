(* Shared plumbing for the bench sections: wall-clock timing, smoke
   sizing, host/revision facts for the results document, and the
   sample-recording helpers every section reports through. *)

module Sample = Adgc_perf.Sample
module Recorder = Adgc_perf.Recorder
module Results = Adgc_perf.Results

let wall_ms f =
  let t0 = Unix.gettimeofday () in
  let result = f () in
  let t1 = Unix.gettimeofday () in
  (result, (t1 -. t0) *. 1000.0)

let pct base v = (v -. base) /. base *. 100.0

let section name = Printf.printf "\n================ %s ================\n%!" name

let median l =
  let sorted = List.sort Float.compare l in
  List.nth sorted (List.length sorted / 2)

(* Tests force smoke without touching the environment of the whole
   test binary; the CLI keeps the ADGC_BENCH_SMOKE contract. *)
let smoke_forced = ref None

let force_smoke v = smoke_forced := Some v

let smoke () =
  match !smoke_forced with
  | Some v -> v
  | None -> Sys.getenv_opt "ADGC_BENCH_SMOKE" <> None

let times ~reps f =
  f ();
  (* warm: faults caches and scratch state in *)
  List.init reps (fun _ -> snd (wall_ms f))

let time_reps ~reps f = median (times ~reps f)

let rev () =
  match Sys.getenv_opt "ADGC_BENCH_REV" with
  | Some r when r <> "" -> r
  | Some _ | None -> (
      match Unix.open_process_in "git rev-parse --short HEAD 2>/dev/null" with
      | exception Unix.Unix_error _ -> "dev"
      | ic -> (
          let line = try input_line ic with End_of_file -> "" in
          match Unix.close_process_in ic with
          | Unix.WEXITED 0 when line <> "" -> line
          | _ -> "dev"))

let host () =
  { Results.cores = Domain.recommended_domain_count () }

(* Sample-recording shorthands: a timing series from raw repetition
   measurements, and a deterministic scalar (ticks, messages, bytes —
   pure functions of the seed). *)
let timing r ~section ~name ~unit_ ?(direction = Sample.Lower_better) ?slo ~config values =
  Recorder.add r ~section
    (Sample.of_values ~name ~unit_ ~direction ~klass:Sample.Timing ?slo
       ~config_digest:(Recorder.config_digest config) values)

let det r ~section ~name ~unit_ ?(direction = Sample.Lower_better) ?slo ~config v =
  Recorder.add r ~section
    (Sample.scalar ~name ~unit_ ~direction ~klass:Sample.Deterministic ?slo
       ~config_digest:(Recorder.config_digest config) v)

let adgc_sim_exe () =
  match Sys.getenv_opt "ADGC_SIM_EXE" with
  | Some p -> Some p
  | None ->
      List.find_opt Sys.file_exists
        [
          (* next to this executable, wherever it was run from *)
          Filename.concat (Filename.dirname Sys.executable_name) "../bin/adgc_sim.exe";
          "_build/default/bin/adgc_sim.exe";
          "../bin/adgc_sim.exe";
          "bin/adgc_sim.exe";
        ]
      |> Option.map (fun p ->
             if Filename.is_relative p then Filename.concat (Sys.getcwd ()) p else p)
