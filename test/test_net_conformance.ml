(* Cross-driver conformance: the same Scenario.t fed to the in-memory
   simulator and to the socket-backed multi-process driver must end in
   the same place — identical reclamation sets and clean verdicts from
   the {e same} gathered-state oracle ({!Gather.check}) applied to
   both drivers' final state.

   Set ADGC_NET_SMOKE to trim to one seed and one detector (the CI
   smoke configuration); the full matrix is 3 seeds x {dcda,
   backtrack}. *)

open Adgc_algebra
module Sim = Adgc.Sim
module Config = Adgc.Config
module Runtime = Adgc_rt.Runtime
module Scenario = Adgc_net.Scenario
module Coordinator = Adgc_net.Coordinator
module Gather = Adgc_net.Gather

let check = Alcotest.check

let smoke = Sys.getenv_opt "ADGC_NET_SMOKE" <> None

let seeds = if smoke then [ 11 ] else [ 11; 23; 47 ]

let detectors = if smoke then [ Config.Dcda ] else [ Config.Dcda; Config.Backtrack ]

let oid_set =
  Alcotest.testable
    (fun ppf s ->
      Format.fprintf ppf "{%s}" (String.concat "," (List.map Oid.to_string (Oid.Set.elements s))))
    Oid.Set.equal

let violations = Alcotest.list (Alcotest.testable Adgc_check.Invariant.pp ( = ))

(* Node processes are spawned by exec'ing the real [adgc_sim serve]
   binary, never [Fork], so the suite drives the node binary the CLI
   ships. *)
let spawn () =
  let exe =
    match Sys.getenv_opt "ADGC_SIM_EXE" with
    | Some p -> p
    | None -> (
        let candidates =
          [
            "../bin/adgc_sim.exe" (* dune runtest: cwd is _build/default/test *);
            "_build/default/bin/adgc_sim.exe" (* repo root *);
            "bin/adgc_sim.exe";
          ]
        in
        match List.find_opt Sys.file_exists candidates with
        | Some p -> if Filename.is_relative p then Filename.concat (Sys.getcwd ()) p else p
        | None -> Alcotest.fail "adgc_sim.exe not built; set ADGC_SIM_EXE")
  in
  Coordinator.Exec [ exe; "serve" ]

(* Drive the scenario wholly in-memory, then put its final state
   through the very same oracle the coordinator uses: capture each
   rank's authoritative state and run Gather.check on the union. *)
let run_in_memory scenario =
  let sim, _built = Scenario.build scenario in
  let rt = Sim.rt sim in
  let n = Scenario.n_procs scenario in
  let per_rank = Array.make n [] in
  rt.Runtime.on_reclaim <-
    Some
      (fun p o ->
        let r = Proc_id.to_int p in
        per_rank.(r) <- o :: per_rank.(r));
  Sim.start sim;
  let clean = Sim.run_until_clean ~step:1_000 ~max_time:600_000 sim in
  let states =
    List.init n (fun rank ->
        Gather.capture ~rt ~rank ~tick:(Sim.now sim) ~reclaimed:(List.rev per_rank.(rank)))
  in
  Sim.teardown sim;
  (clean, states)

let conformance_case topology seed detector () =
  let scenario = Scenario.make ~topology ~procs:4 ~seed ~detector () in
  let expected = Scenario.expected scenario in
  (* In-memory driver. *)
  let mem_clean, mem_states = run_in_memory scenario in
  check Alcotest.bool "in-memory run converged" true mem_clean;
  let mem_verdict =
    Gather.check ~expected_live:expected.Scenario.live ~expected_garbage:expected.Scenario.garbage
      mem_states
  in
  check violations "in-memory oracle clean" [] mem_verdict.Gather.violations;
  check oid_set "in-memory reclaimed exactly the garbage" expected.Scenario.garbage
    mem_verdict.Gather.reclaimed;
  (* Socket driver: one OS process per rank, same spec. *)
  let r = Coordinator.run (Coordinator.options ~deadline_s:30. ~spawn:(spawn ()) scenario) in
  check Alcotest.bool "socket run completed in budget" false r.Coordinator.timed_out;
  check Alcotest.(list int) "no node died" [] r.Coordinator.dead;
  check violations "socket oracle clean" [] r.Coordinator.verdict.Gather.violations;
  check oid_set "identical reclamation sets across drivers" mem_verdict.Gather.reclaimed
    r.Coordinator.verdict.Gather.reclaimed;
  check Alcotest.bool "socket run ok" true (Coordinator.ok r)

let matrix topology =
  List.concat_map
    (fun seed ->
      List.map
        (fun detector ->
          let name =
            Printf.sprintf "%s seed=%d %s"
              (Scenario.topology_to_string topology)
              seed
              (Scenario.detector_to_string detector)
          in
          Alcotest.test_case name `Slow (conformance_case topology seed detector))
        detectors)
    seeds

let suite =
  ( "net_conformance",
    matrix Scenario.Ring
    (* One mixed live/garbage workload per detector so Live_reclaimed
       has teeth (the ring is garbage wall-to-wall), and a star whose
       hub every other rank's garbage runs through. *)
    @ List.map
        (fun detector ->
          Alcotest.test_case
            (Printf.sprintf "pairs seed=11 %s" (Scenario.detector_to_string detector))
            `Slow
            (conformance_case Scenario.Pairs 11 detector))
        detectors
    @ [
        Alcotest.test_case "star seed=11 dcda" `Slow
          (conformance_case Scenario.Star 11 Config.Dcda);
      ] )
