(* Configuration-matrix tests: the fig3 lifecycle must work under
   every combination of codec, summarizer and deletion mode — the
   pieces are designed to be swappable, so prove it.  Plus decoder
   fuzzing: no input may crash a codec (only Wire.Malformed). *)

open Adgc_workload
module Sim = Adgc.Sim
module Config = Adgc.Config
module Cluster = Adgc_rt.Cluster
module Policy = Adgc_dcda.Policy
module Summarize = Adgc_snapshot.Summarize

let check = Alcotest.check

let rotor = (module Adgc_serial.Rotor_codec : Adgc_serial.Codec.S)

let net = (module Adgc_serial.Net_codec : Adgc_serial.Codec.S)

let fig3_lifecycle ~codec ~summarize ~incremental ~deletion_mode () =
  let policy = { Policy.aggressive with Policy.deletion_mode } in
  let config = Config.quick ~n_procs:4 () in
  let config =
    { config with Config.codec; summarize; incremental_snapshots = incremental; policy }
  in
  let sim = Sim.create ~config () in
  let cluster = Sim.cluster sim in
  let checker = Metrics.install_safety_checker cluster in
  let built = Topology.fig3 cluster in
  Sim.start sim;
  Sim.run_for sim 3_000;
  Adgc_rt.Mutator.remove_root cluster (Topology.obj built "A");
  let clean = Sim.run_until_clean ~max_time:300_000 sim in
  Metrics.assert_safe checker;
  check Alcotest.bool "clean" true clean;
  check Alcotest.int "empty" 0 (Cluster.total_objects cluster)

let matrix_cases =
  List.concat_map
    (fun (codec_name, codec) ->
      List.concat_map
        (fun (sum_name, summarize, incremental) ->
          List.map
            (fun mode ->
              let name =
                Printf.sprintf "fig3 via %s/%s/%s" codec_name sum_name
                  (Policy.deletion_mode_name mode)
              in
              Alcotest.test_case name `Quick
                (fig3_lifecycle ~codec ~summarize ~incremental ~deletion_mode:mode))
            [ Policy.Arrival_only; Policy.All_local; Policy.Broadcast ])
        [
          ("naive", Summarize.Naive, false);
          ("condensed", Summarize.Condensed, false);
          ("incremental", Summarize.Condensed, true);
        ])
    [ ("net", net); ("rotor", rotor) ]

(* ------------------------------------------------------------------ *)
(* Decoder fuzzing *)

let never_crashes codec name =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name ~count:500
       QCheck2.Gen.(string_size ~gen:char (int_bound 200))
       (fun input ->
         match Adgc_serial.Codec.decode codec input with
         | _ -> true (* decoding random junk successfully is fine too *)
         | exception Adgc_serial.Wire.Malformed _ -> true))

(* Mutated valid documents: corrupt one byte of a real encoding. *)
let corrupted_roundtrip codec name =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name ~count:300
       QCheck2.Gen.(pair (int_bound 10_000) (int_bound 255))
       (fun (pos_seed, byte) ->
         let doc =
           Adgc_serial.Sval.Record
             ( "probe",
               [
                 ("a", Adgc_serial.Sval.Int 42);
                 ("b", Adgc_serial.Sval.Str "payload with <specials> & more");
                 ("c", Adgc_serial.Sval.List [ Adgc_serial.Sval.Bool true ]);
               ] )
         in
         let encoded = Adgc_serial.Codec.encode codec doc in
         let pos = pos_seed mod String.length encoded in
         let corrupted = Bytes.of_string encoded in
         Bytes.set corrupted pos (Char.chr byte);
         match Adgc_serial.Codec.decode codec (Bytes.to_string corrupted) with
         | _ -> true (* same byte or a still-valid document *)
         | exception Adgc_serial.Wire.Malformed _ -> true))

(* The snapshot store's direct summary decoder against the generic
   Net_codec + [of_sval] pair: on junk, and on real summary encodings
   with a random run of bytes spliced in, both agree (same summary,
   both [None], or both [Wire.Malformed]) and nothing else escapes. *)
let summary_decoders_agree name gen =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name ~count:500 ~print:QCheck2.Print.string gen
       Test_snapshot.decoders_agree)

let gen_spliced_summary =
  QCheck2.Gen.(
    let* bytes = map Adgc_snapshot.Summary.encode_net Test_snapshot.gen_summary in
    let n = String.length bytes in
    let+ pos = int_bound n
    and+ cut = int_bound 8
    and+ junk = string_size ~gen:char (int_bound 8) in
    let rest = Int.min n (pos + cut) in
    String.sub bytes 0 pos ^ junk ^ String.sub bytes rest (n - rest))

let suite =
  ( "matrix",
    matrix_cases
    @ [
        never_crashes net "net decoder never crashes on junk";
        never_crashes rotor "rotor decoder never crashes on junk";
        corrupted_roundtrip net "net decoder survives corruption";
        corrupted_roundtrip rotor "rotor decoder survives corruption";
        summary_decoders_agree "direct summary decoder = generic on junk"
          QCheck2.Gen.(string_size ~gen:char (int_bound 200));
        summary_decoders_agree "direct summary decoder = generic on spliced summaries"
          gen_spliced_summary;
      ] )
