(* Experiment T8: wire-byte complexity. Two views:

   (a) total bytes on the wire per algorithm under the realistic
       Adaptive codec, at two sizes — the deployable analogue of the
       pointer-complexity table;
   (b) a codec comparison for the paper's algorithm and Name-Dropper —
       how much the identifier-set representation matters. *)

open Repro_util
open Repro_graph
open Repro_discovery

let family = Generate.K_out 3
let seeds ~quick = if quick then [ 1; 2 ] else [ 1; 2; 3 ]

let t8_algorithms =
  [
    Flooding.algorithm;
    Pointer_jump.algorithm;
    Name_dropper.algorithm;
    Min_pointer.algorithm;
    Rand_gossip.algorithm;
    Hm_gossip.algorithm;
  ]

let codec_algorithms = [ Hm_gossip.algorithm; Name_dropper.algorithm ]

let t8 report ~quick ~jobs =
  let sizes = if quick then [ 256; 1024 ] else [ 1024; 4096 ] in
  let n = List.nth sizes 1 in
  Report.section report ~id:"T8"
    ~title:"Wire bytes (adaptive varint/bitmap codec) — the deployable cost";
  Report.table report
    ~csv:("t8_wire_bytes", [ "n"; "algorithm" ] @ Sweepcell.csv_header [ Sweepcell.Bytes ])
    ~header:
      (("n", Table.Right)
      :: List.map (fun (a : Algorithm.t) -> (a.Algorithm.name, Table.Right)) t8_algorithms)
    ~row:(fun n -> ([ string_of_int n ], [ string_of_int n ]))
    ~col:(fun (a : Algorithm.t) -> [ a.Algorithm.name ])
    ~cell:(fun _ _ results ->
      ([ Sweepcell.cell Sweepcell.Bytes results ], Sweepcell.csv_fields [ Sweepcell.Bytes ] results))
    ~notes:(Printf.sprintf "\nCodec comparison (n = %d, seed 1, same runs re-measured):\n" n)
    (Report.grid ~jobs ~seeds:(seeds ~quick) sizes t8_algorithms (fun n algo seed ->
         Sweepcell.exec ~algo ~family ~n ~max_rounds:500 seed));
  (* the same deterministic run at the larger size, re-measured under
     each codec *)
  let codec =
    Report.grid ~jobs ~seeds:[ 1 ] codec_algorithms Wire.all_encodings (fun algo encoding seed ->
        let spec = { Run.default_spec with Run.seed; encoding; max_rounds = Some 500 } in
        (Run.exec_spec spec algo (Generate.of_seed family ~n ~seed)).Run.bytes)
  in
  let raw32_ratio ((a : Algorithm.t), by_codec) =
    let bytes encoding = float_of_int (List.hd (List.assoc encoding by_codec)) in
    Printf.sprintf "%.0fx (%s)" (bytes Wire.Raw32 /. bytes Wire.Adaptive) a.Algorithm.name
  in
  Report.table report
    ~csv:("t8_codec", [ "algorithm"; "codec"; "bytes" ])
    ~header:
      (("algorithm", Table.Left)
      :: List.map (fun e -> (Wire.encoding_name e, Table.Right)) Wire.all_encodings)
    ~row:(fun (a : Algorithm.t) -> ([ a.Algorithm.name ], [ a.Algorithm.name ]))
    ~col:(fun e -> [ Wire.encoding_name e ])
    ~cell:(fun _ _ bytes ->
      let b = List.hd bytes in
      ([ Sweepcell.approx_int (float_of_int b) ], [ string_of_int b ]))
    ~notes:
      (Printf.sprintf
         "Snapshot-heavy traffic compresses to near the bitmap bound (n/8 bytes per full\n\
          snapshot); hm's delta reports make it the cheapest in bytes as well as pointers. Raw\n\
          32-bit identifiers cost %s the adaptive codec.\n"
         (String.concat " and " (List.map raw32_ratio codec)))
    codec
