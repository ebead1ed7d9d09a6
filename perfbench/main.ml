(* perfbench: the repository's benchmark. See README.md beside this file.

   usage: main.exe --workload NAME [--seed N] [--seconds S] [--trace 0|1]

   Prints a "FAILED ..." line per failed operation, an "output NAME VALUE"
   line per checked simulation output, a "metric NAME VALUE UNIT" line per
   figure, and as its last line one JSON object with the keys correct,
   attempted, failed and metrics. *)

module Json = Mosaic_obs.Json
module Measure = Perfbench.Measure
module Workloads = Perfbench.Workloads

let default_seed = 1

(* record.json holds the outputs of every simulation at its "seed"; a run
   at that seed must reproduce them exactly. *)
let record_file = Filename.concat "perfbench" "record.json"

let expected ~workload ~seed =
  if not (Sys.file_exists record_file) then []
  else
    let j =
      In_channel.with_open_bin record_file In_channel.input_all
      |> Json.of_string
    in
    let recorded = Json.to_number_exn (Json.member_exn "seed" j) in
    if int_of_float recorded <> seed then []
    else
      match Json.member workload (Json.member_exn "outputs" j) with
      | Some (Json.Obj kvs) ->
          List.map (fun (k, v) -> (k, int_of_float (Json.to_number_exn v))) kvs
      | _ -> []

let number v =
  if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let () =
  let workload = ref "" and seed = ref default_seed in
  let seconds = ref 10.0 and trace = ref 0 in
  let specs =
    [
      ( "--workload",
        Arg.Set_string workload,
        " one of " ^ String.concat ", " Workloads.names );
      ("--seed", Arg.Set_int seed, " seed of the generated inputs (default 1)");
      ("--seconds", Arg.Set_float seconds, " how long to repeat the simulations");
      ( "--trace",
        Arg.Set_int trace,
        " 0: end-to-end metrics, 1: per-layer metrics" );
    ]
  in
  let usage =
    "usage: main.exe --workload NAME [--seed N] [--seconds S] [--trace 0|1]"
  in
  Arg.parse (Arg.align specs)
    (fun a -> raise (Arg.Bad ("unexpected " ^ a)))
    usage;
  if (not (List.mem !workload Workloads.names)) || (!trace <> 0 && !trace <> 1)
     || !seconds < 0.0
  then begin
    prerr_endline usage;
    exit 2
  end;
  let r =
    Measure.run
      ~workload:(Workloads.make !workload ~seed:!seed)
      ~seconds:!seconds ~traced:(!trace = 1)
      ~expected:(expected ~workload:!workload ~seed:!seed)
  in
  List.iter (fun n -> print_endline ("FAILED " ^ n)) r.Measure.notes;
  List.iter (fun (k, v) -> Printf.printf "output %s %d\n" k v) r.Measure.outputs;
  List.iter
    (fun (m : Measure.metric) ->
      Printf.printf "metric %s %s %s\n" m.Measure.name (number m.Measure.value)
        m.Measure.unit)
    (r.Measure.metrics @ r.Measure.extra);
  let metrics =
    String.concat ", "
      (List.map
         (fun (m : Measure.metric) ->
           Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" m.Measure.name
             (number m.Measure.value) m.Measure.unit)
         r.Measure.metrics)
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    (r.Measure.failed = 0) r.Measure.attempted r.Measure.failed metrics
