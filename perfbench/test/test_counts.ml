(* The benchmark's deterministic counters repeat exactly for a seed.

   Runs one short traced benchmark twice in separate processes, as the
   benchmark is run in practice, and checks that both runs pass their
   output checks and report the same host GC and call counts. *)

module Json = Mosaic_obs.Json

let counters =
  [
    "gc.minor_words_per_instr";
    "gc.promoted_words_per_instr";
    "gc.major_collections";
    "soc.visits";
    "tile.step_calls";
    "hier.calls";
    "inter.calls";
  ]

let run exe workload =
  let args =
    [| "--workload"; workload; "--seed"; "5"; "--seconds"; "0"; "--trace"; "1" |]
  in
  let ic = Unix.open_process_args_in exe (Array.append [| exe |] args) in
  let lines = In_channel.input_lines ic in
  (match Unix.close_process_in ic with
  | Unix.WEXITED 0 -> ()
  | _ -> failwith (workload ^ ": benchmark exited abnormally"));
  let result = Json.of_string (List.nth lines (List.length lines - 1)) in
  if Json.member_exn "correct" result <> Json.Bool true then
    failwith (workload ^ ": output checks failed");
  let metrics = Json.member_exn "metrics" result in
  let value name = Json.member_exn "value" (Json.member_exn name metrics) in
  List.map (fun name -> (name, Json.to_number_exn (value name))) counters

let () =
  let exe = Sys.argv.(1) in
  List.iter
    (fun workload ->
      let a = run exe workload and b = run exe workload in
      List.iter2
        (fun (name, x) (_, y) ->
          if x <> y then
            failwith
              (Printf.sprintf "%s: %s = %.17g then %.17g" workload name x y))
        a b;
      Printf.printf "%s: %d counters repeat exactly\n" workload (List.length a))
    [ "dae-multitile" ]
