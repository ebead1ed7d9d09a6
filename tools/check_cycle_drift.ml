(* Perf-regression guard: compare every speed.*.cycles entry of a freshly
   generated BENCH_speed.json against the committed baseline.

   Cycle counts are the simulator's deterministic output — any drift means
   the timing model changed, which must be a deliberate, baseline-refreshing
   commit, never a side effect of a performance patch. MIPS and host-time
   gauges are informational and ignored here, as is the "host" provenance
   member. Flattening and classification come from Mosaic_obs.Diff (the
   same library behind `mosaicsim diff`); this tool only restricts the key
   set and phrases the verdict for CI.

   Usage: check_cycle_drift FRESH.json BASELINE.json

   Exits 0 when all baseline cycle entries match, 1 on drift or a missing
   entry, 2 on usage/parse errors. *)

module Diff = Mosaic_obs.Diff

let load file =
  try Diff.flatten_file file
  with e ->
    Printf.eprintf "check_cycle_drift: %s\n" (Printexc.to_string e);
    exit 2

let is_speed_cycles k =
  String.starts_with ~prefix:"speed." k && Diff.is_cycles_key k

let speed_cycles entries = List.filter (fun (k, _) -> is_speed_cycles k) entries

let num = function Some (Diff.Num v) -> Printf.sprintf "%.0f" v | _ -> "?"

let () =
  let fresh_file, baseline_file =
    match Sys.argv with
    | [| _; f; b |] -> (f, b)
    | _ ->
        prerr_endline "usage: check_cycle_drift FRESH.json BASELINE.json";
        exit 2
  in
  let fresh = speed_cycles (load fresh_file) in
  let baseline = speed_cycles (load baseline_file) in
  if baseline = [] then begin
    Printf.eprintf "check_cycle_drift: no speed.*.cycles entries in %s\n"
      baseline_file;
    exit 2
  end;
  (* Baseline on the [a] side, fresh on [b]: Removed = gone from the fresh
     run (drift), Added = new workload awaiting a baseline refresh (noted,
     not failed). Cycles keys classify exactly, so threshold is moot. *)
  let entries = Diff.compare baseline fresh in
  let drift = ref false in
  List.iter
    (fun (e : Diff.entry) ->
      match e.Diff.cls with
      | Diff.Identical -> ()
      | Diff.Removed ->
          drift := true;
          Printf.printf "MISSING %s (baseline %s)\n" e.Diff.key (num e.Diff.a)
      | Diff.Added ->
          Printf.printf "NEW     %s = %s (not in baseline; refresh it)\n"
            e.Diff.key (num e.Diff.b)
      | Diff.Drifted | Diff.Close ->
          drift := true;
          Printf.printf "DRIFT   %s: baseline %s, fresh %s\n" e.Diff.key
            (num e.Diff.a) (num e.Diff.b))
    entries;
  if !drift then begin
    Printf.printf
      "cycle drift detected: the timing model changed. If intentional, \
       refresh BENCH_speed.json in the same commit.\n";
    exit 1
  end
  else
    Printf.printf "cycle check OK: %d speed.*.cycles entries identical\n"
      (List.length baseline)
