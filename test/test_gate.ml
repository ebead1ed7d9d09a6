(* The gate's JSON rules on small hand-built bench documents: which
   differences fail (cycles keys, missing keys, violated bounds) and
   which never do (host provenance, host-time gauges). *)

module Diff = Mosaic_obs.Diff
module R = Gate_rules

let base : R.doc =
  [
    ("speed.spmv.host_seconds", Diff.Num 0.6);
    ("speed.spmv.trace_gen_seconds", Diff.Num 0.01);
    ("speed.spmv.cycles", Diff.Num 918128.);
    ("speed.skip.pointer_chase.stepped_cycles", Diff.Num 114484.);
    ("speed.sample.bfs.est_cycles", Diff.Num 3555770.);
    ("speed.sample.bfs.err_pct", Diff.Num 4.49);
    ("speed.sample.bfs.degraded", Diff.Num 0.);
    ("speed.sample.bfs.exact_seconds", Diff.Num 3.29);
    ("speed.sample.geomean_speedup", Diff.Num 5.0);
    ("speed.sample.max_err_pct", Diff.Num 4.49);
    ("host.cores", Diff.Num 1.);
    ("host.git_rev", Diff.Str "9412861");
  ]

let set key v doc =
  List.map (fun (k, old) -> (k, if k = key then v else old)) doc

let bump key doc =
  match List.assoc key doc with
  | Diff.Num f -> set key (Diff.Num (f +. 1.0)) doc
  | Diff.Str _ -> Alcotest.failf "%s is not numeric" key

let failures ?(baseline = base) ?(cold = base) ?(warm = base) () =
  List.filter (fun (c : R.check) -> not c.ok) (R.all ~baseline ~cold ~warm)

let contains ~sub s =
  let n = String.length sub in
  let rec go i =
    i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
  in
  go 0

let passes ?cold ?warm what () =
  match failures ?cold ?warm () with
  | [] -> ()
  | c :: _ -> Alcotest.failf "%s: %s failed: %s" what c.name c.detail

(* Fails, and some failing check names [sub]. *)
let fails_on ?cold ?warm sub () =
  let bad = failures ?cold ?warm () in
  Alcotest.(check bool)
    (Printf.sprintf "a failing check names %s" sub)
    true
    (List.exists (fun (c : R.check) -> contains ~sub (c.name ^ c.detail)) bad)

let host_noise doc =
  doc
  |> List.remove_assoc "host.git_rev"
  |> set "host.cores" (Diff.Num 8.)
  |> set "speed.spmv.host_seconds" (Diff.Num 9.9)
  |> set "speed.sample.bfs.exact_seconds" (Diff.Num 0.1)

let suite =
  [
    ( "gate",
      [
        Alcotest.test_case "identical documents pass" `Quick
          (passes "identical");
        Alcotest.test_case "host and *_seconds differences pass" `Quick
          (passes ~cold:(host_noise base) ~warm:(host_noise base) "host noise");
        Alcotest.test_case "cold-only est_cycles drift fails" `Quick
          (fails_on
             ~cold:(bump "speed.sample.bfs.est_cycles" base)
             "cold contract speed.sample.bfs.est_cycles");
        Alcotest.test_case "cold-only stepped_cycles drift fails" `Quick
          (fails_on
             ~cold:(bump "speed.skip.pointer_chase.stepped_cycles" base)
             "cold contract speed.skip.pointer_chase.stepped_cycles");
        Alcotest.test_case "warm cycles drift fails" `Quick
          (fails_on ~warm:(bump "speed.spmv.cycles" base)
             "warm contract speed.spmv.cycles");
        Alcotest.test_case "baseline key missing from warm fails" `Quick
          (fails_on
             ~warm:(List.remove_assoc "speed.spmv.host_seconds" base)
             "warm contract speed.spmv.host_seconds");
        Alcotest.test_case "err_pct 10.0 passes" `Quick
          (passes
             ~warm:
               (base
               |> set "speed.sample.bfs.err_pct" (Diff.Num 10.0)
               |> set "speed.sample.max_err_pct" (Diff.Num 10.0))
             "err_pct 10.0");
        Alcotest.test_case "err_pct 10.01 fails" `Quick
          (fails_on
             ~warm:(set "speed.sample.bfs.err_pct" (Diff.Num 10.01) base)
             "speed.sample.bfs.err_pct");
        Alcotest.test_case "max_err_pct 10.01 fails" `Quick
          (fails_on
             ~warm:(set "speed.sample.max_err_pct" (Diff.Num 10.01) base)
             "max_err_pct");
        Alcotest.test_case "degraded 1 fails" `Quick
          (fails_on
             ~warm:(set "speed.sample.bfs.degraded" (Diff.Num 1.) base)
             "speed.sample.bfs.degraded");
        Alcotest.test_case "warm trace_gen over budget fails" `Quick
          (fails_on
             ~cold:(set "speed.spmv.trace_gen_seconds" (Diff.Num 0.5) base)
             ~warm:(set "speed.spmv.trace_gen_seconds" (Diff.Num 0.06) base)
             "warm trace cache");
        Alcotest.test_case "geomean_speedup 1.49 fails" `Quick
          (fails_on
             ~warm:(set "speed.sample.geomean_speedup" (Diff.Num 1.49) base)
             "geomean_speedup");
      ] );
  ]
