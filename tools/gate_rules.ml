module Diff = Mosaic_obs.Diff

type check = { name : string; ok : bool; detail : string }
type doc = (string * Diff.value) list

let pass name = { name; ok = true; detail = "" }
let fail name detail = { name; ok = false; detail }

let value_str = function
  | None -> "absent"
  | Some (Diff.Num f) when Float.is_integer f -> Printf.sprintf "%.0f" f
  | Some (Diff.Num f) -> Printf.sprintf "%g" f
  | Some (Diff.Str s) -> Printf.sprintf "%S" s

(* ------------------------------------------------------------------ *)
(* Contract                                                            *)
(* ------------------------------------------------------------------ *)

let contract ~baseline ~run doc =
  let entries = Diff.compare baseline doc in
  (* Host provenance is optional: git_rev is absent outside a checkout. *)
  let missing =
    List.filter
      (fun (e : Diff.entry) ->
        e.Diff.cls = Diff.Removed
        && (not (Diff.is_cycles_key e.Diff.key))
        && not (String.starts_with ~prefix:"host." e.Diff.key))
      entries
  in
  let ncycles =
    List.length (List.filter (fun (k, _) -> Diff.is_cycles_key k) baseline)
  in
  match Diff.cycle_drift entries @ missing with
  | [] when ncycles = 0 ->
      [ fail (run ^ " contract") "the baseline has no cycles keys" ]
  | [] ->
      [
        pass
          (Printf.sprintf "%s contract: %d cycles keys identical to baseline"
             run ncycles);
      ]
  | bad ->
      List.map
        (fun (e : Diff.entry) ->
          fail
            (Printf.sprintf "%s contract %s" run e.Diff.key)
            (match e.Diff.cls with
            | Diff.Removed -> Printf.sprintf "missing from the %s run" run
            | Diff.Added ->
                Printf.sprintf "%s not in the baseline; refresh it"
                  (value_str e.Diff.b)
            | _ ->
                Printf.sprintf "baseline %s, %s %s" (value_str e.Diff.a) run
                  (value_str e.Diff.b)))
        bad

(* ------------------------------------------------------------------ *)
(* Bounds                                                              *)
(* ------------------------------------------------------------------ *)

(* The warm run hits the trace cache, so its total
   speed.*.trace_gen_seconds must be near zero: a small floor for
   digesting the dataset plus 10% of the cold total for noise. *)
let trace_gen_floor_s = 0.05
let trace_gen_cold_share = 0.10

(* Sampled-simulation error ceiling, percent, for every
   speed.sample.<name>.err_pct and for speed.sample.max_err_pct. *)
let max_sample_err_pct = 10.0

(* Sampling must pay: speed.sample.geomean_speedup clears a loose
   host-independent floor. The committed baseline is much higher, but
   host-time ratios wobble on shared runners. *)
let min_sample_speedup = 1.5

let num doc key =
  match List.assoc_opt key doc with Some (Diff.Num f) -> Some f | _ -> None

(* Numeric leaves under [prefix] ending in [suffix]. *)
let matching doc ~prefix ~suffix =
  List.filter_map
    (fun (k, v) ->
      match v with
      | Diff.Num f
        when String.starts_with ~prefix k && String.ends_with ~suffix k ->
          Some (k, f)
      | _ -> None)
    doc

let sum = List.fold_left (fun acc (_, v) -> acc +. v) 0.0

let trace_gen ~cold ~warm =
  let total d =
    sum (matching d ~prefix:"speed." ~suffix:".trace_gen_seconds")
  in
  let cold_s = total cold and warm_s = total warm in
  let budget = Float.max trace_gen_floor_s (trace_gen_cold_share *. cold_s) in
  let name = "warm trace cache" in
  if warm_s <= budget then pass name
  else
    fail name
      (Printf.sprintf
         "warm trace_gen total %.3fs exceeds budget %.3fs (cold total %.3fs): \
          the warm run re-interpreted workloads"
         warm_s budget cold_s)

(* Every [(key, v)] must satisfy [ok]; an empty set fails. *)
let each name entries ~ok ~detail =
  if entries = [] then [ fail name "no such keys in the warm run" ]
  else
    match List.filter (fun (_, v) -> not (ok v)) entries with
    | [] -> [ pass (Printf.sprintf "%s (%d keys)" name (List.length entries)) ]
    | bad -> List.map (fun (k, v) -> fail (name ^ " " ^ k) (detail v)) bad

let one name doc key ~ok ~detail =
  match num doc key with
  | None -> fail name (Printf.sprintf "%s missing from the warm run" key)
  | Some v when ok v -> pass name
  | Some v -> fail name (detail v)

let bounds ~cold ~warm =
  let sample suffix = matching warm ~prefix:"speed.sample." ~suffix in
  let within_err v = v <= max_sample_err_pct in
  let err_detail v =
    Printf.sprintf "sampled error %.2f%% exceeds %.1f%%" v max_sample_err_pct
  in
  (trace_gen ~cold ~warm
  :: each "sample err_pct" (sample ".err_pct") ~ok:within_err
       ~detail:err_detail)
  @ [ one "sample max_err_pct" warm "speed.sample.max_err_pct" ~ok:within_err
        ~detail:err_detail ]
  @ each "sample degraded" (sample ".degraded")
      ~ok:(fun d -> d = 0.0)
      ~detail:(Printf.sprintf "%.0f period(s) fell back to exact simulation")
  @ [
      one "sample geomean_speedup" warm "speed.sample.geomean_speedup"
        ~ok:(fun v -> v >= min_sample_speedup)
        ~detail:(fun v ->
          Printf.sprintf "%.2fx is under the %.1fx floor" v min_sample_speedup);
    ]

let all ~baseline ~cold ~warm =
  contract ~baseline ~run:"cold" cold
  @ contract ~baseline ~run:"warm" warm
  @ bounds ~cold ~warm
