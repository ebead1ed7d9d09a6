(* Incremental design-space sweep driver: one exact profiled simulation
   plus N cheap re-timings (Retime), with the full simulator kept as the
   oracle behind [exact:true] so every point's cycle error is measured,
   never assumed. *)

module Trace = Mosaic_trace.Trace
module Analysis = Mosaic_trace.Analysis
module TC = Mosaic_tile.Tile_config
module Hierarchy = Mosaic_memory.Hierarchy
module Cache = Mosaic_memory.Cache
module Dram = Mosaic_memory.Dram
module Accel_model = Mosaic_accel.Accel_model
module Domain_pool = Mosaic_util.Domain_pool
module Span = Mosaic_obs.Span

type edit = Soc.config * TC.t -> Soc.config * TC.t
type axis = { axis : string; points : (string * edit) list }

(* ------------------------------------------------------------------ *)
(* Axis vocabulary                                                     *)
(* ------------------------------------------------------------------ *)

let with_l1 cfg (f : Cache.config -> Cache.config) =
  let h = cfg.Soc.hierarchy in
  { cfg with Soc.hierarchy = { h with Hierarchy.l1 = f h.Hierarchy.l1 } }

let with_level name cfg (sel : Hierarchy.config -> Cache.config option)
    (put : Hierarchy.config -> Cache.config -> Hierarchy.config)
    (f : Cache.config -> Cache.config) =
  let h = cfg.Soc.hierarchy in
  match sel h with
  | None -> failwith (Printf.sprintf "sweep axis %s: system has no %s" name name)
  | Some c -> { cfg with Soc.hierarchy = put h (f c) }

let cache_size kb (c : Cache.config) =
  { c with Cache.size_bytes = kb * 1024 }

let int_edit name (v : int) : edit =
 fun (cfg, tc) ->
  match name with
  | "l1" -> (with_l1 cfg (cache_size v), tc)
  | "l2" ->
      ( with_level "l2" cfg
          (fun h -> h.Hierarchy.l2)
          (fun h c -> { h with Hierarchy.l2 = Some c })
          (cache_size v),
        tc )
  | "llc" ->
      ( with_level "llc" cfg
          (fun h -> h.Hierarchy.llc)
          (fun h c -> { h with Hierarchy.llc = Some c })
          (cache_size v),
        tc )
  | "dramlat" ->
      let h = cfg.Soc.hierarchy in
      let dram =
        match h.Hierarchy.dram with
        | Hierarchy.Simple s -> Hierarchy.Simple { s with Dram.min_latency = v }
        | Hierarchy.Detailed _ ->
            failwith "sweep axis dramlat: detailed DRAM has no min_latency"
      in
      ({ cfg with Soc.hierarchy = { h with Hierarchy.dram } }, tc)
  | "wire" -> ({ cfg with Soc.wire_latency = v }, tc)
  | "plm" ->
      ( {
          cfg with
          Soc.accel_designs =
            List.map
              (fun (k, (d : Accel_model.design_point)) ->
                (k, { d with Accel_model.plm_bytes = v * 1024 }))
              cfg.Soc.accel_designs;
        },
        tc )
  | "lanes" ->
      ( {
          cfg with
          Soc.accel_designs =
            List.map
              (fun (k, (d : Accel_model.design_point)) ->
                (k, { d with Accel_model.par_lanes = v }))
              cfg.Soc.accel_designs;
        },
        tc )
  | "width" -> (cfg, { tc with TC.issue_width = v })
  | "window" -> (cfg, { tc with TC.window_size = v })
  | "lsq" -> (cfg, { tc with TC.lsq_size = v })
  | "div" -> (cfg, { tc with TC.clock_divider = v })
  | _ -> invalid_arg ("Sweep: no integer axis " ^ name)

let freq_edit ghz : edit =
 fun (cfg, tc) -> ({ cfg with Soc.freq_ghz = ghz }, tc)

(* Every axis and the values the exact simulator runs. Sizes (cache,
   PLM KB), lanes and core knobs start at 1: a zero or negative cache
   crashes cache construction, [width=0] never issues and runs to
   [max_cycles]. Latencies may be 0. [freq] is a positive GHz figure and
   the only axis that takes non-integer values. *)
type domain = Int_from of int | Positive_float

let axis_domains =
  [
    ("l1", Int_from 1); ("l2", Int_from 1); ("llc", Int_from 1);
    ("dramlat", Int_from 0); ("wire", Int_from 0); ("plm", Int_from 1);
    ("lanes", Int_from 1); ("width", Int_from 1); ("window", Int_from 1);
    ("lsq", Int_from 1); ("div", Int_from 1); ("freq", Positive_float);
  ]

let point_of name domain v =
  let label = Printf.sprintf "%s=%s" name v in
  let bad expected =
    Error (Printf.sprintf "axis %s: bad value %S (expected %s)" name v expected)
  in
  match domain with
  | Int_from lo -> (
      match int_of_string_opt v with
      | Some n when n >= lo -> Ok (label, int_edit name n)
      | _ -> bad (Printf.sprintf "an integer >= %d" lo))
  | Positive_float -> (
      match float_of_string_opt v with
      | Some f when Float.is_finite f && f > 0.0 -> Ok (label, freq_edit f)
      | _ -> bad "a positive number")

(* "l1=8,16,32,64" -> an axis of four labelled edits. Cache and PLM sizes
   are in KB, latencies in cycles, freq in GHz. Level presence and cache
   geometry depend on the config: [validate] checks them. *)
let parse_axis spec =
  match String.index_opt spec '=' with
  | None ->
      Error (Printf.sprintf "bad axis spec %S (expected name=v1,v2,...)" spec)
  | Some i -> (
      let name = String.sub spec 0 i in
      let rest = String.sub spec (i + 1) (String.length spec - i - 1) in
      match List.assoc_opt name axis_domains with
      | None ->
          Error
            (Printf.sprintf "unknown sweep axis %S (%s)" name
               (String.concat "|" (List.map fst axis_domains)))
      | Some _ when rest = "" ->
          Error (Printf.sprintf "axis %s: no values" name)
      | Some domain ->
          let rec points acc = function
            | [] -> Ok { axis = name; points = List.rev acc }
            | v :: vs -> (
                match point_of name domain v with
                | Ok p -> points (p :: acc) vs
                | Error _ as e -> e)
          in
          points [] (String.split_on_char ',' rest))

let axis_of_spec spec =
  match parse_axis spec with Ok a -> a | Error msg -> failwith msg

(* Cartesian product of axes, first axis slowest. *)
let grid axes =
  List.fold_left
    (fun acc { points; _ } ->
      List.concat_map
        (fun (label, edit) ->
          List.map
            (fun (l, e) ->
              ((if label = "" then l else label ^ " " ^ l), fun p -> e (edit p)))
            points)
        acc)
    [ ("", fun p -> p) ]
    axes

(* Apply every point's edit to the base config and check what only the
   config can tell: that the edited level exists and its cache geometry
   divides into sets. *)
let validate cfg tile_config points =
  let levels (h : Hierarchy.config) =
    h.Hierarchy.l1
    :: (Option.to_list h.Hierarchy.l2 @ Option.to_list h.Hierarchy.llc)
  in
  let problem (label, edit) =
    match
      List.iter
        (fun c -> ignore (Cache.validate_config c))
        (levels (fst (edit (cfg, tile_config))).Soc.hierarchy)
    with
    | () -> None
    | exception (Failure msg | Invalid_argument msg) ->
        Some (Printf.sprintf "point %s: %s" label msg)
  in
  match List.find_map problem points with None -> Ok () | Some e -> Error e

(* L1 x private-L2 sizes: 16 points, all geometrically valid on both
   system presets' associativities. *)
let default_axes = [ "l1=8,16,32,64"; "l2=256,512,1024,2048" ]

(* ------------------------------------------------------------------ *)
(* Sweep execution                                                     *)
(* ------------------------------------------------------------------ *)

type point = {
  label : string;
  retimed : Retime.point;
  exact_cycles : int option;
  err_pct : float option;
}

type t = {
  base : Soc.result;
  prep : Retime.prep;
  points : point array;
  base_seconds : float;  (** wall clock of the one profiled simulation *)
  analyze_seconds : float;  (** skeleton extraction *)
  retime_seconds : float;  (** all re-timings together *)
  exact_seconds : float;  (** all oracle simulations (0 when not run) *)
}

let err_pct ~retimed ~exact =
  100.0
  *. Float.abs (float_of_int (retimed - exact))
  /. float_of_int (Stdlib.max exact 1)

let run ?(jobs = 1) ?(exact = false) cfg ~tile_config ~program ~trace points =
  let tiles =
    Array.map
      (fun (tt : Trace.tile_trace) ->
        { Soc.kernel = tt.Trace.kernel; tile_config })
      trace.Trace.tiles
  in
  let pts = Array.of_list points in
  let t0 = Unix.gettimeofday () in
  let base =
    Span.with_span "sweep.base" (fun () ->
        Soc.run ~profile:true cfg ~program ~trace ~tiles)
  in
  let t1 = Unix.gettimeofday () in
  let prep =
    Span.with_span "sweep.analyze" (fun () ->
        let skeleton = Analysis.skeleton program trace in
        Retime.of_result ~cfg ~tiles skeleton base)
  in
  let t2 = Unix.gettimeofday () in
  let point_spec (_, edit) =
    let cfg', tc' = edit (cfg, tile_config) in
    let tiles' =
      Array.map (fun (s : Soc.tile_spec) -> { s with Soc.tile_config = tc' })
        tiles
    in
    (cfg', tiles')
  in
  let retimed =
    Span.with_span "retime" (fun () ->
        Domain_pool.map ~jobs
          (fun p ->
            let cfg', tiles' = point_spec p in
            Retime.run prep cfg' tiles')
          pts)
  in
  let t3 = Unix.gettimeofday () in
  let exacts =
    if not exact then Array.map (fun _ -> None) pts
    else
      Span.with_span "sweep.exact" (fun () ->
          Domain_pool.map ~jobs
            (fun p ->
              let cfg', tiles' = point_spec p in
              Some (Soc.run cfg' ~program ~trace ~tiles:tiles').Soc.cycles)
            pts)
  in
  let t4 = Unix.gettimeofday () in
  let points =
    Array.mapi
      (fun i (label, _) ->
        let retimed = retimed.(i) in
        {
          label;
          retimed;
          exact_cycles = exacts.(i);
          err_pct =
            Option.map
              (fun e -> err_pct ~retimed:retimed.Retime.cycles ~exact:e)
              exacts.(i);
        })
      pts
  in
  {
    base;
    prep;
    points;
    base_seconds = t1 -. t0;
    analyze_seconds = t2 -. t1;
    retime_seconds = t3 -. t2;
    exact_seconds = t4 -. t3;
  }

(* Wall cost of the sweep vs re-simulating every point (only meaningful
   when the oracle ran). *)
let incremental_seconds t =
  t.base_seconds +. t.analyze_seconds +. t.retime_seconds

let speedup t =
  if t.exact_seconds <= 0.0 then None
  else Some (t.exact_seconds /. Float.max (incremental_seconds t) 1e-9)

let max_err_pct t =
  Array.fold_left
    (fun acc p -> match p.err_pct with Some e -> Float.max acc e | None -> acc)
    0.0 t.points
