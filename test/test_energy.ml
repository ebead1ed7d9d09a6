(* The tile keeps its running energy in an unboxed float cell and publishes
   it into [stats.energy_pj] only when [Core_tile.stats] is read. These
   tests pin that publication down bit-for-bit: reading the stats after
   every step, moving every tile through a marshalled dump -> restore
   halfway, and reading across a sampled run's fast-forward commits must
   all leave [energy_pj] [Float.equal] to an uninterrupted [Soc.run] read
   once at the end.

   The reads need a hook after every step, which [Soc.run] does not offer,
   so [drive] below repeats its naive per-cycle sweep (cycle skipping off):
   sample tick, then every tile steps, then the clock advances. The
   workloads here invoke no accelerator. *)

module W = Mosaic_workloads
module Soc = Mosaic.Soc
module Sample = Mosaic.Sample
module Interleaver = Mosaic.Interleaver
module Noc = Mosaic.Noc
module Core_tile = Mosaic_tile.Core_tile
module Profile = Mosaic_tile.Profile
module Hierarchy = Mosaic_memory.Hierarchy
module Ddg = Mosaic_compiler.Ddg
module Trace = Mosaic_trace.Trace
module TC = Mosaic_tile.Tile_config
open Mosaic_ir

let checkb = Alcotest.(check bool)

let no_accel ~tile:_ ~kind ~params:_ ~cycle:_ =
  Alcotest.failf "unexpected accelerator call %s" kind

let energies cores =
  Array.map (fun c -> (Core_tile.stats c).Core_tile.energy_pj) cores

(* Step the system to completion, reading every tile's energy after each
   sample tick and each step. [swap_at] replaces every tile, at that cycle,
   by a fresh one restored from its marshalled dump. Returns the final
   per-tile energies. *)
let drive ?sample ?swap_at (cfg : Soc.config) ~program ~trace ~tiles =
  let ntiles = Array.length tiles in
  let hier = Hierarchy.create ~ntiles cfg.Soc.hierarchy in
  let noc = Option.map (fun c -> Noc.create ~ntiles c) cfg.Soc.noc in
  let inter =
    Interleaver.create ~buffer_capacity:cfg.Soc.buffer_capacity
      ~wire_latency:cfg.Soc.wire_latency ?noc ()
  in
  let comm =
    {
      Core_tile.send =
        (fun ~src ~dst ~chan ~cycle ~available ->
          Interleaver.send inter ~src ~dst ~chan ~cycle ~available);
      try_recv =
        (fun ~tile ~chan ~cycle ->
          Interleaver.try_recv inter ~tile ~chan ~cycle);
      take_or_owe =
        (fun ~tile ~chan -> Interleaver.take_or_owe inter ~tile ~chan);
      accel = no_accel;
      mem_access =
        (fun ~tile ~cycle ~addr ~is_write ->
          Hierarchy.access hier ~tile ~cycle ~addr ~is_write);
    }
  in
  let funcs =
    Array.map
      (fun (s : Soc.tile_spec) -> Program.func_exn program s.Soc.kernel)
      tiles
  in
  let make i =
    Core_tile.create ~id:i ~config:tiles.(i).Soc.tile_config ~func:funcs.(i)
      ~ddg:(Ddg.build funcs.(i)) ~tile_trace:trace.Trace.tiles.(i)
      ~hierarchy:hier ~comm ()
  in
  let cores = Array.init ntiles make in
  let sampler =
    Option.map
      (fun spec ->
        Sample.make_driver ~spec ~cores ~funcs
          ~profiles:(Array.make ntiles Profile.null)
          ~inter ~hier
          ~dyn_instrs:
            (Array.map
               (fun (tt : Trace.tile_trace) -> tt.Trace.dyn_instrs)
               trace.Trace.tiles)
          ~on_accel:(fun ~tile:_ ~kind ~params:_ ->
            Alcotest.failf "unexpected accelerator call %s" kind)
          ~profiled:false)
      sample
  in
  let last = Array.make ntiles 0.0 in
  let read what cycle =
    Array.iteri
      (fun i e ->
        if e < last.(i) then
          Alcotest.failf "tile %d energy fell after %s at cycle %d" i what
            cycle;
        last.(i) <- e)
      (energies cores)
  in
  let cycle = ref 0 in
  while not (Array.for_all Core_tile.finished cores) do
    if !cycle >= cfg.Soc.max_cycles then Alcotest.fail "max_cycles exceeded";
    (match swap_at with
    | Some at when at = !cycle ->
        let before = energies cores in
        Array.iteri
          (fun i c ->
            let d : Core_tile.dump =
              Marshal.from_string (Marshal.to_string (Core_tile.dump c) []) 0
            in
            let fresh = make i in
            Core_tile.restore fresh d;
            cores.(i) <- fresh)
          cores;
        Array.iteri
          (fun i e ->
            checkb
              (Printf.sprintf "tile %d energy across dump/restore" i)
              true (Float.equal before.(i) e))
          (energies cores)
    | _ -> ());
    (match sampler with
    | Some d ->
        Sample.tick d ~cycle:!cycle;
        read "sample tick" !cycle
    | None -> ());
    Array.iter (fun c -> ignore (Core_tile.step c ~cycle:!cycle)) cores;
    read "step" !cycle;
    incr cycle
  done;
  energies cores

let check_equal what ~expect got =
  Array.iteri
    (fun i e ->
      checkb
        (Printf.sprintf "%s: tile %d energy %h = %h" what i got.(i) e)
        true
        (Float.equal got.(i) e))
    expect

let exercise name ~cfg ~program ~trace ~tiles =
  let cfg = { cfg with Soc.cycle_skip = false } in
  let straight = Soc.run cfg ~program ~trace ~tiles in
  let expect =
    Array.map (fun s -> s.Core_tile.energy_pj) straight.Soc.tile_stats
  in
  checkb (name ^ ": nonzero energy") true
    (Array.for_all (fun e -> e > 0.0) expect);
  check_equal (name ^ " every step") ~expect
    (drive cfg ~program ~trace ~tiles);
  check_equal (name ^ " dump/restore")
    ~expect
    (drive ~swap_at:(straight.Soc.cycles / 2) cfg ~program ~trace ~tiles);
  let spec =
    Sample.auto
      ~total_instrs:
        (Array.fold_left
           (fun n (tt : Trace.tile_trace) -> n + tt.Trace.dyn_instrs)
           0 trace.Trace.tiles)
  in
  let sampled = Soc.run ~sample:spec cfg ~program ~trace ~tiles in
  checkb (name ^ ": sampled run fast-forwarded") true
    ((Option.get sampled.Soc.sample).Sample.ff_instrs > 0);
  (* Energy is per instruction class, not per cycle: with the committed
     fast-forward energy, the sampled total is the exact one up to the
     order of the float additions. *)
  Array.iteri
    (fun i (s : Core_tile.stats) ->
      checkb
        (Printf.sprintf "%s: sampled tile %d energy %g ~ exact %g" name i
           s.Core_tile.energy_pj expect.(i))
        true
        (Float.abs (s.Core_tile.energy_pj -. expect.(i)) <= 1e-9 *. expect.(i)))
    sampled.Soc.tile_stats;
  check_equal (name ^ " sampled")
    ~expect:(Array.map (fun s -> s.Core_tile.energy_pj) sampled.Soc.tile_stats)
    (drive ~sample:spec cfg ~program ~trace ~tiles)

let test_ooo_sgemm () =
  let inst = W.Sgemm.instance ~m:16 ~n:16 ~k:16 () in
  exercise "sgemm ooo" ~cfg:Mosaic.Presets.xeon_soc
    ~program:inst.W.Runner.program
    ~trace:(W.Runner.trace inst ~ntiles:1)
    ~tiles:
      [| { Soc.kernel = inst.W.Runner.kernel; tile_config = TC.out_of_order } |]

let test_dae_slices () =
  let inst, _ = W.Sgemm.dae_instance ~m:16 ~n:16 ~k:16 () in
  let args = inst.W.Runner.args in
  let kernels = [| "sgemm_access"; "sgemm_execute" |] in
  exercise "sgemm dae" ~cfg:Mosaic.Presets.dae_soc
    ~program:inst.W.Runner.program
    ~trace:
      (W.Runner.trace_hetero inst
         ~tiles:(Array.map (fun k -> (k, args)) kernels))
    ~tiles:
      (Array.map
         (fun kernel -> { Soc.kernel; tile_config = TC.in_order })
         kernels)

let suite =
  [
    ( "tile.energy",
      [
        Alcotest.test_case "OoO sgemm: cell exact" `Quick test_ooo_sgemm;
        Alcotest.test_case "DAE slices: cell exact" `Quick test_dae_slices;
      ] );
  ]
