(* Ring-boundary tests for the tile's in-flight state. The node and DBB
   rings are indexed by [seq land mask] and sized from the window plus the
   longest block, so a block longer than the whole window, and MAO entries
   of fire-and-forget memory ops that outlive their node's retirement, sit
   exactly on the wrap-around paths. Skipping, checkpoint/resume and
   profiling must all leave such runs bit-identical. Also gates the tile's
   host allocation per simulated instruction. *)

open Mosaic_ir
module B = Builder
module W = Mosaic_workloads
module Soc = Mosaic.Soc
module Snapshot = Mosaic.Snapshot
module TC = Mosaic_tile.Tile_config

let checkb = Alcotest.(check bool)

(* Element groups per loop iteration: each is an index add, two address
   computations, a load, an add and a store, so the loop body is a single
   straight-line block of about 290 instructions — past both the in-order
   (16) and the out-of-order (128) window. *)
let unroll = 48
let iters = 24

let long_block () =
  let prog = Program.create () in
  let n = iters * unroll in
  let src = Program.alloc prog "src" ~elems:n ~elem_size:8 in
  let dst = Program.alloc prog "dst" ~elems:n ~elem_size:8 in
  let func =
    B.define prog "long" ~nparams:1 (fun b ->
        B.for_ b ~from:(B.imm 0) ~to_:(B.param b 0) (fun i ->
            let base = B.mul b i (B.imm unroll) in
            for j = 0 to unroll - 1 do
              let k = B.add b base (B.imm j) in
              let v = B.load b (B.elem b src k) in
              B.store b ~addr:(B.elem b dst k) (B.add b v (B.imm 1))
            done);
        B.ret b ())
  in
  let longest =
    Array.fold_left
      (fun m (blk : Func.block) -> max m (Array.length blk.Func.instrs))
      0 func.Func.blocks
  in
  checkb
    (Printf.sprintf "longest block (%d) exceeds the OoO window" longest)
    true
    (longest > TC.out_of_order.TC.window_size);
  {
    W.Runner.name = "long-block";
    program = prog;
    kernel = "long";
    args = [ Value.of_int iters ];
    setup = (fun _ -> ());
    check = (fun _ -> true);
  }

let configs = [ ("ino", TC.in_order); ("ooo", TC.out_of_order) ]

let test_homogeneous () =
  let inst = long_block () in
  let trace = W.Runner.trace inst ~ntiles:1 in
  List.iter
    (fun (name, tile_config) ->
      let run cfg =
        Soc.run_homogeneous cfg ~program:inst.W.Runner.program ~trace
          ~tile_config
      in
      let cfg = Mosaic.Presets.xeon_soc in
      Test_cycle_skip.assert_equivalent name (run cfg)
        (run (Test_cycle_skip.no_skip cfg));
      List.iter
        (fun frac ->
          Test_snapshot.round_trip ~cfg ~tile_config ~profile:true
            (Printf.sprintf "%s@%.2f" name frac)
            inst ~ntiles:1 ~frac)
        [ 0.1; 0.5; 0.9 ])
    configs

(* The DAE slices of the same kernel: the access tile's long block is all
   terminal loads and store-value-buffer drains, whose MAO entries are
   released by memory completion after the node itself has retired. *)
let test_dae () =
  let inst = long_block () in
  let func = Program.func_exn inst.W.Runner.program "long" in
  let info = Mosaic_compiler.Dae.slice func in
  Program.add_func inst.W.Runner.program info.Mosaic_compiler.Dae.access;
  Program.add_func inst.W.Runner.program info.Mosaic_compiler.Dae.execute;
  checkb "access slice forwards loads" true
    (info.Mosaic_compiler.Dae.sent_loads > 0);
  checkb "access slice drains stores" true
    (info.Mosaic_compiler.Dae.routed_stores > 0);
  let args = inst.W.Runner.args in
  let trace =
    W.Runner.trace_hetero inst
      ~tiles:[| ("long_access", args); ("long_execute", args) |]
  in
  List.iter
    (fun (name, tile_config) ->
      let tiles =
        [|
          { Soc.kernel = "long_access"; tile_config };
          { Soc.kernel = "long_execute"; tile_config };
        |]
      in
      let run ?checkpoint_at ?on_checkpoint ?resume cfg =
        Soc.run ~profile:true ?checkpoint_at ?on_checkpoint ?resume cfg
          ~program:inst.W.Runner.program ~trace ~tiles
      in
      let cfg = Mosaic.Presets.dae_soc in
      let straight = run cfg in
      Test_cycle_skip.assert_equivalent ("dae " ^ name) straight
        (run (Test_cycle_skip.no_skip cfg));
      List.iter
        (fun frac ->
          let what = Printf.sprintf "dae %s@%.2f" name frac in
          let snap = ref None in
          let at = int_of_float (frac *. float_of_int straight.Soc.cycles) in
          let capturing =
            run ~checkpoint_at:at ~on_checkpoint:(fun s -> snap := Some s) cfg
          in
          Test_snapshot.assert_same (what ^ " capturing") straight capturing;
          let s = Snapshot.of_bytes (Snapshot.to_bytes (Option.get !snap)) in
          Test_snapshot.assert_same (what ^ " resumed") straight
            (run ~resume:s cfg))
        [ 0.1; 0.3; 0.5; 0.7; 0.9 ])
    configs

(* Host allocation of a plain out-of-order simulation: the tile pipeline
   must neither allocate per instruction nor keep in-flight state alive
   long enough to be promoted. Counts are deterministic for a given
   program, so the bounds gate exactly on any host. *)
let test_allocation () =
  let inst = W.Sgemm.instance ~m:24 ~n:24 ~k:24 () in
  let trace = W.Runner.trace inst ~ntiles:1 in
  Gc.compact ();
  let mi0, pr0, _ = Gc.counters () in
  let r =
    Soc.run_homogeneous Mosaic.Presets.xeon_soc ~program:inst.W.Runner.program
      ~trace ~tile_config:TC.out_of_order
  in
  let mi1, pr1, _ = Gc.counters () in
  let per x = x /. float_of_int r.Soc.instrs in
  let minor = per (mi1 -. mi0) and promoted = per (pr1 -. pr0) in
  checkb
    (Printf.sprintf "promoted words/instr %.3f < 1" promoted)
    true (promoted < 1.0);
  checkb
    (Printf.sprintf "minor words/instr %.3f <= 0.25" minor)
    true (minor <= 0.25)

let suite =
  [
    ( "tile.ring",
      [
        Alcotest.test_case "block longer than the window" `Quick
          test_homogeneous;
        Alcotest.test_case "DAE slices: MAO entries outlive retirement"
          `Quick test_dae;
        Alcotest.test_case "allocation per instruction" `Quick test_allocation;
      ] );
  ]
