(* The benchmark's workloads: seeded instances of library kernels and the
   systems they run on. The library sees only the generated instances. *)

module W = Mosaic_workloads
module Soc = Mosaic.Soc
module Presets = Mosaic.Presets
module Tile_config = Mosaic_tile.Tile_config

(* One exact simulation: an instance, the SoC it runs on and its tiles. *)
type job = {
  label : string;
  inst : W.Runner.t;
  cfg : Soc.config;
  tiles : Soc.tile_spec array;
}

type t = {
  jobs : job list;
      (** exact simulations; on [approx-dse] the single job is the trace
          the sampled run and the sweep re-time, at the sweep's base point *)
  approx : bool;
}

let names = [ "exact-ooo"; "dae-multitile"; "approx-dse" ]

let ooo label inst =
  {
    label;
    inst;
    cfg = Presets.xeon_soc;
    tiles =
      [|
        {
          Soc.kernel = inst.W.Runner.kernel;
          tile_config = Tile_config.out_of_order;
        };
      |];
  }

let make name ~seed =
  match name with
  | "exact-ooo" ->
      (* Working sets on the Xeon hierarchy (32 KB L1, 2 MB L2): sgemm's
         three 32x32 float matrices (12 KB) fit in L1; spmv's CSR arrays
         (~220 KB) stream past L1 and stay in L2; bfs gathers over a
         random graph (~70 KB) with data-dependent control flow and
         atomics. With degree 16 the BFS's instruction count stays within
         5% of seed 1's for every seed tried (1-100). *)
      let d = 32 in
      {
        approx = false;
        jobs =
          [
            ooo "sgemm" (W.Sgemm.instance ~seed ~m:d ~n:d ~k:d ());
            ooo "spmv"
              (W.Spmv.instance ~seed ~rows:2048 ~cols:2048 ~per_row:12 ());
            ooo "bfs" (W.Bfs.instance ~seed ~n:1024 ~degree:16 ());
          ];
      }
  | "dae-multitile" ->
      (* Graph projection sliced into access/execute halves on 4 pairs of
         in-order tiles; the 1024x1024 projection matrix (4 MB) spills
         past the 2 MB shared L2. *)
      let pairs = 4 in
      let inst, _ =
        W.Projection.dae_instance ~seed ~n_left:256
          ~n_right:1024 ~degree:8 ()
      in
      let tiles =
        Array.init (2 * pairs) (fun i ->
            {
              Soc.kernel =
                (if i < pairs then "projection_access" else "projection_execute");
              tile_config = Presets.dae_in_order;
            })
      in
      {
        approx = false;
        jobs = [ { label = "projection"; inst; cfg = Presets.dae_soc; tiles } ];
      }
  | "approx-dse" ->
      {
        approx = true;
        jobs = [ ooo "bfs" (W.Bfs.instance ~seed ~n:2048 ~degree:16 ()) ];
      }
  | _ -> invalid_arg ("unknown workload " ^ name)

let kernel_of (s : Soc.tile_spec) = s.Soc.kernel

(* Tracing: SPMD instances go through [Runner.trace], DAE slices through
   [Runner.trace_hetero]. Both check the interpreter's answer. *)
let trace job =
  let inst = job.inst in
  let kernels = Array.map kernel_of job.tiles in
  if Array.for_all (String.equal inst.W.Runner.kernel) kernels then
    W.Runner.trace inst ~ntiles:(Array.length kernels)
  else
    W.Runner.trace_hetero inst
      ~tiles:(Array.map (fun k -> (k, inst.W.Runner.args)) kernels)

let kernels job =
  List.sort_uniq compare (Array.to_list (Array.map kernel_of job.tiles))
