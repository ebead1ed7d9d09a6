(** Incremental re-timing: one exact profiled simulation, then cheap
    config re-pricing for design-space sweeps (the LightningSim split).

    {!prepare} runs the exact simulator once with the cycle-accounting
    profiler and extracts the config-independent trace skeleton
    ([Mosaic_trace.Analysis.skeleton]). {!run} then prices any candidate
    config in microseconds by scaling each tile's measured stall-cause
    decomposition: memory stalls by an AMAT ratio derived from the reuse
    histogram, dependency stalls by the critical-chain latency ratio,
    issue/structural/LSQ/communication/branch stalls by their resource
    ratios, plus an additive closed-form accelerator term; SoC cycles are
    rebuilt as [1 + max] over tiles, the identity the exact scheduler
    satisfies.

    Guarantees (fuzzed and CI-guarded):
    - At the base config, {!run} reproduces the exact simulator's cycle
      and instruction counts bit-for-bit (every scale is exactly 1.0).
    - On config axes that cannot change simulated timing (frequency,
      energy parameters), results stay bit-identical to the exact oracle.
    - Elsewhere {!run} is an estimate; [Sweep] measures its error
      against the [--exact] oracle, and the CI gate ([tools/gate])
      bounds it. *)

type prep = {
  base_cfg : Soc.config;
  base_tiles : Soc.tile_spec array;
  skeleton : Mosaic_trace.Analysis.skeleton;
  stalls : int array array;
      (** per-tile stall-cause counts from the profiled base run; each
          row sums to the base cycle count *)
  base_cycles : int;
}

type point = {
  cycles : int;
  instrs : int;
  seconds : float;  (** simulated time at the candidate's frequency *)
  ipc : float;
  tile_cycles : float array;  (** per-tile estimates before rounding *)
}

(** Build a [prep] from an already-run profiled base simulation. Raises
    [Invalid_argument] when the result was not profiled or the tile
    count disagrees with the skeleton. *)
val of_result :
  cfg:Soc.config ->
  tiles:Soc.tile_spec array ->
  Mosaic_trace.Analysis.skeleton ->
  Soc.result ->
  prep

(** One full-price step: exact profiled simulation + skeleton extraction.
    Also returns the base result (the sweep's anchor point). *)
val prepare :
  ?sink:Mosaic_obs.Sink.t ->
  ?metrics:Mosaic_obs.Metrics.t ->
  Soc.config ->
  program:Mosaic_ir.Program.t ->
  trace:Mosaic_trace.Trace.t ->
  tiles:Soc.tile_spec array ->
  prep * Soc.result

(** Price a candidate config. Pure and allocation-light — safe to call
    from concurrent domains on a shared [prep]. Raises
    [Invalid_argument] when the tile count differs from the base run. *)
val run : prep -> Soc.config -> Soc.tile_spec array -> point

(** [run] with every tile given the same core config. *)
val run_homogeneous :
  prep -> Soc.config -> tile_config:Mosaic_tile.Tile_config.t -> point
