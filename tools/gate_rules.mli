(** The gate's rules over bench output: pure functions of flattened
    [BENCH_speed.json] documents ({!Mosaic_obs.Diff.flatten_file}), so
    they are tested without running a simulation.

    The documents are the committed baseline and two fresh runs of
    [bench speed] against one trace cache: a cold run that fills it and
    a warm run that hits it. *)

type check = { name : string; ok : bool; detail : string }
(** One verdict. [detail] says what went wrong; it is empty when [ok]. *)

type doc = (string * Mosaic_obs.Diff.value) list

val contract : baseline:doc -> run:string -> doc -> check list
(** The determinism contract, the rule [mosaicsim diff] applies: every
    cycles key ({!Mosaic_obs.Diff.is_cycles_key}) of the run equals the
    baseline's, none is missing and none is new. Any other baseline key
    missing from the run fails too, except the optional [host.*]
    provenance. [run] names the run in the verdicts: one failing check
    per offending key, or one passing check. *)

val bounds : cold:doc -> warm:doc -> check list
(** The committed bounds on the warm run: its trace generation collapsed
    against the cold run's, every sampled workload within the error
    ceiling and none degraded, and sampling at least the speedup
    floor. *)

val all : baseline:doc -> cold:doc -> warm:doc -> check list
(** {!contract} of the cold and of the warm run, then {!bounds}. The
    cold run is held to all cycles keys through the shared baseline. *)
