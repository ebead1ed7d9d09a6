(* One benchmark run: set up a workload several times, then repeat its
   simulations until the time is up, checking every output.

   The plain run ([traced = false]) times only the library's entry points
   and yields the end-to-end metrics. The traced run also drives each
   exact simulation through {!Traced.run} and yields the per-layer
   metrics. *)

module W = Mosaic_workloads
module Soc = Mosaic.Soc
module Sample = Mosaic.Sample
module Sweep = Mosaic.Sweep
module Ddg = Mosaic_compiler.Ddg
module Program = Mosaic_ir.Program
module Trace = Mosaic_trace.Trace
module Span = Mosaic_obs.Span

type metric = { name : string; value : float; unit : string }

type report = {
  attempted : int;
  failed : int;
  notes : string list;  (** one line per failed operation *)
  metrics : metric list;  (** the run's declared metrics *)
  extra : metric list;  (** printed beside them, not part of the result *)
  outputs : (string * int) list;  (** every checked output, by name *)
}

let now = Unix.gettimeofday

(* CPU seconds of the process, user and system. Every timed operation runs
   on one domain, so this is its wall time less the time the host gave the
   core to other work. *)
let cpu_now () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* A timed operation: its CPU and wall seconds, and the CPU seconds of the
   reference computation run right after it on the same core. *)
type took = { cpu : float; wall : float; ref_cpu : float }

let timed f =
  let c0 = cpu_now () and w0 = now () in
  let v = f () in
  let cpu = cpu_now () -. c0 and wall = now () -. w0 in
  let r0 = cpu_now () in
  ignore (Reference.run ());
  (v, { cpu; wall; ref_cpu = cpu_now () -. r0 })

(* The operation's CPU seconds at the reference's nominal host speed. *)
let corrected t =
  if t.ref_cpu > 0.0 then t.cpu *. Reference.nominal_s /. t.ref_cpu else t.cpu

(* Set-up is repeated so [setup_s] is a median, not one noisy sample: at
   least [setup_reps] times, and during the timed part whenever set-ups
   have taken less than [setup_share] of it. *)
let setup_reps = 15
let setup_share = 0.1

let median = function
  | [] -> 0.0
  | xs ->
      let a = Array.of_list xs in
      Array.sort compare a;
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let minimum = function [] -> 0.0 | x :: xs -> List.fold_left Float.min x xs

(* The element of [xs] with the least [f]; [None] when [xs] is empty. *)
let fastest_by f = function
  | [] -> None
  | x :: xs -> Some (List.fold_left (fun b y -> if f y < f b then y else b) x xs)

let ratio a b = if b = 0.0 then 0.0 else a /. b
let fi = float_of_int

(* --- Output checks ---------------------------------------------------- *)

(* Every operation is counted; one that raises or whose outputs disagree
   with the reference counts as failed, and the run goes on. The
   reference for an output is its recorded value (default seed) or else
   the first value seen, so repetitions and the plain and traced runs
   must all agree. *)
type checker = {
  mutable attempted : int;
  mutable failed : int;
  mutable notes : string list;
  reference : (string, int) Hashtbl.t;
  seen : (string, int) Hashtbl.t;
}

let fail ck msg =
  ck.failed <- ck.failed + 1;
  ck.notes <- msg :: ck.notes

let mismatches ck outputs =
  List.filter_map
    (fun (key, v) ->
      Hashtbl.replace ck.seen key v;
      match Hashtbl.find_opt ck.reference key with
      | None ->
          Hashtbl.replace ck.reference key v;
          None
      | Some r when r = v -> None
      | Some r -> Some (Printf.sprintf "%s = %d, expected %d" key v r))
    outputs

(* [op ck what f] runs [f], which returns a value and its named outputs. *)
let op ck what f =
  ck.attempted <- ck.attempted + 1;
  match f () with
  | exception e ->
      fail ck (Printf.sprintf "%s raised %s" what (Printexc.to_string e));
      None
  | v, outputs -> (
      match mismatches ck outputs with
      | [] -> Some v
      | bad ->
          fail ck (what ^ ": " ^ String.concat "; " bad);
          None)

(* --- Set-up ----------------------------------------------------------- *)

type ready = { job : Workloads.job; trace : Trace.t }

(* One set-up: every job's trace (interpreter, with its functional check)
   and the DDGs of its kernels. Returns interpreter and DDG CPU seconds. *)
let setup (w : Workloads.t) =
  let interp_s = ref 0.0 and ddg_s = ref 0.0 in
  let readies =
    List.map
      (fun (job : Workloads.job) ->
        let t0 = cpu_now () in
        let trace = Workloads.trace job in
        let t1 = cpu_now () in
        List.iter
          (fun k ->
            let program = job.Workloads.inst.W.Runner.program in
            ignore (Ddg.build (Program.func_exn program k)))
          (Workloads.kernels job);
        let t2 = cpu_now () in
        interp_s := !interp_s +. (t1 -. t0);
        ddg_s := !ddg_s +. (t2 -. t1);
        { job; trace })
      w.Workloads.jobs
  in
  (readies, !interp_s, !ddg_s)

(* --- Simulations ------------------------------------------------------ *)

let program r = r.job.Workloads.inst.W.Runner.program
let tile_config r = r.job.Workloads.tiles.(0).Soc.tile_config
let key r what = r.job.Workloads.label ^ "." ^ what

let exact r =
  Soc.run r.job.Workloads.cfg ~program:(program r) ~trace:r.trace
    ~tiles:r.job.Workloads.tiles

let exact_outputs r (res : Soc.result) =
  [ (key r "cycles", res.Soc.cycles); (key r "instrs", res.Soc.instrs) ]

let sampled r =
  let spec = Sample.auto ~total_instrs:(Trace.total_dyn_instrs r.trace) in
  let res =
    Soc.run ~sample:spec r.job.Workloads.cfg ~program:(program r)
      ~trace:r.trace ~tiles:r.job.Workloads.tiles
  in
  let rep = Option.get res.Soc.sample in
  ( (res, rep),
    [
      (key r "sample.est_cycles", rep.Sample.est_cycles);
      (key r "sample.instrs", res.Soc.instrs);
    ] )

let grid = Sweep.grid (List.map Sweep.axis_of_spec Sweep.default_axes)

(* The sweep's base run is the exact simulation of the job itself, so its
   outputs share the job's keys and must agree with [exact]'s. *)
let sweep r =
  let s =
    Sweep.run ~jobs:1 r.job.Workloads.cfg ~tile_config:(tile_config r)
      ~program:(program r) ~trace:r.trace grid
  in
  ( s,
    exact_outputs r s.Sweep.base
    @ Array.to_list
        (Array.map
           (fun (p : Sweep.point) ->
             ( key r ("sweep." ^ p.Sweep.label ^ ".cycles"),
               p.Sweep.retimed.Mosaic.Retime.cycles ))
           s.Sweep.points) )

(* Exact simulation of every sweep point: the oracle for [dse_err_pct]. *)
let oracle ck r =
  let jobs = Stdlib.min 2 (Mosaic_util.Domain_pool.available_cores ()) in
  W.Runner.run_batch ~jobs
    (List.map
       (fun (label, edit) () ->
         let cfg, tc = edit (r.job.Workloads.cfg, tile_config r) in
         let tiles =
           Array.map
             (fun (s : Soc.tile_spec) -> { s with Soc.tile_config = tc })
             r.job.Workloads.tiles
         in
         match Soc.run cfg ~program:(program r) ~trace:r.trace ~tiles with
         | res -> (label, Ok res.Soc.cycles)
         | exception e -> (label, Error (Printexc.to_string e)))
       grid)
  |> List.filter_map (fun (label, res) ->
         ck.attempted <- ck.attempted + 1;
         match res with
         | Ok c -> Some (label, c)
         | Error e ->
             fail ck (Printf.sprintf "oracle %s raised %s" label e);
             None)

let dse_err_pct (s : Sweep.t) exacts =
  Array.fold_left
    (fun acc (p : Sweep.point) ->
      match List.assoc_opt p.Sweep.label exacts with
      | Some e ->
          Float.max acc
            (Sweep.err_pct ~retimed:p.Sweep.retimed.Mosaic.Retime.cycles ~exact:e)
      | None -> acc)
    0.0 s.Sweep.points

(* Host GC counts of one plain simulation, from a compacted heap so they
   repeat exactly for a given seed. *)
type gc = { minor : float; promoted : float; majors : int }

let gc_counted f =
  Gc.compact ();
  let mi0, pr0, _ = Gc.counters () in
  let mc0 = (Gc.quick_stat ()).Gc.major_collections in
  let v = f () in
  let mi1, pr1, _ = Gc.counters () in
  let mc1 = (Gc.quick_stat ()).Gc.major_collections in
  (v, { minor = mi1 -. mi0; promoted = pr1 -. pr0; majors = mc1 - mc0 })

(* --- The run ---------------------------------------------------------- *)

let gc_zero = { minor = 0.0; promoted = 0.0; majors = 0 }

let gc_add a b =
  {
    minor = a.minor +. b.minor;
    promoted = a.promoted +. b.promoted;
    majors = a.majors + b.majors;
  }

let exact_op ck r =
  op ck (key r "exact") (fun () ->
      let res = exact r in
      (res, exact_outputs r res))

let run ~(workload : Workloads.t) ~seconds ~traced ~expected =
  let ck =
    {
      attempted = 0;
      failed = 0;
      notes = [];
      reference = Hashtbl.create 64;
      seen = Hashtbl.create 64;
    }
  in
  List.iter (fun (k, v) -> Hashtbl.replace ck.reference k v) expected;
  let approx = workload.Workloads.approx in
  (* Set-up, from the seeded instances to traces and DDGs. The first
     set-up's traces are the ones simulated; the others are spread over
     the timed part, so their median is not at the mercy of one moment's
     host load. *)
  let setup_s = ref [] and interp_s = ref [] and ddg_s = ref [] in
  let first = ref None and setups = ref 0 in
  let setup_once () =
    incr setups;
    (* Drop the previous set-up's traces before making the next. *)
    Gc.full_major ();
    match
      op ck
        (Printf.sprintf "setup %d" !setups)
        (fun () ->
          let (readies, i_s, d_s), took = timed (fun () -> setup workload) in
          (* Traces whose outputs disagree are still simulated, so every
             later output is checked too. *)
          if !first = None then first := Some readies;
          ( (readies, i_s, d_s, took),
            List.map
              (fun r -> (key r "trace_instrs", Trace.total_dyn_instrs r.trace))
              readies ))
    with
    | None -> ()
    | Some (_, i_s, d_s, took) ->
        setup_s := took :: !setup_s;
        interp_s := i_s :: !interp_s;
        ddg_s := d_s :: !ddg_s
  in
  while !first = None && !setups < setup_reps do
    setup_once ()
  done;
  (* Empty when every set-up raised; nothing is simulated then. *)
  let readies = Option.value ~default:[] !first in
  let instrs =
    fi (List.fold_left (fun n r -> n + Trace.total_dyn_instrs r.trace) 0 readies)
  in
  (* One untimed exact run per simulation: the reference outputs, the
     exact cycles sampling is judged against, and the host GC counts. GC
     counting comes first, before any other domain exists, so the counts
     repeat exactly for a seed. *)
  let gc = ref gc_zero in
  let exacts =
    List.map
      (fun r ->
        let res, g = gc_counted (fun () -> exact_op ck r) in
        gc := gc_add !gc g;
        (r, res))
      readies
  in
  let oracle_cycles =
    match readies with r :: _ when traced && approx -> oracle ck r | _ -> []
  in
  (* The timed repetitions. The shared host slows down in phases of a few
     seconds, sometimes a minute, and often on one core only, so one
     repetition's time says as much about the host as about the program.
     Repetitions are therefore short and move from core to core, and each
     simulation's median repetition is the figure reported. A median over
     the whole run moves less from run to run than the fastest repetition,
     which depends on whether the host had a quiet moment at all. *)
  let plain_s = Hashtbl.create 4 in
  let times label = Option.value ~default:[] (Hashtbl.find_opt plain_s label) in
  let add_time label s = Hashtbl.replace plain_s label (s :: times label) in
  let traced_reps = ref [] and sampled_reps = ref [] and sweeps = ref [] in
  let sampled_run r =
    Cores.next ();
    Span.reset ();
    let s, took =
      timed (fun () -> op ck (key r "sampled") (fun () -> sampled r))
    in
    Option.iter
      (fun (_, rep) ->
        add_time "sampled" took;
        let ff_s = Span.total_seconds "sample.ff" in
        sampled_reps := (took.wall, ff_s, rep) :: !sampled_reps)
      s
  in
  let start = now () in
  let once = ref false in
  while readies <> [] && ((not !once) || now () < start +. seconds) do
    once := true;
    if
      List.fold_left (fun acc t -> acc +. t.wall +. t.ref_cpu) 0.0 !setup_s
      < setup_share *. (now () -. start)
    then begin
      Cores.next ();
      setup_once ()
    end;
    if approx && not traced then sampled_run (List.hd readies)
    else begin
      List.iter
        (fun r ->
          Cores.next ();
          let res, s = timed (fun () -> exact_op ck r) in
          if Option.is_some res then add_time r.job.Workloads.label s;
          if traced then begin
            Cores.next ();
            op ck (key r "traced") (fun () ->
                let t =
                  Traced.run r.job.Workloads.cfg ~program:(program r)
                    ~trace:r.trace ~tiles:r.job.Workloads.tiles
                in
                ( t,
                  [
                    (key r "cycles", t.Traced.cycles);
                    (key r "instrs", t.Traced.instrs);
                  ] ))
            |> Option.iter (fun t ->
                   traced_reps := (r.job.Workloads.label, t) :: !traced_reps)
          end)
        readies;
      if approx then begin
        let r = List.hd readies in
        Span.set_enabled true;
        sampled_run r;
        Span.set_enabled false;
        Cores.next ();
        op ck (key r "sweep") (fun () -> sweep r)
        |> Option.iter (fun sw -> sweeps := sw :: !sweeps)
      end
    end
  done;
  Cores.release ();
  while !setups < setup_reps do
    setup_once ()
  done;
  let timed_labels =
    if approx then [ "sampled" ]
    else List.map (fun r -> r.job.Workloads.label) readies
  in
  let total stat which labels =
    List.fold_left
      (fun acc l -> acc +. stat (List.map which (times l)))
      0.0 labels
  in
  let cpu t = t.cpu and wall t = t.wall in
  let run_s = total median corrected timed_labels in
  let sample_err =
    match (exacts, !sampled_reps) with
    | [ (_, Some (res : Soc.result)) ], (_, _, rep) :: _ when approx ->
        Sweep.err_pct ~retimed:rep.Sample.est_cycles ~exact:res.Soc.cycles
    | _ -> 0.0
  in
  let m name unit value = { name; value; unit } in
  let metrics =
    if not traced then
      [
        m "setup_s" "s" (median (List.map corrected !setup_s));
        m "run_s" "s" run_s;
        m "mips" "MIPS" (ratio instrs run_s /. 1e6);
        m "peak_heap_mb" "MiB"
          (fi ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
          /. 1048576.0);
      ]
    else begin
      (* Each simulation's fastest traced repetition, summed over the
         workload's simulations. *)
      let fastest =
        List.filter_map
          (fun r ->
            List.filter_map
              (fun (l, t) -> if l = r.job.Workloads.label then Some t else None)
              !traced_reps
            |> fastest_by (fun (t : Traced.t) -> t.Traced.wall_s))
          readies
      in
      let sum f = List.fold_left (fun acc t -> acc +. f t) 0.0 fastest in
      let count f = sum (fun t -> fi (f t)) in
      let soc_s = sum (fun t -> t.Traced.soc_self_s) in
      let tile_s = sum (fun t -> t.Traced.tile_self_s) in
      let hier_s = sum (fun t -> t.Traced.hier_self_s) in
      let inter_s = sum (fun t -> t.Traced.inter_self_s) in
      let visits = count (fun t -> t.Traced.visits) in
      let steps = count (fun t -> t.Traced.step_calls) in
      let hier_calls = count (fun t -> t.Traced.hier_calls) in
      let inter_calls = count (fun t -> t.Traced.inter_calls) in
      let sampled = fastest_by (fun (s, _, _) -> s) !sampled_reps in
      let sampled_f f = match sampled with Some x -> f x | None -> 0.0 in
      let sweep = fastest_by Sweep.incremental_seconds !sweeps in
      let sweep_f f = match sweep with Some sw -> f sw | None -> 0.0 in
      [
        m "interp.s" "s" (median !interp_s);
        m "interp.steps" "count" instrs;
        m "ddg.s" "s" (median !ddg_s);
        m "soc.self_s" "s" soc_s;
        m "soc.visits" "count" visits;
        m "soc.visit_ratio" "ratio"
          (ratio visits (count (fun t -> t.Traced.cycles)));
        m "soc.idle_visit_ratio" "ratio"
          (ratio (count (fun t -> t.Traced.idle_visits)) visits);
        m "tile.self_s" "s" tile_s;
        m "tile.ns_per_instr" "ns" (1e9 *. ratio tile_s instrs);
        m "tile.step_calls" "count" steps;
        m "tile.progress_ratio" "ratio"
          (ratio (count (fun t -> t.Traced.progress_steps)) steps);
        m "tile.mao_stalls" "count" (count (fun t -> t.Traced.mao_stalls));
        m "hier.self_s" "s" hier_s;
        m "hier.calls" "count" hier_calls;
        m "hier.ns_per_call" "ns" (1e9 *. ratio hier_s hier_calls);
        m "hier.l1_hit_rate" "ratio"
          (ratio
             (sum (fun t -> t.Traced.l1_hit_rate *. fi t.Traced.hier_calls))
             hier_calls);
        m "hier.dram_lines" "count" (count (fun t -> t.Traced.dram_lines));
        m "inter.self_s" "s" inter_s;
        m "inter.calls" "count" inter_calls;
        m "inter.ns_per_call" "ns" (1e9 *. ratio inter_s inter_calls);
        m "inter.recv_hit_ratio" "ratio"
          (ratio
             (count (fun t -> t.Traced.recv_hits))
             (count (fun t -> t.Traced.recv_attempts)));
        m "inter.send_full" "count" (count (fun t -> t.Traced.send_full));
        m "sample.ff_s" "s" (sampled_f (fun (_, ff, _) -> ff));
        m "sample.detailed_s" "s" (sampled_f (fun (s, ff, _) -> s -. ff));
        m "sample.detailed_instrs" "count"
          (sampled_f (fun (_, _, rep) -> fi rep.Sample.detailed_instrs));
        m "sample.periods" "count"
          (sampled_f (fun (_, _, rep) -> fi rep.Sample.periods));
        m "sample.degraded" "count"
          (sampled_f (fun (_, _, rep) -> fi rep.Sample.degraded));
        m "sweep.base_s" "s" (sweep_f (fun sw -> sw.Sweep.base_seconds));
        m "sweep.analyze_s" "s" (sweep_f (fun sw -> sw.Sweep.analyze_seconds));
        m "sweep.retime_s" "s" (sweep_f (fun sw -> sw.Sweep.retime_seconds));
        m "dse_s" "s" (sweep_f Sweep.incremental_seconds);
        m "sample_err_pct" "%" sample_err;
        m "dse_err_pct" "%" (sweep_f (fun sw -> dse_err_pct sw oracle_cycles));
        m "gc.minor_words_per_instr" "words" (ratio !gc.minor instrs);
        m "gc.promoted_words_per_instr" "words"
          (ratio !gc.promoted instrs);
        m "gc.major_collections" "count" (fi !gc.majors);
        m "trace.overhead_s" "s"
          (sum (fun t -> t.Traced.wall_s)
          -. total minimum wall
               (List.map (fun r -> r.job.Workloads.label) readies));
        m "trace.unattributed_s" "s"
          (sum (fun t -> t.Traced.wall_s)
          -. soc_s -. tile_s -. hier_s -. inter_s);
      ]
    end
  in
  let extra =
    [ m "ops" "count" (fi ck.attempted); m "failed_ops" "count" (fi ck.failed) ]
    @
    if traced then []
    else
      [
        m "setup_cpu_s" "s" (median (List.map cpu !setup_s));
        m "setups" "count" (fi (List.length !setup_s));
        m "run_cpu_s" "s" (total median cpu timed_labels);
        m "run_wall_s" "s" (total median wall timed_labels);
        m "reference_s" "s"
          (median
             (List.concat_map
                (fun l -> List.map (fun t -> t.ref_cpu) (times l))
                timed_labels));
      ]
      @ List.map
          (fun l ->
            m ("run_s." ^ l) "s" (median (List.map corrected (times l))))
          timed_labels
      @ (if approx then [ m "sample_err_pct" "%" sample_err ] else [])
  in
  {
    attempted = ck.attempted;
    failed = ck.failed;
    notes = List.rev ck.notes;
    metrics;
    extra;
    outputs = List.sort compare (List.of_seq (Hashtbl.to_seq ck.seen));
  }
