(* A traced copy of [Soc.run]'s serial scheduler loop.

   It builds the same components with the same arguments as [Soc.run] (no
   sink, no profiling, no sampling, no checkpoints, one shard) and steps
   them the same way, but every call into a layer's public functions goes
   through a timer and a counter kept here, so the program itself carries
   no instrumentation. [Mao], [Branch] and [Trace.Cursor] are created
   inside [Core_tile], so their time counts as the tile's. *)

module Soc = Mosaic.Soc
module Interleaver = Mosaic.Interleaver
module Core_tile = Mosaic_tile.Core_tile
module Profile = Mosaic_tile.Profile
module Hierarchy = Mosaic_memory.Hierarchy
module Ddg = Mosaic_compiler.Ddg
module Program = Mosaic_ir.Program
module Trace = Mosaic_trace.Trace
module Metrics = Mosaic_obs.Metrics

type t = {
  cycles : int;
  instrs : int;
  wall_s : float;  (** the whole call, component creation included *)
  soc_self_s : float;  (** scheduler loop minus the tile and interleaver calls *)
  tile_self_s : float;  (** [step]/[next_event_cycle] minus their callbacks *)
  hier_self_s : float;
  inter_self_s : float;
  visits : int;  (** scheduler iterations (stepped cycles) *)
  idle_visits : int;  (** iterations in which no tile made progress *)
  step_calls : int;
  progress_steps : int;
  mao_stalls : int;
  hier_calls : int;
  l1_hit_rate : float;
  dram_lines : int;
  inter_calls : int;
  recv_attempts : int;
  recv_hits : int;
  send_full : int;
}

let now = Unix.gettimeofday

(* All-float record: its fields are stored unboxed, so the timers add no
   allocation to the loop they measure. [callback] is the part of [hier]
   and [inter] spent inside tile calls; [tile] is inclusive of it. *)
type clocks = {
  mutable hier : float;
  mutable inter : float;
  mutable callback : float;
  mutable tile : float;
}

let run (cfg : Soc.config) ~program ~(trace : Trace.t)
    ~(tiles : Soc.tile_spec array) =
  let t_start = now () in
  let ntiles = Array.length tiles in
  if ntiles <> trace.Trace.ntiles then
    invalid_arg "Traced.run: tile count differs from the trace";
  let clk = { hier = 0.0; inter = 0.0; callback = 0.0; tile = 0.0 } in
  let hier_calls = ref 0 and inter_calls = ref 0 in
  let recv_attempts = ref 0 and recv_hits = ref 0 and send_full = ref 0 in
  let hier = Hierarchy.create ~ntiles cfg.Soc.hierarchy in
  let noc = Option.map (fun c -> Mosaic.Noc.create ~ntiles c) cfg.Soc.noc in
  let inter =
    Interleaver.create ~buffer_capacity:cfg.Soc.buffer_capacity
      ~wire_latency:cfg.Soc.wire_latency ?noc ()
  in
  let inter_call ~from_tile f =
    let t0 = now () in
    let r = f () in
    let dt = now () -. t0 in
    clk.inter <- clk.inter +. dt;
    if from_tile then clk.callback <- clk.callback +. dt;
    incr inter_calls;
    r
  in
  let comm =
    {
      Core_tile.send =
        (fun ~src ~dst ~chan ~cycle ~available ->
          let ok =
            inter_call ~from_tile:true (fun () ->
                Interleaver.send inter ~src ~dst ~chan ~cycle ~available)
          in
          if not ok then incr send_full;
          ok);
      try_recv =
        (fun ~tile ~chan ~cycle ->
          let r =
            inter_call ~from_tile:true (fun () ->
                Interleaver.try_recv inter ~tile ~chan ~cycle)
          in
          incr recv_attempts;
          if Option.is_some r then incr recv_hits;
          r);
      take_or_owe =
        (fun ~tile ~chan ->
          inter_call ~from_tile:true (fun () ->
              Interleaver.take_or_owe inter ~tile ~chan));
      accel =
        (fun ~tile:_ ~kind ~params:_ ~cycle:_ ->
          failwith ("Traced.run: accelerator call not modelled: " ^ kind));
      mem_access =
        (fun ~tile ~cycle ~addr ~is_write ->
          let t0 = now () in
          let r = Hierarchy.access hier ~tile ~cycle ~addr ~is_write in
          let dt = now () -. t0 in
          clk.hier <- clk.hier +. dt;
          clk.callback <- clk.callback +. dt;
          incr hier_calls;
          r);
    }
  in
  let reg = Metrics.create () in
  let ddgs = Hashtbl.create 4 in
  let ddg_of name =
    match Hashtbl.find_opt ddgs name with
    | Some d -> d
    | None ->
        let d = Ddg.build (Program.func_exn program name) in
        Hashtbl.replace ddgs name d;
        d
  in
  let cores =
    Array.mapi
      (fun i (spec : Soc.tile_spec) ->
        let lat_hist =
          Metrics.histogram reg (Printf.sprintf "tile.%d.load_latency" i)
        in
        Core_tile.create ~lat_hist ~profile:Profile.null ~id:i
          ~config:spec.Soc.tile_config
          ~func:(Program.func_exn program spec.Soc.kernel)
          ~ddg:(ddg_of spec.Soc.kernel) ~tile_trace:trace.Trace.tiles.(i)
          ~hierarchy:hier ~comm ())
      tiles
  in
  let tile_call f =
    let t0 = now () in
    let r = f () in
    clk.tile <- clk.tile +. (now () -. t0);
    r
  in
  let cycle = ref 0 and stepped = ref 0 and idle = ref 0 in
  let step_calls = ref 0 and progress_steps = ref 0 in
  let finished_count = ref 0 in
  let finished_flags = Array.make ntiles false in
  (* Same skip decision as [Soc.run]'s [min_next_event]. *)
  let min_next_event at =
    let next = ref max_int in
    let consider = function
      | Some c when c > at && c < !next -> next := c
      | Some _ | None -> ()
    in
    for i = 0 to ntiles - 1 do
      consider
        (tile_call (fun () -> Core_tile.next_event_cycle cores.(i) ~cycle:at))
    done;
    consider
      (inter_call ~from_tile:false (fun () ->
           Interleaver.next_arrival inter ~cycle:at));
    !next
  in
  let loop_start = now () in
  while !finished_count < ntiles do
    if !cycle >= cfg.Soc.max_cycles then
      failwith
        (Printf.sprintf "Traced.run: exceeded max_cycles=%d" cfg.Soc.max_cycles);
    let progress = ref false in
    for i = 0 to ntiles - 1 do
      let c = cores.(i) in
      incr step_calls;
      if tile_call (fun () -> Core_tile.step c ~cycle:!cycle) then begin
        progress := true;
        incr progress_steps
      end;
      if (not finished_flags.(i)) && Core_tile.finished c then begin
        finished_flags.(i) <- true;
        incr finished_count
      end
    done;
    incr stepped;
    if !progress || not cfg.Soc.cycle_skip then incr cycle
    else begin
      incr idle;
      let next = min_next_event !cycle in
      cycle :=
        if next = max_int then cfg.Soc.max_cycles
        else Stdlib.min next cfg.Soc.max_cycles
    end
  done;
  let loop_s = now () -. loop_start in
  let instrs =
    Array.fold_left
      (fun n c -> n + (Core_tile.stats c).Core_tile.completed_instrs)
      0 cores
  in
  let wall_s = now () -. t_start in
  (* The scheduler's own next_arrival calls are the interleaver time not
     spent inside tile callbacks. *)
  let sched_inter_s = clk.inter -. (clk.callback -. clk.hier) in
  {
    cycles = !cycle;
    instrs;
    wall_s;
    soc_self_s = loop_s -. clk.tile -. sched_inter_s;
    tile_self_s = clk.tile -. clk.callback;
    hier_self_s = clk.hier;
    inter_self_s = clk.inter;
    visits = !stepped;
    idle_visits = !idle;
    step_calls = !step_calls;
    progress_steps = !progress_steps;
    mao_stalls = Array.fold_left (fun n c -> n + Core_tile.mao_stalls c) 0 cores;
    hier_calls = !hier_calls;
    l1_hit_rate = Hierarchy.l1_hit_rate hier;
    dram_lines = (Hierarchy.totals hier).Hierarchy.dram_lines;
    inter_calls = !inter_calls;
    recv_attempts = !recv_attempts;
    recv_hits = !recv_hits;
    send_full = !send_full;
  }
