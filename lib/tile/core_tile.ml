open Mosaic_ir
module Pqueue = Mosaic_util.Pqueue
module Trace = Mosaic_trace.Trace
module Ddg = Mosaic_compiler.Ddg
module Hierarchy = Mosaic_memory.Hierarchy
module Stall = Mosaic_obs.Stall

type accel_result = { finish_cycle : int; energy_pj : float }

type comm = {
  send :
    src:int -> dst:int -> chan:int -> cycle:int -> available:int -> bool;
  try_recv : tile:int -> chan:int -> cycle:int -> int option;
  take_or_owe : tile:int -> chan:int -> bool;
  accel :
    tile:int -> kind:string -> params:Value.t array -> cycle:int ->
    accel_result;
  mem_access : tile:int -> cycle:int -> addr:int -> is_write:bool -> int;
}

type stats = {
  mutable completed_instrs : int;
  mutable finish_cycle : int;
  mutable energy_pj : float;
  mutable dbbs_launched : int;
  mutable mem_accesses : int;
  issued_by_class : int array;
  branch : Branch.stats;
}

(* Node states, stored as ints in the [n_state] ring column. *)
let st_waiting = 0
let st_ready = 1
let st_issued = 2
let st_completed = 3

(* In-flight state lives in rings indexed by [seq land mask]. The window is
   [retire_seq, next_seq): every seq below [retire_seq] has completed, and
   the ring is sized (see [create]) so no live seq shares a slot. Every
   hot structure — ready list, stash, event queue, register writers, the
   last terminator — holds seqs as plain ints, and dependence edges live
   in one int-array pool, so launching, issuing and retiring allocate
   nothing. Heap-allocated nodes would not do: an out-of-order window
   rarely drains, so a linked queue of them keeps one promoted cell whose
   [next] write drags every later node into the major heap (DESIGN.md,
   "Hot-path data structures"). *)
type t = {
  id : int;
  cfg : Tile_config.t;
  func : Func.t;
  ddg : Ddg.t;
  cursor : Trace.Cursor.cursor;
  hier : Hierarchy.t;
  comm : comm;
  instr_of_id : Instr.t array;
  pos_of_id : int array;
      (** instruction id -> position within its block, precomputed so DBB
          wiring never rescans the block per dependence edge *)
  ci_of_id : int array;
      (** instruction id -> [Tile_config.class_index], decoded once so
          issue and completion never re-classify the op *)
  mask : int;  (** node- and DBB-ring capacity - 1 *)
  n_iid : int array;  (** static instruction id *)
  n_dbb : int array;  (** launch number of the owning DBB *)
  n_parents : int array;  (** parents not yet completed *)
  n_state : int array;
  n_deps : int array;  (** dependents-list head in the edge pool, or -1 *)
  n_addr : int array;  (** -1 when not a memory op *)
  n_mao : int array;  (** MAO handle; -1 when not a memory op *)
  n_send_dst : int array;  (** destination tile of a send, from the trace *)
  n_complete : int array;  (** completion cycle, -1 until completed *)
  n_accel : Value.t array array;  (** accelerator-call parameters *)
  dbb_bid : int array;  (** DBB ring, slot = launch number land mask *)
  dbb_left : int array;  (** the DBB's nodes not yet completed *)
  mutable e_dst : int array;  (** edge pool: dependent seq *)
  mutable e_next : int array;  (** next edge of the same list, or -1 *)
  mutable e_free : int;  (** free-list head, or -1 *)
  mutable retire_seq : int;  (** oldest uncompleted seq; next_seq if none *)
  mutable issue_seq : int;  (** in order: the oldest unissued seq *)
  mutable next_seq : int;
  ready_arr : int array;
      (** out-of-order ready list, sorted by seq and scanned in place; the
          previous heap popped and re-pushed every blocked node every cycle
          (two O(log n) sifts each), which dominated the issue stage *)
  mutable ready_len : int;
  events : Pqueue.t;  (** seqs by completion cycle *)
  mao : Mao.t;
  mao_release : Pqueue.t;
      (** MAO handles by release cycle: deferred LSQ frees for
          fire-and-forget memory ops. The core retires them immediately
          but the entry pins the LSQ until the access completes in
          memory. *)
  stash : int array;
      (** seqs that became ready since the last issue scan; sorted and
          merged into [ready_arr] at the top of the next scan *)
  mutable stash_len : int;
  last_writer : int array;  (** per register: writer seq or -1 *)
  fu_busy : int array;
  fu_limit_ci : int array;  (** dense per-class cost tables, see below *)
  latency_ci : int array;
  energy_ci : float array;
  energy : float array;
      (** one cell: the running [stats.energy_pj]. A flat float array
          stores it unboxed; the record field, which shares a block with
          ints, would box a fresh float at every completion. [stats],
          [dump] and [restore] publish or load it. *)
  mutable live_dbbs : int;
  live_per_bb : int array;
  mutable last_term : int;
      (** seq of the last launched block's terminator, or -1; always
          [next_seq - 1], so its slot outlives its retirement *)
  predictor : Predictor.t option;
  mutable pending_mispredict : bool;
  mutable launch_enabled : bool;
      (** cleared while the sampling driver drains the pipeline to a
          snapshot-able quiescent point; never part of a snapshot *)
  mutable trace_done : bool;
  mutable done_ : bool;
  stats : stats;
  sink : Mosaic_obs.Sink.t;
  lat_hist : Mosaic_obs.Metrics.histogram option;
      (** live memory-completion-latency histogram, when observability is on *)
  prof : Profile.t;
      (** cycle-accounting store; [Profile.null] when not profiling *)
}

let fresh_stats () =
  {
    completed_instrs = 0;
    finish_cycle = -1;
    energy_pj = 0.0;
    dbbs_launched = 0;
    mem_accesses = 0;
    issued_by_class = Array.make Tile_config.nclasses 0;
    branch = Branch.fresh_stats ();
  }

let rec ceil_pow2 n acc = if acc >= n then acc else ceil_pow2 n (acc * 2)

(* A free list threading [first, len) of a fresh edge pool. *)
let link_free next first =
  let len = Array.length next in
  for e = first to len - 1 do
    next.(e) <- (if e + 1 < len then e + 1 else -1)
  done

let create ?(sink = Mosaic_obs.Sink.null) ?lat_hist ?(profile = Profile.null)
    ~id ~config ~func ~ddg ~tile_trace ~hierarchy ~comm () =
  if ddg.Ddg.func != func then
    invalid_arg "Core_tile.create: DDG built for a different function";
  let blocks = func.Func.blocks in
  let all_instrs =
    Array.concat (Array.to_list (Array.map (fun b -> b.Func.instrs) blocks))
  in
  let ninstrs = Int.max func.Func.ninstrs (Array.length all_instrs) in
  let instr_of_id =
    if Array.length all_instrs = 0 then [||]
    else Array.make ninstrs all_instrs.(0)
  in
  let pos_of_id = Array.make (Int.max ninstrs 1) (-1) in
  let ci_of_id = Array.make (Int.max ninstrs 1) 0 in
  Array.iter
    (fun (b : Func.block) ->
      Array.iteri
        (fun k (i : Instr.t) ->
          instr_of_id.(i.Instr.id) <- i;
          pos_of_id.(i.Instr.id) <- k;
          ci_of_id.(i.Instr.id) <-
            Tile_config.class_index (Op.classify i.Instr.op))
        b.Func.instrs)
    blocks;
  (* A launch needs fewer than [window_size] seqs in flight and adds one
     whole block, so the window never holds [window_size + longest block]
     seqs, nor more DBBs than seqs. *)
  let longest =
    Array.fold_left
      (fun m (b : Func.block) -> Int.max m (Array.length b.Func.instrs))
      1 blocks
  in
  let cap = ceil_pow2 (config.Tile_config.window_size + longest) 8 in
  let col v = Array.make cap v in
  let edges = 2 * cap in
  let e_next = Array.make edges (-1) in
  link_free e_next 0;
  {
    id;
    cfg = config;
    func;
    ddg;
    cursor = Trace.Cursor.create tile_trace;
    hier = hierarchy;
    comm;
    instr_of_id;
    pos_of_id;
    ci_of_id;
    mask = cap - 1;
    n_iid = col 0;
    n_dbb = col 0;
    n_parents = col 0;
    n_state = col st_completed;
    n_deps = col (-1);
    n_addr = col (-1);
    n_mao = col (-1);
    n_send_dst = col (-1);
    n_complete = col (-1);
    n_accel = col [||];
    dbb_bid = col 0;
    dbb_left = col 0;
    e_dst = Array.make edges 0;
    e_next;
    e_free = 0;
    retire_seq = 0;
    issue_seq = 0;
    next_seq = 0;
    ready_arr = col 0;
    ready_len = 0;
    events = Pqueue.create ();
    mao =
      Mao.create ~capacity:config.Tile_config.lsq_size
        ~perfect_alias:config.Tile_config.perfect_alias;
    mao_release = Pqueue.create ();
    stash = col 0;
    stash_len = 0;
    last_writer = Array.make (Int.max func.Func.nregs 1) (-1);
    fu_busy = Array.make Tile_config.nclasses 0;
    (* The issue path consults these once per issue attempt; compiling
       the config's association lists into dense arrays here keeps those
       lookups allocation-free and O(1). *)
    fu_limit_ci = Tile_config.fu_limit_table config;
    latency_ci = Tile_config.latency_table config;
    energy_ci = Tile_config.energy_table config;
    energy = [| 0.0 |];
    live_dbbs = 0;
    live_per_bb = Array.make (Array.length blocks) 0;
    last_term = -1;
    predictor =
      (match config.Tile_config.branch with
      | Branch.Dynamic { kind; _ } -> Some (Predictor.create kind)
      | _ -> None);
    pending_mispredict = false;
    launch_enabled = true;
    trace_done = false;
    done_ = false;
    stats = fresh_stats ();
    sink;
    lat_hist;
    prof = profile;
  }

let id t = t.id
let config t = t.cfg
let stats t =
  t.stats.energy_pj <- t.energy.(0);
  t.stats
let profile t = t.prof
let finished t = t.done_
let mao_stalls t = Mao.stalls t.mao

let ipc t =
  if t.stats.finish_cycle <= 0 then 0.0
  else float_of_int t.stats.completed_instrs /. float_of_int t.stats.finish_cycle

let window_empty t = t.retire_seq = t.next_seq
let instr t s = t.instr_of_id.(t.n_iid.(s land t.mask))
let state t s = t.n_state.(s land t.mask)
let bid_of t s = t.dbb_bid.(t.n_dbb.(s land t.mask) land t.mask)

(* Seqs below the window have retired, and their slots may since have been
   reused; only seqs inside the window are read from the ring. *)
let is_completed t s = s < t.retire_seq || state t s = st_completed
let is_mem_node t s = Op.is_mem (instr t s).Instr.op

let mark_ready t s =
  let sl = s land t.mask in
  t.n_state.(sl) <- st_ready;
  if t.n_mao.(sl) >= 0 then Mao.resolve t.mao t.n_mao.(sl);
  if not t.cfg.Tile_config.in_order then begin
    t.stash.(t.stash_len) <- s;
    t.stash_len <- t.stash_len + 1
  end

(* --- Completion --- *)

let complete_node t s ~cycle =
  let sl = s land t.mask in
  t.n_state.(sl) <- st_completed;
  t.n_complete.(sl) <- cycle;
  if Mosaic_obs.Sink.enabled t.sink then
    Mosaic_obs.Sink.emit t.sink ~cycle
      (Mosaic_obs.Event.Instr_retire { tile = t.id; seq = s });
  let iid = t.n_iid.(sl) in
  let op = t.instr_of_id.(iid).Instr.op in
  t.stats.completed_instrs <- t.stats.completed_instrs + 1;
  t.energy.(0) <- t.energy.(0) +. t.energy_ci.(t.ci_of_id.(iid));
  (* Fire-and-forget ops free their MAO entry when memory completes, not
     when the core retires them. *)
  (match op with
  | Op.Load_send _ | Op.Store_recv _ -> ()
  | _ -> if t.n_mao.(sl) >= 0 then Mao.complete t.mao t.n_mao.(sl));
  let ds = t.n_dbb.(sl) land t.mask in
  t.dbb_left.(ds) <- t.dbb_left.(ds) - 1;
  if t.dbb_left.(ds) = 0 then begin
    t.live_dbbs <- t.live_dbbs - 1;
    t.live_per_bb.(t.dbb_bid.(ds)) <- t.live_per_bb.(t.dbb_bid.(ds)) - 1
  end;
  (* Wake the dependents, returning each edge to the free list. *)
  let e = ref t.n_deps.(sl) in
  while !e >= 0 do
    let d = t.e_dst.(!e) land t.mask in
    t.n_parents.(d) <- t.n_parents.(d) - 1;
    if t.n_parents.(d) = 0 && t.n_state.(d) = st_waiting then
      mark_ready t t.e_dst.(!e);
    let next = t.e_next.(!e) in
    t.e_next.(!e) <- t.e_free;
    t.e_free <- !e;
    e := next
  done;
  t.n_deps.(sl) <- -1;
  (* Retire: advance the window past the completed prefix. *)
  while
    t.retire_seq < t.next_seq
    && t.n_state.(t.retire_seq land t.mask) = st_completed
  do
    t.retire_seq <- t.retire_seq + 1
  done

(* Returns whether anything matured: the scheduler must not skip cycles
   where a completion (or deferred LSQ free) changes tile state. *)
let process_events t ~cycle =
  let progressed = ref false in
  while
    (not (Pqueue.is_empty t.mao_release))
    && Pqueue.min_prio t.mao_release <= cycle
  do
    Mao.complete t.mao (Pqueue.min_elt t.mao_release);
    Pqueue.drop_min t.mao_release;
    progressed := true
  done;
  while
    (not (Pqueue.is_empty t.events)) && Pqueue.min_prio t.events <= cycle
  do
    let c = Pqueue.min_prio t.events and s = Pqueue.min_elt t.events in
    Pqueue.drop_min t.events;
    complete_node t s ~cycle:c;
    progressed := true
  done;
  !progressed

(* --- DBB launching --- *)

let grow_edges t =
  let len = Array.length t.e_next in
  let e_dst = Array.make (2 * len) 0 and e_next = Array.make (2 * len) (-1) in
  Array.blit t.e_dst 0 e_dst 0 len;
  Array.blit t.e_next 0 e_next 0 len;
  link_free e_next len;
  t.e_dst <- e_dst;
  t.e_next <- e_next;
  t.e_free <- len

(* Record [p] as a parent [child] must wait for: one edge at the head of
   [p]'s dependents list (duplicates are kept, one per operand). *)
let add_parent t ~child p =
  if not (is_completed t p) then begin
    let c = child land t.mask and ps = p land t.mask in
    t.n_parents.(c) <- t.n_parents.(c) + 1;
    if t.e_free < 0 then grow_edges t;
    let e = t.e_free in
    t.e_free <- t.e_next.(e);
    t.e_dst.(e) <- child;
    t.e_next.(e) <- t.n_deps.(ps);
    t.n_deps.(ps) <- e
  end

let mem_size = function
  | Op.Load s | Op.Store s | Op.Atomic_rmw (_, s) | Op.Load_send (_, s)
  | Op.Store_recv (_, s, _) ->
      s
  | _ -> -1

let launch_dbb t bid =
  let blk = Func.block t.func bid in
  let instrs = blk.Func.instrs in
  let n_instrs = Array.length instrs in
  let dbb = t.stats.dbbs_launched in
  t.dbb_bid.(dbb land t.mask) <- bid;
  t.dbb_left.(dbb land t.mask) <- n_instrs;
  t.stats.dbbs_launched <- dbb + 1;
  t.live_dbbs <- t.live_dbbs + 1;
  t.live_per_bb.(bid) <- t.live_per_bb.(bid) + 1;
  (* Sequence numbers in program order; each slot is initialized before
     any later node of the block can name it as a parent. *)
  let base = t.next_seq in
  t.next_seq <- base + n_instrs;
  for k = 0 to n_instrs - 1 do
    let instr = instrs.(k) in
    let seq = base + k in
    let sl = seq land t.mask in
    t.n_iid.(sl) <- instr.Instr.id;
    t.n_dbb.(sl) <- dbb;
    t.n_parents.(sl) <- 0;
    t.n_state.(sl) <- st_waiting;
    t.n_deps.(sl) <- -1;
    t.n_addr.(sl) <- -1;
    t.n_mao.(sl) <- -1;
    t.n_send_dst.(sl) <- -1;
    t.n_complete.(sl) <- -1;
    let deps = t.ddg.Ddg.deps.(instr.Instr.id) in
    let intra = deps.Ddg.intra in
    for di = 0 to Array.length intra - 1 do
      let pos = t.pos_of_id.(intra.(di)) in
      if pos >= k then
        invalid_arg "Core_tile: forward intra-block dependence";
      add_parent t ~child:seq (base + pos)
    done;
    let ext = deps.Ddg.extern_regs in
    for ri = 0 to Array.length ext - 1 do
      let p = t.last_writer.(ext.(ri)) in
      if p >= 0 then add_parent t ~child:seq p
    done;
    (* Memory nodes take their address from the trace and enter the MAO
       in program order. *)
    let op = instr.Instr.op in
    let size = mem_size op in
    if size >= 0 then begin
      let addr = Trace.Cursor.next_addr t.cursor ~instr_id:instr.Instr.id in
      t.n_addr.(sl) <- addr;
      let kind =
        match op with
        | Op.Load _ | Op.Load_send _ -> Mao.K_load
        | _ -> Mao.K_store
      in
      t.n_mao.(sl) <- Mao.insert t.mao ~seq ~kind ~addr ~size
    end;
    (match op with
    | Op.Accel _ ->
        t.n_accel.(sl) <-
          Trace.Cursor.next_accel_params t.cursor ~instr_id:instr.Instr.id
    | Op.Send _ | Op.Load_send _ ->
        t.n_send_dst.(sl) <-
          Trace.Cursor.next_send_dst t.cursor ~instr_id:instr.Instr.id
    | _ -> ());
    (match instr.Instr.dst with
    | Some d -> t.last_writer.(d) <- seq
    | None -> ());
    if t.n_parents.(sl) = 0 then mark_ready t seq
  done;
  let term = instrs.(n_instrs - 1) in
  if Op.is_terminator term.Instr.op then begin
    t.last_term <- base + n_instrs - 1;
    (* A dynamic predictor guesses (and trains on) the next block at
       fetch; the verdict is stable until that block launches. *)
    match t.predictor with
    | Some pred ->
        let actual = Trace.Cursor.peek_block_id t.cursor 0 in
        if actual >= 0 then begin
          let predicted =
            Predictor.predict pred ~branch_id:term.Instr.id term
          in
          Predictor.train pred ~branch_id:term.Instr.id term ~actual;
          t.pending_mispredict <-
            (match predicted with Some p -> p <> actual | None -> true)
        end
        else t.pending_mispredict <- false
    | None -> t.pending_mispredict <- false
  end
  else t.last_term <- -1

(* Whether the next DBB may launch now, as an int code — the gate runs for
   every launch attempt and every next-event probe, so the old polymorphic
   variant result (`Launch carrying its payload) allocated on each call. *)
let gate_wait = 0
let gate_first = 1 (* ungated: no prior terminator *)
let gate_predicted = 2
let gate_mispredicted = 3

let control_gate t ~cycle ~next_bid =
  let term = t.last_term in
  if term < 0 then gate_first
  else
    match t.cfg.Tile_config.branch with
    | Branch.Perfect -> gate_predicted
    | Branch.No_speculation ->
        if is_completed t term then gate_predicted else gate_wait
    | Branch.Dynamic { penalty; _ } ->
        if not t.pending_mispredict then gate_predicted
        else if
          is_completed t term
          && cycle >= t.n_complete.(term land t.mask) + penalty
        then gate_mispredicted
        else gate_wait
    | Branch.Static { penalty } ->
        let predicted =
          Branch.predict_id ~policy:t.cfg.Tile_config.branch
            ~bid:(bid_of t term) (instr t term)
        in
        if predicted >= 0 && predicted = next_bid then gate_predicted
          (* Mispredicted (or unpredictable): wait for resolution plus
             the misprediction penalty. *)
        else if
          is_completed t term
          && cycle >= t.n_complete.(term land t.mask) + penalty
        then gate_mispredicted
        else gate_wait

let try_launches t ~cycle =
  let launched = ref 0 in
  let continue = ref true in
  while !continue && !launched < t.cfg.Tile_config.fetch_per_cycle do
    let next_bid = Trace.Cursor.peek_block_id t.cursor 0 in
    if next_bid < 0 then begin
      t.trace_done <- true;
      continue := false
    end
    else begin
      let live_ok =
        (match t.cfg.Tile_config.live_dbb_limit with
        | Some limit -> t.live_per_bb.(next_bid) < limit
        | None -> true)
        && t.live_dbbs < t.cfg.Tile_config.max_live_dbbs
        && t.next_seq - t.retire_seq < t.cfg.Tile_config.window_size
      in
      if not live_ok then continue := false
      else begin
        let gate = control_gate t ~cycle ~next_bid in
        if gate = gate_wait then continue := false
        else begin
          if gate = gate_predicted || gate = gate_mispredicted then
            t.stats.branch.Branch.predictions <-
              t.stats.branch.Branch.predictions + 1;
          if gate = gate_mispredicted then
            t.stats.branch.Branch.mispredictions <-
              t.stats.branch.Branch.mispredictions + 1;
          Trace.Cursor.advance_block t.cursor;
          launch_dbb t next_bid;
          incr launched
        end
      end
    end
  done;
  !launched > 0

(* --- Issue --- *)

let fixed_completion ~cycle ~div lat = cycle + Int.max 1 (lat * div)

(* Profiler hook for issue-scan failures; [blocked] doubles as the -1
   "cannot issue" completion code so the failure paths below stay
   one-liners. *)
let note_fail t s cause =
  if t.prof.Profile.enabled then
    Profile.note_fail t.prof ~cause ~iid:t.n_iid.(s land t.mask)
      ~bid:(bid_of t s)

let blocked t s cause =
  note_fail t s cause;
  -1

(* Attempt to issue [s] at [cycle]; true on success. *)
(* Functional units are pipelined: the limit is per-cycle issue
   throughput, tracked in [fu_busy] which resets every cycle.

   The completion cycle flows as a plain int with -1 for "cannot issue" —
   this path runs once per instruction, so an option per attempt would be
   a steady allocation drip. *)
let try_issue t s ~cycle =
  let sl = s land t.mask in
  let iid = t.n_iid.(sl) in
  let op = t.instr_of_id.(iid).Instr.op in
  let ci = t.ci_of_id.(iid) in
  if t.fu_busy.(ci) >= t.fu_limit_ci.(ci) then begin
    note_fail t s Stall.Structural;
    false
  end
  else begin
    let div = t.cfg.Tile_config.clock_divider in
    let h = t.n_mao.(sl) and addr = t.n_addr.(sl) in
    let completion =
      match op with
      | Op.Load _ ->
          if Mao.can_issue t.mao h then begin
            t.stats.mem_accesses <- t.stats.mem_accesses + 1;
            t.comm.mem_access ~tile:t.id ~cycle ~addr ~is_write:false
          end
          else blocked t s Stall.Mao
      | Op.Store _ ->
          if Mao.can_issue t.mao h then begin
            t.stats.mem_accesses <- t.stats.mem_accesses + 1;
            t.comm.mem_access ~tile:t.id ~cycle ~addr ~is_write:true
          end
          else blocked t s Stall.Mao
      | Op.Atomic_rmw _ ->
          if Mao.can_issue t.mao h then begin
            t.stats.mem_accesses <- t.stats.mem_accesses + 1;
            let base =
              t.comm.mem_access ~tile:t.id ~cycle ~addr ~is_write:true
            in
            base + t.cfg.Tile_config.atomic_extra_latency
          end
          else blocked t s Stall.Mao
      | Op.Send chan ->
          if
            t.comm.send ~src:t.id ~dst:t.n_send_dst.(sl) ~chan ~cycle
              ~available:cycle
          then fixed_completion ~cycle ~div t.cfg.Tile_config.comm_latency
          else blocked t s Stall.Supply
      | Op.Load_send (chan, _) ->
          (* Terminal load: needs an MAO slot, a buffer slot and a free
             miss slot; the core moves on while memory fills the message
             in. *)
          if Mao.can_issue t.mao h then
            if Hierarchy.can_accept t.hier ~tile:t.id ~cycle then begin
              let completion =
                t.comm.mem_access ~tile:t.id ~cycle ~addr ~is_write:false
              in
              if
                t.comm.send ~src:t.id ~dst:t.n_send_dst.(sl) ~chan ~cycle
                  ~available:completion
              then begin
                t.stats.mem_accesses <- t.stats.mem_accesses + 1;
                (* The core retires the push at once; the LSQ entry drains
                   when memory answers. *)
                Pqueue.add t.mao_release ~prio:completion h;
                fixed_completion ~cycle ~div 1
              end
              else blocked t s Stall.Supply
            end
            else blocked t s Stall.Memory
          else blocked t s Stall.Mao
      | Op.Recv chan -> (
          match t.comm.try_recv ~tile:t.id ~chan ~cycle with
          | Some c -> c
          | None -> blocked t s Stall.Supply)
      | Op.Store_recv (chan, _, rmw) ->
          (* Retire into the store value buffer: commit the channel slot,
             charge the memory write, and move on. Gated on a free miss
             slot so drains respect memory bandwidth. *)
          if Mao.can_issue t.mao h then
            if Hierarchy.can_accept t.hier ~tile:t.id ~cycle then
              if t.comm.take_or_owe ~tile:t.id ~chan then begin
                t.stats.mem_accesses <- t.stats.mem_accesses + 1;
                let completion =
                  t.comm.mem_access ~tile:t.id ~cycle ~addr ~is_write:true
                in
                Pqueue.add t.mao_release ~prio:completion h;
                fixed_completion ~cycle ~div
                  (match rmw with Some _ -> 2 | None -> 1)
              end
              else blocked t s Stall.Supply
            else blocked t s Stall.Memory
          else blocked t s Stall.Mao
      | Op.Accel kind ->
          let r =
            t.comm.accel ~tile:t.id ~kind ~params:t.n_accel.(sl) ~cycle
          in
          t.energy.(0) <- t.energy.(0) +. r.energy_pj;
          Int.max (cycle + 1) r.finish_cycle
      | _ -> fixed_completion ~cycle ~div t.latency_ci.(ci)
    in
    if completion < 0 then false
    else begin
      let c = completion in
      t.n_state.(sl) <- st_issued;
      if Mosaic_obs.Sink.enabled t.sink then
        Mosaic_obs.Sink.emit t.sink ~cycle
          (Mosaic_obs.Event.Instr_issue
             {
               tile = t.id;
               seq = s;
               cls = Op.class_to_string (Op.classify op);
             });
      (match t.lat_hist with
      | Some hist when Op.is_mem op ->
          Mosaic_obs.Metrics.observe hist (c - cycle)
      | _ -> ());
      t.fu_busy.(ci) <- t.fu_busy.(ci) + 1;
      t.stats.issued_by_class.(ci) <- t.stats.issued_by_class.(ci) + 1;
      Pqueue.add t.events ~prio:(Int.max (cycle + 1) c) s;
      true
    end
  end

(* Fold the seqs that became ready since the last scan into the sorted
   ready list: insertion-sort the (typically tiny) batch, then a single
   back-to-front in-place merge. Both arrays have ring capacity: every
   entry is a distinct ready node inside the window. *)
let merge_new_ready t =
  if t.stash_len > 0 then begin
    for i = 1 to t.stash_len - 1 do
      let n = t.stash.(i) in
      let j = ref (i - 1) in
      while !j >= 0 && t.stash.(!j) > n do
        t.stash.(!j + 1) <- t.stash.(!j);
        decr j
      done;
      t.stash.(!j + 1) <- n
    done;
    let total = t.ready_len + t.stash_len in
    let i = ref (t.ready_len - 1) in
    let j = ref (t.stash_len - 1) in
    let k = ref (total - 1) in
    while !j >= 0 do
      if !i >= 0 && t.ready_arr.(!i) > t.stash.(!j) then begin
        t.ready_arr.(!k) <- t.ready_arr.(!i);
        decr i
      end
      else begin
        t.ready_arr.(!k) <- t.stash.(!j);
        decr j
      end;
      decr k
    done;
    t.ready_len <- total;
    t.stash_len <- 0
  end

let issue_out_of_order t ~cycle =
  merge_new_ready t;
  let budget = ref t.cfg.Tile_config.issue_width in
  let window_end = t.retire_seq + t.cfg.Tile_config.window_size in
  let scans = ref 0 in
  (* Scan the whole window's worth of ready nodes in seq order: blocked
     older entries must not starve issuable younger ones. Issued nodes are
     squeezed out in place as the scan advances; blocked ones stay put. *)
  let scan_budget = Int.min 256 t.cfg.Tile_config.window_size in
  let r = ref 0 in
  let w = ref 0 in
  let continue = ref true in
  while !continue && !r < t.ready_len && !budget > 0 && !scans < scan_budget do
    let s = t.ready_arr.(!r) in
    incr scans;
    if s >= window_end then begin
      (* Ordered by seq: nothing further fits the window either. *)
      note_fail t s Stall.Structural;
      continue := false
    end
    else begin
      incr r;
      if try_issue t s ~cycle then decr budget
      else begin
        if !w < !r - 1 then t.ready_arr.(!w) <- s;
        incr w
      end
    end
  done;
  if !w < !r then begin
    let tail = t.ready_len - !r in
    if tail > 0 then Array.blit t.ready_arr !r t.ready_arr !w tail;
    t.ready_len <- !w + tail
  end;
  t.cfg.Tile_config.issue_width - !budget

(* In order, the unissued nodes are exactly [issue_seq, next_seq). *)
let issue_in_order t ~cycle =
  let budget = ref t.cfg.Tile_config.issue_width in
  let window_end = t.retire_seq + t.cfg.Tile_config.window_size in
  let continue = ref true in
  while !continue && !budget > 0 do
    let s = t.issue_seq in
    if s >= t.next_seq || state t s <> st_ready then continue := false
    else if s >= window_end then begin
      note_fail t s Stall.Structural;
      continue := false
    end
    else if try_issue t s ~cycle then begin
      t.issue_seq <- s + 1;
      decr budget
    end
    else continue := false
  done;
  t.cfg.Tile_config.issue_width - !budget

(* End-of-cycle attribution (profiling only). Priority when several
   conditions hold at once: finished > full-width busy > outstanding
   memory access at the window head (top-down style — an in-flight load
   at the head is what the whole window is draining behind, even when a
   younger candidate was also turned away this cycle) > first blocked
   issue candidate noted during the scan > dependency (head is an
   uncompleted non-memory producer) > branch redirect > idle. One cause
   per tile-cycle; see DESIGN.md "Cycle accounting". *)
let classify t ~issued =
  let p = t.prof in
  let head = t.retire_seq in
  if t.done_ then Profile.book_cause p Stall.Finished
  else if issued >= t.cfg.Tile_config.issue_width then
    Profile.book_cause p Stall.Busy
  else if
    (not (window_empty t)) && state t head = st_issued && is_mem_node t head
  then
    Profile.book p ~cause:Stall.Memory ~iid:t.n_iid.(head land t.mask)
      ~bid:(bid_of t head)
  else if Profile.book_fail p then ()
  else if not (window_empty t) then
    (* Nothing ready and no candidate was turned away: the window head is
       an uncompleted producer somebody is waiting on. *)
    Profile.book p ~cause:Stall.Dependency ~iid:t.n_iid.(head land t.mask)
      ~bid:(bid_of t head)
  else if not t.trace_done then begin
    (* Empty pipeline with trace remaining: the control gate is closed
       (unresolved terminator or misprediction penalty). *)
    let term = t.last_term in
    if term >= 0 then
      Profile.book p ~cause:Stall.Branch_redirect
        ~iid:t.n_iid.(term land t.mask) ~bid:(bid_of t term)
    else Profile.book_cause p Stall.Branch_redirect
  end
  else Profile.book_cause p Stall.Idle

(* A tile at the full SoC clock (divider 1) is on an edge every cycle;
   only slower tiles pay for the [mod]. *)
let on_edge t ~cycle =
  let div = t.cfg.Tile_config.clock_divider in
  div <= 1 || cycle mod div = 0

let step t ~cycle =
  if t.done_ then begin
    if t.prof.Profile.enabled then Profile.book_cause t.prof Stall.Finished;
    false
  end
  else if on_edge t ~cycle then begin
    if t.prof.Profile.enabled then Profile.reset_scan t.prof;
    let progress = ref (process_events t ~cycle) in
    (* A loop, not [Array.fill]: the fill is a C call, dearer than the
       dozen stores it makes. *)
    for ci = 0 to Array.length t.fu_busy - 1 do
      t.fu_busy.(ci) <- 0
    done;
    if t.launch_enabled && try_launches t ~cycle then progress := true;
    let issued =
      if t.cfg.Tile_config.in_order then issue_in_order t ~cycle
      else issue_out_of_order t ~cycle
    in
    if issued > 0 then progress := true;

    if t.trace_done && window_empty t && Pqueue.is_empty t.events then begin
      t.done_ <- true;
      t.stats.finish_cycle <- cycle;
      progress := true
    end;
    if t.prof.Profile.enabled then classify t ~issued;
    !progress
  end
  else begin
    let progressed = process_events t ~cycle in
    (* Below the clock edge there is no launch/issue opportunity: re-book
       the last edge's attribution so every cycle is accounted. *)
    if t.prof.Profile.enabled then Profile.book_last t.prof;
    progressed
  end

(* --- Next-event view (event-driven cycle skipping) --- *)

let round_up_to ~div c = if div <= 1 then c else (c + div - 1) / div * div

(* Whether the tile holds work the issue stage would look at on its next
   clock edge: any ready node out of order, the oldest unissued node when
   in order. *)
let has_issue_candidate t =
  if t.cfg.Tile_config.in_order then
    t.issue_seq < t.next_seq && state t t.issue_seq = st_ready
  else t.ready_len > 0 || t.stash_len > 0

(* The earliest cycle after [cycle] at which this tile's state can change
   by time alone, or [None] when only another component's progress can
   unblock it (a full destination buffer, an empty receive channel, a debt
   ceiling). The SoC scheduler consults this only on globally quiescent
   cycles — no tile processed an event, launched, issued, or retired — so a
   blocked tile is genuinely blocked and everything that can wake it is
   either queued here with a known cycle or will itself wake the system. *)
let next_event_cycle t ~cycle =
  if t.done_ then None
  else begin
    let div = t.cfg.Tile_config.clock_divider in
    let best = ref max_int in
    let add c = if c > cycle && c < !best then best := c in
    if not (Pqueue.is_empty t.events) then add (Pqueue.min_prio t.events);
    if not (Pqueue.is_empty t.mao_release) then
      add (Pqueue.min_prio t.mao_release);
    let next_edge = round_up_to ~div (cycle + 1) in
    if cycle mod div <> 0 then begin
      (* The tile had no launch/issue opportunity at [cycle], so failing to
         progress proves nothing: retry pending work at the next edge. *)
      if
        has_issue_candidate t
        || (t.launch_enabled && not t.trace_done)
        || not (window_empty t)
      then add next_edge
    end
    else begin
      (* The tile took a full step at [cycle] and did nothing, so its work
         is blocked; the only blockers that clear by time alone are the
         branch-misprediction penalty and MSHR miss bandwidth. *)
      let term = t.last_term in
      if term >= 0 && is_completed t term then begin
        let next_bid = Trace.Cursor.peek_block_id t.cursor 0 in
        if next_bid >= 0 && control_gate t ~cycle ~next_bid = gate_wait
        then begin
          let penalty =
            match t.cfg.Tile_config.branch with
            | Branch.Dynamic { penalty; _ } | Branch.Static { penalty } ->
                penalty
            | Branch.Perfect | Branch.No_speculation -> 0
          in
          add (round_up_to ~div (t.n_complete.(term land t.mask) + penalty))
        end
      end;
      if
        has_issue_candidate t
        && not (Hierarchy.can_accept t.hier ~tile:t.id ~cycle)
      then
        match Hierarchy.next_accept t.hier ~tile:t.id ~cycle with
        | Some free -> add (round_up_to ~div free)
        | None -> ()
    end;
    (* A drained tile flips [done_] only at a clock edge; give it one even
       when no event remains to trigger a wake-up. *)
    if t.trace_done && window_empty t && Pqueue.is_empty t.events then
      add next_edge;
    if !best = max_int then None else Some !best
  end

(* --- Fast-forward support ---

   The sampling driver drains the pipeline (launching disabled, detailed
   stepping) to a quiescent point, then the functional executor replays
   trace blocks against the cursor directly. [ff_commit] absorbs the
   skipped work into the architectural counters and resets the
   cross-boundary frontier: register and control dependencies into the
   fast-forwarded region are dropped, which is the sampling approximation
   (the exact path never calls this). *)

let set_launch_enabled t v = t.launch_enabled <- v

let quiescent t =
  window_empty t
  && Pqueue.is_empty t.events
  && Pqueue.is_empty t.mao_release

let cursor t = t.cursor
let trace_done t = t.trace_done

let ff_observe_branch t (term : Instr.t) ~actual =
  match t.predictor with
  | Some p -> Predictor.observe p ~branch_id:term.Instr.id term ~actual
  | None -> ()

let ff_commit t ~instrs ~dbbs ~mem_accesses ~by_class ~accel_energy_pj =
  t.stats.completed_instrs <- t.stats.completed_instrs + instrs;
  t.stats.dbbs_launched <- t.stats.dbbs_launched + dbbs;
  t.stats.mem_accesses <- t.stats.mem_accesses + mem_accesses;
  let energy = ref accel_energy_pj in
  Array.iteri
    (fun ci k ->
      t.stats.issued_by_class.(ci) <- t.stats.issued_by_class.(ci) + k;
      energy := !energy +. (float_of_int k *. t.energy_ci.(ci)))
    by_class;
  t.energy.(0) <- t.energy.(0) +. !energy;
  Array.fill t.last_writer 0 (Array.length t.last_writer) (-1);
  t.last_term <- -1;
  t.pending_mispredict <- false

(* --- Snapshots ---

   The rings, the edge pool and the window bounds are copied verbatim:
   slots are fixed by [seq land mask] and seqs are absolute, so the
   restored tile addresses exactly the same state, including stale slots
   below the window that nothing reads. Instruction identity is the
   static instruction id — the static program is rebuilt from the
   workload on restore, never serialized. *)

type dump = {
  d_cursor : Trace.Cursor.dump;
  d_iid : int array;
  d_dbb : int array;
  d_parents : int array;
  d_state : int array;
  d_deps : int array;
  d_addr : int array;
  d_mao_handle : int array;
  d_send_dst : int array;
  d_complete : int array;
  d_accel : Value.t array array;
  d_dbb_bid : int array;
  d_dbb_left : int array;
  d_e_dst : int array;
  d_e_next : int array;
  d_e_free : int;
  d_retire_seq : int;
  d_issue_seq : int;
  d_next_seq : int;
  d_ready : int array;
  d_stash : int array;
  d_events : Pqueue.dump;
  d_mao : Mao.dump;
  d_mao_release : Pqueue.dump;
  d_last_writer : int array;
  d_fu_busy : int array;
  d_live_dbbs : int;
  d_live_per_bb : int array;
  d_last_term : int;
  d_predictor : Predictor.dump option;
  d_pending_mispredict : bool;
  d_trace_done : bool;
  d_done : bool;
  d_stats : int array;
      (** completed_instrs, finish_cycle, dbbs_launched, mem_accesses,
          branch predictions, branch mispredictions *)
  d_energy_pj : float;
  d_issued_by_class : int array;
  d_prof : Profile.dump;
  d_lat_hist : Mosaic_obs.Metrics.hist_dump option;
}

let dump t =
  {
    d_cursor = Trace.Cursor.dump t.cursor;
    d_iid = Array.copy t.n_iid;
    d_dbb = Array.copy t.n_dbb;
    d_parents = Array.copy t.n_parents;
    d_state = Array.copy t.n_state;
    d_deps = Array.copy t.n_deps;
    d_addr = Array.copy t.n_addr;
    d_mao_handle = Array.copy t.n_mao;
    d_send_dst = Array.copy t.n_send_dst;
    d_complete = Array.copy t.n_complete;
    d_accel = Array.map Array.copy t.n_accel;
    d_dbb_bid = Array.copy t.dbb_bid;
    d_dbb_left = Array.copy t.dbb_left;
    d_e_dst = Array.copy t.e_dst;
    d_e_next = Array.copy t.e_next;
    d_e_free = t.e_free;
    d_retire_seq = t.retire_seq;
    d_issue_seq = t.issue_seq;
    d_next_seq = t.next_seq;
    d_ready = Array.sub t.ready_arr 0 t.ready_len;
    d_stash = Array.sub t.stash 0 t.stash_len;
    d_events = Pqueue.dump t.events;
    d_mao = Mao.dump t.mao;
    d_mao_release = Pqueue.dump t.mao_release;
    d_last_writer = Array.copy t.last_writer;
    d_fu_busy = Array.copy t.fu_busy;
    d_live_dbbs = t.live_dbbs;
    d_live_per_bb = Array.copy t.live_per_bb;
    d_last_term = t.last_term;
    d_predictor = Option.map Predictor.dump t.predictor;
    d_pending_mispredict = t.pending_mispredict;
    d_trace_done = t.trace_done;
    d_done = t.done_;
    d_stats =
      [|
        t.stats.completed_instrs; t.stats.finish_cycle; t.stats.dbbs_launched;
        t.stats.mem_accesses; t.stats.branch.Branch.predictions;
        t.stats.branch.Branch.mispredictions;
      |];
    d_energy_pj = t.energy.(0);
    d_issued_by_class = Array.copy t.stats.issued_by_class;
    d_prof = Profile.dump t.prof;
    d_lat_hist = Option.map Mosaic_obs.Metrics.hist_dump t.lat_hist;
  }

let restore t d =
  if Array.length d.d_last_writer <> Array.length t.last_writer then
    invalid_arg "Core_tile.restore: register-file size mismatch";
  if Array.length d.d_live_per_bb <> Array.length t.live_per_bb then
    invalid_arg "Core_tile.restore: block count mismatch";
  let cap = t.mask + 1 in
  if
    List.exists
      (fun a -> Array.length a <> cap)
      [
        d.d_iid; d.d_dbb; d.d_parents; d.d_state; d.d_deps; d.d_addr;
        d.d_mao_handle; d.d_send_dst; d.d_complete; d.d_dbb_bid; d.d_dbb_left;
      ]
    || Array.length d.d_accel <> cap
    || Array.length d.d_e_dst <> Array.length d.d_e_next
    || d.d_next_seq - d.d_retire_seq > cap
    || Array.length d.d_ready + Array.length d.d_stash > cap
  then invalid_arg "Core_tile.restore: instruction-window shape mismatch";
  for s = d.d_retire_seq to d.d_next_seq - 1 do
    let iid = d.d_iid.(s land t.mask) in
    if iid < 0 || iid >= Array.length t.instr_of_id then
      invalid_arg "Core_tile.restore: node names an unknown instruction"
  done;
  Trace.Cursor.restore t.cursor d.d_cursor;
  let blit src dst = Array.blit src 0 dst 0 (Array.length dst) in
  blit d.d_iid t.n_iid;
  blit d.d_dbb t.n_dbb;
  blit d.d_parents t.n_parents;
  blit d.d_state t.n_state;
  blit d.d_deps t.n_deps;
  blit d.d_addr t.n_addr;
  blit d.d_mao_handle t.n_mao;
  blit d.d_send_dst t.n_send_dst;
  blit d.d_complete t.n_complete;
  Array.iteri (fun i a -> t.n_accel.(i) <- Array.copy a) d.d_accel;
  blit d.d_dbb_bid t.dbb_bid;
  blit d.d_dbb_left t.dbb_left;
  t.e_dst <- Array.copy d.d_e_dst;
  t.e_next <- Array.copy d.d_e_next;
  t.e_free <- d.d_e_free;
  t.retire_seq <- d.d_retire_seq;
  t.issue_seq <- d.d_issue_seq;
  t.next_seq <- d.d_next_seq;
  Array.blit d.d_ready 0 t.ready_arr 0 (Array.length d.d_ready);
  t.ready_len <- Array.length d.d_ready;
  Array.blit d.d_stash 0 t.stash 0 (Array.length d.d_stash);
  t.stash_len <- Array.length d.d_stash;
  Pqueue.restore t.events d.d_events;
  Mao.restore t.mao d.d_mao;
  Pqueue.restore t.mao_release d.d_mao_release;
  blit d.d_last_writer t.last_writer;
  blit d.d_fu_busy t.fu_busy;
  t.live_dbbs <- d.d_live_dbbs;
  blit d.d_live_per_bb t.live_per_bb;
  t.last_term <- d.d_last_term;
  (match (t.predictor, d.d_predictor) with
  | Some p, Some pd -> Predictor.restore p pd
  | None, None -> ()
  | _ -> invalid_arg "Core_tile.restore: branch-predictor mismatch");
  t.pending_mispredict <- d.d_pending_mispredict;
  t.launch_enabled <- true;
  t.trace_done <- d.d_trace_done;
  t.done_ <- d.d_done;
  t.stats.completed_instrs <- d.d_stats.(0);
  t.stats.finish_cycle <- d.d_stats.(1);
  t.stats.dbbs_launched <- d.d_stats.(2);
  t.stats.mem_accesses <- d.d_stats.(3);
  t.stats.branch.Branch.predictions <- d.d_stats.(4);
  t.stats.branch.Branch.mispredictions <- d.d_stats.(5);
  t.energy.(0) <- d.d_energy_pj;
  t.stats.energy_pj <- d.d_energy_pj;
  Array.blit d.d_issued_by_class 0 t.stats.issued_by_class 0
    (Array.length t.stats.issued_by_class);
  Profile.restore t.prof d.d_prof;
  match (t.lat_hist, d.d_lat_hist) with
  | Some h, Some hd -> Mosaic_obs.Metrics.hist_restore h hd
  | None, None -> ()
  | _ -> invalid_arg "Core_tile.restore: latency-histogram mismatch"
