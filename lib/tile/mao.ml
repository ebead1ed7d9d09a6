type kind = K_load | K_store
type handle = int

(* Entries live in a struct-of-arrays ring indexed by absolute position
   (monotonically increasing; slot = position land mask). The previous
   implementation kept an [entry list] with an O(n) append per insert and a
   list rebuild per prune — on the issue path of every memory node. The
   ring appends in O(1), prunes by advancing [head], and [can_issue] scans
   the live window over flat arrays.

   A handle is the absolute position itself, so callers address an entry
   without a seq -> position lookup, whose hash table would cost a
   cache-cold probe per query. *)
type t = {
  capacity : int;
  perfect_alias : bool;
  mutable stores : bool array;  (** kind, unpacked: true = store *)
  mutable addrs : int array;
  mutable sizes : int array;
  mutable resolved : bool array;
  mutable completed : bool array;
  mutable head : int;  (** absolute index of the oldest retained entry *)
  mutable tail : int;  (** absolute index one past the newest *)
  mutable last_seq : int;  (** seq of the newest insert, for the order check *)
  mutable stall_count : int;
  (* Snapshot of the live window for [can_issue]: ascending absolute
     positions of live (non-completed) entries, and of the live stores
     alone. Rebuilt lazily when membership changed ([snap_dirty]); between
     changes — typically many issue attempts, often whole stalled cycles —
     queries reuse it, turning the O(window) per-attempt scan into a walk
     of just the entries that can actually block. *)
  mutable snap_live : int array;
  mutable snap_nlive : int;
  mutable snap_stores : int array;
  mutable snap_nstores : int;
  mutable snap_dirty : bool;
}

let initial_ring = 64

let create ~capacity ~perfect_alias =
  if capacity <= 0 then invalid_arg "Mao.create: capacity must be positive";
  {
    capacity;
    perfect_alias;
    stores = Array.make initial_ring false;
    addrs = Array.make initial_ring 0;
    sizes = Array.make initial_ring 0;
    resolved = Array.make initial_ring false;
    completed = Array.make initial_ring false;
    head = 0;
    tail = 0;
    last_seq = min_int;
    stall_count = 0;
    snap_live = Array.make initial_ring 0;
    snap_nlive = 0;
    snap_stores = Array.make initial_ring 0;
    snap_nstores = 0;
    snap_dirty = true;
  }

let mask t = Array.length t.stores - 1

let prune t =
  let m = mask t in
  while t.head < t.tail && t.completed.(t.head land m) do
    t.head <- t.head + 1
  done

let grow t =
  let old_len = Array.length t.stores in
  let old_mask = old_len - 1 in
  let len = old_len * 2 in
  let m = len - 1 in
  let stores = Array.make len false
  and addrs = Array.make len 0
  and sizes = Array.make len 0
  and resolved = Array.make len false
  and completed = Array.make len false in
  for a = t.head to t.tail - 1 do
    let src = a land old_mask and dst = a land m in
    stores.(dst) <- t.stores.(src);
    addrs.(dst) <- t.addrs.(src);
    sizes.(dst) <- t.sizes.(src);
    resolved.(dst) <- t.resolved.(src);
    completed.(dst) <- t.completed.(src)
  done;
  t.stores <- stores;
  t.addrs <- addrs;
  t.sizes <- sizes;
  t.resolved <- resolved;
  t.completed <- completed

let insert t ~seq ~kind ~addr ~size =
  if seq <= t.last_seq then
    invalid_arg
      (Printf.sprintf "Mao.insert: seq %d does not follow seq %d" seq
         t.last_seq);
  t.last_seq <- seq;
  if t.tail - t.head = Array.length t.stores then grow t;
  let h = t.tail in
  let s = h land mask t in
  t.stores.(s) <- (kind = K_store);
  t.addrs.(s) <- addr;
  t.sizes.(s) <- size;
  t.resolved.(s) <- t.perfect_alias;
  t.completed.(s) <- false;
  t.tail <- h + 1;
  t.snap_dirty <- true;
  h

(* Slot of a retained entry; pruned or never-issued handles are bugs. *)
let slot t h =
  if h < t.head || h >= t.tail then
    invalid_arg (Printf.sprintf "Mao: unknown handle %d" h);
  h land mask t

let resolve t h = t.resolved.(slot t h) <- true

let overlaps t i j =
  t.addrs.(i) < t.addrs.(j) + t.sizes.(j)
  && t.addrs.(j) < t.addrs.(i) + t.sizes.(i)

(* [me] and [older] are slots of live (non-completed) entries. *)
let conflicts t ~me older =
  if not t.resolved.(older) then true
  else if not t.resolved.(me) then true
  else overlaps t me older

let rebuild_snapshot t =
  let m = mask t in
  let need = t.tail - t.head in
  if Array.length t.snap_live < need then begin
    let cap = ref (Array.length t.snap_live * 2) in
    while !cap < need do cap := !cap * 2 done;
    t.snap_live <- Array.make !cap 0;
    t.snap_stores <- Array.make !cap 0
  end;
  let nl = ref 0 in
  let ns = ref 0 in
  for a = t.head to t.tail - 1 do
    let s = a land m in
    if not t.completed.(s) then begin
      t.snap_live.(!nl) <- a;
      incr nl;
      if t.stores.(s) then begin
        t.snap_stores.(!ns) <- a;
        incr ns
      end
    end
  done;
  t.snap_nlive <- !nl;
  t.snap_nstores <- !ns;
  t.snap_dirty <- false

let can_issue t me_abs =
  prune t;
  if t.snap_dirty then rebuild_snapshot t;
  let me = slot t me_abs in
  let m = mask t in
  let me_load = not t.stores.(me) in
  (* Rank of [me] among live entries = its index in the ascending
     snapshot (binary search; [me] is live, so it is present). *)
  let lo = ref 0 in
  let hi = ref t.snap_nlive in
  while !hi - !lo > 1 do
    let mid = (!lo + !hi) / 2 in
    if t.snap_live.(mid) <= me_abs then lo := mid else hi := mid
  done;
  let rank = !lo in
  let ok =
    (* Inside the capacity window of oldest in-flight entries? *)
    if rank >= t.capacity then false
    else begin
      (* Only stores can block a load; anything older can block a store. *)
      let arr = if me_load then t.snap_stores else t.snap_live in
      let n = if me_load then t.snap_nstores else t.snap_nlive in
      let i = ref 0 in
      let blocked = ref false in
      while (not !blocked) && !i < n && arr.(!i) < me_abs do
        if conflicts t ~me (arr.(!i) land m) then blocked := true else incr i
      done;
      not !blocked
    end
  in
  if not ok then t.stall_count <- t.stall_count + 1;
  ok

let complete t h =
  t.completed.(slot t h) <- true;
  t.snap_dirty <- true;
  prune t

let occupancy t =
  prune t;
  let m = mask t in
  let n = ref 0 in
  for a = t.head to t.tail - 1 do
    if not t.completed.(a land m) then incr n
  done;
  !n

let stalls t = t.stall_count

(* --- Snapshot support ---

   Ring arrays verbatim (slot = abs land mask, so layout is fixed by
   [head]/[tail] and array length); handles held by the tile stay valid
   across a restore because they are absolute positions. The lazy
   [can_issue] snapshot is not dumped: restore marks it dirty and it is
   rebuilt deterministically on first use. *)

type dump = {
  d_stores : bool array;
  d_addrs : int array;
  d_sizes : int array;
  d_resolved : bool array;
  d_completed : bool array;
  d_head : int;
  d_tail : int;
  d_last_seq : int;
  d_stall_count : int;
}

let dump t =
  {
    d_stores = Array.copy t.stores;
    d_addrs = Array.copy t.addrs;
    d_sizes = Array.copy t.sizes;
    d_resolved = Array.copy t.resolved;
    d_completed = Array.copy t.completed;
    d_head = t.head;
    d_tail = t.tail;
    d_last_seq = t.last_seq;
    d_stall_count = t.stall_count;
  }

let restore t d =
  t.stores <- Array.copy d.d_stores;
  t.addrs <- Array.copy d.d_addrs;
  t.sizes <- Array.copy d.d_sizes;
  t.resolved <- Array.copy d.d_resolved;
  t.completed <- Array.copy d.d_completed;
  t.head <- d.d_head;
  t.tail <- d.d_tail;
  t.last_seq <- d.d_last_seq;
  t.stall_count <- d.d_stall_count;
  t.snap_dirty <- true
