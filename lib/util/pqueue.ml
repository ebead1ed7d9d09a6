(* Binary min-heap over (priority, sequence, payload), all ints. The
   sequence number makes equal-priority pops FIFO, so event processing is
   deterministic.

   Stored as three parallel int arrays (struct-of-arrays) so pushes
   allocate nothing. The payloads are ints, not ['a]: a polymorphic array
   write goes through [caml_modify] and a read checks for the float-array
   tag, on a path run once per simulated instruction. Callers with richer
   payloads keep them in their own tables and queue an index. The
   option-free accessors ([min_prio]/[min_elt]/[drop_min]) avoid the
   [Some (prio, payload)] that [peek]/[pop] allocate per call; those serve
   cold call sites only. *)

type t = {
  mutable prios : int array;
  mutable seqs : int array;
  mutable payloads : int array;
  mutable size : int;
  mutable next_seq : int;
}

let create () =
  { prios = [||]; seqs = [||]; payloads = [||]; size = 0; next_seq = 0 }

let length q = q.size

let is_empty q = q.size = 0

let less q i j =
  q.prios.(i) < q.prios.(j)
  || (q.prios.(i) = q.prios.(j) && q.seqs.(i) < q.seqs.(j))

let swap q i j =
  let p = q.prios.(i) and s = q.seqs.(i) and x = q.payloads.(i) in
  q.prios.(i) <- q.prios.(j);
  q.seqs.(i) <- q.seqs.(j);
  q.payloads.(i) <- q.payloads.(j);
  q.prios.(j) <- p;
  q.seqs.(j) <- s;
  q.payloads.(j) <- x

let rec sift_up q i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if less q i parent then begin
      swap q i parent;
      sift_up q parent
    end
  end

let rec sift_down q i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let smallest = ref i in
  if l < q.size && less q l !smallest then smallest := l;
  if r < q.size && less q r !smallest then smallest := r;
  if !smallest <> i then begin
    swap q i !smallest;
    sift_down q !smallest
  end

let grow q =
  let cap = Array.length q.prios in
  let new_cap = Int.max 16 (2 * cap) in
  let widen a =
    let b = Array.make new_cap 0 in
    Array.blit a 0 b 0 q.size;
    b
  in
  q.prios <- widen q.prios;
  q.seqs <- widen q.seqs;
  q.payloads <- widen q.payloads

let add q ~prio payload =
  if q.size = Array.length q.prios then grow q;
  q.prios.(q.size) <- prio;
  q.seqs.(q.size) <- q.next_seq;
  q.payloads.(q.size) <- payload;
  q.next_seq <- q.next_seq + 1;
  q.size <- q.size + 1;
  sift_up q (q.size - 1)

(* --- Allocation-free head access (hot paths) --- *)

let min_prio q =
  if q.size = 0 then invalid_arg "Pqueue.min_prio: empty";
  q.prios.(0)

let min_elt q =
  if q.size = 0 then invalid_arg "Pqueue.min_elt: empty";
  q.payloads.(0)

let drop_min q =
  if q.size = 0 then invalid_arg "Pqueue.drop_min: empty";
  q.size <- q.size - 1;
  if q.size > 0 then begin
    q.prios.(0) <- q.prios.(q.size);
    q.seqs.(0) <- q.seqs.(q.size);
    q.payloads.(0) <- q.payloads.(q.size);
    sift_down q 0
  end

(* --- Option-returning API (cold call sites, tests) --- *)

let peek q = if q.size = 0 then None else Some (q.prios.(0), q.payloads.(0))

let peek_prio q = if q.size = 0 then None else Some q.prios.(0)

let pop q =
  if q.size = 0 then None
  else begin
    let p = q.prios.(0) and x = q.payloads.(0) in
    drop_min q;
    Some (p, x)
  end

let pop_until q ~prio =
  let rec loop acc =
    if q.size > 0 && q.prios.(0) <= prio then begin
      let entry = (q.prios.(0), q.payloads.(0)) in
      drop_min q;
      loop (entry :: acc)
    end
    else List.rev acc
  in
  loop []

let clear q = q.size <- 0

(* --- Snapshot support ---

   A dump records the live heap slots verbatim (array layout = heap
   layout) plus the tie-break counter. Restoring with capacity = size is
   behaviourally identical to the original queue: pushes append at [size]
   and sift up, pops swap from [size - 1] and sift down — neither depends
   on the backing arrays' spare capacity, and FIFO tie-breaking is carried
   entirely by [seqs]/[next_seq]. *)

type dump = {
  d_prios : int array;
  d_seqs : int array;
  d_payloads : int array;
  d_next_seq : int;
}

let dump q =
  {
    d_prios = Array.sub q.prios 0 q.size;
    d_seqs = Array.sub q.seqs 0 q.size;
    d_payloads = Array.sub q.payloads 0 q.size;
    d_next_seq = q.next_seq;
  }

let of_dump d =
  {
    prios = Array.copy d.d_prios;
    seqs = Array.copy d.d_seqs;
    payloads = Array.copy d.d_payloads;
    size = Array.length d.d_prios;
    next_seq = d.d_next_seq;
  }

let restore q d =
  q.prios <- Array.copy d.d_prios;
  q.seqs <- Array.copy d.d_seqs;
  q.payloads <- Array.copy d.d_payloads;
  q.size <- Array.length d.d_prios;
  q.next_seq <- d.d_next_seq

let to_list q =
  let rec loop i acc =
    if i >= q.size then acc
    else loop (i + 1) ((q.prios.(i), q.payloads.(i)) :: acc)
  in
  loop 0 []
