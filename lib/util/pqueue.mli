(** Binary min-heap priority queue of int payloads keyed by integer
    priority.

    The simulator's event queues order work by cycle number: per-tile
    completion events (seqs) and deferred LSQ frees (MAO handles), and
    interleaver message arrivals. Payloads are plain ints so that heap
    writes never go through the write barrier; callers with richer
    payloads queue an index into their own tables. *)

type t

(** [create ()] is an empty queue. *)
val create : unit -> t

(** Number of elements currently stored. *)
val length : t -> int

val is_empty : t -> bool

(** [add q ~prio x] inserts [x] with priority [prio]. O(log n) and
    allocation-free (entries live in parallel arrays). *)
val add : t -> prio:int -> int -> unit

(** {1 Allocation-free head access}

    The option-returning accessors below allocate a [Some] per call; on
    the simulator's per-cycle paths use these instead, guarded by
    {!is_empty}. They raise [Invalid_argument] on an empty queue. *)

(** Smallest priority, without removing. *)
val min_prio : t -> int

(** Element with the smallest priority, without removing. *)
val min_elt : t -> int

(** Remove the minimum entry (FIFO on ties). *)
val drop_min : t -> unit

(** Smallest priority and its element, without removing. *)
val peek : t -> (int * int) option

(** Smallest priority alone, without removing — the next-event view used by
    the cycle-skipping scheduler. *)
val peek_prio : t -> int option

(** Remove and return the entry with the smallest priority. Ties are broken
    by insertion order (FIFO), which keeps simulations deterministic. *)
val pop : t -> (int * int) option

(** [pop_until q ~prio] removes and returns, in order, every entry whose
    priority is [<= prio]. *)
val pop_until : t -> prio:int -> (int * int) list

(** Remove all elements. *)
val clear : t -> unit

(** Elements in an unspecified order (for statistics and debugging). *)
val to_list : t -> (int * int) list

(** {1 Snapshots}

    A {!dump} is a pure-data image of the queue: the live heap slots in
    array (= heap) order plus the FIFO tie-break counter. [of_dump]
    rebuilds a queue that behaves identically to the dumped one — heap
    order and tie-breaking do not depend on spare capacity. *)

type dump = {
  d_prios : int array;
  d_seqs : int array;
  d_payloads : int array;
  d_next_seq : int;
}

val dump : t -> dump
val of_dump : dump -> t

(** [restore q d] overwrites [q] in place with [d]'s contents. *)
val restore : t -> dump -> unit
