(** Binary min-heap priority queue keyed by integer priority.

    Used throughout the simulator for event scheduling: DRAM request
    completion times, per-tile fixed-latency completion events, and the
    accelerator pipeline simulator all order work by cycle number. *)

type 'a t

(** [create ()] is an empty queue. *)
val create : unit -> 'a t

(** Number of elements currently stored. *)
val length : 'a t -> int

val is_empty : 'a t -> bool

(** [add q ~prio x] inserts [x] with priority [prio]. O(log n) and
    allocation-free (entries live in parallel arrays). *)
val add : 'a t -> prio:int -> 'a -> unit

(** {1 Allocation-free head access}

    The option-returning accessors below allocate a [Some] per call; on
    the simulator's per-cycle paths use these instead, guarded by
    {!is_empty}. They raise [Invalid_argument] on an empty queue. *)

(** Smallest priority, without removing. *)
val min_prio : 'a t -> int

(** Element with the smallest priority, without removing. *)
val min_elt : 'a t -> 'a

(** Remove the minimum entry (FIFO on ties). *)
val drop_min : 'a t -> unit

(** Smallest priority and its element, without removing. *)
val peek : 'a t -> (int * 'a) option

(** Smallest priority alone, without removing — the next-event view used by
    the cycle-skipping scheduler. *)
val peek_prio : 'a t -> int option

(** Remove and return the entry with the smallest priority. Ties are broken
    by insertion order (FIFO), which keeps simulations deterministic. *)
val pop : 'a t -> (int * 'a) option

(** [pop_until q ~prio] removes and returns, in order, every entry whose
    priority is [<= prio]. *)
val pop_until : 'a t -> prio:int -> (int * 'a) list

(** Remove all elements. *)
val clear : 'a t -> unit

(** Elements in an unspecified order (for statistics and debugging). *)
val to_list : 'a t -> (int * 'a) list

(** {1 Snapshots}

    A {!dump} is a pure-data image of the queue: the live heap slots in
    array (= heap) order plus the FIFO tie-break counter. [of_dump]
    rebuilds a queue that behaves identically to the dumped one — heap
    order and tie-breaking do not depend on spare capacity. *)

type 'a dump = {
  d_prios : int array;
  d_seqs : int array;
  d_payloads : 'a array;
  d_next_seq : int;
}

val dump : 'a t -> 'a dump
val of_dump : 'a dump -> 'a t

(** [restore q d] overwrites [q] in place with [d]'s contents. *)
val restore : 'a t -> 'a dump -> unit
