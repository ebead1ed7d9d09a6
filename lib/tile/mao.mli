(** Memory Address Orderer (§II-A) — the structure that enforces true memory
    dependencies, instantiable as a traditional LSQ (§III-A).

    Entries are inserted in program order at node creation. Before a store
    issues it must see no incomplete older memory access with a matching or
    unresolved address; a load only checks older stores. With perfect
    address-alias speculation (§III-C) all addresses are resolved up front
    from the trace, so only true (same-address) conflicts stall.

    Capacity models the LSQ: an operation may issue only while it sits
    within the [capacity] oldest in-flight entries. *)

type kind = K_load | K_store

type t

(** An entry's absolute position in the ring, returned by {!insert}. Stable
    for the entry's lifetime (ring growth and snapshots preserve it), so
    the tile addresses entries without a lookup. *)
type handle = int

val create : capacity:int -> perfect_alias:bool -> t

(** [insert t ~seq ~kind ~addr ~size] adds the entry for node [seq] and
    returns its handle. Entries arrive in program order: raises
    [Invalid_argument] unless [seq] is strictly greater than every seq
    inserted before. With perfect alias speculation the entry starts
    resolved. *)
val insert : t -> seq:int -> kind:kind -> addr:int -> size:int -> handle

(** Mark the entry's address as resolved (its operands completed). *)
val resolve : t -> handle -> unit

(** Whether the entry may issue now: inside the capacity window and no
    conflicting older entry. Raises [Invalid_argument] for a handle that
    was never returned or whose entry has been pruned. *)
val can_issue : t -> handle -> bool

(** Mark the entry's access complete; completed entries at the head of the
    ring are pruned. *)
val complete : t -> handle -> unit

(** In-flight (incomplete) entries. *)
val occupancy : t -> int

(** Number of issue rejections due to ordering or capacity (for stats). *)
val stalls : t -> int

(** {1 Snapshots} — ring contents verbatim; the lazy issue snapshot is
    rebuilt on first use after [restore]. *)

type dump

val dump : t -> dump
val restore : t -> dump -> unit
