(* Open-addressing hash table from int keys to int values.

   The simulator's per-access bookkeeping (MSHR line -> ready cycle,
   directory line -> sharer mask, interleaver (dst, chan) -> debt) used
   polymorphic [Hashtbl]s, which allocate on every [find_opt] and hash
   tuple keys with the generic hasher. This table is monomorphic and
   allocation-free on every operation except rehashing: lookups return a
   caller-supplied default instead of an option, and iteration walks the
   backing arrays directly.

   Linear probing over a power-of-two capacity; deleted slots leave
   tombstones that are squeezed out on the next rehash, which keeps the
   capacity when fewer than a quarter of the slots are live. *)

(* Reserved key sentinels. Simulator keys (addresses, packed ids) are
   non-negative, so the two most negative ints are safe markers. *)
let empty_key = min_int
let deleted_key = min_int + 1

type t = {
  mutable keys : int array;
  mutable vals : int array;
  mutable mask : int;  (** capacity - 1; capacity is a power of two *)
  mutable len : int;  (** live entries *)
  mutable tombs : int;  (** deleted slots awaiting rehash *)
}

let check_key k =
  if k = empty_key || k = deleted_key then
    invalid_arg "Int_table: key out of supported range"

let rec ceil_pow2 n acc = if acc >= n then acc else ceil_pow2 n (acc * 2)

let create ?(initial_capacity = 16) () =
  let cap = ceil_pow2 (Int.max initial_capacity 8) 8 in
  {
    keys = Array.make cap empty_key;
    vals = Array.make cap 0;
    mask = cap - 1;
    len = 0;
    tombs = 0;
  }

let length t = t.len

(* Fibonacci-style multiplicative mix; the multiplier is odd so low-entropy
   keys (line addresses, packed ids) still spread across the table. *)
let slot_of t k =
  let h = k * 0x9E3779B97F4A7C1 in
  (h lxor (h lsr 29)) land t.mask

(* Index of [k]'s slot, or -1 when absent. A while loop rather than a
   local recursive function: the latter costs a closure allocation per
   call (the capture of [t] and [k]), and this is the hottest function in
   the simulator. *)
let probe t k =
  let i = ref (slot_of t k) in
  let res = ref (-2) in
  while !res = -2 do
    let key = t.keys.(!i) in
    if key = k then res := !i
    else if key = empty_key then res := -1
    else i := (!i + 1) land t.mask
  done;
  !res

let value_at t slot = t.vals.(slot)
let set_at t slot v = t.vals.(slot) <- v

let mem t k =
  check_key k;
  probe t k >= 0

let find t k ~default =
  check_key k;
  let i = probe t k in
  if i < 0 then default else t.vals.(i)

let capacity t = t.mask + 1

(* Rebuild into [cap] slots, squeezing out tombstones. *)
let rec rehash t cap =
  let old_keys = t.keys and old_vals = t.vals in
  t.keys <- Array.make cap empty_key;
  t.vals <- Array.make cap 0;
  t.mask <- cap - 1;
  t.len <- 0;
  t.tombs <- 0;
  Array.iteri
    (fun i k -> if k <> empty_key && k <> deleted_key then set t k old_vals.(i))
    old_keys

(* Insert or replace. Single probe: remembers the first tombstone so a
   fresh key reuses it instead of lengthening the cluster. Loop-shaped
   for the same allocation reason as [probe]. *)
and set t k v =
  check_key k;
  let i = ref (slot_of t k) in
  let free = ref (-1) in
  let continue = ref true in
  while !continue do
    let key = t.keys.(!i) in
    if key = k then begin
      t.vals.(!i) <- v;
      continue := false
    end
    else if key = empty_key then begin
      let dest = if !free >= 0 then !free else !i in
      if !free >= 0 then t.tombs <- t.tombs - 1;
      t.keys.(dest) <- k;
      t.vals.(dest) <- v;
      t.len <- t.len + 1;
      (* Past half full counting tombstones: double only when live
         entries need the room. A sliding window of keys (inserted in
         order, removed in order) is mostly tombstones, and doubling on
         those grew the table with the number of keys ever inserted. *)
      if (t.len + t.tombs) * 2 > capacity t then
        rehash t
          (if t.len * 4 < capacity t then capacity t else 2 * capacity t);
      continue := false
    end
    else begin
      if key = deleted_key && !free < 0 then free := !i;
      i := (!i + 1) land t.mask
    end
  done

(* [add t k delta] adds [delta] to [k]'s value (absent keys count as 0),
   stores and returns the sum. One probe for the read-modify-write that
   previously took a [find_opt] plus a [replace]. *)
let add t k delta =
  check_key k;
  let i = probe t k in
  if i >= 0 then begin
    let v = t.vals.(i) + delta in
    t.vals.(i) <- v;
    v
  end
  else begin
    set t k delta;
    delta
  end

let remove t k =
  check_key k;
  let i = probe t k in
  if i >= 0 then begin
    t.keys.(i) <- deleted_key;
    t.len <- t.len - 1;
    t.tombs <- t.tombs + 1
  end

let iter f t =
  let keys = t.keys in
  for i = 0 to Array.length keys - 1 do
    let k = keys.(i) in
    if k <> empty_key && k <> deleted_key then f k t.vals.(i)
  done

let fold f t init =
  let acc = ref init in
  iter (fun k v -> acc := f k v !acc) t;
  !acc

let clear t =
  Array.fill t.keys 0 (Array.length t.keys) empty_key;
  t.len <- 0;
  t.tombs <- 0

(* --- Snapshot support ---

   Probe sequences depend on the exact slot layout (capacity, tombstone
   positions), and [iter] order is slot order, so a dump copies the
   backing arrays verbatim rather than re-inserting live entries: the
   restored table is indistinguishable from the original, including
   iteration order and future growth points. *)

type dump = { d_keys : int array; d_vals : int array; d_len : int; d_tombs : int }

let dump t =
  {
    d_keys = Array.copy t.keys;
    d_vals = Array.copy t.vals;
    d_len = t.len;
    d_tombs = t.tombs;
  }

let of_dump d =
  {
    keys = Array.copy d.d_keys;
    vals = Array.copy d.d_vals;
    mask = Array.length d.d_keys - 1;
    len = d.d_len;
    tombs = d.d_tombs;
  }

let restore t d =
  t.keys <- Array.copy d.d_keys;
  t.vals <- Array.copy d.d_vals;
  t.mask <- Array.length d.d_keys - 1;
  t.len <- d.d_len;
  t.tombs <- d.d_tombs
