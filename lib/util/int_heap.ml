(* Binary min-heap over (int priority, int value) pairs, stored as two
   parallel int arrays so pushes and pops never allocate. The MSHR expiry
   wheel keys this by ready cycle; validity against the owning table is
   checked by the caller, so no tie-breaking order is needed. *)

type t = {
  mutable prios : int array;
  mutable values : int array;
  mutable size : int;
}

let create ?(initial_capacity = 16) () =
  let cap = Int.max initial_capacity 4 in
  { prios = Array.make cap 0; values = Array.make cap 0; size = 0 }

let length h = h.size
let is_empty h = h.size = 0

let grow h =
  (* [restore]/[of_dump] can leave a zero-capacity backing array; doubling
     zero would stay zero. *)
  let cap = Int.max 4 (2 * Array.length h.prios) in
  let ps = Array.make cap 0 and vs = Array.make cap 0 in
  Array.blit h.prios 0 ps 0 h.size;
  Array.blit h.values 0 vs 0 h.size;
  h.prios <- ps;
  h.values <- vs

let swap h i j =
  let p = h.prios.(i) and v = h.values.(i) in
  h.prios.(i) <- h.prios.(j);
  h.values.(i) <- h.values.(j);
  h.prios.(j) <- p;
  h.values.(j) <- v

let rec sift_up h i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if h.prios.(i) < h.prios.(parent) then begin
      swap h i parent;
      sift_up h parent
    end
  end

let rec sift_down h i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let smallest = ref i in
  if l < h.size && h.prios.(l) < h.prios.(!smallest) then smallest := l;
  if r < h.size && h.prios.(r) < h.prios.(!smallest) then smallest := r;
  if !smallest <> i then begin
    swap h i !smallest;
    sift_down h !smallest
  end

let push h ~prio value =
  if h.size = Array.length h.prios then grow h;
  h.prios.(h.size) <- prio;
  h.values.(h.size) <- value;
  h.size <- h.size + 1;
  sift_up h (h.size - 1)

let min_prio h =
  if h.size = 0 then invalid_arg "Int_heap.min_prio: empty";
  h.prios.(0)

let min_value h =
  if h.size = 0 then invalid_arg "Int_heap.min_value: empty";
  h.values.(0)

let drop_min h =
  if h.size = 0 then invalid_arg "Int_heap.drop_min: empty";
  h.size <- h.size - 1;
  if h.size > 0 then begin
    h.prios.(0) <- h.prios.(h.size);
    h.values.(0) <- h.values.(h.size);
    sift_down h 0
  end

let clear h = h.size <- 0

(* Snapshot: live heap slots verbatim; spare capacity does not affect
   push/pop behaviour, so restoring with capacity = size is exact. *)

type dump = { d_prios : int array; d_values : int array }

let dump h =
  { d_prios = Array.sub h.prios 0 h.size; d_values = Array.sub h.values 0 h.size }

let of_dump d =
  {
    prios = Array.copy d.d_prios;
    values = Array.copy d.d_values;
    size = Array.length d.d_prios;
  }

let restore h d =
  h.prios <- Array.copy d.d_prios;
  h.values <- Array.copy d.d_values;
  h.size <- Array.length d.d_prios
