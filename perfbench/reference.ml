(* The reference computation: a fixed measure of the host's speed.

   On a shared host the speed moves by up to half from one second to the
   next and by a quarter between minutes, as other tenants come and go.
   Every timed operation is followed on the same core by this
   computation, and the operation's time is reported at a fixed host
   speed: its CPU time times [nominal_s] over the reference's CPU time
   beside it. A slower moment slows both, so the ratio keeps the
   program's own cost; the uncorrected times are printed beside.

   The computation resembles the simulator's own work, so that the host's
   neighbours slow it alike: a set-associative cache model (array probes
   and LRU updates keyed by a pseudo-random address stream) and a queue of
   small records standing in for in-flight operations, which keeps the
   minor heap and the promotion path busy. It is part of the benchmark
   and must never change, or earlier figures stop being comparable. *)

(* The reference's CPU time at the speed figures are reported at: the
   corrected time of an operation is what it would take on a host that
   runs the reference in this many seconds, about what a quiet core of a
   two-vCPU Xeon virtual machine takes. *)
let nominal_s = 0.08

type entry = { addr : int; mutable retired : int }

let sets = 8192
let ways = 8
let accesses = 800_000

(* Allocated once, so the computation adds no garbage to the major heap
   the simulator's next repetition has to collect. *)
let tags = Array.make (sets * ways) (-1)
let lru = Array.make (sets * ways) 0

(* Runs the computation and returns its hit count, which is always the
   same. *)
let run () =
  Array.fill tags 0 (sets * ways) (-1);
  Array.fill lru 0 (sets * ways) 0;
  let inflight = Queue.create () in
  let x = ref 12345 and hits = ref 0 in
  for t = 1 to accesses do
    x := ((!x * 1103515245) + 12345) land 0x3fffffff;
    (* A quarter random over 16 MB, the rest a stream over 256 KB. *)
    let addr =
      if t land 3 = 0 then !x land 0xffffff else (t * 64) land 0x3ffff
    in
    let line = addr lsr 6 in
    let base = (line land (sets - 1)) * ways in
    let found = ref (-1) and victim = ref base in
    for w = base to base + ways - 1 do
      if tags.(w) = line then found := w;
      if lru.(w) < lru.(!victim) then victim := w
    done;
    let w =
      if !found >= 0 then begin
        incr hits;
        !found
      end
      else begin
        tags.(!victim) <- line;
        !victim
      end
    in
    lru.(w) <- t;
    Queue.push { addr; retired = 0 } inflight;
    if Queue.length inflight > 192 then begin
      let e = Queue.pop inflight in
      e.retired <- t + e.addr
    end
  done;
  Sys.opaque_identity !hits
