(* Tests for the mosaic_util substrate. *)

open Mosaic_util

let check = Alcotest.(check int)
let checkb = Alcotest.(check bool)
let checkf = Alcotest.(check (float 1e-9))

(* --- Pqueue --- *)

let test_pqueue_order () =
  let q = Pqueue.create () in
  List.iter (fun (p, x) -> Pqueue.add q ~prio:p x) [ (5, 50); (1, 10); (3, 30) ];
  Alcotest.(check (option (pair int int))) "peek" (Some (1, 10)) (Pqueue.peek q);
  Alcotest.(check (option (pair int int))) "pop1" (Some (1, 10)) (Pqueue.pop q);
  Alcotest.(check (option (pair int int))) "pop2" (Some (3, 30)) (Pqueue.pop q);
  Alcotest.(check (option (pair int int))) "pop3" (Some (5, 50)) (Pqueue.pop q);
  Alcotest.(check (option (pair int int))) "empty" None (Pqueue.pop q)

let test_pqueue_fifo_ties () =
  let q = Pqueue.create () in
  List.iter (fun x -> Pqueue.add q ~prio:7 x) [ 101; 102; 103 ];
  let order = List.filter_map (fun () -> Option.map snd (Pqueue.pop q)) [ (); (); () ] in
  Alcotest.(check (list int)) "fifo on equal priority" [ 101; 102; 103 ] order

let test_pqueue_pop_until () =
  let q = Pqueue.create () in
  List.iter (fun p -> Pqueue.add q ~prio:p p) [ 10; 2; 7; 4; 20 ];
  let popped = List.map fst (Pqueue.pop_until q ~prio:7) in
  Alcotest.(check (list int)) "popped <= 7" [ 2; 4; 7 ] popped;
  check "remaining" 2 (Pqueue.length q)

let test_pqueue_grows () =
  let q = Pqueue.create () in
  for i = 99 downto 0 do
    Pqueue.add q ~prio:i i
  done;
  check "length" 100 (Pqueue.length q);
  let rec drain last =
    match Pqueue.pop q with
    | None -> ()
    | Some (p, _) ->
        checkb "sorted" true (p >= last);
        drain p
  in
  drain (-1)

let test_pqueue_clear () =
  let q = Pqueue.create () in
  Pqueue.add q ~prio:1 0;
  Pqueue.clear q;
  checkb "empty after clear" true (Pqueue.is_empty q)

let prop_pqueue_sorted =
  QCheck.Test.make ~name:"pqueue pops in sorted order" ~count:100
    QCheck.(list int)
    (fun prios ->
      let q = Pqueue.create () in
      List.iter (fun p -> Pqueue.add q ~prio:p p) prios;
      let rec drain acc =
        match Pqueue.pop q with None -> List.rev acc | Some (p, _) -> drain (p :: acc)
      in
      let out = drain [] in
      out = List.sort compare prios)

(* Random interleavings of [add] (Some prio) and [drop_min] (None) against
   a list model ordered by (prio, insertion number); the payload is the
   insertion number, so a pop names exactly which entry left. Halfway
   through a run the queue is dumped and the rest replays on both an
   [of_dump] copy and a [restore]d queue. *)
let prop_pqueue_fifo_model =
  QCheck.Test.make ~name:"pqueue pops in (prio, insertion) order" ~count:300
    QCheck.(pair (list (option (int_range 0 15))) small_nat)
    (fun (ops, cut) ->
      let ops = Array.of_list ops in
      let cut = if Array.length ops = 0 then 0 else cut mod Array.length ops in
      let run q model next lo hi =
        let model = ref model and next = ref next and ok = ref true in
        for i = lo to hi - 1 do
          match ops.(i) with
          | Some prio ->
              Pqueue.add q ~prio !next;
              model := !model @ [ (prio, !next) ];
              incr next
          | None -> (
              match !model with
              | [] -> ok := !ok && Pqueue.is_empty q
              | m :: rest ->
                  let best =
                    List.fold_left
                      (fun (bp, bn) (p, n) ->
                        if p < bp || (p = bp && n < bn) then (p, n) else (bp, bn))
                      m rest
                  in
                  model := List.filter (fun e -> e <> best) !model;
                  ok :=
                    !ok
                    && Pqueue.min_prio q = fst best
                    && Pqueue.min_elt q = snd best;
                  Pqueue.drop_min q)
        done;
        (!ok && Pqueue.length q = List.length !model, !model, !next)
      in
      let q = Pqueue.create () in
      let ok1, model, next = run q [] 0 0 cut in
      let d = Pqueue.dump q in
      let restored = Pqueue.create () in
      Pqueue.add restored ~prio:99 99;
      Pqueue.restore restored d;
      let n = Array.length ops in
      let ok2, _, _ = run q model next cut n in
      let ok3, _, _ = run (Pqueue.of_dump d) model next cut n in
      let ok4, _, _ = run restored model next cut n in
      ok1 && ok2 && ok3 && ok4)

(* --- Bounded_queue --- *)

let test_bq_capacity () =
  let q = Bounded_queue.create ~capacity:2 () in
  checkb "push1" true (Bounded_queue.push q 1);
  checkb "push2" true (Bounded_queue.push q 2);
  checkb "push3 rejected" false (Bounded_queue.push q 3);
  Alcotest.(check (option int)) "fifo" (Some 1) (Bounded_queue.pop q);
  checkb "room again" true (Bounded_queue.push q 3);
  Alcotest.(check (list int)) "contents" [ 2; 3 ] (Bounded_queue.to_list q)

let test_bq_unbounded () =
  let q = Bounded_queue.create () in
  for i = 0 to 999 do
    checkb "push" true (Bounded_queue.push q i)
  done;
  check "length" 1000 (Bounded_queue.length q);
  checkb "never full" false (Bounded_queue.is_full q)

let test_bq_fold_iter () =
  let q = Bounded_queue.create () in
  List.iter (fun x -> ignore (Bounded_queue.push q x)) [ 1; 2; 3 ];
  check "fold sum" 6 (Bounded_queue.fold ( + ) 0 q);
  let seen = ref [] in
  Bounded_queue.iter (fun x -> seen := x :: !seen) q;
  Alcotest.(check (list int)) "iter order" [ 3; 2; 1 ] !seen

let test_bq_invalid () =
  Alcotest.check_raises "negative capacity"
    (Invalid_argument "Bounded_queue.create: negative capacity") (fun () ->
      ignore (Bounded_queue.create ~capacity:(-1) ()))

(* --- Rng --- *)

let test_rng_deterministic () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 0 to 99 do
    Alcotest.(check int64) "same stream" (Rng.next a) (Rng.next b)
  done

let test_rng_seeds_differ () =
  let a = Rng.create 1 and b = Rng.create 2 in
  checkb "different seeds differ" false (Rng.next a = Rng.next b)

let test_rng_int_bounds () =
  let r = Rng.create 7 in
  for _ = 0 to 999 do
    let x = Rng.int r 13 in
    checkb "in range" true (x >= 0 && x < 13)
  done

let test_rng_int_invalid () =
  let r = Rng.create 7 in
  Alcotest.check_raises "bound 0" (Invalid_argument "Rng.int: bound must be positive")
    (fun () -> ignore (Rng.int r 0))

let test_rng_unit_float () =
  let r = Rng.create 11 in
  for _ = 0 to 999 do
    let x = Rng.unit_float r in
    checkb "in [0,1)" true (x >= 0.0 && x < 1.0)
  done

let test_rng_shuffle_permutes () =
  let r = Rng.create 3 in
  let arr = Array.init 50 Fun.id in
  Rng.shuffle r arr;
  let sorted = Array.copy arr in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "same elements" (Array.init 50 Fun.id) sorted

let test_rng_gaussian_moments () =
  let r = Rng.create 5 in
  let n = 20000 in
  let xs = Array.init n (fun _ -> Rng.gaussian r) in
  let mean = Array.fold_left ( +. ) 0.0 xs /. float_of_int n in
  checkb "mean near 0" true (Float.abs mean < 0.05);
  let var = Array.fold_left (fun acc x -> acc +. (x *. x)) 0.0 xs /. float_of_int n in
  checkb "variance near 1" true (Float.abs (var -. 1.0) < 0.1)

let prop_rng_int_in_bounds =
  QCheck.Test.make ~name:"rng int stays in bounds" ~count:200
    QCheck.(pair small_int (int_range 1 1000))
    (fun (seed, bound) ->
      let r = Rng.create seed in
      let x = Rng.int r bound in
      x >= 0 && x < bound)

(* --- Stats --- *)

let test_stats_mean () =
  checkf "mean" 2.0 (Stats.mean [ 1.0; 2.0; 3.0 ]);
  checkf "empty" 0.0 (Stats.mean [])

let test_stats_geomean () =
  checkf "geomean" 2.0 (Stats.geomean [ 1.0; 2.0; 4.0 ]);
  Alcotest.check_raises "non-positive"
    (Invalid_argument "Stats.geomean: non-positive input") (fun () ->
      ignore (Stats.geomean [ 1.0; 0.0 ]))

(* The documented edge-case contract: empty -> 0.0, singleton -> the
   element, for every aggregator that has a neutral value. *)
let test_stats_edge_cases () =
  checkf "geomean empty" 0.0 (Stats.geomean []);
  checkf "geomean singleton" 7.5 (Stats.geomean [ 7.5 ]);
  checkf "mean singleton" 7.5 (Stats.mean [ 7.5 ]);
  checkf "stddev singleton" 0.0 (Stats.stddev [ 7.5 ]);
  checkf "percentile empty" 0.0 (Stats.percentile 50.0 []);
  checkf "percentile singleton p0" 3.0 (Stats.percentile 0.0 [ 3.0 ]);
  checkf "percentile singleton p100" 3.0 (Stats.percentile 100.0 [ 3.0 ]);
  Alcotest.check_raises "p out of range even when empty"
    (Invalid_argument "Stats.percentile: p out of range") (fun () ->
      ignore (Stats.percentile 101.0 []))

let test_stats_stddev () =
  checkf "constant" 0.0 (Stats.stddev [ 5.0; 5.0; 5.0 ]);
  checkf "simple" 2.0 (Stats.stddev [ 2.0; 4.0; 4.0; 4.0; 5.0; 5.0; 7.0; 9.0 ])

let test_stats_percentile () =
  let xs = [ 1.0; 2.0; 3.0; 4.0; 5.0 ] in
  checkf "p0" 1.0 (Stats.percentile 0.0 xs);
  checkf "p50" 3.0 (Stats.percentile 50.0 xs);
  checkf "p100" 5.0 (Stats.percentile 100.0 xs);
  checkf "p25" 2.0 (Stats.percentile 25.0 xs)

let test_stats_speedup () =
  checkf "speedup" 4.0 (Stats.speedup ~baseline:8.0 2.0);
  Alcotest.check_raises "zero denominator"
    (Invalid_argument "Stats.ratio: zero denominator") (fun () ->
      ignore (Stats.ratio 1.0 0.0))

let prop_percentile_within_range =
  QCheck.Test.make ~name:"percentile lies within [min,max]" ~count:100
    QCheck.(pair (list_of_size (Gen.int_range 1 50) (float_range 0.0 100.0)) (float_range 0.0 100.0))
    (fun (xs, p) ->
      let v = Stats.percentile p xs in
      v >= Stats.min xs -. 1e-9 && v <= Stats.max xs +. 1e-9)

(* --- Int_vec --- *)

let test_int_vec () =
  let v = Int_vec.create () in
  for i = 0 to 99 do
    Int_vec.push v (i * i)
  done;
  check "length" 100 (Int_vec.length v);
  check "get" 81 (Int_vec.get v 9);
  Alcotest.check_raises "out of bounds" (Invalid_argument "Int_vec.get: out of bounds")
    (fun () -> ignore (Int_vec.get v 100));
  let arr = Int_vec.to_array v in
  check "array length" 100 (Array.length arr);
  check "array content" 9801 arr.(99);
  Int_vec.clear v;
  check "cleared" 0 (Int_vec.length v)

(* --- Int_table --- *)

let test_int_table_basic () =
  let t = Int_table.create () in
  check "empty" 0 (Int_table.length t);
  Int_table.set t 5 50;
  Int_table.set t 9 90;
  check "find hit" 50 (Int_table.find t 5 ~default:(-1));
  check "find miss" (-1) (Int_table.find t 6 ~default:(-1));
  checkb "mem" true (Int_table.mem t 9);
  Int_table.set t 5 55;
  check "replace" 55 (Int_table.find t 5 ~default:(-1));
  check "length after replace" 2 (Int_table.length t);
  check "add fresh" 3 (Int_table.add t 7 3);
  check "add existing" 58 (Int_table.add t 5 3);
  Int_table.remove t 5;
  checkb "removed" false (Int_table.mem t 5);
  check "length after remove" 2 (Int_table.length t);
  (* Removing an absent key is a no-op. *)
  Int_table.remove t 5;
  check "idempotent remove" 2 (Int_table.length t)

let test_int_table_slots () =
  let t = Int_table.create () in
  Int_table.set t 42 1;
  let s = Int_table.probe t 42 in
  checkb "slot found" true (s >= 0);
  check "value_at" 1 (Int_table.value_at t s);
  Int_table.set_at t s 2;
  check "set_at visible" 2 (Int_table.find t 42 ~default:0);
  check "absent probe" (-1) (Int_table.probe t 43)

let test_int_table_growth () =
  let t = Int_table.create ~initial_capacity:8 () in
  for i = 0 to 999 do
    Int_table.set t (i * 17) i
  done;
  check "length" 1000 (Int_table.length t);
  for i = 0 to 999 do
    check "survives growth" i (Int_table.find t (i * 17) ~default:(-1))
  done

(* Keys inserted in order and removed in order, as the cache MSHRs and the
   dirty-line sets use them: tombstones pile up, but with at most 128 keys
   live the table must rehash in place rather than keep doubling. *)
let test_int_table_sliding_window () =
  let t = Int_table.create () in
  let window = 128 in
  for k = 0 to 1_000_000 - 1 do
    Int_table.set t k k;
    if k >= window - 1 then Int_table.remove t (k - window + 1)
  done;
  check "live" (window - 1) (Int_table.length t);
  checkb
    (Printf.sprintf "capacity %d <= 1024" (Int_table.capacity t))
    true
    (Int_table.capacity t <= 1024)

let test_int_table_reserved_keys () =
  let t = Int_table.create () in
  Alcotest.check_raises "min_int"
    (Invalid_argument "Int_table: key out of supported range") (fun () ->
      Int_table.set t min_int 0);
  Alcotest.check_raises "min_int+1"
    (Invalid_argument "Int_table: key out of supported range") (fun () ->
      ignore (Int_table.mem t (min_int + 1)))

(* Model check against Hashtbl: random insert/remove/add streams must leave
   both maps with identical contents (compared via sorted bindings, so
   iteration order never matters). Keys are drawn from a small range to
   force collisions, tombstone reuse, and rehashes with deletions. *)
let prop_int_table_model =
  let op =
    QCheck.(
      oneof
        [
          map (fun (k, v) -> `Set (k, v)) (pair (int_range 0 40) small_int);
          map (fun k -> `Remove k) (int_range 0 40);
          map (fun (k, d) -> `Add (k, d)) (pair (int_range 0 40) small_int);
        ])
  in
  QCheck.Test.make ~name:"int_table agrees with Hashtbl" ~count:500
    QCheck.(list op)
    (fun ops ->
      let t = Int_table.create ~initial_capacity:8 () in
      let h = Hashtbl.create 8 in
      List.iter
        (fun op ->
          match op with
          | `Set (k, v) ->
              Int_table.set t k v;
              Hashtbl.replace h k v
          | `Remove k ->
              Int_table.remove t k;
              Hashtbl.remove h k
          | `Add (k, d) ->
              let model =
                (match Hashtbl.find_opt h k with None -> 0 | Some v -> v) + d
              in
              Hashtbl.replace h k model;
              if Int_table.add t k d <> model then
                QCheck.Test.fail_report "add returned a stale sum")
        ops;
      (* Also exercise the read APIs on every key ever touched. *)
      let agree k =
        Int_table.mem t k = Hashtbl.mem h k
        && Int_table.find t k ~default:(min_int + 2)
           = (match Hashtbl.find_opt h k with
             | None -> min_int + 2
             | Some v -> v)
      in
      let all_agree = List.for_all agree (List.init 41 Fun.id) in
      let bindings m =
        List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) m [])
      in
      let table_bindings =
        List.sort compare
          (Int_table.fold (fun k v acc -> (k, v) :: acc) t [])
      in
      all_agree
      && Int_table.length t = Hashtbl.length h
      && table_bindings = bindings h)

(* --- Int_heap --- *)

let test_int_heap_order () =
  let h = Int_heap.create () in
  List.iter
    (fun (p, v) -> Int_heap.push h ~prio:p v)
    [ (9, 900); (2, 200); (5, 500); (1, 100) ];
  check "min prio" 1 (Int_heap.min_prio h);
  check "min value" 100 (Int_heap.min_value h);
  Int_heap.drop_min h;
  check "next min" 2 (Int_heap.min_prio h);
  check "length" 3 (Int_heap.length h);
  Int_heap.clear h;
  checkb "cleared" true (Int_heap.is_empty h)

let prop_int_heap_sorted =
  QCheck.Test.make ~name:"int_heap drains in priority order" ~count:200
    QCheck.(list int)
    (fun prios ->
      let h = Int_heap.create () in
      List.iteri (fun i p -> Int_heap.push h ~prio:p i) prios;
      let rec drain acc =
        if Int_heap.is_empty h then List.rev acc
        else begin
          let p = Int_heap.min_prio h in
          Int_heap.drop_min h;
          drain (p :: acc)
        end
      in
      drain [] = List.sort compare prios)

(* --- Domain_pool --- *)

let test_domain_pool_ordering () =
  let tasks = Array.init 37 (fun i () -> i * i) in
  let serial = Domain_pool.run ~jobs:1 tasks in
  let par = Domain_pool.run ~jobs:4 tasks in
  Alcotest.(check (array int)) "parallel = serial" serial par;
  Alcotest.(check (array int)) "input order" (Array.init 37 (fun i -> i * i)) par

let test_domain_pool_more_jobs_than_tasks () =
  let out = Domain_pool.map ~jobs:8 (fun x -> x + 1) [| 1; 2; 3 |] in
  Alcotest.(check (array int)) "jobs > tasks" [| 2; 3; 4 |] out

let test_domain_pool_exception () =
  Alcotest.check_raises "task exception resurfaces" (Failure "task 2")
    (fun () ->
      ignore
        (Domain_pool.run ~jobs:4
           (Array.init 8 (fun i () ->
                if i = 2 then failwith "task 2" else i))))

(* --- Table --- *)

let test_table_render () =
  let out =
    Table.render
      ~columns:[ Table.column ~align:Table.Left "name"; Table.column "x" ]
      [ [ "a"; "1" ]; [ "bb"; "22" ] ]
  in
  checkb "has header" true (String.length out > 0);
  checkb "mentions bb" true
    (String.split_on_char '\n' out |> List.exists (fun l ->
         String.length l >= 2 && String.sub l 0 2 = "bb"))

let test_table_ragged_rows () =
  (* Short rows are padded, long rows truncated; must not raise. *)
  let out =
    Table.render
      ~columns:[ Table.column "a"; Table.column "b" ]
      [ [ "1" ]; [ "1"; "2"; "3" ] ]
  in
  checkb "renders" true (String.length out > 0)

let test_table_cells () =
  Alcotest.(check string) "fcell" "3.14" (Table.fcell 3.14159);
  Alcotest.(check string) "fcell decimals" "3.1" (Table.fcell ~decimals:1 3.14159);
  Alcotest.(check string) "icell" "42" (Table.icell 42)

let suite =
  [
    ( "util.pqueue",
      [
        Alcotest.test_case "ordering" `Quick test_pqueue_order;
        Alcotest.test_case "fifo ties" `Quick test_pqueue_fifo_ties;
        Alcotest.test_case "pop_until" `Quick test_pqueue_pop_until;
        Alcotest.test_case "growth keeps order" `Quick test_pqueue_grows;
        Alcotest.test_case "clear" `Quick test_pqueue_clear;
        QCheck_alcotest.to_alcotest prop_pqueue_sorted;
        QCheck_alcotest.to_alcotest prop_pqueue_fifo_model;
      ] );
    ( "util.bounded_queue",
      [
        Alcotest.test_case "capacity backpressure" `Quick test_bq_capacity;
        Alcotest.test_case "unbounded" `Quick test_bq_unbounded;
        Alcotest.test_case "fold and iter" `Quick test_bq_fold_iter;
        Alcotest.test_case "invalid capacity" `Quick test_bq_invalid;
      ] );
    ( "util.rng",
      [
        Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
        Alcotest.test_case "seeds differ" `Quick test_rng_seeds_differ;
        Alcotest.test_case "int bounds" `Quick test_rng_int_bounds;
        Alcotest.test_case "int invalid bound" `Quick test_rng_int_invalid;
        Alcotest.test_case "unit_float range" `Quick test_rng_unit_float;
        Alcotest.test_case "shuffle permutes" `Quick test_rng_shuffle_permutes;
        Alcotest.test_case "gaussian moments" `Quick test_rng_gaussian_moments;
        QCheck_alcotest.to_alcotest prop_rng_int_in_bounds;
      ] );
    ( "util.stats",
      [
        Alcotest.test_case "mean" `Quick test_stats_mean;
        Alcotest.test_case "geomean" `Quick test_stats_geomean;
        Alcotest.test_case "empty/singleton edge cases" `Quick
          test_stats_edge_cases;
        Alcotest.test_case "stddev" `Quick test_stats_stddev;
        Alcotest.test_case "percentile" `Quick test_stats_percentile;
        Alcotest.test_case "speedup/ratio" `Quick test_stats_speedup;
        QCheck_alcotest.to_alcotest prop_percentile_within_range;
      ] );
    ("util.int_vec", [ Alcotest.test_case "push/get/clear" `Quick test_int_vec ]);
    ( "util.int_table",
      [
        Alcotest.test_case "set/find/add/remove" `Quick test_int_table_basic;
        Alcotest.test_case "slot access" `Quick test_int_table_slots;
        Alcotest.test_case "growth keeps entries" `Quick test_int_table_growth;
        Alcotest.test_case "sliding window keeps capacity" `Quick
          test_int_table_sliding_window;
        Alcotest.test_case "reserved keys rejected" `Quick
          test_int_table_reserved_keys;
        QCheck_alcotest.to_alcotest prop_int_table_model;
      ] );
    ( "util.int_heap",
      [
        Alcotest.test_case "min ordering" `Quick test_int_heap_order;
        QCheck_alcotest.to_alcotest prop_int_heap_sorted;
      ] );
    ( "util.domain_pool",
      [
        Alcotest.test_case "deterministic ordering" `Quick
          test_domain_pool_ordering;
        Alcotest.test_case "more jobs than tasks" `Quick
          test_domain_pool_more_jobs_than_tasks;
        Alcotest.test_case "exception propagation" `Quick
          test_domain_pool_exception;
      ] );
    ( "util.table",
      [
        Alcotest.test_case "render" `Quick test_table_render;
        Alcotest.test_case "ragged rows" `Quick test_table_ragged_rows;
        Alcotest.test_case "cells" `Quick test_table_cells;
      ] );
  ]
