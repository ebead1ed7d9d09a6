(* Tests for the Memory Address Orderer / LSQ model. *)

module Mao = Mosaic_tile.Mao

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

let mk ?(capacity = 8) ?(perfect_alias = false) () =
  Mao.create ~capacity ~perfect_alias

let load m ~seq ~addr = Mao.insert m ~seq ~kind:Mao.K_load ~addr ~size:4
let store m ~seq ~addr = Mao.insert m ~seq ~kind:Mao.K_store ~addr ~size:4

let test_load_blocked_by_unresolved_store () =
  let m = mk () in
  let st = store m ~seq:0 ~addr:100 in
  let ld = load m ~seq:1 ~addr:200 in
  Mao.resolve m ld;
  (* store address still unresolved: the load must wait *)
  checkb "load blocked" false (Mao.can_issue m ld);
  Mao.resolve m st;
  checkb "load free after resolve (no overlap)" true (Mao.can_issue m ld)

let test_load_blocked_by_matching_store () =
  let m = mk () in
  let st = store m ~seq:0 ~addr:100 in
  let ld = load m ~seq:1 ~addr:100 in
  Mao.resolve m st;
  Mao.resolve m ld;
  checkb "aliasing load blocked" false (Mao.can_issue m ld);
  Mao.complete m st;
  checkb "free after store completes" true (Mao.can_issue m ld)

let test_load_not_blocked_by_older_load () =
  let m = mk () in
  let _ = load m ~seq:0 ~addr:100 in
  let ld = load m ~seq:1 ~addr:100 in
  (* loads never conflict with loads, even unresolved *)
  Mao.resolve m ld;
  checkb "load-load fine" true (Mao.can_issue m ld)

let test_store_blocked_by_any_older () =
  let m = mk () in
  let ld = load m ~seq:0 ~addr:100 in
  let st = store m ~seq:1 ~addr:100 in
  Mao.resolve m ld;
  Mao.resolve m st;
  checkb "store blocked by older matching load" false (Mao.can_issue m st);
  Mao.complete m ld;
  checkb "free after load completes" true (Mao.can_issue m st)

let test_overlap_partial () =
  let m = mk () in
  (* 8-byte store overlapping a 4-byte load at +4 *)
  let st = Mao.insert m ~seq:0 ~kind:Mao.K_store ~addr:100 ~size:8 in
  let ld = load m ~seq:1 ~addr:104 in
  Mao.resolve m st;
  Mao.resolve m ld;
  checkb "partial overlap blocks" false (Mao.can_issue m ld)

let test_perfect_alias_resolves_upfront () =
  let m = mk ~perfect_alias:true () in
  let _ = store m ~seq:0 ~addr:100 in
  let ld = load m ~seq:1 ~addr:200 in
  (* no resolve calls needed: addresses known from the trace *)
  checkb "non-aliasing load issues immediately" true (Mao.can_issue m ld)

let test_capacity_window () =
  let m = mk ~capacity:2 ~perfect_alias:true () in
  let l0 = load m ~seq:0 ~addr:0 in
  let l1 = load m ~seq:1 ~addr:64 in
  let l2 = load m ~seq:2 ~addr:128 in
  checkb "inside window" true (Mao.can_issue m l1);
  checkb "outside window" false (Mao.can_issue m l2);
  Mao.complete m l0;
  checkb "window slides on completion" true (Mao.can_issue m l2)

let test_occupancy_and_stalls () =
  let m = mk ~capacity:1 ~perfect_alias:true () in
  let l0 = load m ~seq:0 ~addr:0 in
  let l1 = load m ~seq:1 ~addr:64 in
  checki "occupancy" 2 (Mao.occupancy m);
  ignore (Mao.can_issue m l1);
  checki "stall recorded" 1 (Mao.stalls m);
  Mao.complete m l0;
  Mao.complete m l1;
  checki "drained" 0 (Mao.occupancy m)

let test_duplicate_seq_rejected () =
  let m = mk () in
  let _ = load m ~seq:5 ~addr:0 in
  Alcotest.check_raises "duplicate"
    (Invalid_argument "Mao.insert: seq 5 does not follow seq 5")
    (fun () -> ignore (load m ~seq:5 ~addr:64))

let test_decreasing_seq_rejected () =
  let m = mk () in
  let _ = load m ~seq:5 ~addr:0 in
  let _ = load m ~seq:9 ~addr:8 in
  Alcotest.check_raises "older seq"
    (Invalid_argument "Mao.insert: seq 7 does not follow seq 9")
    (fun () -> ignore (load m ~seq:7 ~addr:64));
  (* The rejected insert left no entry behind. *)
  checki "occupancy" 2 (Mao.occupancy m)

(* A handle is the entry's position, stable while the ring grows past its
   initial size and rejected once the entry has been pruned. *)
let test_handles_survive_growth () =
  let m = mk ~capacity:1024 ~perfect_alias:true () in
  let hs = Array.init 300 (fun seq -> load m ~seq ~addr:(seq * 64)) in
  checki "occupancy" 300 (Mao.occupancy m);
  checkb "oldest issues" true (Mao.can_issue m hs.(0));
  Mao.complete m hs.(0);
  checkb "youngest issues after growth" true (Mao.can_issue m hs.(299));
  Alcotest.check_raises "pruned handle"
    (Invalid_argument (Printf.sprintf "Mao: unknown handle %d" hs.(0)))
    (fun () -> ignore (Mao.can_issue m hs.(0)))

(* Property: under perfect alias, a load never issues while an older
   overlapping store is incomplete, for random programs. *)
let prop_no_raw_violation =
  QCheck.Test.make ~name:"MAO never lets a load pass a conflicting store"
    ~count:100
    QCheck.(list_of_size (QCheck.Gen.int_range 1 20) (pair bool (int_range 0 4)))
    (fun ops ->
      let m = mk ~capacity:64 ~perfect_alias:true () in
      let entries =
        List.mapi
          (fun seq (is_store, slot) ->
            let kind = if is_store then Mao.K_store else Mao.K_load in
            let h = Mao.insert m ~seq ~kind ~addr:(slot * 8) ~size:8 in
            (seq, h, kind, slot))
          ops
      in
      List.for_all
        (fun (seq, h, kind, slot) ->
          match kind with
          | Mao.K_store -> true
          | Mao.K_load ->
              let conflicting_older =
                List.exists
                  (fun (s2, _, k2, slot2) ->
                    s2 < seq && k2 = Mao.K_store && slot2 = slot)
                  entries
              in
              if conflicting_older then not (Mao.can_issue m h) else true)
        entries)

let suite =
  [
    ( "tile.mao",
      [
        Alcotest.test_case "unresolved store blocks load" `Quick
          test_load_blocked_by_unresolved_store;
        Alcotest.test_case "matching store blocks load" `Quick
          test_load_blocked_by_matching_store;
        Alcotest.test_case "loads pass loads" `Quick test_load_not_blocked_by_older_load;
        Alcotest.test_case "store waits for older accesses" `Quick
          test_store_blocked_by_any_older;
        Alcotest.test_case "partial overlap" `Quick test_overlap_partial;
        Alcotest.test_case "perfect alias speculation" `Quick
          test_perfect_alias_resolves_upfront;
        Alcotest.test_case "capacity window" `Quick test_capacity_window;
        Alcotest.test_case "occupancy and stalls" `Quick test_occupancy_and_stalls;
        Alcotest.test_case "duplicate seq" `Quick test_duplicate_seq_rejected;
        Alcotest.test_case "non-increasing seq" `Quick
          test_decreasing_seq_rejected;
        Alcotest.test_case "handles survive growth" `Quick
          test_handles_survive_growth;
        QCheck_alcotest.to_alcotest prop_no_raw_violation;
      ] );
  ]
