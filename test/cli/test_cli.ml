(* Bad command-line input is a usage error, never a crash.

   Runs the built mosaicsim binary on malformed flag values, unknown
   benchmarks, an unreadable .mir path, an unknown flag (--shards) and
   sweep axes that name an unknown axis, an unparsable value or a value
   the simulator cannot run (a negative cache, a zero issue width, an
   LLC size the preset's associativity does not divide).
   Each must exit 124, cmdliner's usage-error code, with a first stderr
   line that names the bad value and no "internal error, uncaught
   exception" report.

   Usage: test_cli MOSAICSIM_EXE *)

let exe = Sys.argv.(1)

(* Exit code and stderr of one invocation; stdout is drained and dropped. *)
let invoke args =
  let out, inp, err =
    Unix.open_process_args_full exe (Array.of_list (exe :: args))
      (Unix.environment ())
  in
  close_out inp;
  let stderr_text = In_channel.input_all err in
  ignore (In_channel.input_all out);
  match Unix.close_process_full (out, inp, err) with
  | Unix.WEXITED code -> (code, stderr_text)
  | Unix.WSIGNALED n | Unix.WSTOPPED n ->
      Alcotest.failf "mosaicsim killed by signal %d" n

let contains ~sub s =
  let n = String.length sub in
  let rec go i =
    i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
  in
  go 0

let usage_error args ~names () =
  let code, err = invoke args in
  let cmd = String.concat " " args in
  Alcotest.(check int) (cmd ^ ": exit code") 124 code;
  Alcotest.(check bool)
    (cmd ^ ": no internal error") false
    (contains ~sub:"internal error" err);
  let first = List.hd (String.split_on_char '\n' err) in
  Alcotest.(check bool)
    (Printf.sprintf "%s: first stderr line names %s (got %S)" cmd names first)
    true (contains ~sub:names first)

let cases =
  [
    ([ "run"; "spmv"; "-t"; "0" ], "'0'");
    ([ "run"; "spmv"; "--sample"; "0" ], "'0'");
    ([ "run"; "/nope/x.mir" ], "'/nope/x.mir'");
    ([ "run"; "nosuchwl" ], "'nosuchwl'");
    ([ "run"; "spmv"; "--system"; "foo" ], "'foo'");
    ([ "run"; "spmv"; "--core"; "foo" ], "'foo'");
    ([ "bench"; "spmv"; "--jobs"; "0" ], "'0'");
    ([ "run"; "spmv"; "--shards"; "2" ], "'--shards'");
    ([ "sweep"; "spmv"; "--axis"; "l1=-1,0,3" ], "'l1=-1,0,3'");
    ([ "sweep"; "spmv"; "--axis"; "l1=-1"; "--exact" ], "'l1=-1'");
    ([ "sweep"; "spmv"; "--axis"; "width=0"; "--exact" ], "'width=0'");
    ([ "sweep"; "spmv"; "--axis"; "l1=abc" ], "'l1=abc'");
    ([ "sweep"; "spmv"; "--axis"; "bogus=1" ], "'bogus=1'");
    ([ "sweep"; "spmv"; "--axis"; "llc=1"; "--exact" ], "llc=1");
  ]

let () =
  Alcotest.run ~argv:[| Sys.argv.(0) |] "mosaicsim-cli"
    [
      ( "cli",
        List.map
          (fun (args, names) ->
            Alcotest.test_case
              ("usage error: " ^ String.concat " " args)
              `Quick
              (usage_error args ~names))
          cases );
    ]
