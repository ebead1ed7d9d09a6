(* Spreading timed work over the host's cores.

   On a shared host one core can run 1.7x slower than another for a
   minute or more while a neighbour keeps it busy, and the scheduler
   leaves a single-threaded run on the core it started on. Moving the
   process to the next allowed core before each timed operation spreads a
   simulation's repetitions over the cores, so one busy core does not set
   their median. This uses the taskset tool; without it, or with one core,
   nothing moves. *)

let pid = string_of_int (Unix.getpid ())

(* Runs taskset with [args] and returns its output, or [None] when it
   cannot run or fails. *)
let taskset args =
  let argv = Array.of_list ("taskset" :: args) in
  match Unix.open_process_args_in "taskset" argv with
  | exception Unix.Unix_error _ -> None
  | ic -> (
      let out = In_channel.input_all ic in
      match Unix.close_process_in ic with Unix.WEXITED 0 -> Some out | _ -> None)

(* "pid 12's current affinity list: 0,2-3" -> [0; 2; 3] *)
let parse_list out =
  match String.rindex_opt out ':' with
  | None -> []
  | Some i ->
      String.sub out (i + 1) (String.length out - i - 1)
      |> String.trim |> String.split_on_char ','
      |> List.concat_map (fun r ->
             match String.split_on_char '-' r with
             | [ a ] -> [ int_of_string a ]
             | [ a; b ] ->
                 let a = int_of_string a and b = int_of_string b in
                 List.init (b - a + 1) (( + ) a)
             | _ -> [])

(* The cores the process may use when it starts. *)
let allowed =
  lazy
    (match taskset [ "-cp"; pid ] with
    | Some out -> ( try parse_list out with Failure _ -> [])
    | None -> [])

let turn = ref 0

(* Move to the next allowed core. *)
let next () =
  match Lazy.force allowed with
  | [] | [ _ ] -> ()
  | cpus ->
      let cpu = List.nth cpus (!turn mod List.length cpus) in
      incr turn;
      ignore (taskset [ "-cp"; string_of_int cpu; pid ])

(* Allow every core again. *)
let release () =
  match Lazy.force allowed with
  | [] | [ _ ] -> ()
  | cpus ->
      let list = String.concat "," (List.map string_of_int cpus) in
      ignore (taskset [ "-cp"; list; pid ])
