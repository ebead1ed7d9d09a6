type config = {
  width : int;
  hop_latency : int;
  link_capacity : int;
  epoch_cycles : int;
}

let default_config ~ntiles =
  let width =
    Stdlib.max 1 (int_of_float (Float.ceil (sqrt (float_of_int ntiles))))
  in
  { width; hop_latency = 4; link_capacity = 8; epoch_cycles = 32 }

type stats = {
  mutable messages : int;
  mutable total_hops : int;
  mutable contended : int;
}

type t = {
  cfg : config;
  ntiles : int;
  (* (link id, epoch) -> messages in flight on that link that epoch *)
  link_load : (int * int, int) Hashtbl.t;
  stats : stats;
  sink : Mosaic_obs.Sink.t;
}

let create ?(sink = Mosaic_obs.Sink.null) ~ntiles cfg =
  if ntiles <= 0 then invalid_arg "Noc.create: ntiles must be positive";
  if cfg.width <= 0 || cfg.hop_latency < 0 || cfg.link_capacity <= 0 then
    invalid_arg "Noc.create: bad configuration";
  {
    cfg;
    ntiles;
    link_load = Hashtbl.create 256;
    stats = { messages = 0; total_hops = 0; contended = 0 };
    sink;
  }

let coords t tile = (tile mod t.cfg.width, tile / t.cfg.width)

let check_tile t name tile =
  if tile < 0 || tile >= t.ntiles then
    invalid_arg (Printf.sprintf "Noc.%s: bad tile %d" name tile)

let hops t ~src ~dst =
  check_tile t "hops" src;
  check_tile t "hops" dst;
  let x1, y1 = coords t src and x2, y2 = coords t dst in
  abs (x1 - x2) + abs (y1 - y2)

(* XY routing: move along x first, then y. Links are identified by the
   node left behind and a direction code. *)
let path t ~src ~dst =
  let x2, y2 = coords t dst in
  let rec walk x y acc =
    if x < x2 then walk (x + 1) y (((4 * ((y * t.cfg.width) + x)) + 0) :: acc)
    else if x > x2 then walk (x - 1) y (((4 * ((y * t.cfg.width) + x)) + 1) :: acc)
    else if y < y2 then walk x (y + 1) (((4 * ((y * t.cfg.width) + x)) + 2) :: acc)
    else if y > y2 then walk x (y - 1) (((4 * ((y * t.cfg.width) + x)) + 3) :: acc)
    else List.rev acc
  in
  let x1, y1 = coords t src in
  walk x1 y1 []

let reserve_link t link ~earliest =
  let rec find epoch =
    let used = Option.value ~default:0 (Hashtbl.find_opt t.link_load (link, epoch)) in
    if used < t.cfg.link_capacity then begin
      Hashtbl.replace t.link_load (link, epoch) (used + 1);
      epoch
    end
    else find (epoch + 1)
  in
  let epoch = find (earliest / t.cfg.epoch_cycles) in
  Int.max earliest (epoch * t.cfg.epoch_cycles)

let delay t ~src ~dst ~cycle =
  check_tile t "delay" src;
  check_tile t "delay" dst;
  t.stats.messages <- t.stats.messages + 1;
  let links = path t ~src ~dst in
  t.stats.total_hops <- t.stats.total_hops + List.length links;
  if Mosaic_obs.Sink.enabled t.sink then
    Mosaic_obs.Sink.emit t.sink ~cycle
      (Mosaic_obs.Event.Noc_hop { src; dst; hops = List.length links });
  (* Local delivery still crosses the router once. *)
  let arrival = ref (cycle + t.cfg.hop_latency) in
  List.iter
    (fun link ->
      let start = reserve_link t link ~earliest:!arrival in
      if start > !arrival then t.stats.contended <- t.stats.contended + 1;
      arrival := start + t.cfg.hop_latency)
    links;
  !arrival

(* Link bandwidth is reserved eagerly: [delay] walks the whole path and
   books every epoch at injection time, so a routed message's arrival is
   final the moment it is sent and the mesh holds no state that matures on
   its own. In-flight arrivals are therefore tracked by the Interleaver
   (which buffers the messages); the NoC itself never constrains a skip. *)
let next_event _t ~cycle:_ = None

let stats t = t.stats

(* Snapshot: link reservations as explicit bindings (Hashtbl internal
   layout never affects behaviour — only keyed find/replace is used) plus
   the stats. *)

type dump = { d_links : (int * int * int) array; d_stats : int array }

let dump t =
  let links =
    Hashtbl.fold (fun (link, epoch) used acc -> (link, epoch, used) :: acc)
      t.link_load []
  in
  {
    d_links = Array.of_list links;
    d_stats = [| t.stats.messages; t.stats.total_hops; t.stats.contended |];
  }

let restore t d =
  Hashtbl.reset t.link_load;
  Array.iter
    (fun (link, epoch, used) -> Hashtbl.replace t.link_load (link, epoch) used)
    d.d_links;
  t.stats.messages <- d.d_stats.(0);
  t.stats.total_hops <- d.d_stats.(1);
  t.stats.contended <- d.d_stats.(2)

(* Publish the message counters under "noc.*" into a metrics registry. *)
let publish t reg =
  let module M = Mosaic_obs.Metrics in
  let c name v = M.incr ~by:v (M.counter reg name) in
  c "noc.messages" t.stats.messages;
  c "noc.total_hops" t.stats.total_hops;
  c "noc.contended" t.stats.contended
