(* Reference-speed clock: the program runs in strict alternation with a
   fixed reference kernel in a helper process, and every time this
   module reports is scaled to the speed the kernel ran at when it was
   calibrated. The host this benchmark was written on ran the same
   binary up to 2x slower in stretches of tens of seconds, with user CPU
   time slowing as much as wall time; the kernel slows with the host,
   so raw time x (nominal / measured kernel time) repeats where raw
   time does not.

   The helper is forked, so the kernel allocates in its own heap: the
   program's minor collections, promotions and heap size are the same
   with the alternation on or off. The handoff itself is C (see
   timeshare_stubs.c) and allocates nothing. *)

external c_start : Unix.file_descr -> Unix.file_descr -> int -> float -> unit
  = "ts_start"

external c_stop : unit -> unit = "ts_stop"

external raw : unit -> (float[@unboxed]) = "ts_raw_byte" "ts_raw" [@@noalloc]
(** Seconds the program has run since {!start}, kernel quanta excluded. *)

external norm : unit -> (float[@unboxed]) = "ts_norm_byte" "ts_norm"
  [@@noalloc]
(** {!raw}, each slice scaled by the kernel's nominal / measured time. *)

external kernel : unit -> (float[@unboxed]) = "ts_kernel_byte" "ts_kernel"
  [@@noalloc]
(** Seconds the kernel quanta took, as the helper measured them. *)

external factor : unit -> (float[@unboxed]) = "ts_factor_byte" "ts_factor"
  [@@noalloc]
(** Nominal / measured time of the latest quantum. *)

external quanta : unit -> (int[@untagged]) = "ts_quanta_byte" "ts_quanta"
  [@@noalloc]

external monotonic : unit -> (float[@unboxed])
  = "ts_monotonic_byte" "ts_monotonic"
  [@@noalloc]
(** CLOCK_MONOTONIC in seconds; the clock Python's [time.monotonic]
    reads, so a launcher can pass the instant it started the process. *)

(* --- the reference kernel ------------------------------------------- *)

(* Fixed forever: changing it rescales every normalised figure. On the
   host it was chosen on, a pure arithmetic loop barely slowed in the
   stretches where the simulator ran 1.5x slower, and a random pointer
   chase slowed far less than the simulator: the slowdown is in
   allocation and in a large heap's caches. A quantum therefore runs
   three parts, each of which tracked the simulator's round times in a
   side-by-side trial, and whose sum tracked them best (interquartile
   range of raw / kernel 2.1% over 38 rounds whose raw times spread
   12.8%):
   - short-lived allocation over a small table and a sorted map;
   - lookups and updates in a 300k-entry table of long-lived values;
   - an event-loop-like pass over a 200k-entry table of mutable
     records: closures queued and run, lists rebuilt, records replaced,
     so minor collections promote into a large major heap. *)
module IMap = Map.Make (Int)

type cell = { key : int; mutable hits : int; payload : int array }

let churn () =
  let tbl = Hashtbl.create 256 in
  let heap = ref IMap.empty in
  let acc = ref 0 in
  let x = ref 12345 in
  for i = 1 to 1_000 do
    x := (!x * 1103515245 + 12345) land 0x3fffffff;
    let k = !x land 1023 in
    (match Hashtbl.find_opt tbl k with
    | Some c -> c.hits <- c.hits + 1
    | None -> Hashtbl.replace tbl k { key = k; hits = 1; payload = Array.make 6 i });
    heap := IMap.add ((!x lsr 10) land 0xffff) i !heap;
    if i land 3 = 0 then begin
      match IMap.min_binding_opt !heap with
      | Some (m, _) -> heap := IMap.remove m !heap
      | None -> ()
    end;
    let l = List.init 12 (fun j -> (k * (j + 7)) land 255) in
    acc := !acc + List.fold_left ( + ) 0 (List.sort compare l)
  done;
  Hashtbl.iter (fun _ c -> acc := !acc + c.key + c.hits + c.payload.(0)) tbl;
  !acc + IMap.cardinal !heap

let lookup_size = 300_000

let lookup_table =
  lazy
    (let h = Hashtbl.create lookup_size in
     for i = 0 to lookup_size - 1 do
       Hashtbl.replace h (i * 7919) (ref i, [ i ])
     done;
     h)

let lookup_x = ref 99

let lookups () =
  let h = Lazy.force lookup_table in
  let acc = ref 0 in
  for i = 1 to 2_500 do
    lookup_x := (!lookup_x * 1103515245 + 12345) land 0x3fffffff;
    let k = !lookup_x mod lookup_size * 7919 in
    (match Hashtbl.find_opt h k with
    | Some (r, l) ->
      r := !r + 1;
      acc := !acc + List.length l
    | None -> ());
    if i land 7 = 0 then Hashtbl.replace h k (ref i, [ i; k ])
  done;
  !acc

type node = { mutable visits : int; mutable recent : int list; id : int }

let nodes_size = 200_000

let node_table =
  lazy
    (let h = Hashtbl.create nodes_size in
     for i = 0 to nodes_size - 1 do
       Hashtbl.replace h i { visits = 0; recent = [ i ]; id = i }
     done;
     h)

let events_x = ref 4242

let events () =
  let h = Lazy.force node_table in
  let acc = ref 0 in
  let pending = ref [] in
  for i = 1 to 2_500 do
    events_x := (!events_x * 1103515245 + 12345) land 0x3fffffff;
    let k = !events_x mod nodes_size in
    let n = Hashtbl.find h k in
    n.visits <- n.visits + 1;
    n.recent <- (match n.recent with a :: b :: _ -> [ i; a; b ] | l -> i :: l);
    pending := (k, fun () -> n.id + i) :: !pending;
    if i land 15 = 0 then begin
      List.iter (fun (k, f) -> acc := !acc + k + f ()) !pending;
      pending := []
    end;
    if i land 31 = 0 then Hashtbl.replace h k { visits = 0; recent = [ i ]; id = k }
  done;
  !acc

let quantum () = churn () + lookups () + events ()

(* Nominal duration of one quantum: about its duration in alternation
   with the simulator on the host the benchmark was calibrated on, so
   normalised seconds read close to raw seconds there. *)
let nominal_s = 6.0e-3

(* Length of one work slice between quanta. *)
let slice_s = 10e-3

let sink = ref 0

let helper_loop ~go ~done_ =
  ignore (Lazy.force lookup_table);
  ignore (Lazy.force node_table);
  let b = Bytes.create 8 in
  let rec loop () =
    match Unix.read go b 0 1 with
    | 0 -> ()
    | _ ->
      let t0 = monotonic () in
      sink := !sink + quantum ();
      let ns = Int64.of_float ((monotonic () -. t0) *. 1e9) in
      Bytes.set_int64_le b 0 (if ns < 1L then 1L else ns);
      ignore (Unix.write done_ b 0 8);
      loop ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop ()
  in
  loop ()

let helper = ref None

(* Fork the helper and start alternating. Must run before any domain is
   spawned (fork needs a single-domain runtime). *)
let start () =
  let go_r, go_w = Unix.pipe ~cloexec:true () in
  let done_r, done_w = Unix.pipe ~cloexec:true () in
  match Unix.fork () with
  | 0 ->
    Unix.close go_w;
    Unix.close done_r;
    (try helper_loop ~go:go_r ~done_:done_w with _ -> ());
    Unix._exit 0
  | pid ->
    Unix.close go_r;
    Unix.close done_w;
    Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
    helper := Some (pid, go_w, done_r);
    c_start go_w done_r (int_of_float (slice_s *. 1e9)) (nominal_s *. 1e9)

(* Stop alternating and reap the helper. Idempotent. *)
let stop () =
  c_stop ();
  match !helper with
  | None -> ()
  | Some (pid, go_w, done_r) ->
    helper := None;
    Unix.close go_w;
    Unix.close done_r;
    let rec reap () =
      match Unix.waitpid [] pid with
      | _ -> ()
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> reap ()
    in
    reap ()
