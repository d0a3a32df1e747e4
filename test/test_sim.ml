open Totem_engine

let test_clock_advances () =
  let sim = Sim.create () in
  let seen = ref [] in
  ignore (Sim.schedule sim ~delay:(Vtime.ms 5) (fun () -> seen := 5 :: !seen));
  ignore (Sim.schedule sim ~delay:(Vtime.ms 1) (fun () -> seen := 1 :: !seen));
  Sim.run_until sim (Vtime.ms 10);
  Alcotest.(check (list int)) "order" [ 5; 1 ] !seen;
  Alcotest.(check int) "clock at limit" (Vtime.ms 10) (Sim.now sim)

let test_run_until_boundary () =
  let sim = Sim.create () in
  let fired = ref false in
  ignore (Sim.schedule sim ~delay:(Vtime.ms 10) (fun () -> fired := true));
  Sim.run_until sim (Vtime.ms 10);
  Alcotest.(check bool) "event at the limit fires" true !fired

let test_events_see_their_time () =
  let sim = Sim.create () in
  ignore
    (Sim.schedule sim ~delay:(Vtime.ms 3) (fun () ->
         Alcotest.(check int) "now inside event" (Vtime.ms 3) (Sim.now sim)));
  Sim.run_until sim (Vtime.ms 5)

let test_nested_scheduling () =
  let sim = Sim.create () in
  let log = ref [] in
  ignore
    (Sim.schedule sim ~delay:(Vtime.ms 1) (fun () ->
         log := "outer" :: !log;
         ignore
           (Sim.schedule sim ~delay:(Vtime.ms 1) (fun () ->
                log := "inner" :: !log))));
  Sim.run_until sim (Vtime.ms 5);
  Alcotest.(check (list string)) "nested ran" [ "inner"; "outer" ] !log

let test_cancel () =
  let sim = Sim.create () in
  let fired = ref false in
  let h = Sim.schedule sim ~delay:(Vtime.ms 1) (fun () -> fired := true) in
  Sim.cancel sim h;
  Sim.run_until sim (Vtime.ms 5);
  Alcotest.(check bool) "cancelled never fires" false !fired

let test_past_rejected () =
  let sim = Sim.create () in
  Sim.run_until sim (Vtime.ms 10);
  (* Sim delegates to the pure per-node scheduler, so the error is
     reported by Partition. *)
  Alcotest.check_raises "past"
    (Invalid_argument "Partition.schedule_at: time is in the past") (fun () ->
      ignore (Sim.schedule_at sim ~time:(Vtime.ms 5) ignore));
  Alcotest.check_raises "negative delay"
    (Invalid_argument "Partition.schedule: negative delay") (fun () ->
      ignore (Sim.schedule sim ~delay:(-1) ignore))

let test_step_and_pending () =
  let sim = Sim.create () in
  Alcotest.(check bool) "empty step" false (Sim.step sim);
  ignore (Sim.schedule sim ~delay:1 ignore);
  ignore (Sim.schedule sim ~delay:2 ignore);
  Alcotest.(check int) "pending" 2 (Sim.pending sim);
  Alcotest.(check bool) "step" true (Sim.step sim);
  Alcotest.(check int) "pending after" 1 (Sim.pending sim)

let test_run_drains () =
  let sim = Sim.create () in
  let count = ref 0 in
  for _ = 1 to 10 do
    ignore (Sim.schedule sim ~delay:(Vtime.ms 1) (fun () -> incr count))
  done;
  Sim.run sim;
  Alcotest.(check int) "all ran" 10 !count

let test_run_until_no_events_advances_clock () =
  let sim = Sim.create () in
  Sim.run_until sim (Vtime.sec 2);
  Alcotest.(check int) "clock" (Vtime.sec 2) (Sim.now sim)

let test_timer_and_event_interleave () =
  (* schedule_timer routes through the timing wheel, schedule through
     the heap; at equal times the two must still fire in global
     scheduling order. *)
  let sim = Sim.create () in
  let log = ref [] in
  let note tag () = log := tag :: !log in
  ignore (Sim.schedule sim ~delay:(Vtime.ms 2) (note "event@2"));
  ignore (Sim.schedule_timer sim ~delay:(Vtime.ms 1) (note "timer@1"));
  ignore (Sim.schedule_timer sim ~delay:(Vtime.ms 2) (note "timer@2"));
  ignore (Sim.schedule sim ~delay:(Vtime.ms 1) (note "event@1"));
  Sim.run_until sim (Vtime.ms 5);
  Alcotest.(check (list string)) "global FIFO at equal times"
    [ "timer@1"; "event@1"; "event@2"; "timer@2" ]
    (List.rev !log)

let test_timer_cancel_and_pending () =
  let sim = Sim.create () in
  let fired = ref false in
  let h = Sim.schedule_timer sim ~delay:(Vtime.ms 1) (fun () -> fired := true) in
  ignore (Sim.schedule sim ~delay:(Vtime.ms 2) ignore);
  Alcotest.(check int) "timers count as pending" 2 (Sim.pending sim);
  Sim.cancel_timer sim h;
  Alcotest.(check int) "cancelled timer leaves" 1 (Sim.pending sim);
  Sim.run_until sim (Vtime.ms 5);
  Alcotest.(check bool) "cancelled timer never fires" false !fired

let test_events_processed () =
  let sim = Sim.create () in
  Alcotest.(check int) "starts at zero" 0 (Sim.events_processed sim);
  for _ = 1 to 3 do
    ignore (Sim.schedule sim ~delay:(Vtime.ms 1) ignore)
  done;
  ignore (Sim.schedule_timer sim ~delay:(Vtime.ms 2) ignore);
  let h = Sim.schedule_timer sim ~delay:(Vtime.ms 3) ignore in
  Sim.cancel_timer sim h;
  Sim.run sim;
  Alcotest.(check int) "counts fired events and timers, not cancels" 4
    (Sim.events_processed sim)

let test_split_rng_deterministic () =
  let a = Sim.create ~seed:7 () and b = Sim.create ~seed:7 () in
  Alcotest.(check int64) "same split streams"
    (Rng.int64 (Sim.split_rng a))
    (Rng.int64 (Sim.split_rng b))

let tests =
  [
    Alcotest.test_case "clock advances with events" `Quick test_clock_advances;
    Alcotest.test_case "inclusive limit" `Quick test_run_until_boundary;
    Alcotest.test_case "events see their own time" `Quick test_events_see_their_time;
    Alcotest.test_case "nested scheduling" `Quick test_nested_scheduling;
    Alcotest.test_case "cancel" `Quick test_cancel;
    Alcotest.test_case "past scheduling rejected" `Quick test_past_rejected;
    Alcotest.test_case "step and pending" `Quick test_step_and_pending;
    Alcotest.test_case "run drains queue" `Quick test_run_drains;
    Alcotest.test_case "run_until without events" `Quick
      test_run_until_no_events_advances_clock;
    Alcotest.test_case "timer/event interleave" `Quick
      test_timer_and_event_interleave;
    Alcotest.test_case "timer cancel and pending" `Quick
      test_timer_cancel_and_pending;
    Alcotest.test_case "events_processed counter" `Quick test_events_processed;
    Alcotest.test_case "split_rng deterministic" `Quick test_split_rng_deterministic;
  ]
