(* Each output check of the benchmark must pass on good input and fail
   on a deliberately wrong one: a swapped delivery order, a dropped or
   duplicated stamped message, a leaf count off by one, a canary that
   found nothing. *)

open Perfbench

let failures = ref 0

let expect label want (o : Checks.outcome) =
  if o.Checks.ok <> want then begin
    incr failures;
    Printf.printf "FAIL %s: expected %s, got %s (%s)\n" label
      (if want then "pass" else "fail")
      (if o.Checks.ok then "pass" else "fail")
      o.Checks.detail
  end
  else Printf.printf "ok   %s\n" label

(* --- agreed order --------------------------------------------------- *)

(* A recorder fed [seqs.(node)], each the (origin, app_seq) pairs one
   node delivered, in order. *)
let order_of seqs =
  let o = Checks.order_create ~nodes:(Array.length seqs) ~capacity:4 in
  Array.iteri
    (fun node s -> List.iter (fun (origin, app_seq) -> Checks.order_note o ~node ~origin ~app_seq) s)
    seqs;
  o

let order seqs = Checks.order_check "agreed order" (order_of seqs)

let () =
  let a = [ (0, 1); (1, 1); (0, 2); (2, 1) ] in
  expect "identical sequences pass" true (order [| a; a; a |]);
  expect "a shorter prefix passes" true (order [| a; [ (0, 1); (1, 1) ]; [] |]);
  expect "a swapped delivery order fails" false
    (order [| a; [ (1, 1); (0, 1); (0, 2); (2, 1) ] |]);
  expect "a swap found by the longer node fails" false
    (order [| [ (0, 1); (1, 1) ]; [ (0, 1); (0, 2); (1, 1) ] |]);
  expect "a duplicate fails" false (order [| [ (0, 1); (1, 1); (0, 1) ] |])

(* --- exactly once --------------------------------------------------- *)

let () =
  let all = [ (0, 1); (1, 1); (0, 2); (1, 2) ] in
  let submitted = [| 2; 2 |] in
  expect "every stamped message once at every node passes" true
    (Checks.exactly_once "once" (order_of [| all; all |]) ~submitted);
  expect "a dropped stamped message fails" false
    (Checks.exactly_once "once"
       (order_of [| all; [ (0, 1); (1, 1); (1, 2) ] |])
       ~submitted);
  expect "a message dropped everywhere fails" false
    (Checks.exactly_once "once"
       (order_of [| [ (0, 1); (1, 1); (0, 2) ]; [ (0, 1); (1, 1); (0, 2) ] |])
       ~submitted);
  expect "a stamped message delivered twice fails" false
    (Checks.exactly_once "once"
       (order_of [| all @ [ (0, 2) ]; all @ [ (0, 2) ] |])
       ~submitted:[| 2; 2 |]);
  expect "a message never submitted fails" false
    (Checks.exactly_once "once"
       (order_of [| [ (0, 1); (1, 1); (0, 3); (1, 2) ]; [ (0, 1); (1, 1); (0, 3); (1, 2) ] |])
       ~submitted);
  let o = Checks.order_create ~nodes:2 ~capacity:2 in
  Checks.order_reset o ~nodes:2;
  expect "a reset recorder starts clean" true (Checks.exactly_once "once" o ~submitted:[| 0; 0 |])

(* --- throughput, shape, latency ------------------------------------- *)

let () =
  let ceiling =
    Checks.kb_ceiling ~nets_with_data:1 ~bandwidth_bps:100_000_000 ~frame_bytes:1518
      ~payload_bytes:1424
  in
  expect "one network's ceiling is 11451 KB/s" true
    (Checks.check "ceiling" (Float.abs (ceiling -. 11451.3) < 1.0) (string_of_float ceiling));
  expect "a rate under the wire passes" true (Checks.kb_bound "kb" ~ceiling 11000.0);
  expect "a rate over the wire fails" false (Checks.kb_bound "kb" ~ceiling 11500.0)

let () =
  let sizes = [| 400; 700; 1024; 1400; 2048 |] in
  let none_kb = [| 7000.; 9000.; 8500.; 9500.; 8000. |] in
  let none_rate = [| 18000.; 13000.; 9000.; 7000.; 4000. |] in
  let active_rate = Array.map (fun r -> r *. 0.9) none_rate in
  let passive_rate = Array.map (fun r -> r *. 1.3) none_rate in
  let all_ok l = Checks.check "shape" (List.for_all (fun o -> o.Checks.ok) l) "" in
  expect "the Sec. 8 shape passes" true
    (all_ok (Checks.sec8_shape ~label:"t" ~sizes ~none_rate ~active_rate ~passive_rate ~none_kb));
  expect "no peak at 700 B fails" false
    (all_ok
       (Checks.sec8_shape ~label:"t" ~sizes ~none_rate ~active_rate ~passive_rate
          ~none_kb:[| 9100.; 9000.; 8500.; 9500.; 8000. |]));
  expect "passive at 2x fails" false
    (all_ok
       (Checks.sec8_shape ~label:"t" ~sizes ~none_rate ~active_rate
          ~passive_rate:(Array.map (fun r -> r *. 2.0) none_rate)
          ~none_kb))

let () =
  let floor_ns = Checks.latency_floor_ns ~min_latency_ns:25_000 ~bytes:606 ~bandwidth_bps:100_000_000 in
  expect "the floor adds serialisation at 100 Mbit/s" true
    (Checks.check "floor" (floor_ns = 25_000 + 48_480) (string_of_int floor_ns));
  expect "a latency above the floor passes" true (Checks.latency_floor "lat" ~lowest_ns:80_000 ~floor_ns);
  expect "a latency below the floor fails" false (Checks.latency_floor "lat" ~lowest_ns:70_000 ~floor_ns);
  let a = Checks.ints 200 in
  for i = 0 to 199 do
    a.{i} <- 200 - i
  done;
  let p50, p99 = Checks.p50_p99 a 100 in
  expect "quantiles are exact ranks" true
    (Checks.check "q" (p50 = 150.0 && p99 = 199.0) (Printf.sprintf "%g %g" p50 p99))

(* --- exploration ---------------------------------------------------- *)

let () =
  expect "explored + pruned = alphabet^depth passes" true
    (Checks.leaf_count "leaves" ~alphabet_len:6 ~depth:3 ~explored:40 ~pruned:176);
  expect "a leaf count off by one fails" false
    (Checks.leaf_count "leaves" ~alphabet_len:6 ~depth:3 ~explored:40 ~pruned:175);
  expect "no violation passes" true (Checks.no_violation "clean" ~found:None);
  expect "a violation fails" false (Checks.no_violation "clean" ~found:(Some "A6"));
  expect "the canary's expected violation passes" true (Checks.canary "canary" ~found:(Some "A6"));
  expect "a canary that found nothing fails" false (Checks.canary "canary" ~found:None)

let () =
  if !failures > 0 then begin
    Printf.printf "%d checker tests failed\n" !failures;
    exit 1
  end
