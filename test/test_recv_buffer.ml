open Totem_srp

let packet ~seq =
  {
    Wire.ring_id = 1;
    seq;
    sender = 0;
    elements =
      [ { Wire.message = Message.make ~origin:0 ~app_seq:seq ~size:10 (); fragment = None } ];
  }

(* Every deliverable packet, in order, through the one-at-a-time pop. *)
let pop_all b =
  let rec go acc =
    if Recv_buffer.has_deliverable b then go (Recv_buffer.pop_deliverable b :: acc)
    else List.rev acc
  in
  go []

let test_in_order () =
  let b = Recv_buffer.create () in
  Alcotest.(check int) "aru starts 0" 0 (Recv_buffer.my_aru b);
  ignore (Recv_buffer.store b (packet ~seq:1));
  ignore (Recv_buffer.store b (packet ~seq:2));
  Alcotest.(check int) "aru" 2 (Recv_buffer.my_aru b);
  Alcotest.(check int) "deliverable" 2 (List.length (pop_all b));
  Alcotest.(check int) "pop once" 0 (List.length (pop_all b))

let test_gap_blocks_delivery () =
  let b = Recv_buffer.create () in
  ignore (Recv_buffer.store b (packet ~seq:1));
  ignore (Recv_buffer.store b (packet ~seq:3));
  Alcotest.(check int) "aru stuck" 1 (Recv_buffer.my_aru b);
  Alcotest.(check int) "highest" 3 (Recv_buffer.highest_seen b);
  Alcotest.(check (list int)) "missing" [ 2 ] (Recv_buffer.missing_up_to b 3);
  Alcotest.(check int) "only seq1 deliverable" 1
    (List.length (pop_all b));
  ignore (Recv_buffer.store b (packet ~seq:2));
  Alcotest.(check int) "aru jumps" 3 (Recv_buffer.my_aru b);
  let delivered = pop_all b in
  Alcotest.(check (list int)) "2 then 3"
    [ 2; 3 ]
    (List.map (fun p -> p.Wire.seq) delivered)

let test_duplicates () =
  let b = Recv_buffer.create () in
  Alcotest.(check bool) "first new" true (Recv_buffer.store b (packet ~seq:1) = `New);
  Alcotest.(check bool) "second dup" true
    (Recv_buffer.store b (packet ~seq:1) = `Duplicate)

let test_missing_ranges () =
  let b = Recv_buffer.create () in
  ignore (Recv_buffer.store b (packet ~seq:2));
  ignore (Recv_buffer.store b (packet ~seq:5));
  Alcotest.(check (list int)) "gaps" [ 1; 3; 4 ] (Recv_buffer.missing_up_to b 5);
  Alcotest.(check (list int)) "beyond highest" [ 1; 3; 4; 6 ]
    (Recv_buffer.missing_up_to b 6)

let test_gc () =
  let b = Recv_buffer.create () in
  for seq = 1 to 10 do
    ignore (Recv_buffer.store b (packet ~seq))
  done;
  ignore (pop_all b);
  Alcotest.(check int) "stored" 10 (Recv_buffer.stored_count b);
  Recv_buffer.gc_below b 4;
  Alcotest.(check int) "gc'd" 6 (Recv_buffer.stored_count b);
  Alcotest.(check bool) "gc'd seqs count as present" true (Recv_buffer.has b 3);
  Alcotest.(check bool) "re-store below horizon is duplicate" true
    (Recv_buffer.store b (packet ~seq:2) = `Duplicate);
  Alcotest.(check bool) "find below horizon gone" true
    (Recv_buffer.find b 2 = None)

let test_gc_never_drops_undelivered () =
  let b = Recv_buffer.create () in
  for seq = 1 to 5 do
    ignore (Recv_buffer.store b (packet ~seq))
  done;
  (* Nothing delivered yet: gc must refuse. *)
  Recv_buffer.gc_below b 5;
  Alcotest.(check int) "all retained" 5 (Recv_buffer.stored_count b);
  ignore (pop_all b);
  Recv_buffer.gc_below b 5;
  Alcotest.(check int) "now gone" 0 (Recv_buffer.stored_count b)

let test_reset () =
  let b = Recv_buffer.create () in
  ignore (Recv_buffer.store b (packet ~seq:1));
  Recv_buffer.reset b;
  Alcotest.(check int) "aru reset" 0 (Recv_buffer.my_aru b);
  Alcotest.(check int) "empty" 0 (Recv_buffer.stored_count b);
  Alcotest.(check bool) "seq 1 accepted again" true
    (Recv_buffer.store b (packet ~seq:1) = `New)

let test_ring_wraparound () =
  (* Slide a delivery + gc window across several times the ring's
     initial capacity: every seq must deliver exactly once, in order,
     and slots freed by gc must be reusable by later seqs that hash to
     the same ring index. *)
  let b = Recv_buffer.create () in
  let total = 5000 in
  let delivered = ref 0 in
  for seq = 1 to total do
    Alcotest.(check bool)
      (Printf.sprintf "seq %d is new" seq)
      true
      (Recv_buffer.store b (packet ~seq) = `New);
    List.iter
      (fun p ->
        incr delivered;
        if p.Wire.seq <> !delivered then
          Alcotest.failf "delivered %d, expected %d" p.Wire.seq !delivered)
      (pop_all b);
    (* Keep a trailing window of 100 seqs, as stability gc would. *)
    if seq mod 100 = 0 then Recv_buffer.gc_below b (seq - 100)
  done;
  Alcotest.(check int) "every seq delivered once" total !delivered;
  Alcotest.(check bool) "window stays small" true
    (Recv_buffer.stored_count b <= 200)

let test_growth_when_stability_stalls () =
  (* No gc at all: the live window outgrows the initial ring and the
     buffer must expand rather than let distant seqs collide. 1 and
     1 + 4096 share a slot in any power-of-two ring up to 4096. *)
  let b = Recv_buffer.create () in
  ignore (Recv_buffer.store b (packet ~seq:1));
  ignore (Recv_buffer.store b (packet ~seq:4097));
  Alcotest.(check bool) "seq 1 still present" true (Recv_buffer.has b 1);
  Alcotest.(check bool) "seq 4097 present" true (Recv_buffer.has b 4097);
  Alcotest.(check int) "both stored" 2 (Recv_buffer.stored_count b);
  Alcotest.(check bool) "dup detection across growth" true
    (Recv_buffer.store b (packet ~seq:1) = `Duplicate);
  (* The gap list is still exact after re-placement. *)
  Alcotest.(check (list int)) "missing below grown seq"
    (List.init 5 (fun i -> i + 2))
    (Recv_buffer.missing_up_to b 6)

let test_gc_horizon_vs_wrapped_slot () =
  (* A seq at the same ring index as a gc'd one must read as absent
     (missing), while the gc'd seq itself reads as present — the
     horizon, not the slot, is authoritative below it. *)
  let b = Recv_buffer.create () in
  for seq = 1 to 10 do
    ignore (Recv_buffer.store b (packet ~seq))
  done;
  ignore (pop_all b);
  Recv_buffer.gc_below b 10;
  Alcotest.(check bool) "gc'd seq present via horizon" true (Recv_buffer.has b 7);
  let wrapped = 7 + 1024 in
  Alcotest.(check bool) "wrapped slot reads absent" false
    (Recv_buffer.has b wrapped);
  ignore (Recv_buffer.store b (packet ~seq:wrapped));
  Alcotest.(check bool) "wrapped seq stored in freed slot" true
    (Recv_buffer.has b wrapped)

let qcheck_random_arrival_order =
  QCheck.Test.make ~name:"delivery is 1..n in order for any arrival order"
    ~count:200
    QCheck.(int_range 1 60)
    (fun n ->
      let b = Recv_buffer.create () in
      let order = Array.init n (fun i -> i + 1) in
      let rng = Totem_engine.Rng.create ~seed:n in
      Totem_engine.Rng.shuffle rng order;
      let delivered = ref [] in
      Array.iter
        (fun seq ->
          ignore (Recv_buffer.store b (packet ~seq));
          delivered :=
            !delivered @ List.map (fun p -> p.Wire.seq) (pop_all b))
        order;
      !delivered = List.init n (fun i -> i + 1))

let tests =
  [
    Alcotest.test_case "in-order path" `Quick test_in_order;
    Alcotest.test_case "gap blocks delivery" `Quick test_gap_blocks_delivery;
    Alcotest.test_case "duplicates filtered" `Quick test_duplicates;
    Alcotest.test_case "missing ranges" `Quick test_missing_ranges;
    Alcotest.test_case "garbage collection" `Quick test_gc;
    Alcotest.test_case "gc never drops undelivered" `Quick
      test_gc_never_drops_undelivered;
    Alcotest.test_case "reset for new ring" `Quick test_reset;
    Alcotest.test_case "ring wraparound" `Quick test_ring_wraparound;
    Alcotest.test_case "growth when stability stalls" `Quick
      test_growth_when_stability_stalls;
    Alcotest.test_case "gc horizon vs wrapped slot" `Quick
      test_gc_horizon_vs_wrapped_slot;
    QCheck_alcotest.to_alcotest qcheck_random_arrival_order;
  ]
