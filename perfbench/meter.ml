(* Accounting around every call the benchmark makes into the program.

   [call span f] runs [f] and adds the words it allocated (minor, and
   direct major) to the running totals; everything the benchmark itself
   allocates between calls is left out. With tracing on it also records
   a span: name, start and end on the {!Timeshare} clocks, and the
   enclosing span. Spans stay in memory until {!write_trace}. *)

let minor_words = ref 0.0
let direct_major_words = ref 0.0

(* Time spent inside program calls: raw and normalised seconds. Calls
   do not nest, so these never count an interval twice. *)
let call_raw = ref 0.0
let call_norm = ref 0.0

let words () = !minor_words +. !direct_major_words

(* --- span names ----------------------------------------------------- *)

let names : string array ref = ref [||]

let span name =
  let id = Array.length !names in
  names := Array.append !names [| name |];
  id

(* --- span storage --------------------------------------------------- *)

let tracing = ref false
let cap = ref 0
let count = ref 0
let s_name = ref [||]
let s_parent = ref [||]
let s_raw0 = ref [||]
let s_raw1 = ref [||]
let s_norm0 = ref [||]
let s_norm1 = ref [||]
let open_span = ref (-1)

let ensure () =
  if !count = !cap then begin
    let n = max 1024 (2 * !cap) in
    let grow_i a = let b = Array.make n 0 in Array.blit !a 0 b 0 !count; a := b in
    let grow_f a = let b = Array.make n 0.0 in Array.blit !a 0 b 0 !count; a := b in
    grow_i s_name;
    grow_i s_parent;
    grow_f s_raw0;
    grow_f s_raw1;
    grow_f s_norm0;
    grow_f s_norm1;
    cap := n
  end

let enter id =
  if !tracing then begin
    ensure ();
    let i = !count in
    count := i + 1;
    !s_name.(i) <- id;
    !s_parent.(i) <- !open_span;
    !s_raw0.(i) <- Timeshare.raw ();
    !s_norm0.(i) <- Timeshare.norm ();
    !s_raw1.(i) <- nan;
    !s_norm1.(i) <- nan;
    open_span := i;
    i
  end
  else -1

let leave i =
  if i >= 0 then begin
    !s_raw1.(i) <- Timeshare.raw ();
    !s_norm1.(i) <- Timeshare.norm ();
    open_span := !s_parent.(i)
  end

let with_span id f =
  let i = enter id in
  match f () with
  | r -> leave i; r
  | exception e -> leave i; raise e

let call id f =
  let i = enter id in
  let _, pro0, maj0 = Gc.counters () in
  let r0 = Timeshare.raw () and n0 = Timeshare.norm () in
  let w0 = Gc.minor_words () in
  let r = f () in
  let w1 = Gc.minor_words () in
  let r1 = Timeshare.raw () and n1 = Timeshare.norm () in
  let _, pro1, maj1 = Gc.counters () in
  minor_words := !minor_words +. (w1 -. w0);
  direct_major_words := !direct_major_words +. (maj1 -. pro1 -. (maj0 -. pro0));
  call_raw := !call_raw +. (r1 -. r0);
  call_norm := !call_norm +. (n1 -. n0);
  leave i;
  r

(* --- summaries ------------------------------------------------------ *)

type self_time = {
  st_name : string;
  st_count : int;
  st_total_raw : float;
  st_self_raw : float;
  st_total_norm : float;
  st_self_norm : float;
}

(* Per span name: count, total and self time (duration minus the part
   covered by child spans), raw and normalised. Spans are strictly
   nested, so children never overlap one another. *)
let self_times () =
  let n = Array.length !names in
  let cnt = Array.make n 0 in
  let tot_r = Array.make n 0.0 and self_r = Array.make n 0.0 in
  let tot_n = Array.make n 0.0 and self_n = Array.make n 0.0 in
  for i = 0 to !count - 1 do
    let id = !s_name.(i) in
    let dr = !s_raw1.(i) -. !s_raw0.(i) and dn = !s_norm1.(i) -. !s_norm0.(i) in
    cnt.(id) <- cnt.(id) + 1;
    tot_r.(id) <- tot_r.(id) +. dr;
    self_r.(id) <- self_r.(id) +. dr;
    tot_n.(id) <- tot_n.(id) +. dn;
    self_n.(id) <- self_n.(id) +. dn;
    let p = !s_parent.(i) in
    if p >= 0 then begin
      let pid = !s_name.(p) in
      self_r.(pid) <- self_r.(pid) -. dr;
      self_n.(pid) <- self_n.(pid) -. dn
    end
  done;
  List.filter_map
    (fun id ->
      if cnt.(id) = 0 then None
      else
        Some
          {
            st_name = !names.(id);
            st_count = cnt.(id);
            st_total_raw = tot_r.(id);
            st_self_raw = self_r.(id);
            st_total_norm = tot_n.(id);
            st_self_norm = self_n.(id);
          })
    (List.init n Fun.id)

let spans_recorded () = !count

(* Chrome trace-event JSON: one complete event per span (microseconds
   on the raw work clock) plus the self-time table. *)
let write_trace path =
  let oc = open_out path in
  output_string oc "{\"traceEvents\":[\n";
  for i = 0 to !count - 1 do
    Printf.fprintf oc
      "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%d,\"parent\":%d,\"norm_us\":%.3f}}\n"
      (if i = 0 then "" else ",")
      !names.(!s_name.(i))
      (!s_raw0.(i) *. 1e6)
      ((!s_raw1.(i) -. !s_raw0.(i)) *. 1e6)
      i !s_parent.(i)
      ((!s_norm1.(i) -. !s_norm0.(i)) *. 1e6)
  done;
  output_string oc "],\n\"selfTimes\":[\n";
  List.iteri
    (fun i st ->
      Printf.fprintf oc
        "%s{\"name\":\"%s\",\"count\":%d,\"total_raw_s\":%.6f,\"self_raw_s\":%.6f,\"total_norm_s\":%.6f,\"self_norm_s\":%.6f}\n"
        (if i = 0 then "" else ",")
        st.st_name st.st_count st.st_total_raw st.st_self_raw st.st_total_norm
        st.st_self_norm)
    (self_times ());
  output_string oc "]}\n";
  close_out oc
