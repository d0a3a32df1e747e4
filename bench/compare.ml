(* Regression gate over two BENCH_*.json baselines (totem-bench/v1).

   Usage:
     compare.exe [--targets a,b,...] [--max-alloc-regression PCT]
                 [--max-latency-regression PCT] OLD.json NEW.json

   At least one gate is required. Both read numbers that repeat exactly
   for a given tree, so a tight bound cannot be tripped by host load:

   --max-alloc-regression PCT diffs each shared target's
   gc.words_per_event and fails if it grew by more than PCT. Allocated
   words per simulated event is a counter, not a timing: it catches a
   hot path that started allocating. Targets without a gc block on
   either side (baselines predating the block) are skipped; a target
   that measured no simulator events (null) fails, since a zero
   compared with a zero says nothing.

   --max-latency-regression PCT diffs the per-style delivery-latency
   quantiles (p50/p90/p99/p999 ms) of the "latency" target and fails if
   any shared quantile grew by more than PCT. They are measured in
   virtual time. Quantiles null or missing on either side (older
   baselines lack p999_ms) are skipped.

   Targets of OLD.json missing from NEW.json are reported but do not
   fail: baselines grow targets over time, and an old file must stay
   usable as the reference. Fields this tool does not gate on (older
   baselines' wall_clock_sec and events_per_sec) are ignored. A
   --targets name absent from OLD.json fails.

   Exit status: 0 pass, 1 regression, 2 usage or input error, including
   two files that share no selected target.

   Wired into `dune runtest` as the bench-diff alias: the current
   tree's fig6, wire and latency targets against the committed
   baseline, and the gate itself on the fixture pair in fixtures/. *)

module Json = Totem_chaos.Chaos_json

let usage () =
  prerr_endline
    "usage: compare.exe [--targets a,b,...] [--max-alloc-regression PCT] \
     [--max-latency-regression PCT] OLD.json NEW.json";
  exit 2

let input_error fmt =
  Printf.ksprintf
    (fun msg ->
      prerr_endline ("compare: " ^ msg);
      exit 2)
    fmt

let read_file path =
  let ic =
    try open_in_bin path
    with Sys_error msg -> input_error "cannot open %s: %s" path msg
  in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

(* (name, target object) for every target of a totem-bench/v1 file. *)
let load path =
  let doc =
    match Json.parse (read_file path) with
    | Ok doc -> doc
    | Error msg -> input_error "%s: %s" path msg
  in
  (match Json.field doc "schema" with
  | Some (Json.Str "totem-bench/v1") -> ()
  | _ -> input_error "%s: not a totem-bench/v1 file" path);
  match Json.field doc "targets" with
  | Some (Json.Arr targets) ->
    List.map (fun t -> (Json.get_str t "name" path, t)) targets
  | _ -> input_error "%s: missing targets array" path

(* gc.words_per_event: None without a gc block, Some None for a
   non-numeric value (zero-event targets serialize null). *)
let words_per_event target =
  match Json.field target "gc" with
  | None -> None
  | Some gc -> (
    match Json.field gc "words_per_event" with
    | Some (Json.Num v) -> Some (Some v)
    | _ -> Some None)

(* style -> (quantile name, value in ms) list of a "latency" target.
   Only numeric quantiles count: null (empty probe), "inf" (histogram
   overflow) and absent keys are skipped. *)
let quantile_names = [ "p50_ms"; "p90_ms"; "p99_ms"; "p999_ms" ]

let latency_of target =
  match Json.field target "latency" with
  | Some (Json.Arr styles) ->
    List.map
      (fun s ->
        ( Json.get_str s "style" "latency",
          List.filter_map
            (fun name ->
              match Json.field s name with
              | Some (Json.Num v) -> Some (name, v)
              | _ -> None)
            quantile_names ))
      styles
  | _ -> []

let pct_change old_v new_v =
  if old_v = 0.0 then 0.0 else (new_v -. old_v) /. old_v *. 100.0

let () =
  let only = ref None in
  let max_latency = ref None in
  let max_alloc = ref None in
  let files = ref [] in
  let set_pct r v =
    match float_of_string_opt v with
    | Some p when p >= 0.0 -> r := Some p
    | _ -> usage ()
  in
  let rec parse_args = function
    | "--max-latency-regression" :: pct :: rest ->
      set_pct max_latency pct;
      parse_args rest
    | "--max-alloc-regression" :: pct :: rest ->
      set_pct max_alloc pct;
      parse_args rest
    | "--targets" :: names :: rest ->
      only := Some (String.split_on_char ',' names);
      parse_args rest
    | arg :: _ when String.length arg > 0 && arg.[0] = '-' -> usage ()
    | file :: rest ->
      files := file :: !files;
      parse_args rest
    | [] -> ()
  in
  parse_args (List.tl (Array.to_list Sys.argv));
  if !max_latency = None && !max_alloc = None then usage ();
  let old_path, new_path =
    match List.rev !files with [ a; b ] -> (a, b) | _ -> usage ()
  in
  let old_targets = load old_path and new_targets = load new_path in
  let wanted name =
    match !only with None -> true | Some names -> List.mem name names
  in
  let failed = ref false in
  let verdict regressed =
    if regressed then begin
      failed := true;
      "REGRESSION"
    end
    else "ok"
  in
  Option.iter
    (List.iter (fun name ->
         if not (List.mem_assoc name old_targets) then begin
           Printf.eprintf "compare: target %s not in %s\n" name old_path;
           failed := true
         end))
    !only;
  (* (name, old target, new target) for every selected target in both *)
  let shared =
    List.filter_map
      (fun (name, old_t) ->
        if not (wanted name) then None
        else
          match List.assoc_opt name new_targets with
          | None ->
            Printf.printf "%-12s missing from %s (skipped)\n" name new_path;
            None
          | Some new_t -> Some (name, old_t, new_t))
      old_targets
  in
  if shared = [] then
    input_error "no shared targets between %s and %s" old_path new_path;
  Option.iter
    (fun pct ->
      let compared = ref 0 in
      List.iter
        (fun (name, old_t, new_t) ->
          match (words_per_event old_t, words_per_event new_t) with
          | None, _ -> ()
          | Some _, None ->
            Printf.printf "alloc   %-16s missing gc block in %s (skipped)\n"
              name new_path
          | Some (Some old_wpe), Some (Some new_wpe) ->
            incr compared;
            let delta = pct_change old_wpe new_wpe in
            Printf.printf
              "alloc   %-16s %10.2f -> %10.2f words/event  %+7.2f%%  %s\n" name
              old_wpe new_wpe delta
              (verdict (delta > pct))
          | Some _, Some _ ->
            Printf.printf "alloc   %-16s measured no simulator events  FAIL\n"
              name;
            failed := true)
        shared;
      if !compared = 0 then begin
        Printf.eprintf
          "compare: --max-alloc-regression: no shared gc blocks between %s \
           and %s\n"
          old_path new_path;
        failed := true
      end)
    !max_alloc;
  Option.iter
    (fun pct ->
      let old_lat, new_lat =
        match List.find_opt (fun (name, _, _) -> name = "latency") shared with
        | Some (_, old_t, new_t) -> (latency_of old_t, latency_of new_t)
        | None -> ([], [])
      in
      let compared = ref 0 in
      List.iter
        (fun (style, old_qs) ->
          match List.assoc_opt style new_lat with
          | None ->
            Printf.printf "latency %-16s missing from %s (skipped)\n" style
              new_path
          | Some new_qs ->
            List.iter
              (fun (qname, old_ms) ->
                match List.assoc_opt qname new_qs with
                | None -> ()
                | Some new_ms ->
                  incr compared;
                  let delta = pct_change old_ms new_ms in
                  Printf.printf
                    "latency %-10s %-8s %10.3f -> %10.3f ms  %+7.1f%%  %s\n"
                    style qname old_ms new_ms delta
                    (verdict (delta > pct)))
              old_qs)
        old_lat;
      if !compared = 0 then begin
        Printf.eprintf
          "compare: --max-latency-regression: no shared latency quantiles \
           between %s and %s\n"
          old_path new_path;
        failed := true
      end)
    !max_latency;
  let gates =
    String.concat ", "
      (List.filter_map Fun.id
         [
           Option.map (Printf.sprintf "latency %.1f%%") !max_latency;
           Option.map (Printf.sprintf "alloc %.1f%%") !max_alloc;
         ])
  in
  if !failed then begin
    Printf.printf "FAIL: regression beyond threshold (%s)\n" gates;
    exit 1
  end
  else Printf.printf "PASS: %d target(s) (%s)\n" (List.length shared) gates
