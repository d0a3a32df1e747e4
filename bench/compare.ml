(* Regression gate over two BENCH_*.json baselines (totem-bench/v1).

   Usage:
     compare.exe [--max-regression PCT] [--min-speedup R] [--against NAME]
                 [--targets a,b,...] [--max-latency-regression PCT]
                 [--max-alloc-regression PCT]
                 OLD.json NEW.json

   Every run prints events_per_sec for every target present in both
   files (optionally restricted by --targets). Events/sec is wall-clock,
   and on a shared host it moves by more than any useful threshold with
   the code unchanged, so it is gated only on request: --max-regression
   PCT exits non-zero when any shared target regressed by more than
   PCT. Missing-in-new targets are reported but do not fail: baselines
   grow targets over time, and an old file must stay usable as the
   reference. Under a rate gate, a compared target that measured
   nothing on either side (sim_events null or 0, events_per_sec null)
   fails: a zero compared with a zero says nothing.

   --against NAME swaps the reference: every selected target of
   NEW.json is compared against the single target NAME of OLD.json.
   With --min-speedup R the gate becomes a ratio floor — every
   comparison must show new/old >= R, e.g.

     compare.exe --targets parallel-d8 --against parallel-d1 \
       --min-speedup 4 BENCH.json BENCH.json

   gates the parallel simulator core's scaling inside one baseline.

   --max-latency-regression PCT additionally diffs the per-style
   delivery-latency quantiles (p50/p90/p99/p999 ms) of the "latency"
   target and fails if any shared quantile grew by more than PCT.
   Latency quantiles are measured in virtual time, so they are
   deterministic across machines — unlike events_per_sec, a tight
   threshold cannot be tripped by load noise. Quantiles null or missing
   on either side (older baselines lack p999_ms) are skipped.

   --max-alloc-regression PCT diffs each shared target's
   gc.words_per_event and fails if it grew by more than PCT. Allocated
   words per simulated event is a counter, not a timing, so like the
   latency quantiles it is immune to machine noise — it catches a hot
   path that started allocating. Targets without a gc block on either
   side (baselines predating the block) are skipped.

   Wired into `dune runtest` as the bench-diff smoke: the current tree's
   wire and latency targets against the committed baseline, gated on
   words per event and on the latency quantiles, which both repeat
   exactly for a given tree; its events/sec lines are not gated. *)

module Json = Totem_chaos.Chaos_json

let usage () =
  prerr_endline
    "usage: compare.exe [--max-regression PCT] [--min-speedup R] [--against \
     NAME] [--targets a,b,...] [--max-latency-regression PCT] \
     [--max-alloc-regression PCT] OLD.json NEW.json";
  exit 2

let read_file path =
  let ic =
    try open_in_bin path
    with Sys_error msg ->
      Printf.eprintf "compare: cannot open %s: %s\n" path msg;
      exit 2
  in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

(* name -> events_per_sec for every target in a totem-bench/v1 file;
   None when the target measured no simulator events (null, or the 0 /
   0.0 that older baselines wrote). *)
let targets_of path =
  let doc =
    match Json.parse (read_file path) with
    | Ok doc -> doc
    | Error msg ->
      Printf.eprintf "compare: %s: %s\n" path msg;
      exit 2
  in
  (match Json.field doc "schema" with
  | Some (Json.Str "totem-bench/v1") -> ()
  | _ ->
    Printf.eprintf "compare: %s: not a totem-bench/v1 file\n" path;
    exit 2);
  match Json.field doc "targets" with
  | Some (Json.Arr targets) ->
    List.map
      (fun t ->
        let rate =
          match (Json.field t "sim_events", Json.field t "events_per_sec") with
          | Some (Json.Num events), Some (Json.Num rate) when events > 0.0 ->
            Some rate
          | _ -> None
        in
        (Json.get_str t "name" path, rate))
      targets
  | _ ->
    Printf.eprintf "compare: %s: missing targets array\n" path;
    exit 2

(* style -> (quantile name, value in ms) list from the "latency" target.
   Only numeric quantiles count: null (empty probe), "inf" (histogram
   overflow) and absent keys (older baselines lack p999_ms) are
   skipped, so old files stay usable as references. *)
let quantile_names = [ "p50_ms"; "p90_ms"; "p99_ms"; "p999_ms" ]

let latency_of path =
  let doc =
    match Json.parse (read_file path) with
    | Ok doc -> doc
    | Error msg ->
      Printf.eprintf "compare: %s: %s\n" path msg;
      exit 2
  in
  match Json.field doc "targets" with
  | Some (Json.Arr targets) -> (
    let is_latency t = Json.field t "name" = Some (Json.Str "latency") in
    match List.find_opt is_latency targets with
    | None -> []
    | Some t -> (
      match Json.field t "latency" with
      | Some (Json.Arr styles) ->
        List.map
          (fun s ->
            let style = Json.get_str s "style" path in
            let quantiles =
              List.filter_map
                (fun name ->
                  match Json.field s name with
                  | Some (Json.Num v) -> Some (name, v)
                  | _ -> None)
                quantile_names
            in
            (style, quantiles))
          styles
      | _ -> []))
  | _ -> []

(* name -> gc.words_per_event for every target carrying a gc block;
   None for a non-numeric value (zero-event targets serialize null).
   Targets without a block (baselines predating it) are absent, so old
   files stay usable as references. *)
let alloc_of path =
  let doc =
    match Json.parse (read_file path) with
    | Ok doc -> doc
    | Error msg ->
      Printf.eprintf "compare: %s: %s\n" path msg;
      exit 2
  in
  match Json.field doc "targets" with
  | Some (Json.Arr targets) ->
    List.filter_map
      (fun t ->
        match Json.field t "gc" with
        | Some gc -> (
          match Json.field gc "words_per_event" with
          | Some (Json.Num v) -> Some (Json.get_str t "name" path, Some v)
          | _ -> Some (Json.get_str t "name" path, None))
        | None -> None)
      targets
  | _ -> []

let () =
  let max_regression = ref None in
  let min_speedup = ref None in
  let against = ref None in
  let only = ref None in
  let max_latency_regression = ref None in
  let max_alloc_regression = ref None in
  let files = ref [] in
  let rec parse_args = function
    | "--max-regression" :: pct :: rest ->
      (match float_of_string_opt pct with
      | Some p when p >= 0.0 -> max_regression := Some p
      | _ -> usage ());
      parse_args rest
    | "--max-latency-regression" :: pct :: rest ->
      (match float_of_string_opt pct with
      | Some p when p >= 0.0 -> max_latency_regression := Some p
      | _ -> usage ());
      parse_args rest
    | "--max-alloc-regression" :: pct :: rest ->
      (match float_of_string_opt pct with
      | Some p when p >= 0.0 -> max_alloc_regression := Some p
      | _ -> usage ());
      parse_args rest
    | "--min-speedup" :: r :: rest ->
      (match float_of_string_opt r with
      | Some r when r > 0.0 -> min_speedup := Some r
      | _ -> usage ());
      parse_args rest
    | "--against" :: name :: rest ->
      against := Some name;
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
  let old_path, new_path =
    match List.rev !files with [ a; b ] -> (a, b) | _ -> usage ()
  in
  let old_targets = targets_of old_path and new_targets = targets_of new_path in
  let wanted name =
    match !only with None -> true | Some names -> List.mem name names
  in
  let failed = ref false in
  (* (label, reference rate, new rate) for every comparison to run *)
  let pairs =
    match !against with
    | None ->
      List.filter_map
        (fun (name, old_rate) ->
          if not (wanted name) then None
          else
            match List.assoc_opt name new_targets with
            | None ->
              Printf.printf "%-12s missing from %s (skipped)\n" name new_path;
              None
            | Some new_rate -> Some (name, old_rate, new_rate))
        old_targets
    | Some ref_name ->
      let ref_rate =
        match List.assoc_opt ref_name old_targets with
        | Some r -> r
        | None ->
          Printf.eprintf "compare: target %s not in %s\n" ref_name old_path;
          exit 2
      in
      List.filter_map
        (fun (name, new_rate) ->
          if wanted name && name <> ref_name then
            Some (Printf.sprintf "%s vs %s" name ref_name, ref_rate, new_rate)
          else None)
        new_targets
  in
  let rate_gated = !max_regression <> None || !min_speedup <> None in
  List.iter
    (fun (label, old_rate, new_rate) ->
      match (old_rate, new_rate) with
      | None, _ | _, None ->
        (* Nothing to compare: fail rather than read 0 against 0. *)
        let side = if new_rate = None then new_path else old_path in
        Printf.printf "%-24s measured no simulator events in %s  %s\n" label
          side
          (if rate_gated then "FAIL" else "(not gated)");
        if rate_gated then failed := true
      | Some old_rate, Some new_rate -> (
      match !min_speedup with
      | Some need ->
        let speedup =
          if old_rate = 0.0 then Float.infinity else new_rate /. old_rate
        in
        let verdict =
          if speedup < need then begin
            failed := true;
            "BELOW FLOOR"
          end
          else "ok"
        in
        Printf.printf "%-24s %12.1f -> %12.1f ev/s  %6.2fx (need %.2fx)  %s\n"
          label old_rate new_rate speedup need verdict
      | None ->
        let delta_pct =
          if old_rate = 0.0 then 0.0
          else (new_rate -. old_rate) /. old_rate *. 100.0
        in
        let verdict =
          match !max_regression with
          | None -> "(not gated)"
          | Some max when delta_pct < -.max ->
            failed := true;
            "REGRESSION"
          | Some _ -> "ok"
        in
        Printf.printf "%-24s %12.1f -> %12.1f ev/s  %+7.1f%%  %s\n" label
          old_rate new_rate delta_pct verdict))
    pairs;
  (match (!only, !against) with
  | Some names, None ->
    List.iter
      (fun name ->
        if not (List.mem_assoc name old_targets) then begin
          Printf.eprintf "compare: target %s not in %s\n" name old_path;
          failed := true
        end)
      names
  | Some names, Some _ ->
    List.iter
      (fun name ->
        if not (List.mem_assoc name new_targets) then begin
          Printf.eprintf "compare: target %s not in %s\n" name new_path;
          failed := true
        end)
      names
  | None, _ -> ());
  (match !max_latency_regression with
  | None -> ()
  | Some pct ->
    let old_lat = latency_of old_path and new_lat = latency_of new_path in
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
                let delta_pct =
                  if old_ms = 0.0 then 0.0
                  else (new_ms -. old_ms) /. old_ms *. 100.0
                in
                let verdict =
                  if delta_pct > pct then begin
                    failed := true;
                    "REGRESSION"
                  end
                  else "ok"
                in
                Printf.printf
                  "latency %-10s %-8s %10.3f -> %10.3f ms  %+7.1f%%  %s\n"
                  style qname old_ms new_ms delta_pct verdict)
            old_qs)
      old_lat;
    if !compared = 0 then begin
      Printf.eprintf
        "compare: --max-latency-regression: no shared latency quantiles \
         between %s and %s\n"
        old_path new_path;
      failed := true
    end);
  (match !max_alloc_regression with
  | None -> ()
  | Some pct ->
    let old_alloc = alloc_of old_path and new_alloc = alloc_of new_path in
    let compared = ref 0 in
    List.iter
      (fun (name, old_wpe) ->
        if wanted name then
          match List.assoc_opt name new_alloc with
          | None ->
            Printf.printf "alloc   %-16s missing gc block in %s (skipped)\n"
              name new_path
          | Some new_wpe -> (
            match (old_wpe, new_wpe) with
            | None, _ | _, None ->
              Printf.printf "alloc   %-16s measured no simulator events  FAIL\n"
                name;
              failed := true
            | Some old_wpe, Some new_wpe ->
            incr compared;
            let delta_pct =
              if old_wpe = 0.0 then 0.0
              else (new_wpe -. old_wpe) /. old_wpe *. 100.0
            in
            let verdict =
              if delta_pct > pct then begin
                failed := true;
                "REGRESSION"
              end
              else "ok"
            in
            Printf.printf
              "alloc   %-16s %10.2f -> %10.2f words/event  %+7.2f%%  %s\n" name
              old_wpe new_wpe delta_pct verdict))
      old_alloc;
    if !compared = 0 then begin
      Printf.eprintf
        "compare: --max-alloc-regression: no shared gc blocks between %s and \
         %s\n"
        old_path new_path;
      failed := true
    end);
  if pairs = [] then begin
    Printf.eprintf "compare: no shared targets between %s and %s\n" old_path
      new_path;
    exit 2
  end;
  let gates =
    match
      List.filter_map Fun.id
        [
          Option.map (Printf.sprintf "events/sec %.1f%%") !max_regression;
          Option.map (Printf.sprintf "latency %.1f%%") !max_latency_regression;
          Option.map (Printf.sprintf "alloc %.1f%%") !max_alloc_regression;
        ]
    with
    | [] -> "nothing gated"
    | gates -> String.concat ", " gates
  in
  if !failed then begin
    (match !min_speedup with
    | Some r -> Printf.printf "FAIL: events/sec speedup below %.2fx\n" r
    | None -> Printf.printf "FAIL: regression beyond threshold (%s)\n" gates);
    exit 1
  end
  else
    match !min_speedup with
    | Some r ->
      Printf.printf "PASS: %d comparison(s) at or above %.2fx\n"
        (List.length pairs) r
    | None -> Printf.printf "PASS: %d target(s) (%s)\n" (List.length pairs) gates
