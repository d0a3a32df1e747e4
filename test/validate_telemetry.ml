(* Validator for the telemetry export formats, run from the bench-smoke
   alias: checks that a totem_sim trace (--trace-out) is well-formed
   JSONL with monotone timestamps and that a metrics dump
   (--metrics-out) is a well-formed totem-metrics/v1 document. The JSON
   parser is deliberately minimal — no dependency, strict enough to
   catch an exporter emitting unescaped strings, bad numbers, or
   trailing commas.

   Usage: validate_telemetry [--trace FILE] [--metrics FILE] *)

type json =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of json list
  | Obj of (string * json) list

exception Bad of string

let bad fmt = Printf.ksprintf (fun s -> raise (Bad s)) fmt

(* --- parser --------------------------------------------------------- *)

type cursor = { text : string; mutable pos : int }

let peek c = if c.pos < String.length c.text then Some c.text.[c.pos] else None

let advance c = c.pos <- c.pos + 1

let skip_ws c =
  let rec go () =
    match peek c with
    | Some (' ' | '\t' | '\n' | '\r') ->
      advance c;
      go ()
    | _ -> ()
  in
  go ()

let expect c ch =
  match peek c with
  | Some x when x = ch -> advance c
  | Some x -> bad "at byte %d: expected '%c', found '%c'" c.pos ch x
  | None -> bad "at byte %d: expected '%c', found end of input" c.pos ch

let literal c word value =
  String.iter (fun ch -> expect c ch) word;
  value

let parse_string c =
  expect c '"';
  let buf = Buffer.create 16 in
  let rec go () =
    match peek c with
    | None -> bad "unterminated string at byte %d" c.pos
    | Some '"' -> advance c
    | Some '\\' ->
      advance c;
      (match peek c with
      | Some '"' -> Buffer.add_char buf '"'
      | Some '\\' -> Buffer.add_char buf '\\'
      | Some '/' -> Buffer.add_char buf '/'
      | Some 'n' -> Buffer.add_char buf '\n'
      | Some 't' -> Buffer.add_char buf '\t'
      | Some 'r' -> Buffer.add_char buf '\r'
      | Some 'b' -> Buffer.add_char buf '\b'
      | Some 'f' -> Buffer.add_char buf '\012'
      | Some 'u' ->
        if c.pos + 4 >= String.length c.text then
          bad "truncated \\u escape at byte %d" c.pos;
        let hex = String.sub c.text (c.pos + 1) 4 in
        (match int_of_string_opt ("0x" ^ hex) with
        | Some code when code < 0x80 -> Buffer.add_char buf (Char.chr code)
        | Some _ -> Buffer.add_char buf '?' (* non-ASCII: presence is enough *)
        | None -> bad "bad \\u escape \"%s\" at byte %d" hex c.pos);
        c.pos <- c.pos + 4
      | _ -> bad "bad escape at byte %d" c.pos);
      advance c;
      go ()
    | Some ch when Char.code ch < 0x20 ->
      bad "unescaped control character 0x%02x at byte %d" (Char.code ch) c.pos
    | Some ch ->
      Buffer.add_char buf ch;
      advance c;
      go ()
  in
  go ();
  Buffer.contents buf

let parse_number c =
  let start = c.pos in
  let numeric = function
    | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
    | _ -> false
  in
  let rec go () =
    match peek c with
    | Some ch when numeric ch ->
      advance c;
      go ()
    | _ -> ()
  in
  go ();
  let s = String.sub c.text start (c.pos - start) in
  match float_of_string_opt s with
  | Some f -> Num f
  | None -> bad "bad number \"%s\" at byte %d" s start

let rec parse_value c =
  skip_ws c;
  match peek c with
  | None -> bad "unexpected end of input at byte %d" c.pos
  | Some '{' ->
    advance c;
    skip_ws c;
    if peek c = Some '}' then begin
      advance c;
      Obj []
    end
    else begin
      let rec members acc =
        skip_ws c;
        let key = parse_string c in
        skip_ws c;
        expect c ':';
        let v = parse_value c in
        skip_ws c;
        match peek c with
        | Some ',' ->
          advance c;
          members ((key, v) :: acc)
        | Some '}' ->
          advance c;
          Obj (List.rev ((key, v) :: acc))
        | _ -> bad "expected ',' or '}' at byte %d" c.pos
      in
      members []
    end
  | Some '[' ->
    advance c;
    skip_ws c;
    if peek c = Some ']' then begin
      advance c;
      Arr []
    end
    else begin
      let rec elements acc =
        let v = parse_value c in
        skip_ws c;
        match peek c with
        | Some ',' ->
          advance c;
          elements (v :: acc)
        | Some ']' ->
          advance c;
          Arr (List.rev (v :: acc))
        | _ -> bad "expected ',' or ']' at byte %d" c.pos
      in
      elements []
    end
  | Some '"' -> Str (parse_string c)
  | Some 't' -> literal c "true" (Bool true)
  | Some 'f' -> literal c "false" (Bool false)
  | Some 'n' -> literal c "null" Null
  | Some _ -> parse_number c

let parse_document text =
  let c = { text; pos = 0 } in
  let v = parse_value c in
  skip_ws c;
  if c.pos <> String.length text then
    bad "trailing garbage at byte %d" c.pos;
  v

(* --- validation ----------------------------------------------------- *)

let field obj name =
  match obj with
  | Obj kvs -> List.assoc_opt name kvs
  | _ -> None

let require_num obj name where =
  match field obj name with
  | Some (Num f) -> f
  | Some _ -> bad "%s: \"%s\" is not a number" where name
  | None -> bad "%s: missing \"%s\"" where name

let require_str obj name where =
  match field obj name with
  | Some (Str s) -> s
  | Some _ -> bad "%s: \"%s\" is not a string" where name
  | None -> bad "%s: missing \"%s\"" where name

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

(* Every line an object carrying at least t_ns + type, timestamps
   monotone non-decreasing (the trace is emitted in simulation order).
   A token_tx line also names its node, the successor it forwarded to
   and the token's aru: no string line repeats those any more. *)
let validate_trace path =
  let ic = open_in path in
  let lines = ref 0 and last_t = ref neg_infinity in
  (try
     while true do
       let line = input_line ic in
       if String.trim line <> "" then begin
         incr lines;
         let where = Printf.sprintf "%s:%d" path !lines in
         let v =
           try parse_document line
           with Bad m -> bad "%s: %s" where m
         in
         (match v with Obj _ -> () | _ -> bad "%s: not a JSON object" where);
         let t = require_num v "t_ns" where in
         if require_str v "type" where = "token_tx" then
           List.iter
             (fun k -> ignore (require_num v k where))
             [ "node"; "dst"; "aru"; "rtr_len" ];
         if t < !last_t then
           bad "%s: t_ns %.0f goes backwards (previous %.0f)" where t !last_t;
         last_t := t
       end
     done
   with End_of_file -> ());
  close_in ic;
  if !lines = 0 then bad "%s: empty trace" path;
  Printf.printf "trace %s: %d events ok\n" path !lines

let validate_bucket where b =
  (match field b "le" with
  | Some (Num _) | Some (Str "inf") -> ()
  | Some _ -> bad "%s: bucket \"le\" is neither a number nor \"inf\"" where
  | None -> bad "%s: bucket missing \"le\"" where);
  ignore (require_num b "n" where)

let validate_metric where m =
  let name = require_str m "name" where in
  let where = Printf.sprintf "%s (metric %s)" where name in
  match require_str m "type" where with
  | "counter" | "gauge" -> ignore (require_num m "value" where)
  | "histogram" ->
    let count = require_num m "count" where in
    (match field m "buckets" with
    | Some (Arr bs) ->
      List.iter (validate_bucket where) bs;
      let total =
        List.fold_left (fun acc b -> acc +. require_num b "n" where) 0.0 bs
      in
      if total <> count then
        bad "%s: bucket counts sum to %.0f, \"count\" says %.0f" where total
          count
    | Some _ -> bad "%s: \"buckets\" is not an array" where
    | None -> bad "%s: missing \"buckets\"" where)
  | ty -> bad "%s: unknown metric type \"%s\"" where ty

let validate_metrics path =
  let v =
    try parse_document (read_file path) with Bad m -> bad "%s: %s" path m
  in
  (match field v "schema" with
  | Some (Str "totem-metrics/v1") -> ()
  | Some (Str s) -> bad "%s: unexpected schema \"%s\"" path s
  | _ -> bad "%s: missing \"schema\"" path);
  match field v "metrics" with
  | Some (Arr ms) ->
    if ms = [] then bad "%s: empty metrics registry" path;
    List.iter (validate_metric path) ms;
    Printf.printf "metrics %s: %d metrics ok\n" path (List.length ms)
  | Some _ -> bad "%s: \"metrics\" is not an array" path
  | None -> bad "%s: missing \"metrics\"" path

let () =
  let rec go = function
    | [] -> ()
    | "--trace" :: path :: rest ->
      validate_trace path;
      go rest
    | "--metrics" :: path :: rest ->
      validate_metrics path;
      go rest
    | arg :: _ ->
      prerr_endline ("usage: validate_telemetry [--trace FILE] [--metrics FILE]");
      prerr_endline ("unknown argument: " ^ arg);
      exit 2
  in
  try go (List.tl (Array.to_list Sys.argv))
  with Bad m ->
    prerr_endline ("validate_telemetry: " ^ m);
    exit 1
