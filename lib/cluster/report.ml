type row = {
  label : string;
  cells : float array;
}

let hrule out width = Format.fprintf out "%s@." (String.make width '-')

let print_table ?(out = Format.std_formatter) ~title ~columns rows =
  let label_width =
    List.fold_left (fun w r -> max w (String.length r.label)) 14 rows
  in
  let cell_width =
    Array.fold_left (fun w c -> max w (String.length c + 2)) 12 columns
  in
  let width = label_width + (Array.length columns * cell_width) in
  hrule out width;
  Format.fprintf out "%s@." title;
  hrule out width;
  Format.fprintf out "%-*s" label_width "";
  Array.iter (fun c -> Format.fprintf out "%*s" cell_width c) columns;
  Format.fprintf out "@.";
  List.iter
    (fun r ->
      Format.fprintf out "%-*s" label_width r.label;
      Array.iter (fun v -> Format.fprintf out "%*.1f" cell_width v) r.cells;
      Format.fprintf out "@.")
    rows;
  hrule out width

let print_series ?(out = Format.std_formatter) ~title ~x_label ~xs series =
  let columns = Array.of_list (List.map fst series) in
  let rows =
    Array.to_list
      (Array.mapi
         (fun i x ->
           {
             label = Printf.sprintf "%s=%d" x_label x;
             cells = Array.of_list (List.map (fun (_, ys) -> ys.(i)) series);
           })
         xs)
  in
  print_table ~out ~title ~columns rows

let csv_of_series ~x_label ~xs ~series =
  let buf = Buffer.create 256 in
  Buffer.add_string buf x_label;
  List.iter
    (fun (name, _) ->
      Buffer.add_char buf ',';
      Buffer.add_string buf name)
    series;
  Buffer.add_char buf '\n';
  Array.iteri
    (fun i x ->
      Buffer.add_string buf (string_of_int x);
      List.iter
        (fun (_, ys) -> Buffer.add_string buf (Printf.sprintf ",%.2f" ys.(i)))
        series;
      Buffer.add_char buf '\n')
    xs;
  Buffer.contents buf

(* A terminal rendering of one figure: log-scaled x (message length),
   optionally log-scaled y, one marker letter per series. *)
let ascii_plot ?(out = Format.std_formatter) ?(height = 18) ?(width = 64)
    ~title ~log_y ~xs series =
  if Array.length xs >= 2 && series <> [] then begin
    let fx v = log (float_of_int v) in
    let x_min = fx xs.(0) and x_max = fx xs.(Array.length xs - 1) in
    let ys = List.concat_map (fun (_, a) -> Array.to_list a) series in
    let ys = List.filter (fun v -> v > 0.0) ys in
    let fy v = if log_y then log v else v in
    let y_min = List.fold_left min infinity (List.map fy ys) in
    let y_max = List.fold_left max neg_infinity (List.map fy ys) in
    let y_span = if y_max -. y_min <= 0.0 then 1.0 else y_max -. y_min in
    let x_span = if x_max -. x_min <= 0.0 then 1.0 else x_max -. x_min in
    let grid = Array.make_matrix height width ' ' in
    let plot marker x y =
      if y > 0.0 then begin
        let col =
          int_of_float ((fx x -. x_min) /. x_span *. float_of_int (width - 1))
        in
        let row =
          height - 1
          - int_of_float ((fy y -. y_min) /. y_span *. float_of_int (height - 1))
        in
        let row = max 0 (min (height - 1) row) in
        let col = max 0 (min (width - 1) col) in
        grid.(row).(col) <- (if grid.(row).(col) = ' ' then marker else '*')
      end
    in
    List.iteri
      (fun si (_, values) ->
        let marker = Char.chr (Char.code 'a' + si) in
        Array.iteri (fun i x -> plot marker x values.(i)) xs)
      series;
    Format.fprintf out "%s@." title;
    Array.iteri
      (fun row line ->
        let label =
          if row = 0 then Printf.sprintf "%9.0f |" (if log_y then exp y_max else y_max)
          else if row = height - 1 then
            Printf.sprintf "%9.0f |" (if log_y then exp y_min else y_min)
          else "          |"
        in
        Format.fprintf out "%s%s@." label (String.init width (Array.get line)))
      grid;
    Format.fprintf out "          +%s@." (String.make width '-');
    Format.fprintf out "           %-10d%*d   (bytes, log scale)@." xs.(0)
      (width - 13) xs.(Array.length xs - 1);
    List.iteri
      (fun si (name, _) ->
        Format.fprintf out "           %c = %s@." (Char.chr (Char.code 'a' + si)) name)
      series
  end

let ratio a b = if b = 0.0 then 0.0 else a /. b
