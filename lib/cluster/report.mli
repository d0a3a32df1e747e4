(** Tabular output for experiment results (the rows of Figs. 6–9). *)

type row = {
  label : string;
  cells : float array;
}

val print_table :
  ?out:Format.formatter ->
  title:string ->
  columns:string array ->
  row list ->
  unit
(** Fixed-width aligned table with a title banner. *)

val print_series :
  ?out:Format.formatter ->
  title:string ->
  x_label:string ->
  xs:int array ->
  (string * float array) list ->
  unit
(** One row per x value, one column per named series — the layout used
    for each figure reproduction. *)

val csv_of_series :
  x_label:string -> xs:int array -> series:(string * float array) list -> string

val ascii_plot :
  ?out:Format.formatter ->
  ?height:int ->
  ?width:int ->
  title:string ->
  log_y:bool ->
  xs:int array ->
  (string * float array) list ->
  unit
(** A terminal rendering of one figure: log-scaled x, one marker letter
    per series ([*] where series overlap), legend below — the visual
    counterpart of the paper's Figures 6–9. *)

val ratio : float -> float -> float
(** [ratio a b] is [a /. b], 0 when [b] is 0 — for win-factor checks. *)
