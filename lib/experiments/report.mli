(** Output context shared by every experiment.

    Experiment text (tables, figures, fit summaries) is written to stdout
    and simultaneously captured so the suite can persist the full report;
    raw data goes to CSV files under the results directory.

    A result table is one {!table} over one {!grid}: the experiment
    names its row and column keys and a function that measures one
    (row, column, seed); {!grid} runs every triple on the pool, and
    {!table} renders the markdown and the long-form CSV from the same
    cells. *)

open Repro_util

type t

val create : results_dir:string -> t

val emit : t -> string -> unit
(** Write a chunk of report text (caller includes its own newlines). *)

val section : t -> id:string -> title:string -> unit
(** Emit a standard section header. *)

val csv : t -> name:string -> header:string list -> rows:string list list -> unit
(** Queue [rows] for [results_dir/name.csv]. The file is written, and a
    [(data: …)] note added to the report, at the next {!emit},
    {!section} or {!captured}; until then, further rows for the same
    [name] (from {!csv} or {!table}) join the same file. *)

type ('r, 'c, 'a) cells = ('r * ('c * 'a list) list) list
(** Per row, per column, the results of every seed, in the order given. *)

val grid :
  ?jobs:int -> seeds:int list -> 'r list -> 'c list -> ('r -> 'c -> int -> 'a) -> ('r, 'c, 'a) cells
(** [grid ~seeds rows cols measure] runs [measure r c seed] for every
    (row, column, seed) as one flat batch on a {!Repro_util.Pool} of
    [jobs] workers (default {!Repro_util.Pool.default_jobs}) and
    regroups the results in (row, column, seed) order, so the cells are
    identical at any [jobs]. [measure] runs on worker domains: it must
    not touch shared mutable state. *)

val table :
  t ->
  ?csv:string * string list ->
  header:(string * Table.align) list ->
  row:('r -> string list * string list) ->
  col:('c -> string list) ->
  cell:('r -> 'c -> 'a list -> string list * string list) ->
  ?rule:('r -> bool) ->
  ?notes:string ->
  ('r, 'c, 'a) cells ->
  unit
(** Emit one markdown table, then [notes], and queue its data as
    {!csv} [(name, csv_header)]: one line per cell.

    - [row r] is [(label, key)]: the row's leading table cells and its
      leading CSV fields.
    - [col c] is the column's CSV fields, between the row's key and the
      cell's fields.
    - [cell r c results] is [(shown, fields)]: the table cells (one per
      header column of [c]) and the cell's raw CSV fields.
    - [header] names every table column: the row labels', then each
      column's shown cells.
    - [rule r] draws a horizontal rule above row [r].

    Without [csv] the table has no data file. *)

val captured : t -> string
(** Everything emitted so far, queued data notes included. *)
