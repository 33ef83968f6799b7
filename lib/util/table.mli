(** ASCII table rendering for experiment reports.

    Tables render in a GitHub-Markdown-compatible format so experiment
    output can be pasted directly into EXPERIMENTS.md. *)

type align = Left | Right

type t

val create : columns:(string * align) list -> t
(** [create ~columns] starts a table with the given header cells. *)

val add_row : t -> string list -> unit
(** @raise Invalid_argument if the row width differs from the header. *)

val add_separator : t -> unit
(** Insert a horizontal rule between row groups. *)

val render : t -> string
(** Render with column widths fitted to content. *)

val cell_mean_std : Stats.summary -> string
(** ["12.4 ± 0.8"]. *)
