(** Minimal CSV emission (RFC-4180 quoting) for experiment data files.

    Every figure rendered by the harness also persists its raw data as
    CSV so results can be re-plotted with external tooling. *)

val ensure_dir : string -> unit
(** Create a directory (and its parents) if missing. *)

val escape : string -> string
(** Quote a field if it contains a comma, quote, or newline. *)

val row_to_string : string list -> string
(** One CSV line, without the trailing newline. *)

val write : path:string -> header:string list -> rows:string list list -> unit
(** Write a whole file (header first). Creates parent directories as
    needed. *)
