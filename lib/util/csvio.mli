(** Minimal CSV emission (RFC-4180 quoting) for experiment data files.

    Every figure rendered by the harness also persists its raw data as
    CSV so results can be re-plotted with external tooling. *)

val ensure_dir : string -> unit
(** Create a directory (and its parents) if missing. *)

val write : path:string -> header:string list -> rows:string list list -> unit
(** Write a whole file (header first), one line per row, quoting a field
    that contains a comma, quote, or newline. Creates parent directories
    as needed. *)
