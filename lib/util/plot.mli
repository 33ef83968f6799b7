(** ASCII line/scatter plots for the paper's "figures".

    The harness has no graphics stack available offline, so figures are
    rendered as fixed-size character grids: good enough to eyeball the
    shape of a curve (flat, logarithmic, quadratic) which is what the
    reproduction's shape-claims are about. The underlying data is always
    also emitted as CSV (see {!Csvio}). *)

type series = { label : string; points : (float * float) list }

val render :
  ?logx:bool ->
  ?logy:bool ->
  title:string ->
  xlabel:string ->
  ylabel:string ->
  series list ->
  string
(** Render one or more series on a shared 64 × 18 grid. Each series is drawn with
    its own glyph and listed in a legend beneath the plot. Log-scaled axes
    drop non-positive points. An empty series list (or series with no
    plottable points) renders a placeholder message. *)
