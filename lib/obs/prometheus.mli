(** Prometheus text exposition format (version 0.0.4) for a
    {!Metric.registry}.

    Output is deterministic: families sorted by name, series by label set,
    so a fixed registry renders byte-stable text (goldens pin this). *)

val expose : Metric.registry -> string
(** [# HELP]/[# TYPE] lines per family, then one line per series;
    histograms render cumulative [_bucket] lines (including [le="+Inf"]),
    [_sum] and [_count]. *)

val escape_label_value : string -> string
(** A label value escaped for the exposition format: backslash, double quote
    and newline. *)

val fmt_value : float -> string
(** Prometheus number rendering: integers without a decimal point, [+Inf],
    [-Inf] and [NaN] spelled the Prometheus way. *)
