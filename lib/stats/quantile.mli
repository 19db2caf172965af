(** Quantile estimation.

    HiPerBOt splits its observation history into "good" and "bad"
    halves at an α-quantile of the observed objective values (paper
    §II, §III-C). The estimator here is linear interpolation between
    order statistics (type 7 in the Hyndman–Fan taxonomy, the default
    in R and NumPy). *)

val quantile : float array -> float -> float
(** [quantile xs q] for [q] in [0, 1]. Raises [Invalid_argument] on
    empty data, [q] outside [0, 1], or any non-finite entry (NaN and
    infinities have no meaningful rank). Input need not be sorted. *)

val quantile_sorted : float array -> float -> float
(** Same, assuming [xs] is already sorted ascending (no copy). Also
    rejects non-finite entries. *)

val percentile_rank : float array -> float -> float
(** [percentile_rank xs v] is the fraction of entries strictly below
    [v]. Raises [Invalid_argument] on empty data or when [v] or any
    entry is non-finite (NaN compares false against everything and
    would silently yield a 0-ish rank). *)

val split_at_quantile : float array -> float -> float * int array * int array
(** [split_at_quantile ys alpha] returns [(threshold, good, bad)]
    where [good] are indices with [ys.(i) < threshold] and [bad] the
    rest — with the guarantee that [good] is non-empty whenever
    [Array.length ys >= 2] (the smallest observation is always good,
    mirroring the paper's "best so far" intuition). *)
