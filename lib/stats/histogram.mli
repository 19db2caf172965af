(** Smoothed categorical histograms.

    HiPerBOt estimates the per-parameter densities [pg] and [pb] of
    discrete parameters with histograms over the parameter's category
    set (paper §III-B1). We add Laplace (add-[smoothing]) smoothing so
    that unseen categories keep non-zero mass — without it the
    expected-improvement ratio pg/pb degenerates to 0/0 for values
    never observed, and exploration stops. *)

type t

val create : ?smoothing:float -> n_categories:int -> unit -> t
(** Fresh histogram over categories [0 .. n_categories-1].
    [smoothing] defaults to 1.0 (add-one). *)

val n_categories : t -> int
val observe : t -> int -> unit
(** Add one observation of a category. Raises [Invalid_argument] when
    the category is out of range. *)

val observe_weighted : t -> int -> float -> unit
(** Add a fractionally-weighted observation (used by transfer-learning
    priors, paper eqs. 9–10). *)

val count : t -> int -> float
(** Raw (weighted) count for a category, without smoothing. *)

val total : t -> float
(** Total weighted count, without smoothing. *)

val prob : t -> int -> float
(** Smoothed probability of a category; probabilities over all
    categories sum to 1. *)

val probs : t -> float array
(** Smoothed probability vector, summing to 1. *)

val merge_weighted : prior:t -> w:float -> t -> t
(** [merge_weighted ~prior ~w h] is a histogram whose raw counts are
    [w * prior + h] — the weighted-sum prior construction of paper
    eqs. 9–10. Both histograms must have the same category count. *)

val copy : t -> t
