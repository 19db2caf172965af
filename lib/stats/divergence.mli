(** Divergences between probability distributions.

    Parameter-importance analysis (paper §VI) ranks parameters by the
    Jensen–Shannon divergence between the good and bad per-parameter
    densities (paper eqs. 13–14). Discrete distributions are given as
    probability vectors; continuous densities are compared on a shared
    evaluation grid. *)

val kl : float array -> float array -> float
(** [kl p q] is the Kullback–Leibler divergence D_KL(P ‖ Q) in nats.
    Zero-probability entries of [p] contribute zero; a positive [p]
    entry against a zero [q] entry yields [infinity]. Inputs must be
    the same length and each sum to approximately 1. *)

val js : float array -> float array -> float
(** Jensen–Shannon divergence (eq. 13). Symmetric, finite, bounded by
    log 2, and zero iff the distributions are identical. *)

val js_of_pdfs : lo:float -> hi:float -> n:int -> (float -> float) -> (float -> float) -> float
(** JS divergence between two continuous densities, approximated by
    discretizing both onto [n] equal-width cells spanning [lo, hi] and
    renormalizing. Used for continuous parameters in the importance
    analysis. *)
