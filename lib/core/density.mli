(** Per-parameter probability density.

    HiPerBOt's surrogate factorizes the configuration densities
    pg(x) and pb(x) across parameters (paper eqs. 7-8); this module is
    one factor. Discrete parameters are estimated with smoothed
    histograms (paper §III-B1), continuous ones with Gaussian KDE
    (§III-B2). A [Uniform] variant covers the no-observations case so
    a surrogate is always well-defined. *)

type options = {
  smoothing : float;  (** Laplace smoothing for discrete histograms *)
  bandwidth_fraction : float;
      (** KDE bandwidth = fraction * (hi - lo) of the parameter's
          range — the paper's fixed-bandwidth choice; must be finite
          and non-negative *)
}

val default_options : options
(** smoothing 1.0, bandwidth fraction 0.1. *)

type t

val fit : ?options:options -> Param.Spec.t -> Param.Value.t array -> t
(** Estimate the density of one parameter from observed values. An
    empty observation array yields the uniform density. Values must
    match the spec. *)

val uniform : Param.Spec.t -> t

val pdf : t -> Param.Value.t -> float
(** Probability (discrete) or density (continuous) of a value. Always
    strictly positive for in-domain values. *)

val log_pdf_table : t -> Param.Value.t array -> float array
(** [log (pdf t v)] for each value, computed in one batched pass: the
    histogram normalization is folded in once per category and the KDE
    is evaluated once per distinct value. Entries equal
    [log (pdf t v)] bit-for-bit — this is the building block of the
    compiled scorer ({!Surrogate.compile}). *)

val sample : t -> Prng.Rng.t -> Param.Value.t
(** Draw a value (continuous draws are clamped to the spec's range). *)

val merge_prior : prior:t -> w:float -> t -> t
(** Weighted prior mix (paper eqs. 9-10): the prior's observations
    count [w] times. [w] must be finite and non-negative; [w = 0.]
    returns the target unchanged, so a zero-weight prior is exactly
    the no-prior surrogate.

    When both sides are fitted from observations the merge happens in
    count space (weighted histogram/KDE union). When either side is
    [Uniform] there are no counts to merge, so the result is a
    probability-space mixture [(pdf target + w * pdf prior) / (1 + w)]
    — the target keeps unit mass and the prior enters at mass [w],
    recovering the target as [w -> 0] and the prior as [w -> infinity].
    Repeated merges accumulate mixture components, which is how
    multi-source transfer folds several priors into one factor. *)

val js_divergence : Param.Spec.t -> t -> t -> float
(** Jensen-Shannon divergence between two densities of the same
    parameter (paper §VI): exact over categories for discrete
    parameters, grid-approximated over the spec's range for continuous
    ones. *)
