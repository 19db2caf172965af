(** Gaussian kernel density estimation.

    HiPerBOt estimates the densities of continuous parameters with
    Gaussian KDE using a fixed bandwidth (paper §III-B2). A
    Silverman's-rule bandwidth is also provided for the ablation bench
    in DESIGN.md. Sample weights support the transfer-learning prior
    mix (paper eqs. 9–10). *)

type t

val create : ?bandwidth:float -> float array -> t
(** [create xs] builds a KDE over the samples. The default bandwidth
    is a fixed fraction (10%) of the sample range, clamped away from
    zero — the paper's "gaussian kernels with a fixed bandwidth".
    Raises [Invalid_argument] on empty input. *)

val create_weighted : ?bandwidth:float -> (float * float) array -> t
(** [(sample, weight)] pairs; weights must be finite and non-negative
    with a positive sum, and an explicit [bandwidth] must be finite
    and positive. *)

val min_bandwidth : float
(** The bandwidth floor ([1e-6]) shared by every KDE constructor,
    including {!Hiperbot.Density}'s [Fixed_fraction] rule: degenerate
    data (point masses, zero-width ranges) is clamped here instead of
    producing a zero or denormal bandwidth. *)

val silverman_bandwidth : float array -> float
(** Silverman's rule of thumb: [0.9 * min(sigma, IQR/1.34) * n^(-1/5)],
    clamped to a small positive floor for degenerate data. *)

val bandwidth : t -> float
val n_samples : t -> int

val min_density : float
(** The density floor ([1e-300]) shared by every density lookup in the
    tuner: {!pdf} consumers clamp at this value before taking logs so
    log-space scores never see [-inf], and the naive and compiled
    scoring paths agree bit-for-bit on zero-density points. *)

val log_min_density : float
(** [log min_density], the corresponding log-space floor. *)

val pdf : t -> float -> float
(** Density at a point; integrates to 1 over the real line. *)

val log_pdf : t -> float -> float
(** [log (pdf t x)], floored at {!log_min_density} when the density
    underflows. *)

val pdf_grid : t -> float array -> float array
(** Evaluate {!pdf} once per grid point — the compiled scorer's
    batched KDE evaluation (one O(n_samples) pass per distinct
    candidate value instead of per candidate). *)

val sample : t -> Prng.Rng.t -> float
(** Draw from the estimated density (pick a kernel center by weight,
    then add Gaussian noise) — the Proposal selection strategy of
    paper §III-D. *)

val merge_weighted : prior:t -> w:float -> t -> t
(** Weighted-prior mix: the result's sample set is the union, with the
    prior's weights scaled by [w] (paper eqs. 9–10); [w] must be
    finite and non-negative.

    The prior's centers are deliberately re-evaluated with the
    {e target's} bandwidth, not the prior's own: the paper's estimator
    uses one fixed bandwidth per parameter, and after the merge the
    target domain's data owns it. A prior fitted with a much narrower
    bandwidth therefore loses its extra resolution on merge — the
    alternative (a two-component mixture keeping both bandwidths)
    would break the single-estimator invariant the compiled scorer's
    per-grid-cell tables rely on. *)
