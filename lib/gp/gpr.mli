(** Gaussian-process regression with exact Cholesky inference.

    Backs the GP-EI tuner baseline (the adaptive-sampling prior work
    the paper cites as [17], and DESIGN.md's TPE-vs-GP ablation).
    Targets are internally standardized; predictions are returned in
    the original scale. *)

type t

val fit : ?kernel:Kernel.t -> ?noise:float -> inputs:float array array -> targets:float array -> unit -> t
(** [fit ~inputs ~targets ()] conditions a GP on the data.
    [kernel] defaults to an RBF with lengthscale [sqrt d / 2] (a
    reasonable scale for one-hot encoded configuration vectors);
    [noise] (default 1e-4) is the observation-noise variance added to
    the Gram diagonal (jitter). Raises [Invalid_argument] on empty or
    mismatched data. *)

val n_train : t -> int

val predict : t -> float array -> float * float
(** [(mean, variance)] of the posterior at a point; variance is
    clamped to be non-negative. *)

val expected_improvement : t -> best:float -> float array -> float
(** EI for minimization against the incumbent [best] (original target
    scale): [E max(best - Y, 0)] under the posterior. *)

val log_marginal_likelihood : t -> float
(** Of the standardized targets, for kernel comparison. *)
