(** Safeguarded transfer: per-source quality gating.

    A transfer prior helps exactly when it ranks target configurations
    the way the target objective does. This module watches that rank
    agreement {e during} the campaign: at every surrogate refit (once
    enough target evidence exists), each source prior's score over the
    campaign's {e unbiased anchor set} — the random-init observations,
    plus any warm-start data — is rank-correlated with the observed
    objective, and the agreement is folded into an exponentially-
    smoothed trust score.

    Anchoring to the unbiased sample is the load-bearing choice.
    Prior-guided evaluations cluster where the prior already scores
    well, so statistics over them are self-confirming: measured on the
    full history (or on a surrogate fitted to it), a harmful prior is
    indistinguishable from a helpful one. Only the observations the
    prior did not pick can convict it.
    A source whose trust decays below the threshold is first
    attenuated (weight scaled toward zero in proportion to its trust)
    and, after [hysteresis] consecutive below-threshold refits, hard-
    dropped for the remainder of the campaign. When every source has
    been dropped the pooled prior is gone entirely and the campaign's
    refits are bit-identical to a no-prior campaign's from that refit
    onward — negative transfer is contained, not merely damped.

    The gate consumes no rng and is a pure function of the refit
    sequence, so gated campaigns keep every determinism invariant of
    the engines they run in (resume bit-parity, async k=1 parity,
    traced = untraced). *)

type options = {
  threshold : float;  (** trust level below which a source is suspect; in (0, 1) *)
  hysteresis : int;
      (** consecutive below-threshold refits before a hard drop (>= 1);
          one noisy refit cannot drop a source when this is >= 2 *)
  smoothing : float;
      (** EMA weight of the newest agreement, in (0, 1]; 1 disables
          smoothing (trust = latest agreement) *)
  min_obs : int;
      (** target observations required before trust updates begin;
          below this the gate is inert and priors pass through
          untouched *)
}

val default_options : options
(** threshold 0.7, hysteresis 2, smoothing 0.5, min_obs 25 —
    calibrated on the paper's kripke/hypre 16->64 pairs, where the
    helpful kripke prior's anchor agreement sits at 0.80-0.93 across
    seeds and the harmful hypre prior's at 0.28-0.58 (bench seeds):
    kripke is never gated while hypre is dropped within three trust
    updates of the first refit (see bench/transfer_bench.ml). *)

val validate_options : options -> unit
(** Raises [Invalid_argument] on out-of-range options (threshold and
    smoothing outside (0, 1), hysteresis or min_obs below 1). *)

type status = Active | Attenuated | Dropped

val status_to_string : status -> string
(** ["active"], ["attenuated"], or ["dropped"]. *)

type action =
  | Attenuate  (** trust fell below the threshold *)
  | Restore  (** trust recovered above the threshold before the drop latched *)
  | Drop  (** hysteresis exhausted: the source is out for the campaign *)
  | Fallback  (** the last live source dropped; the pooled prior is gone *)

val action_to_string : action -> string

type snapshot = {
  s_refit : int;  (** trust-update ordinal (refits past [min_obs]) *)
  s_source : int;
  s_agreement : float;  (** this refit's raw agreement in [0, 1] *)
  s_trust : float;  (** smoothed trust after this update *)
  s_weight : float;  (** effective weight handed to the surrogate fit *)
  s_status : status;
}
(** Per-source telemetry record, one per live source per trust update. *)

type decision = {
  d_refit : int;
  d_source : int;  (** source index; -1 for the pooled [Fallback] *)
  d_action : action;
  d_trust : float;
  d_below : int;  (** consecutive below-threshold refits after this update *)
}
(** A status transition — what gets persisted to the run log. *)

type t
(** Mutable per-campaign gate state (one trust record per source). *)

val create : options:options -> n_sources:int -> t
(** Fresh state: every source starts with trust 1 and full weight.
    Raises [Invalid_argument] on out-of-range options or
    [n_sources < 1]. *)

val n_updates : t -> int
(** Trust updates performed so far (refit ordinal of the next update). *)

val trust : t -> int -> float
val dropped : t -> int -> bool
val all_dropped : t -> bool
(** When true the pooled prior is gone: refits must run without
    priors, which is bit-identical to a no-prior campaign's fit. *)

val agreement : Surrogate.t -> (Param.Config.t * float) array -> float
(** [agreement source anchor] in [0, 1]: the Spearman rank correlation
    between the source prior's {!Surrogate.score} of each anchor
    configuration and its merit (the negated observed objective),
    clipped at 0 — anti-correlated and uninformative (constant-score)
    priors both earn 0. Fewer than two anchors also yield 0. Exposed
    for tests and calibration probes. *)

type step = {
  step_priors : (Surrogate.t * float) list;
      (** surviving priors with gated weights, in source order *)
  step_snapshots : snapshot list;  (** one per live source, source order *)
  step_decisions : decision list;  (** status transitions, source order, [Fallback] last *)
}

val apply :
  t -> anchor:(Param.Config.t * float) array -> n_obs:int -> (Surrogate.t * float) list -> step
(** One trust update. [priors] are the per-source priors of
    this refit (same length and order as the gate's sources); [anchor]
    is the campaign's unbiased evidence — warm-start data followed by
    the random-init observations, {e never} prior-guided evaluations.
    With [n_obs < min_obs], or fewer than four anchors, the state is
    untouched and the priors pass through unchanged (no snapshots, no
    decisions, no ordinal consumed). An untouched [Active] source
    keeps its weight physically unchanged, so a never-gated campaign
    is bit-identical to an ungated one. Raises [Invalid_argument] on a
    prior-count mismatch. *)
