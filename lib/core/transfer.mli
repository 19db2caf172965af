(** Transfer learning (paper §III-E, §VII).

    A surrogate is fitted on each source domain's observations and
    mixed into the target-domain surrogate as a weighted prior on both
    the good and bad densities (eqs. 9-10) — several sources fold in
    sequence via {!Density.merge_prior}. The tuning loop on the target
    domain is otherwise unchanged: {!options} installs the sources as
    the campaign prior, and the result goes to {!Tuner.run_async} or
    {!Tuner.resume_async}, at any [k]. Telemetry [Refit] spans label
    prior provenance (source count and total effective weight).

    {b Safeguarded transfer.} {!options} takes
    [?gate : Gate.options option], default [Some Gate.default_options]
    — transfer is gated unless the caller opts out. The gate monitors
    each source's agreement with the accumulating target evidence at
    every refit and attenuates, then drops, sources whose trust decays
    (see {!Gate}); when every source is dropped the campaign continues
    bit-identically to a no-prior campaign from that refit onward.
    Pass [~gate:None] for ungated transfer, or [~gate:(Some opts)] to
    tune the thresholds; the drivers' [?on_gate] observes gate
    decisions for run-log persistence. *)

type weighting =
  | Constant_weights  (** use the caller's weights as given *)
  | Js_guided
      (** scale each source's weight by its agreement with the
          pooled-source consensus: one minus the mean per-parameter JS
          divergence (normalized by its ln 2 bound) between the
          source's good density and the good density fitted on all
          sources pooled. Contrarian sources are attenuated. With a
          single source the multiplier is exactly 1, so this mode is
          then bit-identical to [Constant_weights]. *)

(** Decay schedule: how prior weight anneals as target evidence
    accumulates. The multiplier is a function of the refit's target
    observation count [n] and scales every source's weight. *)
type schedule =
  | Constant  (** multiplier 1 forever — today's fixed-weight behaviour *)
  | Exponential of { half_life : float }
      (** [0.5 ** (n / half_life)]; [half_life] must be finite and
          positive *)
  | Reciprocal of { n0 : float }
      (** [n0 / (n0 + n)] — harmonic annealing; [n0] must be finite
          and positive *)
  | Custom of (int -> float)
      (** arbitrary; must return finite non-negative multipliers *)

val decay_of_schedule : schedule -> int -> float
(** The multiplier function of a schedule. [Constant] returns
    {!Tuner.constant_decay}, whose multiplier is bit-exact. Raises
    [Invalid_argument] on out-of-range schedule parameters. *)

val prior_of_sources :
  ?options:Surrogate.options ->
  ?weighting:weighting ->
  Param.Space.t ->
  ((Param.Config.t * float) array * float) list ->
  (Surrogate.t * float) list
(** Fit one surrogate per source and apply the weighting mode
    (default [Constant_weights]) to the given base weights. The result
    plugs directly into {!Tuner.prior_of}. Each source must be
    non-empty and each weight finite and non-negative
    ([Invalid_argument] otherwise). *)

val options :
  ?options:Tuner.options ->
  ?weighting:weighting ->
  ?schedule:schedule ->
  ?gate:Gate.options option ->
  space:Param.Space.t ->
  ((Param.Config.t * float) array * float) list ->
  Tuner.options
(** [options ~space sources] is [options] (default
    {!Tuner.default_options}) with the sources installed as its
    prior. Each [(observations, weight)] source is fitted with the
    target's surrogate options ([options.surrogate]) and merged into
    every refit in list order; the weight (the paper's [w]) scales
    the source's influence — each source observation counts as
    [weight] target observations in the density estimates. [schedule]
    (default [Constant]) anneals the weights with target evidence,
    [weighting] (default [Constant_weights]) rescales them up front,
    and [gate] (default [Some Gate.default_options]) safeguards them.
    The sources must be over [space]. Raises [Invalid_argument] on an
    empty source list, an empty source, a weight that is not finite
    and non-negative, or out-of-range schedule or gate options. *)
