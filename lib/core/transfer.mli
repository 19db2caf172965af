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

val options :
  ?options:Tuner.options ->
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
    [weight] target observations in the density estimates. [gate]
    (default [Some Gate.default_options]) safeguards them. The sources
    must be over [space]. Raises [Invalid_argument] on an empty source
    list, an empty source, a weight that is not finite and
    non-negative, or out-of-range gate options. *)
