(** The HiPerBOt iterative tuning loop (paper §III-C).

    1. Evaluate [n_init] configurations drawn uniformly at random.
    2. Fit the surrogate on the observation history.
    3. Select the candidate(s) maximizing expected improvement.
    4. Evaluate, append to the history; repeat 2-4 until the
       evaluation budget is exhausted or the early-stop criterion
       fires.

    The [prior] option turns the same loop into the transfer-learning
    variant (§III-E): surrogates fitted on source-domain data are
    mixed into every refit, each with its own fixed weight
    ({!Transfer.options} builds it). [early_stop] implements the
    paper's sample-quality termination condition.

    There is one driver, {!drive}, behind {!run_async} (up to [k]
    evaluations in flight, default 1: the paper's sequential loop) and
    {!resume_async}. It absorbs evaluation failures into
    the surrogate's bad density instead of dying on them: every failed
    configuration is classified by the {!Resilience.Outcome} taxonomy,
    retried according to a {!Resilience.Policy} (transients and
    timeouts only — permanent failures are never retried), and counted
    against the budget exactly once regardless of how many attempts it
    took. A total objective [f] is
    [fun ~attempt:_ c -> Resilience.Outcome.Value (f c)]. *)

(** The driver is a thin loop over the reentrant {!Campaign} state
    machine — the configuration and result types are re-exported from
    it, so the two APIs interoperate freely. *)

type prior = Campaign.prior = {
  sources : (Surrogate.t * float) array;
      (** source-domain surrogates with their base weights, merged
          into every refit in array order (paper eqs. 9-10) *)
  gate : Gate.options option;
      (** safeguarded transfer: when set, every refit scores each
          source's agreement with the target evidence and attenuates /
          drops sources whose trust decays (see {!Gate}). [None]
          reproduces ungated transfer bit-exactly. *)
}

val prior_of : ?gate:Gate.options -> (Surrogate.t * float) list -> prior
(** Build a prior from source surrogates and weights (gate defaults
    to none — ungated). Raises [Invalid_argument] on out-of-range gate
    options. *)

type options = Campaign.options = {
  n_init : int;  (** random initial samples (paper: 20) *)
  surrogate : Surrogate.options;
  strategy : Strategy.t;
  prior : prior option;  (** transfer prior sources and gate *)
  early_stop : int option;
      (** stop after this many consecutive guided evaluations without
          improving the best observed objective (default [None]:
          run the full budget) *)
}

val default_options : options
(** n_init 20, surrogate defaults (alpha 0.2), [Ranking], no prior,
    no early stop. *)

type result = Campaign.result = {
  history : (Param.Config.t * float) array;
      (** every successful evaluation performed by this run, in order
          (initial samples first; warm-start observations are
          excluded) *)
  best_config : Param.Config.t;
  best_value : float;
  trajectory : float array;
      (** best-so-far objective after each successful evaluation;
          [trajectory.(i)] covers [history.(0..i)] *)
  final_surrogate : Surrogate.t option;
      (** the last fitted surrogate (None when the budget was too
          small to fit one, i.e. no iterative step ran) *)
  stopped_early : bool;  (** the [early_stop] criterion ended the run *)
  failures : (Param.Config.t * Resilience.Outcome.t) array;
      (** configurations whose evaluation failed, with the final
          outcome after retries *)
  n_attempts : int;
      (** total objective attempts including retries; equals
          [Array.length history + Array.length failures] when nothing
          was retried *)
  retry_cost : float;  (** accumulated simulated backoff cost *)
}

type run_error = Campaign.run_error = {
  error_failures : (Param.Config.t * Resilience.Outcome.t) array;
      (** every failed configuration with its final outcome *)
  error_attempts : int;  (** total attempts spent before giving up *)
}
(** Every evaluation of the run failed — there is no best
    configuration to report. *)

val default_duration : Param.Config.t -> Resilience.Evaluator.verdict -> float
(** The measured objective value when it is finite and positive (an
    HPC runtime objective is its own natural duration), 1.0 otherwise,
    plus the verdict's accumulated retry backoff cost. *)

val drive :
  ?telemetry:Telemetry.Trace.t ->
  ?policy:Resilience.Policy.t ->
  ?duration:(Param.Config.t -> Resilience.Evaluator.verdict -> float) ->
  objective:(attempt:int -> Param.Config.t -> Resilience.Outcome.t) ->
  Campaign.t ->
  (result, run_error) Stdlib.result
(** Run a campaign to its end, keeping its in-flight set full. Each
    configuration is evaluated at submission under [policy] (default
    {!Resilience.Policy.default}: 3 attempts, simulated exponential
    backoff, no timeout); an exception from [objective] is a
    [Transient] failure. Completions land in simulated-clock order
    ({!Campaign.completes_at}), never wall time: at submission time
    plus [duration config verdict] (default {!default_duration}), ties
    toward the earlier submission. So a seed and a duration give a
    bit-identical result, in completion order. A campaign rebuilt by
    {!Campaign.of_log} first re-evaluates the suggestions in flight at
    the cut; pass the [policy] and [duration] it was rebuilt with. *)

val run_async :
  ?telemetry:Telemetry.Trace.t ->
  ?options:options ->
  ?policy:Resilience.Policy.t ->
  ?warm_start:(Param.Config.t * float) array ->
  ?candidates:Param.Config.t array ->
  ?on_outcome:(int -> Param.Config.t -> Resilience.Evaluator.verdict -> unit) ->
  ?on_gate:(Dataset.Runlog.gate -> unit) ->
  ?duration:(Param.Config.t -> Resilience.Evaluator.verdict -> float) ->
  ?k:int ->
  rng:Prng.Rng.t ->
  space:Param.Space.t ->
  objective:(attempt:int -> Param.Config.t -> Resilience.Outcome.t) ->
  budget:int ->
  unit ->
  (result, run_error) Stdlib.result
(** [run_async ~rng ~space ~objective ~budget ()] is {!drive} over a
    fresh campaign with up to [k] evaluations in flight (default 1). It
    performs at most [budget] evaluations whatever [k] (warm-start
    observations are free; duplicate random initial draws are
    evaluated once). Requires [budget >= 1] and [k >= 1].

    Slots are kept full: random-init draws while they last, then one
    refit + top-1 selection per submission. In-flight and failed
    configurations join the surrogate's bad density (constant liars),
    and exact duplicates are never issued. Each verdict consumes one
    unit of budget whatever its attempt count ([on_outcome i config
    verdict] fires once per unit, 0-based); failures appear in
    [failures], not [history], and a run whose every evaluation failed
    returns [Error] with the structured failure report.

    [candidates] restricts initialization and selection to an
    explicit configuration set — e.g. the measured rows of a study
    loaded with {!Dataset.Infer.table_of_csv}. It must be non-empty and
    duplicate-free, and needs the [Ranking] strategy. Otherwise
    [Ranking] needs a finite space, ranked as a {e virtual} pool
    ({!Surrogate.Pool.of_space}) whose rows are decoded on demand, so
    memory is O(1) in the pool size; the run stops early once every
    configuration has been issued.

    [on_gate] fires once per transfer-gate decision, as a
    {!Dataset.Runlog.gate} line.

    [telemetry] streams the campaign's structured events (see
    {!Telemetry.Event}; [Campaign_start] carries [k] as its
    [batch_size]). Tracing draws no rng and never influences
    selection, so a traced campaign is bit-identical to an untraced
    one; the default {!Telemetry.Trace.disabled} costs one pointer
    comparison per site.

    Raises [Invalid_argument] before the first evaluation on invalid
    options (see {!Campaign.create}). *)

val run_with_policy :
  ?telemetry:Telemetry.Trace.t ->
  ?options:options ->
  ?policy:Resilience.Policy.t ->
  ?warm_start:(Param.Config.t * float) array ->
  ?candidates:Param.Config.t array ->
  ?on_outcome:(int -> Param.Config.t -> Resilience.Evaluator.verdict -> unit) ->
  ?on_gate:(Dataset.Runlog.gate -> unit) ->
  rng:Prng.Rng.t ->
  space:Param.Space.t ->
  objective:(attempt:int -> Param.Config.t -> Resilience.Outcome.t) ->
  budget:int ->
  unit ->
  (result, run_error) Stdlib.result
(** {!run_async} at [k = 1] with the default duration. Kept only
    because the end-to-end benchmark calls it; it goes when that
    benchmark moves to {!run_async}. *)

val resume_async :
  ?telemetry:Telemetry.Trace.t ->
  ?options:options ->
  ?policy:Resilience.Policy.t ->
  ?warm_start:(Param.Config.t * float) array ->
  ?candidates:Param.Config.t array ->
  ?on_outcome:(int -> Param.Config.t -> Resilience.Evaluator.verdict -> unit) ->
  ?on_gate:(Dataset.Runlog.gate -> unit) ->
  ?duration:(Param.Config.t -> Resilience.Evaluator.verdict -> float) ->
  ?k:int ->
  log:Dataset.Runlog.t ->
  objective:(attempt:int -> Param.Config.t -> Resilience.Outcome.t) ->
  budget:int ->
  unit ->
  (result, run_error) Stdlib.result
(** [resume_async ~log ~objective ~budget ()] continues an interrupted
    {!run_async} campaign up to [budget] total evaluations: {!drive}
    over {!Campaign.of_log}, which raises if the log holds more than
    [budget] entries or diverges from the replay. With the same [k],
    [options], [policy], [duration] and objective, the interrupted and
    resumed runs agree bit-for-bit; [on_outcome] and [on_gate] fire
    only past the recorded prefix. *)
