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

    There is one driver: {!run_async}, with up to [k] evaluations in
    flight (default 1, the paper's sequential loop), and its resume
    counterpart {!resume_async}. It absorbs evaluation failures into
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
(** [run_async ~rng ~space ~objective ~budget ()] tunes with up to [k]
    evaluations in flight (default 1) and refits the surrogate whenever
    a slot frees. It performs at most [budget] evaluations whatever [k]
    (warm-start observations do not count against the budget;
    duplicate random initial draws are evaluated once). Requires
    [budget >= 1] and [k >= 1].

    {b Submission.} Slots are kept full: random-init draws while they
    last (duplicates burn an init slot without submitting), then one
    refit + top-1 selection per submission. In-flight configurations
    join the surrogate's bad density as constant liars, exactly like
    failed configurations, so the ranker steers away from
    near-duplicates of pending points; exact duplicates are never
    issued. Each configuration is evaluated at submission through
    {!Resilience.Evaluator.evaluate} under [policy] (default
    {!Resilience.Policy.default} — 3 attempts, exponential simulated
    backoff, no timeout); an exception raised by [objective] is a
    [Transient] failure. The final verdict consumes one unit of
    budget whatever its attempt count. A failed configuration joins
    the bad density of every later fit and appears in [failures], not
    [history]; a [Timeout] verdict is a failure like any other. When
    every evaluation failed the run returns [Error] with the
    structured failure report.

    {b Determinism.} Completion order is decided by a simulated clock
    ({!Campaign.completes_at}), never by wall time: a submission
    completes at its submission time plus [duration config verdict]
    (finite and non-negative; ties break toward the earlier
    submission). The default duration is the measured objective value
    when it is finite and positive (an HPC runtime objective is its
    own natural duration), 1.0 otherwise, plus the verdict's
    accumulated retry backoff cost. The same seed and duration
    function give a bit-identical history, trajectory and best
    configuration. [history], [trajectory], [on_outcome i config
    verdict] (once per consumed budget unit, 0-based) and run-log
    entries written from it are all in completion order.

    [candidates] restricts initialization and selection to an
    explicit configuration set — e.g. the measured rows of a study
    loaded with {!Dataset.Infer.table_of_csv}. It must be non-empty and
    duplicate-free, and needs the [Ranking] strategy. Otherwise
    [Ranking] needs a finite space, ranked as a {e virtual} pool
    ({!Surrogate.Pool.of_space}) whose rows are decoded on demand, so
    memory is O(1) in the pool size; the run stops early once every
    configuration has been issued.

    [on_gate] fires once per transfer-gate decision in the shape
    {!Dataset.Runlog.gate} expects, so run-log writers can persist the
    decisions as they happen.

    [telemetry] streams the campaign's structured events
    ([Campaign_start] with [k] in its [batch_size] field, [Init_draw],
    [Refit]/[Compile]/[Rank] spans, [Submit], [Attempt], [Eval] timed
    around the evaluation, [Complete] with the in-flight depth and
    simulated time, [Campaign_end]) to the given
    {!Telemetry.Trace.t}. Tracing performs no rng draws and never
    influences selection, so a traced campaign is bit-identical to an
    untraced one; the default {!Telemetry.Trace.disabled} costs one
    pointer comparison per site.

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
    {!run_async} campaign up to [budget] total evaluations.
    {!Campaign.of_log} rebuilds it — rng from [log.seed], recorded
    verdicts reported in place of evaluations without re-firing
    [on_outcome], the recorded prefix retraced on the simulated clock
    of [duration] — then the driver evaluates the slots in flight at
    the cut and continues. Given the same [k], [options], [policy],
    [duration] and objective, the interrupted and resumed runs agree
    bit-for-bit. Gate state is not stored: replay recomputes it, the
    log's [#gate] decisions are verified as a prefix of the recomputed
    stream, and [on_gate] fires only past it.

    Raises [Invalid_argument] if the log holds more than [budget]
    entries, and [Failure] if its entries are not dense from index 0,
    diverge from the replayed trajectory, or complete out of clock
    order (a completion that orders before the one recorded last, as
    a log written at another [k] does). *)
