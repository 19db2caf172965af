(** The HiPerBOt iterative tuning loop (paper §III-C).

    1. Evaluate [n_init] configurations drawn uniformly at random.
    2. Fit the surrogate on the observation history.
    3. Select the candidate(s) maximizing expected improvement.
    4. Evaluate, append to the history; repeat 2-4 until the
       evaluation budget is exhausted or the early-stop criterion
       fires.

    The [prior] option turns the same loop into the transfer-learning
    variant (§III-E): surrogates fitted on source-domain data are
    mixed into every refit, each with its own weight, optionally
    annealed by a decay schedule as target evidence accumulates
    ({!Transfer.options} builds it). [batch_size] amortizes one refit
    over several evaluations (e.g. to run several configurations in
    parallel on a cluster); [early_stop] implements the paper's
    sample-quality termination condition.

    There is one driver per engine: {!run_with_policy} (synchronous)
    and {!run_async} (k evaluations in flight), each with its resume
    counterpart ({!resume}, {!resume_async}). Every driver absorbs
    evaluation failures into the surrogate's bad density instead of
    dying on them: every failed configuration is classified by the
    {!Resilience.Outcome} taxonomy, retried according to a
    {!Resilience.Policy} (transients and timeouts only — permanent
    failures are never retried), and counted against the budget
    exactly once regardless of how many attempts it took. A total
    objective [f] is [fun ~attempt:_ c -> Resilience.Outcome.Value (f c)]. *)

(** Every entry point here is a thin driver over the reentrant
    {!Campaign} state machine — the configuration and result types
    are re-exported from it, so the two APIs interoperate freely. *)

type prior = Campaign.prior = {
  sources : (Surrogate.t * float) array;
      (** source-domain surrogates with their base weights, merged
          into every refit in array order (paper eqs. 9-10) *)
  decay : int -> float;
      (** weight multiplier as a function of the refit's target
          observation count (warm-start included); must return finite
          non-negative values. {!constant_decay} keeps priors at full
          strength forever. *)
  gate : Gate.options option;
      (** safeguarded transfer: when set, every refit scores each
          source's agreement with the target evidence and attenuates /
          drops sources whose trust decays (see {!Gate}). [None]
          reproduces ungated transfer bit-exactly. *)
}

val constant_decay : int -> float
(** [fun _ -> 1.] — the undecayed schedule. Its multiplier is exact
    ([w *. 1. = w] bit-for-bit), so a constant-decay prior reproduces
    a fixed-weight campaign bit-identically. *)

val prior_of : ?decay:(int -> float) -> ?gate:Gate.options -> (Surrogate.t * float) list -> prior
(** Build a prior from source surrogates and weights (decay defaults
    to {!constant_decay}; gate defaults to none — ungated). Raises
    [Invalid_argument] on out-of-range gate options. *)

type options = Campaign.options = {
  n_init : int;  (** random initial samples (paper: 20) *)
  surrogate : Surrogate.options;
  strategy : Strategy.t;
  prior : prior option;  (** transfer prior sources and decay schedule *)
  batch_size : int;  (** evaluations per surrogate refit (default 1) *)
  early_stop : int option;
      (** stop after this many consecutive guided evaluations without
          improving the best observed objective (default [None]:
          run the full budget) *)
}

val default_options : options
(** n_init 20, surrogate defaults (alpha 0.2), [Ranking], no prior,
    batch 1, no early stop. *)

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
(** [run_with_policy ~rng ~space ~objective ~budget ()] — the
    synchronous engine — performs at most [budget] evaluations
    (warm-start observations do not count against the budget;
    duplicate random initial draws are evaluated once). Requires
    [budget >= 1].

    Each selected configuration is driven through
    {!Resilience.Evaluator.evaluate} under [policy] (default
    {!Resilience.Policy.default} — 3 attempts, exponential simulated
    backoff, no timeout); an exception raised by [objective] is a
    [Transient] failure. The final verdict consumes one unit of
    budget whatever its attempt count, so retried transients do not
    double-count. A failed configuration joins the bad density of
    every later surrogate fit and appears in [failures], not
    [history]; a batch member whose verdict is [Timeout] (a
    straggler exceeding the policy's cost budget) is recorded as a
    failure and the batch completes. When every evaluation failed
    the run returns [Error] with the structured failure report.
    [on_outcome i config verdict] fires once per consumed budget
    unit with the final verdict and its 0-based index.

    [candidates] restricts both initialization and selection to an
    explicit configuration set — e.g. the measured rows of a study
    loaded with {!Dataset.Infer.table_of_csv}, which usually cover
    only part of the cross-product space. It must be non-empty,
    duplicate-free, and is only supported with the [Ranking]
    strategy.

    With the [Ranking] strategy the space must be finite (unless
    [candidates] is given); if the budget exceeds the candidate count
    the run stops early when every configuration has been evaluated.
    The enumerated pool is {e virtual} ({!Surrogate.Pool.of_space}):
    rows are decoded on demand during the ranking scan, so campaign
    memory is O(1) in the pool size and million-configuration spaces
    are ranked from a few MB of score tables. Each refit runs through
    the refit engine ({!Surrogate.Refit}), which refills one reused
    score table — the selections stay bit-identical to a fresh
    {!Surrogate.compile}.

    Raises [Invalid_argument] before the first evaluation on invalid
    options (see {!Campaign.create}).

    [on_gate] fires once per transfer-gate decision (a source
    attenuated, restored, or dropped; the pooled-prior fallback) in
    the shape {!Dataset.Runlog.gate} expects, so run-log writers can
    persist the decisions as they happen.

    [telemetry] (here and on every other entry point) streams the
    campaign's structured events — [Campaign_start], one [Init_draw]
    per random draw, [Refit]/[Compile]/[Rank] spans per iteration,
    one [Attempt] per objective call, one [Eval] per consumed budget
    unit, and a final [Campaign_end] — to the given
    {!Telemetry.Trace.t}. Tracing reads only the trace's clock: it
    performs no rng draws and never influences selection, so a traced
    campaign is bit-identical to an untraced one. The default is
    {!Telemetry.Trace.disabled}, which costs one pointer comparison
    per site. *)

val resume :
  ?telemetry:Telemetry.Trace.t ->
  ?options:options ->
  ?policy:Resilience.Policy.t ->
  ?warm_start:(Param.Config.t * float) array ->
  ?candidates:Param.Config.t array ->
  ?on_outcome:(int -> Param.Config.t -> Resilience.Evaluator.verdict -> unit) ->
  ?on_gate:(Dataset.Runlog.gate -> unit) ->
  log:Dataset.Runlog.t ->
  objective:(attempt:int -> Param.Config.t -> Resilience.Outcome.t) ->
  budget:int ->
  unit ->
  (result, run_error) Stdlib.result
(** [resume ~log ~objective ~budget ()] reconstructs an interrupted
    campaign from its run log and continues it up to [budget] total
    evaluations. The campaign is rebuilt with {!Campaign.of_log} —
    rng from [log.seed], recorded verdicts reported in place of
    evaluations, without re-firing [on_outcome] — and then driven
    like {!run_with_policy}, so given the same
    [options], [policy], and objective, an interrupted-then-resumed
    campaign produces bit-for-bit the same evaluation sequence,
    trajectory, and best configuration as an uninterrupted run —
    the resume guarantee the tests assert. Raises [Invalid_argument]
    if the log already holds more than [budget] entries and [Failure]
    if the log's entries are not dense from index 0 or diverge from
    the replayed trajectory.

    Gated campaigns resume bit-exactly too: the gate state is not
    stored — it is a pure function of the refit sequence, which replay
    reproduces — and the log's recorded [#gate] decisions are verified
    as a prefix of the recomputed stream ([Failure] on mismatch), with
    [on_gate] firing only for decisions beyond the recorded prefix. *)

val run_async :
  ?telemetry:Telemetry.Trace.t ->
  ?options:options ->
  ?policy:Resilience.Policy.t ->
  ?warm_start:(Param.Config.t * float) array ->
  ?candidates:Param.Config.t array ->
  ?on_outcome:(int -> Param.Config.t -> Resilience.Evaluator.verdict -> unit) ->
  ?on_gate:(Dataset.Runlog.gate -> unit) ->
  ?recorded_gates:Dataset.Runlog.gate array ->
  ?replay:(Param.Config.t * Resilience.Evaluator.verdict) array ->
  ?pool:Parallel.Pool.t ->
  ?duration:(Param.Config.t -> Resilience.Evaluator.verdict -> float) ->
  k:int ->
  rng:Prng.Rng.t ->
  space:Param.Space.t ->
  objective:(attempt:int -> Param.Config.t -> Resilience.Outcome.t) ->
  budget:int ->
  unit ->
  (result, run_error) Stdlib.result
(** The asynchronous campaign engine: up to [k] evaluations are in
    flight at once and the surrogate refits whenever a slot frees,
    instead of waiting for a batch barrier ([options.batch_size] is
    ignored — refit-on-completion replaces batching).

    {b Submission.} Slots are kept full: random-init draws while they
    last (same rng stream as the synchronous engine, duplicates burn
    an init slot without submitting), then one refit + top-1 selection
    per submission. In-flight configurations are penalized with a
    constant-liar/bad-density treatment — they join the surrogate's
    bad density exactly like failed configurations — so the ranker
    steers away from near-duplicates of pending points, and the
    submission-time dedup table excludes exact duplicates outright.
    Each evaluation runs through {!Resilience.Evaluator.evaluate}
    under [policy] inside its slot (retries stay within the slot and
    the final verdict consumes one budget unit). Total submissions
    never exceed [budget] regardless of [k].

    {b Determinism.} Completion order is decided by a simulated
    clock, never by wall time: a submission completes at its
    submission time plus [duration config verdict] (must be finite
    and non-negative — ties break toward the earlier submission). The
    default duration is the measured objective value when it is
    finite and positive (an HPC runtime objective is its own natural
    duration), 1.0 otherwise, plus the verdict's accumulated retry
    backoff cost. [pool] only runs the evaluations: with it they
    execute concurrently on worker domains (ranking stays one
    sequential scan on the calling domain), but since the
    processing order is simulation-driven, the same seed and the same
    duration function give a bit-identical history, trajectory, and
    best configuration for every worker count — and [~k:1] degrades
    exactly to {!run_with_policy} (with the default batch size), the
    equivalence the property tests assert. When [pool] is given,
    [objective] must be thread-safe.

    [history], [trajectory], [on_outcome] indices, and run-log entries
    written from [on_outcome] are all in completion order. [telemetry]
    additionally carries one [Submit] and one [Complete] event per
    slot with the in-flight depth and simulated time ([Campaign_start]
    records [k] in its [batch_size] field). [replay] is the resume
    mechanism (see {!resume_async}); replayed verdicts are matched
    against the recorded completion order and raise [Failure] on
    divergence. *)

val resume_async :
  ?telemetry:Telemetry.Trace.t ->
  ?options:options ->
  ?policy:Resilience.Policy.t ->
  ?warm_start:(Param.Config.t * float) array ->
  ?candidates:Param.Config.t array ->
  ?on_outcome:(int -> Param.Config.t -> Resilience.Evaluator.verdict -> unit) ->
  ?on_gate:(Dataset.Runlog.gate -> unit) ->
  ?pool:Parallel.Pool.t ->
  ?duration:(Param.Config.t -> Resilience.Evaluator.verdict -> float) ->
  k:int ->
  log:Dataset.Runlog.t ->
  objective:(attempt:int -> Param.Config.t -> Resilience.Outcome.t) ->
  budget:int ->
  unit ->
  (result, run_error) Stdlib.result
(** {!resume} for asynchronous campaigns: rebuilds the rng from
    [log.seed] and replays the recorded verdicts in their recorded
    completion order. The interrupted and resumed runs agree
    bit-for-bit only if [k], [options], [policy], and the [duration]
    function are the same as in the recorded run. *)
