(** The campaign state machine: one tuning run as an explicit,
    reentrant suggest/report step process.

    Every engine in the library — the k-in-flight driver
    {!Tuner.run_async} (synchronous at [k = 1]), {!Moo}, and the
    multi-tenant {!Serve} front end — is a {e driver} over this
    module: a thin loop that asks the campaign what to evaluate next
    ({!suggest}), obtains a verdict however it likes (inline call,
    remote client), and hands it back ({!report}). Neither step ever
    blocks; all campaign state — init draws, refit/gate progress,
    the pending set, replay verification — lives in the handle, so
    any number of campaigns can interleave in one process and a
    campaign can be parked indefinitely between steps.

    The machine is bit-identical to the recursive engines it
    replaced: driving it with the same rng seed, options, and
    verdicts reproduces [Tuner.run_async] histories exactly, at every
    [k] (property-tested in [test/test_campaign.ml]). {!of_log} is the one resume path, for
    every engine: a campaign rebuilt from a run log retraces the
    recorded prefix bit-for-bit and then continues live.

    Reentrancy note: unlike the one-shot {!Tuner} drivers, a
    campaign holds its inputs across steps, so [create] copies the
    [warm_start] and [candidates] arrays it is given — mutating the
    originals between steps cannot corrupt the campaign. *)

(** {2 Campaign configuration}

    These types are the one source of truth; {!Tuner} re-exports
    them under their historical names. *)

type prior = { sources : (Surrogate.t * float) array; gate : Gate.options option }

val prior_of : ?gate:Gate.options -> (Surrogate.t * float) list -> prior

type options = {
  n_init : int;
  surrogate : Surrogate.options;
  strategy : Strategy.t;
  prior : prior option;
  early_stop : int option;
}

val default_options : options

type result = {
  history : (Param.Config.t * float) array;
  best_config : Param.Config.t;
  best_value : float;
  trajectory : float array;
  final_surrogate : Surrogate.t option;
  stopped_early : bool;
  failures : (Param.Config.t * Resilience.Outcome.t) array;
  n_attempts : int;
  retry_cost : float;
}

type run_error = {
  error_failures : (Param.Config.t * Resilience.Outcome.t) array;
  error_attempts : int;
}

(** {2 The step machine} *)

type mode =
  | Async of int
      (** up to [k] suggestions in flight, pending ones joining the
          surrogate's bad density as constant-liar observations.
          [Async 1] is the synchronous campaign: one suggestion
          outstanding at a time, which {!Tuner.run_async} runs by
          default and {!Moo.run} drives. *)
(** How many suggestions a campaign keeps in flight. A single
    constructor rather than a plain [k] only because the end-to-end
    benchmark ([e2ebench/async_faults.ml]) builds [Campaign.Async k];
    it becomes an [int] when that benchmark moves. *)

type suggestion = {
  id : int;  (** submission ordinal; the key {!report} expects back *)
  config : Param.Config.t;
  guided : bool;  (** [false] for random-init suggestions *)
  at : float;  (** the [~at] of the {!suggest} call that issued it *)
}

type step =
  | Suggest of suggestion  (** evaluate this and {!report} the verdict *)
  | Wait
      (** nothing to hand out until a pending suggestion is reported
          (in-flight set full, or no observations to fit on yet) *)
  | Finished  (** the campaign is over; {!result} is available *)

type t

val create :
  ?telemetry:Telemetry.Trace.t ->
  ?options:options ->
  ?warm_start:(Param.Config.t * float) array ->
  ?candidates:Param.Config.t array ->
  ?shared_pool:Surrogate.Pool.t ->
  ?on_outcome:(int -> Param.Config.t -> Resilience.Evaluator.verdict -> unit) ->
  ?on_gate:(Dataset.Runlog.gate -> unit) ->
  mode:mode ->
  rng:Prng.Rng.t ->
  space:Param.Space.t ->
  budget:int ->
  unit ->
  t
(** Validate the configuration and start a fresh campaign (emitting
    [Campaign_start]); {!of_log} resumes one. Arguments mirror the
    [Tuner] entry points; the addition is:

    - [shared_pool]: reuse an already-encoded candidate pool instead
      of encoding one per campaign — the multi-tenant server keys
      one pool per parameter space. The pool is immutable and safe
      to share across campaigns and domains; each campaign still
      builds its own {!Surrogate.Refit} engine over it (compiled
      tables stay campaign-local). Requires the Ranking strategy;
      the pool's space must match [space]; mutually exclusive with
      [candidates]. A boxed pool restricts init draws to its
      configurations, exactly like passing them as [candidates].

    Raises [Invalid_argument], before anything is evaluated, on
    invalid options: [budget], [n_init] and [early_stop] below 1,
    [surrogate.alpha] outside (0, 1), a [Proposal] with fewer than 1
    candidate, an [Async k] with [k < 1] (["Campaign.create: k must
    be at least 1"]), or an invalid candidate set or warm start.
    Every {!Tuner} driver and {!Serve} session inherits these
    checks.

    Every issued suggestion emits a [Submit] event and every report
    a [Complete] event (after its [Eval]), whatever [k]: a
    synchronous trace carries one of each per evaluation, with at
    most one in flight. *)

val suggest : ?at:float -> t -> step
(** Advance the campaign to its next suggestion: random-init draws
    while they last (duplicates burn an init slot, exactly like the
    engines), then one gated refit + selection per suggestion. Never
    blocks; returns {!Wait} when the in-flight set is full ([k]
    outstanding) or when guided selection has no observations to fit
    on yet. [at] is the submission timestamp recorded in [Submit]
    telemetry (simulated clock in {!Tuner.run_async}, wall clock in
    a server); it does not affect
    campaign decisions. *)

val report : ?at:float -> ?eval_ms:float -> t -> id:int -> Resilience.Evaluator.verdict -> unit
(** Hand back the verdict for pending suggestion [id]: bookkeeping,
    [on_outcome]/telemetry emission, and completion of the campaign
    when this was the last outstanding piece of work. Raises
    [Invalid_argument] if [id] is not pending (never issued, already
    reported, or the campaign is finished) — a duplicate or
    out-of-order report can never corrupt the state. [at] is the
    completion time ({!last_completion}); [at]/[eval_ms] time the
    [Complete]/[Eval] telemetry. *)

val result : t -> (result, run_error) Stdlib.result
(** The campaign's outcome. Raises [Invalid_argument] until
    {!suggest} has returned {!Finished}. *)

(** {2 Introspection} *)

val is_finished : t -> bool

val n_evaluated : t -> int
(** Completed (reported) evaluations. *)

val n_pending : t -> int

val pending : t -> suggestion list
(** Outstanding suggestions, oldest first. After {!of_log} recovery
    these are the slots the interrupted campaign had in flight at the
    cut — a server hands them back out, and {!Tuner.resume_async}
    re-evaluates them, before asking for new ones. *)

val best : t -> (Param.Config.t * float) option

val excluded : t -> int list
(** The candidate-pool rows guided ranking skips, ascending: the pool
    indices ({!Surrogate.Pool.indices_of}) of every configuration
    issued or warm-started so far. Empty for [Proposal] campaigns,
    which have no pool. *)

val last_completion : t -> float * int
(** The [(at, id)] of the latest {!report}, [(0., -1)] before the
    first: where the driver's simulated clock stands. On that clock
    each completion orders after the previous one (by time, then
    id). *)

val completes_at :
  t ->
  duration:(Param.Config.t -> Resilience.Evaluator.verdict -> float) ->
  suggestion ->
  Resilience.Evaluator.verdict ->
  float
(** The simulated clock's rule, shared by {!Tuner.run_async} and
    {!of_log}: [completes_at t ~duration s v] is [s.at +. duration
    s.config v], the time pending suggestion [s] completes. Raises
    [Invalid_argument] if the duration is not finite and non-negative,
    and [Failure divergence_msg] if [s] would complete before
    {!last_completion} — only a suggestion in flight at a resumed
    log's cut can, and then the log is not this campaign's. *)

(** {2 Resume} *)

val divergence_msg : string
(** The [Failure] message raised when a replayed campaign departs
    from its record — shared with the drivers so every engine
    reports divergence identically. *)

val entry_of_verdict :
  int -> Param.Config.t -> Resilience.Evaluator.verdict -> Dataset.Runlog.entry
(** [entry_of_verdict index config verdict] is the run-log entry that
    records a verdict — the inverse of how {!of_log} reads entries
    back, in the shape of an [on_outcome] callback ({!Session} persists
    every verdict through it). Every failure keeps its kind ([Crash] is only ever read from v1
    logs). *)

val of_log :
  ?telemetry:Telemetry.Trace.t ->
  ?options:options ->
  ?policy:Resilience.Policy.t ->
  ?warm_start:(Param.Config.t * float) array ->
  ?candidates:Param.Config.t array ->
  ?shared_pool:Surrogate.Pool.t ->
  ?on_outcome:(int -> Param.Config.t -> Resilience.Evaluator.verdict -> unit) ->
  ?on_gate:(Dataset.Runlog.gate -> unit) ->
  ?duration:(Param.Config.t -> Resilience.Evaluator.verdict -> float) ->
  mode:mode ->
  log:Dataset.Runlog.t ->
  budget:int ->
  unit ->
  t
(** Rebuild a campaign from its run log — rng from the recorded
    seed, space from the header, retry costs from [policy]'s backoff
    schedule — and fast-forward through the recorded prefix: every
    recorded verdict is re-reported in recorded order (suppressing
    [on_outcome], which already fired in the original run), leaving a
    campaign bit-identical to the interrupted one. Fast-forward stops
    after the last recorded report: the slots in flight at the cut
    stay in {!pending}, and the refill happens at the caller's next
    {!suggest}. Recorded [#gate] decisions are verified as a prefix of
    the recomputed ones; [on_gate] fires only past it.

    With [duration] (the driver's), the prefix retraces the simulated
    clock: each recorded completion lands at {!completes_at} and is
    reported at that time, and the suggestions after it are issued at
    it. Without it (a server, whose clients' report order is
    authoritative) the log's order stands and every time is 0.

    Raises [Failure] if the log's indices are not dense from 0 or it
    diverges from what the campaign would have done (changed seed,
    options or objective, or — with [duration] — a completion that
    orders before the previous one), and [Invalid_argument] if the
    budget is smaller than the recorded evaluation count or a
    duration is not finite and non-negative. *)
