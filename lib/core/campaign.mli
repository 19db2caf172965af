(** The campaign state machine: one tuning run as an explicit,
    reentrant suggest/report step process.

    Every engine in the library — the synchronous driver
    {!Tuner.run_with_policy}/[resume], the asynchronous k-in-flight
    driver {!Tuner.run_async}, and the multi-tenant
    {!Serve} front end — is a {e driver} over this module: a thin
    loop that asks the campaign what to evaluate next ({!suggest}),
    obtains a verdict however it likes (inline call, worker domain,
    remote client), and hands it back ({!report}). Neither step ever
    blocks; all campaign state — init draws, refit/gate progress,
    the pending set, replay verification — lives in the handle, so
    any number of campaigns can interleave in one process and a
    campaign can be parked indefinitely between steps.

    The machine is bit-identical to the recursive engines it
    replaced: driving it with the same rng seed, options, and
    verdicts reproduces [Tuner.run_with_policy] and
    [Tuner.run_async] histories exactly (property-tested in
    [test/test_campaign.ml]). The replay/resume contract carries
    over unchanged: a campaign created from a run log retraces the
    recorded prefix bit-for-bit and then continues live.

    Reentrancy note: unlike the one-shot {!Tuner} drivers, a
    campaign holds its inputs across steps, so [create] copies the
    [warm_start], [candidates], [replay] and [recorded_gates] arrays
    it is given — mutating the originals between steps cannot
    corrupt the campaign. *)

(** {2 Campaign configuration}

    These types are the one source of truth; {!Tuner} re-exports
    them under their historical names. *)

type prior = {
  sources : (Surrogate.t * float) array;
  decay : int -> float;
  gate : Gate.options option;
}

val constant_decay : int -> float

val prior_of :
  ?decay:(int -> float) -> ?gate:Gate.options -> (Surrogate.t * float) list -> prior

type options = {
  n_init : int;
  surrogate : Surrogate.options;
  strategy : Strategy.t;
  prior : prior option;
  batch_size : int;
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
  | Sync  (** one suggestion outstanding at a time; batch members are issued one by one *)
  | Async of int
      (** up to [k] suggestions in flight, pending ones joining the
          surrogate's bad density as constant-liar observations.
          [Async 1] is bit-identical to [Sync] driven with the same
          verdicts. *)

type suggestion = {
  id : int;  (** submission ordinal; the key {!report} expects back *)
  config : Param.Config.t;
  guided : bool;  (** [false] for random-init suggestions *)
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
  ?recorded_gates:Dataset.Runlog.gate array ->
  ?replay:(Param.Config.t * Resilience.Evaluator.verdict) array ->
  mode:mode ->
  rng:Prng.Rng.t ->
  space:Param.Space.t ->
  budget:int ->
  unit ->
  t
(** Validate the configuration and start a campaign (emitting
    [Campaign_start]). Arguments mirror the [Tuner] entry points;
    the additions are:

    - [shared_pool]: reuse an already-encoded candidate pool instead
      of encoding one per campaign — the multi-tenant server keys
      one pool per parameter space. The pool is immutable and safe
      to share across campaigns and domains; each campaign still
      builds its own {!Surrogate.Refit} engine over it (compiled
      tables stay campaign-local). Requires the Ranking strategy;
      the pool's space must match [space]; mutually exclusive with
      [candidates]. A boxed pool restricts init draws to its
      configurations, exactly like passing them as [candidates].
    - [replay]/[recorded_gates]: recorded verdicts and gate
      decisions to retrace; see {!of_log} for the usual way in.

    Raises [Invalid_argument], before anything is evaluated, on
    invalid options: [budget], [n_init], [batch_size] and
    [early_stop] below 1, [surrogate.alpha] outside (0, 1), a
    [Proposal] with fewer than 1 candidate, an [Async k] with
    [k < 1], or an invalid candidate set or warm start. Every
    {!Tuner} driver inherits these checks. *)

val suggest : ?at:float -> t -> step
(** Advance the campaign to its next suggestion: random-init draws
    while they last (duplicates burn an init slot, exactly like the
    engines), then one gated refit + selection per suggestion. Never
    blocks; returns {!Wait} when the in-flight set is full ([Sync]:
    one outstanding; [Async k]: [k]) or when guided selection has no
    observations to fit on yet. [at] is the submission timestamp
    recorded in async [Submit] telemetry (simulated clock in the
    async engine, wall clock in a server); it does not affect
    campaign decisions. *)

val report : ?at:float -> ?eval_ms:float -> t -> id:int -> Resilience.Evaluator.verdict -> unit
(** Hand back the verdict for pending suggestion [id]: bookkeeping,
    replay verification, [on_outcome]/telemetry emission, and
    completion of the campaign when this was the last outstanding
    piece of work. Raises [Invalid_argument] if [id] is not pending
    (never issued, already reported, or the campaign is finished) —
    a duplicate or out-of-order report can never corrupt the state —
    and [Failure] if the verdict's configuration diverges from the
    replay record. [at]/[eval_ms] time the async [Complete]/[Eval]
    telemetry only. *)

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
    these are the refilled in-flight slots a crashed campaign lost —
    a server hands them back out before asking for new ones. *)

val best : t -> (Param.Config.t * float) option
val space : t -> Param.Space.t
val budget : t -> int
val mode : t -> mode

val excluded : t -> int list
(** The candidate-pool rows guided ranking skips, ascending: the pool
    indices ({!Surrogate.Pool.indices_of}) of every configuration
    issued or warm-started so far. Empty for [Proposal] campaigns,
    which have no pool. *)

(** {2 Resume} *)

val divergence_msg : string
(** The [Failure] message raised when a replayed campaign departs
    from its record — shared with the drivers so every engine
    reports divergence identically. *)

val replay_of_log :
  policy:Resilience.Policy.t ->
  Dataset.Runlog.t ->
  (Param.Config.t * Resilience.Evaluator.verdict) array
(** Recorded entries as replayable verdicts, reconstructing each
    entry's retry cost from the policy's backoff schedule. Raises
    [Failure] if the log's indices are not dense from 0. *)

val of_log :
  ?telemetry:Telemetry.Trace.t ->
  ?options:options ->
  ?policy:Resilience.Policy.t ->
  ?warm_start:(Param.Config.t * float) array ->
  ?candidates:Param.Config.t array ->
  ?shared_pool:Surrogate.Pool.t ->
  ?on_outcome:(int -> Param.Config.t -> Resilience.Evaluator.verdict -> unit) ->
  ?on_gate:(Dataset.Runlog.gate -> unit) ->
  mode:mode ->
  log:Dataset.Runlog.t ->
  budget:int ->
  unit ->
  t
(** Rebuild a campaign from its run log — rng from the recorded
    seed, space from the header — and fast-forward through the
    recorded prefix: every recorded verdict is re-reported in
    recorded order (suppressing [on_outcome], which already fired
    in the original run), leaving a campaign bit-identical to the
    interrupted one and positioned to continue. In [Async] mode the
    in-flight slots the interrupted campaign held are refilled
    deterministically and left in {!pending}. Raises [Failure] if
    the log diverges from what the campaign would have done
    (changed seed, options, or objective) and [Invalid_argument] if
    the budget is smaller than the recorded evaluation count. *)
