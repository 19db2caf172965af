(** Multi-objective tuning campaigns.

    A moo campaign wraps the scalar {!Campaign} state machine: every
    successful evaluation reports a full objective {e vector} (all
    objectives minimize), which is scalarised with fixed positive
    weights into the scalar that drives the usual α-quantile TPE
    machinery, while the raw vectors feed an incremental
    {!Pareto.front} on the side. Hard constraints ride on the
    {!Resilience.Outcome.Infeasible} outcome: an infeasible
    configuration consumes budget and feeds the bad density like any
    failure, but never enters the good density and never touches the
    front.

    The scalarisation is deliberately a {e pure function} of the
    vector — fixed weights, no adaptive ideal point — so the scalar
    recorded in a run log can be verified bit-exactly against the
    recorded [#obj] vector on resume ({!of_log}). Telemetry, async
    driving, and resume all compose because the wrapper adds no
    hidden state beyond the vector archive, which the log
    reconstructs. *)

type scalarisation =
  | Linear  (** weighted sum: [Σ wᵢ·vᵢ] *)
  | Chebyshev  (** weighted Chebyshev: [max wᵢ·vᵢ] — reaches non-convex front regions *)

type options = {
  scalarisation : scalarisation;
  weights : float array;  (** one finite positive weight per objective (>= 2 objectives) *)
  reference : float array;  (** hypervolume reference point, same arity *)
}

val validate_options : options -> unit
(** Raises [Invalid_argument] on fewer than two objectives,
    non-positive or non-finite weights, or a reference point of the
    wrong arity. Called by every constructor. *)

val scalarise : options -> float array -> float
(** The scalar the campaign minimizes for a given objective vector.
    Pure: equal vectors scalarise bit-identically, which is what the
    resume verification relies on. Raises [Invalid_argument] on an
    arity mismatch. *)

type measurement =
  | Vector of float array
      (** successful measurement: one finite value per objective *)
  | Failure of Resilience.Outcome.t
      (** any non-[Value] outcome, including [Infeasible]; reporting
          [Failure (Value _)] raises [Invalid_argument] *)

type t

val create :
  ?telemetry:Telemetry.Trace.t ->
  ?options:Campaign.options ->
  ?on_outcome:(int -> Param.Config.t -> Resilience.Evaluator.verdict -> unit) ->
  ?on_gate:(Dataset.Runlog.gate -> unit) ->
  ?on_vector:(int -> float array -> unit) ->
  moo:options ->
  mode:Campaign.mode ->
  rng:Prng.Rng.t ->
  space:Param.Space.t ->
  budget:int ->
  unit ->
  t
(** Start a multi-objective campaign. [on_vector] fires once per
    successful evaluation with the entry index and the raw vector —
    pass it to {!Dataset.Runlog.writer_append} as an [Obj] record
    there to persist [#obj] lines alongside the scalar rows the
    campaign's [on_outcome] writes. All other arguments pass through
    to {!Campaign.create}. *)

val suggest : ?at:float -> t -> Campaign.step
(** Delegates to {!Campaign.suggest}. *)

val report :
  ?at:float -> ?eval_ms:float -> ?attempts:int -> ?retry_cost:float -> t -> id:int ->
  measurement -> unit
(** Report the measurement for pending suggestion [id]: validates the
    vector (arity, finiteness), scalarises it, hands the scalar
    verdict to {!Campaign.report}, archives the vector, and updates
    the Pareto front. [attempts] defaults to 1 and [retry_cost] to 0
    (wire a {!Resilience.Evaluator} verdict through them when the
    evaluation was retried). Raises like {!Campaign.report}, plus
    [Invalid_argument] on malformed vectors. *)

val front : t -> float array array
(** Current non-dominated objective vectors, lexicographically
    sorted. *)

val front_configs : t -> (Param.Config.t * float array) list
(** The front with the configurations that attained it (first
    attaining config wins for duplicated vectors — deterministic
    across resumes), in the same lexicographic order as {!front}. *)

val hypervolume : t -> float
(** {!Pareto.hypervolume} of the current front against the options'
    reference point. *)

val campaign : t -> Campaign.t
val is_finished : t -> bool

val result : t -> (Campaign.result, Campaign.run_error) result
(** The scalarised campaign result ([best_value] is the best
    scalarisation); the vector-valued outcome lives in {!front} /
    {!front_configs} / {!hypervolume}. *)

val of_log :
  ?telemetry:Telemetry.Trace.t ->
  ?options:Campaign.options ->
  ?policy:Resilience.Policy.t ->
  ?on_outcome:(int -> Param.Config.t -> Resilience.Evaluator.verdict -> unit) ->
  ?on_gate:(Dataset.Runlog.gate -> unit) ->
  ?on_vector:(int -> float array -> unit) ->
  moo:options ->
  mode:Campaign.mode ->
  log:Dataset.Runlog.t ->
  budget:int ->
  unit ->
  t
(** Resume from a run log: verifies that every recorded successful
    entry carries a [#obj] vector whose scalarisation reproduces the
    recorded scalar bit-exactly (raising [Failure
    Campaign.divergence_msg] otherwise, and [Failure] when a vector
    is missing), rebuilds the archive and front from the recorded
    vectors, and fast-forwards the underlying campaign via
    {!Campaign.of_log}. *)

val run :
  ?telemetry:Telemetry.Trace.t ->
  ?options:Campaign.options ->
  ?on_outcome:(int -> Param.Config.t -> Resilience.Evaluator.verdict -> unit) ->
  ?on_gate:(Dataset.Runlog.gate -> unit) ->
  ?on_vector:(int -> float array -> unit) ->
  moo:options ->
  rng:Prng.Rng.t ->
  space:Param.Space.t ->
  budget:int ->
  objective:(Param.Config.t -> measurement) ->
  unit ->
  t
(** Synchronous convenience driver: create, then run the campaign
    with {!Tuner.drive} at one evaluation in flight, each objective
    called once ({!Resilience.Policy.no_retry}), so its trace carries
    the driver's simulated clock. An invalid measurement raises as
    {!report} does. Returns the finished campaign for front /
    hypervolume / result queries. *)
