(** Multi-fidelity successive-halving scheduler (BOHB-style).

    HPC simulators expose natural fidelity knobs — node count for
    Kripke and HYPRE, problem size for LULESH — whose cheap settings
    rank configurations imperfectly but far from randomly. A bracket
    evaluates a cohort of configurations at the cheapest rung, keeps
    the top [1/eta] fraction, re-evaluates the survivors one rung up,
    and repeats until the survivors reach full fidelity. Low-rung
    observations are never mixed into the full-fidelity history;
    they reach the surrogate only as weighted prior evidence through
    the same channel transfer learning uses ({!Surrogate.fit}'s
    [priors]), so the exact observations stay exact.

    The scheduler composes with the asynchronous engine's simulated
    clock: up to [k] evaluations are in flight at once, a rung-[r]
    evaluation completes [plan.costs.(r)] simulated units after
    submission (ties break toward the earlier submission), and all
    bracket decisions are driven by that clock — never wall time —
    so a campaign is bit-reproducible from its seed. *)

type plan = {
  costs : float array;
      (** simulated cost of one evaluation at each rung, in
          full-fidelity-equivalent units: strictly increasing, every
          entry finite and positive, last entry exactly [1.] (the
          full-fidelity rung). A single-entry plan is a flat campaign
          (see {!run}). *)
  eta : float;
      (** promotion ratio: each rung closure keeps the best
          [ceil (n / eta)] of its [n] results (at least one). Must be
          finite and greater than 1. *)
  cohort : int;  (** configurations entering rung 0 of each bracket *)
  brackets : int;  (** successive brackets to run (sequentially) *)
  low_weight : float;
      (** base prior weight of low-rung evidence: the rung-[r]
          observation pool joins bracket-seeding fits with weight
          [low_weight *. costs.(r)], so cheaper (noisier) rungs count
          for less. Finite and non-negative; [0.] disables the
          channel. *)
  cost_budget : float option;
      (** stop submitting once the accumulated simulated cost of all
          submissions would exceed this; [None] leaves only the
          submission-count budget. *)
}

val default_plan : plan
(** costs [[|0.25; 0.5; 1.|]], eta 3, cohort 18, brackets 4,
    low_weight 0.25, no cost budget. *)

val validate_plan : plan -> unit
(** Raises [Invalid_argument] on any out-of-range field (see the
    field docs above). Every entry point validates; this is exposed
    so front-ends can fail before starting a campaign. *)

type result = {
  run : Tuner.result;
      (** the full-fidelity campaign view: [history], [trajectory],
          and [best_*] cover top-rung evaluations only (completion
          order); [n_attempts] counts evaluations at {e every} rung;
          [failures] is empty (fidelity objectives are total). *)
  total_cost : float;
      (** accumulated simulated cost of every submission, in
          full-fidelity-equivalent units. *)
  rung_evals : int array;  (** completed evaluations per rung *)
  n_promoted : int array;
      (** configurations promoted {e out of} each rung (the top
          entry is always 0). *)
  n_brackets : int;  (** brackets that actually seeded a cohort *)
  low_history : (int * Param.Config.t * float) array;
      (** every low-rung observation as [(rung, config, value)], in
          completion order across brackets. *)
}

val run :
  ?telemetry:Telemetry.Trace.t ->
  ?options:Tuner.options ->
  ?candidates:Param.Config.t array ->
  ?on_eval:(int -> Param.Config.t -> float -> unit) ->
  ?on_record:(Dataset.Runlog.record -> unit) ->
  plan:plan ->
  k:int ->
  rng:Prng.Rng.t ->
  space:Param.Space.t ->
  objective:(rung:int -> Param.Config.t -> float) ->
  budget:int ->
  unit ->
  (result, Tuner.run_error) Stdlib.result
(** [run ~plan ~k ~rng ~space ~objective ~budget ()] executes
    [plan.brackets] successive-halving brackets with up to [k]
    evaluations in flight. [objective ~rung config] measures [config]
    at the given rung index (into [plan.costs]) and must return a
    finite value. [budget] caps total submissions across all rungs.

    {b Degenerate plan.} A single-rung plan delegates directly to
    {!Tuner.run_async} at the same [k] (and this module's {!resume} to
    {!Tuner.resume_async}) — same options, same rng stream, same
    submission and completion schedule — so a flat fidelity campaign
    is bit-identical to the async engine's
    ([eta], [cohort], [brackets], and [low_weight] are unused; the
    objective is called with [~rung:0]).

    {b Bracket seeding.} Bracket 0's cohort is drawn uniformly at
    random (duplicates redrawn a bounded number of times). Later
    brackets fit the surrogate on the full-fidelity history, mix in
    one prior surrogate per populated low rung (weight
    [low_weight *. costs.(r)]), and rank the candidate pool; random
    draws fill any shortfall. Multi-rung plans require the [Ranking]
    strategy, a finite space (or explicit [candidates]), and
    [options.prior = None] — the prior channel carries the low-rung
    evidence internally.

    {b Scheduling.} Slots fill from the lowest rung with queued
    work. A rung closes when every configuration that entered it has
    completed; the closure sorts results ascending (stable on
    completion order), promotes the best [ceil (n / eta)] (at least
    one) to the next rung, and abandons the rest. Each closure of a
    non-top rung emits a [Promote] (and, when anything was dropped,
    a [Demote]) telemetry event and one [Rung] record through
    [on_record].

    {b Persistence.} [on_eval i config value] fires per top-rung
    completion (0-based, completion order) — the run-log entry
    stream. [on_record] fires per low-rung completion with the
    [Fid] record to persist, and per closure with the [Rung] record;
    {!Dataset.Runlog.writer_append} persists either. Neither callback
    fires for replayed results (see {!resume}).

    Returns [Error] only when no full-fidelity evaluation completed
    (e.g. the cost budget was exhausted mid-bracket);
    [error_attempts] still counts the low-rung evaluations spent. *)

val resume :
  ?telemetry:Telemetry.Trace.t ->
  ?options:Tuner.options ->
  ?candidates:Param.Config.t array ->
  ?on_eval:(int -> Param.Config.t -> float -> unit) ->
  ?on_record:(Dataset.Runlog.record -> unit) ->
  plan:plan ->
  k:int ->
  log:Dataset.Runlog.t ->
  objective:(rung:int -> Param.Config.t -> float) ->
  budget:int ->
  unit ->
  (result, Tuner.run_error) Stdlib.result
(** Reconstructs an interrupted fidelity campaign from its run log
    and continues it: the rng is rebuilt from [log.seed], the
    recorded entries replay as the top-rung completion prefix, and
    the recorded [#fid] / [#rung] streams replay as the low-rung and
    closure prefixes: each result is taken from the record instead of
    calling [objective], and each record is verified against the
    recomputed schedule. Given the same [plan], [options], [k], and
    objective, an interrupted-then-resumed campaign is bit-for-bit
    identical to an uninterrupted one. Tampered records, a changed
    plan, or records the resumed campaign never reaches raise
    [Failure]. Raises [Invalid_argument] if the log holds more
    entries than [budget], and [Failure] on recorded evaluation
    failures (fidelity objectives are total) or non-dense indices. *)
