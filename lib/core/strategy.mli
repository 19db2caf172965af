(** Candidate-selection strategies (paper §III-D): one function per
    strategy.

    [Ranking] ({!rank}) scores every not-yet-evaluated configuration of
    a finite, index-encoded pool ({!Surrogate.Pool}) and keeps the
    best k. It runs through the compiled scorer
    ({!Surrogate.compile}), whose scores are bit-identical to the
    naive {!Surrogate.score}, and streams them through a bounded heap
    ({!Topk_stream}): no per-candidate score array is ever
    materialized, so a 10^7-row virtual pool ranks in O(k) space. The
    rows to skip come from a caller-kept {!Exclusion} set. Campaigns
    rank for one configuration per step; successive halving ranks for
    one rung-0 cohort.

    [Proposal] ({!propose}) samples candidates from the good density
    pg (applicable to continuous or huge spaces) and picks the
    best-scoring draw; duplicates with the history are re-drawn a
    bounded number of times and then allowed (a repeated evaluation is
    harmless, merely uninformative). *)

type t =
  | Ranking
  | Proposal of { n_candidates : int }

val default : t
(** [Ranking]. *)

(** Streaming bounded top-k over (score, index) pairs under the total
    order "score descending, {e equal scores toward the smaller
    index}": a min-heap of at most [k] entries keyed by (score,
    -index), so the root is the worst kept entry and each offer is one
    comparison against it. Holds indices only — no candidate values,
    no per-candidate allocation. Because indices are distinct, the
    kept set is the exact top-k under that order, tie order included,
    whatever the offer order. *)
module Topk_stream : sig
  type t

  val create : int -> t
  (** Requires [k >= 1]. *)

  val offer : t -> float -> int -> unit
  (** [offer t score index]. Indices must be distinct across offers. *)

  val to_desc : t -> (float * int) list
  (** Best first (score descending, ties toward the smaller index).
      Drains the heap: the accumulator is empty afterwards. *)
end

(** The pool rows guided ranking skips: a set of pool indices.
    Campaigns keep one for their whole life and add a configuration's
    rows ({!Surrogate.Pool.indices_of}) once, when it is first issued
    or warm-started, so a ranking step never rebuilds the evaluated
    set and never allocates memory proportional to the pool. The
    ranking scan consults it only for rows that already pass the
    top-k admission test. *)
module Exclusion : sig
  type t

  val create : unit -> t
  val add : t -> int -> unit
  (** [add t i] excludes pool row [i]. *)

  val mem : t -> int -> bool
  val cardinal : t -> int

  val add_config : t -> Surrogate.Pool.t -> Param.Config.t -> unit
  (** Exclude every row of the pool holding this configuration (none
      when it is not in the pool). *)

  val elements : t -> int list
  (** Ascending. *)
end

val rank :
  ?telemetry:Telemetry.Trace.t ->
  ?compiled:Surrogate.Compiled.t ->
  k:int ->
  surrogate:Surrogate.t ->
  encoded:Surrogate.Pool.t ->
  excluded:Exclusion.t ->
  unit ->
  Param.Config.t list
(** The [Ranking] selection: up to [k] configurations of [encoded]
    with the highest expected improvement, best first (ties toward the
    smaller pool index), skipping the rows in [excluded]. Fewer than
    [k] come back when the pool runs out; none on an exhausted pool.
    Requires [k >= 1].

    [compiled] supplies a prebuilt scorer (e.g. from
    {!Surrogate.Refit.update}); it must wrap [encoded] or
    [Invalid_argument] is raised, and when present no [Compile] span
    is emitted here (the refit engine already emitted it). Otherwise
    the surrogate is compiled against [encoded] on the spot.

    [telemetry] receives a [Rank] span per call (the scoring scan,
    with the exclusion set's size and the leaf rows the scan reached);
    tracing never affects which candidates are selected. *)

val propose :
  rng:Prng.Rng.t ->
  surrogate:Surrogate.t ->
  evaluated:unit Param.Config.Table.t ->
  n_candidates:int ->
  Param.Config.t
(** The [Proposal] selection: draw [n_candidates] configurations from
    the good density and return the best-scoring one (the first of
    equal scores; a NaN score neither beats nor is beaten). A draw
    already in [evaluated] (a set: values are unused) is re-drawn up
    to a bounded number of times and then kept. Requires
    [n_candidates >= 1]. *)

val select_many_encoded :
  ?telemetry:Telemetry.Trace.t ->
  ?workers:Parallel.Pool.t ->
  ?compiled:Surrogate.Compiled.t ->
  k:int ->
  rng:Prng.Rng.t ->
  surrogate:Surrogate.t ->
  encoded:Surrogate.Pool.t ->
  evaluated:unit Param.Config.Table.t ->
  unit ->
  Param.Config.t list
(** {!rank} against an evaluated set instead of an {!Exclusion} set
    (rebuilt per call); [workers] and [rng] are ignored. This adapter
    exists only because the end-to-end benchmark
    ([e2ebench/bigpool.ml]) calls it, and goes when that benchmark
    moves to {!rank}. *)
