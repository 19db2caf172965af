(** Candidate-selection strategies (paper §III-D).

    [Ranking] scores every not-yet-evaluated configuration of a finite
    space and picks the best — exhaustive, duplicate-free, and the
    paper's default for the discrete HPC spaces. Ranking always runs
    through the compiled scorer ({!Surrogate.compile}): the candidate
    pool is index-encoded (once per campaign when the caller passes
    [?encoded]) and each refit streams compiled scores through a
    bounded heap ({!Topk_stream}) — no per-candidate score array is
    ever materialized, so a 10^7-row virtual pool ranks in O(k) space.
    Scores are bit-identical to the naive {!Surrogate.score}, so
    switching paths never changes a selection.

    [Proposal] samples candidates from the good density pg (applicable
    to continuous or huge spaces) and picks the best-scoring draw;
    duplicates with the history are re-drawn a bounded number of times
    and then allowed (a repeated evaluation is harmless, merely
    uninformative). *)

type t =
  | Ranking
  | Proposal of { n_candidates : int }

val default : t
(** [Ranking]. *)

(** Bounded best-k accumulator with explicit, documented tie-breaking:
    entries are ordered by score descending, and {e equal scores are
    resolved toward the smaller index} — the pool position for Ranking
    ({!offer_indexed}) or the insertion order for {!offer}. The same
    multiset of offers therefore yields the same top-k whatever the
    offer order. *)
module Topk : sig
  type 'a t

  val create : int -> 'a t
  (** [create k] holds the best [k] offers. Requires [k >= 1]. *)

  val offer_indexed : 'a t -> 'a -> float -> int -> unit
  (** [offer_indexed t value score index] — ties broken toward the
      smaller [index]. Callers must keep indices distinct. *)

  val offer : 'a t -> 'a -> float -> unit
  (** {!offer_indexed} with an internal insertion counter as the
      index: among equal scores, the earliest offer ranks first. *)

  val to_list_desc : 'a t -> 'a list
  (** Best first. *)
end

(** Streaming bounded top-k over (score, index) pairs: a min-heap of
    at most [k] entries keyed by (score, -index), so the root is the
    worst kept entry under {!Topk}'s total order and each offer is
    one comparison against it. Holds indices only — no candidate
    values, no per-candidate allocation. Because indices are
    distinct, the kept set is the exact top-k under a total order:
    the result equals {!Topk}'s for the same offers, tie order
    included, independent of offer order. *)
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

  val of_table : Surrogate.Pool.t -> unit Param.Config.Table.t -> t
  (** The rows of every configuration in the table: the set a
      campaign whose seen set is the table would hold. *)

  val elements : t -> int list
  (** Ascending. *)
end

val select :
  ?telemetry:Telemetry.Trace.t ->
  ?encoded:Surrogate.Pool.t ->
  t ->
  rng:Prng.Rng.t ->
  surrogate:Surrogate.t ->
  pool:Param.Config.t array ->
  evaluated:unit Param.Config.Table.t ->
  Param.Config.t option
(** Pick the next configuration to evaluate, or [None] when the pool
    is exhausted ([Ranking] on a fully-evaluated space).

    [pool] is the enumerated space for [Ranking] (ignored by
    [Proposal]); [evaluated] is the already-evaluated set (values are
    unused; the table is a set). See {!select_many} for the other
    options. *)

val select_many :
  ?telemetry:Telemetry.Trace.t ->
  ?encoded:Surrogate.Pool.t ->
  t ->
  k:int ->
  rng:Prng.Rng.t ->
  surrogate:Surrogate.t ->
  pool:Param.Config.t array ->
  evaluated:unit Param.Config.Table.t ->
  Param.Config.t list
(** Up to [k] distinct configurations with the highest expected
    improvement, best first — one surrogate refit amortized over a
    batch of evaluations (e.g. to launch [k] application runs in
    parallel). Fewer than [k] are returned when the pool runs out.
    Requires [k >= 1].

    [Ranking] options: [encoded] supplies the index-encoded pool (built once per campaign with {!Surrogate.Pool.encode}); it
    must wrap the same [pool] array, otherwise [Invalid_argument] is
    raised. When absent the pool is encoded on the fly.

    The evaluated set is turned into an {!Exclusion} set once per
    call ({!Exclusion.of_table}: one {!Surrogate.Pool.indices_of} per
    evaluated configuration, nothing per pool row). Campaigns that
    rank repeatedly keep that set incrementally and call
    {!select_many_excluding} instead; both run the same scan and
    select identically.

    [telemetry] receives a [Compile] span (table build) and a [Rank]
    span (the scoring scan, with the exclusion set's size and the leaf rows the scan reached) per
    [Ranking] call; tracing never affects which candidates are
    selected. *)

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
(** {!select_many}'s Ranking path over an encoded pool directly — the
    entry point for virtual pools ({!Surrogate.Pool.of_space}), which
    have no materialized configuration array to pass. [compiled]
    supplies a prebuilt scorer (e.g. from {!Surrogate.Refit.update});
    it must wrap [encoded] or [Invalid_argument] is raised, and when
    present no [Compile] span is emitted here (the refit engine
    already emitted it). [workers] and [rng] are ignored: ranking is
    one sequential scan and draws nothing. Both stay only so that
    existing callers that still pass them compile. All other options
    as in {!select_many}. *)

val select_many_excluding :
  ?telemetry:Telemetry.Trace.t ->
  ?compiled:Surrogate.Compiled.t ->
  k:int ->
  surrogate:Surrogate.t ->
  encoded:Surrogate.Pool.t ->
  excluded:Exclusion.t ->
  unit ->
  Param.Config.t list
(** {!select_many_encoded} against a caller-kept exclusion set: the
    scan skips the rows in [excluded]. The selection equals
    {!select_many_encoded}'s with an evaluated set whose
    {!Exclusion.of_table} is [excluded]; only the per-call rebuild of
    the set is saved. *)
