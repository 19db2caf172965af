(** The HiPerBOt surrogate model (paper §II, §III).

    Observations are split at the α-quantile of their objective values
    into "good" (best α fraction) and "bad"; a factorized density is
    estimated for each side (pg, pb). The expected improvement of a
    candidate is, up to the monotone transform of eq. 5, the ratio
    pg(x)/pb(x) — candidates likely under the good density and
    unlikely under the bad one are worth evaluating next. *)

type options = {
  alpha : float;  (** quantile threshold for the good/bad split (paper: 0.2) *)
  density : Density.options;
}

val default_options : options

type t

val fit :
  ?telemetry:Telemetry.Trace.t ->
  ?options:options ->
  ?priors:(t * float) list ->
  ?extra_bad:Param.Config.t array ->
  Param.Space.t ->
  (Param.Config.t * float) array ->
  t
(** [fit space observations] estimates the surrogate. At least one
    observation is required, every objective value must be finite, and
    every prior weight must be finite and non-negative.
    [priors] mixes surrogates fitted on source domains into both
    densities, each with its weight (transfer learning, paper
    eqs. 9-10), folded into each density in list order via
    {!Density.merge_prior}. Every prior must be over the same space.

    [telemetry] receives one [Refit] span per call (observation count,
    good/bad split sizes, α, threshold, prior source count and total
    effective prior weight, wall time).

    [extra_bad] are configurations with no objective value at all —
    crashed or invalid runs. They join the bad density unconditionally
    (they are certainly not good) without affecting the quantile
    threshold, steering selection away from the failing region. *)

val space : t -> Param.Space.t
val alpha : t -> float
val threshold : t -> float
(** The α-quantile objective value separating good from bad. *)

val n_good : t -> int
val n_bad : t -> int

val good_density : t -> int -> Density.t
(** Per-parameter good density pg,xi. *)

val bad_density : t -> int -> Density.t

val good_pdf : t -> Param.Config.t -> float
(** Factorized pg(x) (eq. 7). *)

val bad_pdf : t -> Param.Config.t -> float

val log_ratio : t -> Param.Config.t -> float
(** [log (pg x / pb x)], accumulated per parameter — the log-space
    quantity the Ranking strategy actually orders by. Does not
    re-validate the configuration. *)

val score : t -> Param.Config.t -> float
(** The density ratio pg(x)/pb(x) — the quantity maximized by the
    selection strategies. Strictly positive. [exp (log_ratio t x)]
    exactly. *)

val expected_improvement : t -> Param.Config.t -> float
(** Eq. 5 exactly: [1 / (alpha + (pb/pg) (1 - alpha))]. A monotone
    transform of {!score}, exposed for reporting (Fig. 1b). *)

val sample_good : t -> Prng.Rng.t -> Param.Config.t
(** Draw a configuration from pg — the Proposal strategy's generator
    (paper §III-D). *)

val param_js_divergence : t -> int -> float
(** JS divergence between pg,xi and pb,xi for parameter [i] — the
    parameter-importance measure of §VI. *)

(** An index-encoded candidate pool: each configuration is flattened
    to one small integer per parameter (the choice index for discrete
    parameters, the position in the sorted distinct-value grid for
    continuous ones). The encoding depends only on the space and the
    pool — not on any fitted surrogate — so it is built once per
    campaign and reused across refits.

    Codes are stored in a flat off-heap [Bigarray] (2 bytes per
    parameter when every slot count fits in 16 bits, a native word
    otherwise), so a 10^6-config pool costs a few MB and is shared
    across worker domains without copying. A finite all-discrete
    space can avoid materialization entirely via {!of_space}: the
    resulting {e virtual} pool's row [i] is
    [Param.Space.config_of_rank space i] (exactly
    [Param.Space.enumerate] order) decoded on demand, so a
    10^7-config pool costs O(1) memory. *)
module Pool : sig
  type t

  val encode : Param.Space.t -> Param.Config.t array -> t
  (** Encode a candidate pool. Every configuration must be valid for
      the space. *)

  val of_space : Param.Space.t -> t
  (** The virtual pool holding every configuration of a finite
      all-discrete space in [Param.Space.enumerate] order, without
      materializing any of them. Raises [Invalid_argument] for
      continuous spaces. *)

  val length : t -> int
  val is_virtual : t -> bool

  val config : t -> int -> Param.Config.t
  (** Row [i]; decoded on demand (freshly allocated) for virtual
      pools. *)

  val configs : t -> Param.Config.t array
  (** The original configuration array, physically the one passed to
      {!encode}. Raises [Invalid_argument] on a virtual pool, which
      has no materialized array. *)

  val space : t -> Param.Space.t

  val indices_of : t -> Param.Config.t -> int list
  (** Every pool position holding this configuration ([[]] when
      absent) — how a campaign maps each issued configuration into
      its ranking exclusion set once, without touching any other
      candidate. On a virtual pool this is the configuration's
      enumeration rank. *)

  val codes_bytes : t -> int
  (** Off-heap bytes held by the encoded code matrix (0 for virtual
      pools) — the bench's memory column. *)

  val radices : t -> int array option
  (** [Some radices] for a virtual pool — the per-parameter choice
      counts, most-significant first, defining the mixed-radix row
      numbering ([None] for encoded pools). Exposed for the ranking
      scan's branch-and-bound walk over the digit tree. *)
end

(** A compiled scorer: one [log pg - log pb] lookup table per
    parameter (histogram normalization folded in once, KDE evaluated
    once per grid cell), so scoring a pool element is [n_params]
    reads and adds over its int-encoded row. The tables are
    concatenated in one flat float64 [Bigarray]. Scores equal the
    naive {!score}/{!log_ratio} bit-for-bit. *)
module Compiled : sig
  type t

  val pool : t -> Pool.t
  val length : t -> int
  val config : t -> int -> Param.Config.t

  val log_ratio : t -> int -> float
  (** [log_ratio c i] equals [log_ratio surrogate (Pool.config pool i)]
      bit-for-bit. *)

  val score : t -> int -> float
  (** [exp (log_ratio c i)] — equals the naive {!score}
      bit-for-bit. *)

  val scores_into : t -> lo:int -> hi:int -> float array -> unit
  (** [scores_into t ~lo ~hi out] writes [log_ratio t i] for rows
      [lo <= i < hi] into [out.(i - lo)] — the streaming ranker's
      batched kernel, bit-identical to per-row {!log_ratio}. On a
      virtual pool the scan runs a mixed-radix odometer with
      left-to-right prefix sums: only the prefix from the lowest
      changed digit is recomputed per row (the same float operations
      a full per-row sum performs), avoiding per-row rank decoding.
      Requires [0 <= lo <= hi <= length] and
      [Array.length out >= hi - lo]. *)

  val table_bytes : t -> int
  (** Off-heap bytes held by the score table. *)

  val table : t -> (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t
  (** The concatenated per-parameter slot tables — read-only raw view
      for the ranking scan's inner loop. Entry [offsets.(p) + slot] is
      parameter [p]'s [log pg - log pb] at that slot. For a scorer
      returned by {!Refit.update} the buffer is reused in place by the
      next update. *)

  val offsets : t -> int array
  (** [offsets.(p)] is the start of parameter [p]'s slots in
      {!table}. Callers must not mutate. *)
end

val compile : ?telemetry:Telemetry.Trace.t -> t -> Pool.t -> Compiled.t
(** Precompute the per-parameter log-ratio tables of this surrogate
    over an encoded pool. Cost: one density evaluation per parameter
    per distinct value — amortized over the whole pool on every
    ranking pass. The pool must be encoded over the surrogate's
    space. [telemetry] receives one [Compile] span per call. *)

(** The refit engine: a per-campaign wrapper around {!fit} +
    {!compile} that builds the pool's per-parameter slot-value grids
    and the score table once, then refills that table in place on
    every update. *)
module Refit : sig
  type surrogate = t
  (** Alias for the enclosing surrogate type, shadowed by the
      engine's own [t] below. *)

  type t

  val create : ?options:options -> Pool.t -> t

  val update :
    ?telemetry:Telemetry.Trace.t ->
    ?priors:(surrogate * float) list ->
    ?extra_bad:Param.Config.t array ->
    t ->
    (Param.Config.t * float) array ->
    surrogate * Compiled.t
  (** Refit on the given observation history and return the surrogate
      plus a compiled scorer over the engine's pool, bit-identical to
      [compile (fit ...) pool]. Arguments mirror {!fit}. Emits one
      [Refit] and one [Compile] span, like the reference path. The
      returned scorer aliases the engine's table: it is valid until
      the next [update] on the same engine. *)
end
