(** Multi-objective primitives: Pareto dominance, an incremental
    non-dominated archive, and an exact hypervolume indicator.

    Every objective minimizes, matching the rest of the library; a
    point is a [float array] with one entry per objective. NaN
    coordinates are rejected with [Invalid_argument] everywhere — a
    NaN comparison would silently corrupt dominance — while
    infinities are tolerated (they behave like very bad values). *)

val dominates : float array -> float array -> bool
(** [dominates a b]: [a] is no worse than [b] in every objective and
    strictly better in at least one — a strict partial order
    (irreflexive, asymmetric, transitive). Raises [Invalid_argument]
    on empty vectors, mismatched arities, or NaN coordinates. *)

val point_equal : float array -> float array -> bool
(** Coordinate-wise [Float.equal] (so NaN equals NaN and [0.] differs
    from [-0.]), plus arity equality. *)

type front
(** A mutable non-dominated archive. The archived set is always
    mutually non-dominated and duplicate-free, and is a pure function
    of the set of points offered to {!add} — insertion order never
    matters. *)

val create : arity:int -> front
(** An empty archive for [arity]-objective points ([arity >= 1],
    [Invalid_argument] otherwise). *)

val size : front -> int
(** Number of archived (non-dominated, distinct) points. *)

val add : front -> float array -> bool
(** Offer a point. Returns [false] and leaves the archive untouched
    when an archived point dominates or equals it; otherwise evicts
    every archived point the newcomer dominates, archives it, and
    returns [true]. The point is copied — callers may reuse the
    buffer. Raises [Invalid_argument] on arity mismatch or NaN. *)

val points : front -> float array array
(** The archived points, sorted lexicographically (deterministic
    regardless of insertion history). Fresh copies. *)

val of_points : arity:int -> float array list -> front
(** Batch construction: fold {!add} over the list. *)

val hypervolume : reference:float array -> front -> float
(** Exact hypervolume: the Lebesgue measure of the region dominated
    by the archive and bounded above by [reference]. Points not
    strictly better than the reference in every objective contribute
    nothing; a larger value means a better front. Monotone: adding a
    newly non-dominated point never decreases it. Raises
    [Invalid_argument] on a non-finite or arity-mismatched
    reference. Exponential in the number of objectives (slicing
    recursion) — intended for the 2-3 objective fronts the
    simulators expose. *)
