(** Deterministic, splittable pseudo-random number generation.

    The generator is xoshiro256** seeded through SplitMix64, which is
    the standard recommendation for initializing xoshiro state from a
    single 64-bit seed. All experiment repetitions in this repository
    derive their streams from [split] so that results are reproducible
    run-to-run and independent across repetitions. *)

type t
(** Mutable generator state. *)

val create : int -> t
(** [create seed] builds a generator from a single integer seed.
    Distinct seeds produce decorrelated streams. *)

val copy : t -> t
(** Independent copy of the current state. *)

val split : t -> t
(** [split rng] derives a fresh generator from [rng], advancing [rng].
    The returned stream is decorrelated from the parent. *)

val bits64 : t -> int64
(** Next raw 64-bit output. *)

val float : t -> float
(** Uniform float in [0, 1). *)

val float_range : t -> float -> float -> float
(** [float_range rng lo hi] is uniform in [lo, hi). Requires [lo < hi]. *)

val int : t -> int -> int
(** [int rng n] is uniform in [0, n). Requires [n > 0]. *)


val normal : t -> float
(** Standard normal deviate (Box–Muller, one value per call). *)

val gaussian : t -> mu:float -> sigma:float -> float
(** Normal deviate with mean [mu] and standard deviation [sigma]. *)

val exponential : t -> rate:float -> float
(** Exponential deviate with the given rate. Requires [rate > 0]. *)

val categorical : t -> float array -> int
(** [categorical rng weights] samples an index with probability
    proportional to [weights.(i)]. Requires non-negative weights with a
    positive sum. *)

val shuffle_in_place : t -> 'a array -> unit
(** Fisher–Yates shuffle. *)

val sample_without_replacement : t -> int -> int -> int array
(** [sample_without_replacement rng k n] draws [k] distinct indices
    from [0, n). Requires [0 <= k <= n]. *)

val choose : t -> 'a array -> 'a
(** Uniform choice from a non-empty array. *)
