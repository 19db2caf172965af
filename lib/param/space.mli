(** A parameter space: an ordered collection of parameter specs.

    Provides exhaustive enumeration for finite spaces (the Ranking
    selection strategy evaluates expected improvement over every
    candidate, paper §III-D), uniform random sampling for
    initialization, normalized distances for the GEIST k-NN graph, and
    one-hot numeric encodings for the PerfNet and GP baselines. *)

type t

val make : Spec.t list -> t
(** Parameter names must be distinct; raises [Invalid_argument]
    otherwise. *)

val specs : t -> Spec.t array

val equal : t -> t -> bool
(** Same parameters (names and domains) in the same order; O(1) when physically equal. *)

val n_params : t -> int
val spec : t -> int -> Spec.t

val index_of_name : t -> string -> int
(** Raises [Not_found] for unknown names. *)

val cardinality : t -> int option
(** Product of discrete choice counts; [None] if any parameter is
    continuous. *)

val is_finite : t -> bool

val validate : t -> Config.t -> bool
(** Arity matches and each value is valid for its spec. *)

val enumerate : t -> Config.t array
(** All configurations of a finite space in lexicographic order.
    Raises [Invalid_argument] for continuous spaces. *)

val config_rank : t -> Config.t -> int
(** Position of a configuration in {!enumerate}'s order, without
    materializing the enumeration. *)

val config_of_rank : t -> int -> Config.t
(** Inverse of {!config_rank}. *)

val index_encode : t -> Config.t -> int array
(** Per-parameter choice indices of a configuration of an all-discrete
    space — the flat integer encoding consumed by the compiled scorer.
    Raises [Invalid_argument] for invalid configurations or continuous
    parameters. *)

val index_decode : t -> int array -> Config.t
(** Inverse of {!index_encode}. *)

val random_config : t -> Prng.Rng.t -> Config.t

val distance : t -> Config.t -> Config.t -> float
(** Normalized per-parameter distance, averaged across parameters:
    categorical contributes 0/1 mismatch, ordinal the normalized level
    index gap, continuous the normalized range gap. Lies in [0, 1]. *)

val encode_width : t -> int
(** Total width of the one-hot numeric encoding. *)

val encode : t -> Config.t -> float array
(** One-hot encoding: categorical parameters expand to indicator
    blocks; ordinal and continuous map to single normalized scalars.
    Suitable as model input for the [nn] and [gp] substrates. *)

val to_string : t -> Config.t -> string
(** ["name=value name=value ..."] rendering. *)

