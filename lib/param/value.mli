(** Runtime value of a single tunable parameter.

    Discrete values are stored as indices into their declaring
    [Spec.t]'s category/level table; continuous values are raw floats;
    permutation values store the full arrangement of [0..n-1]. Values
    only make sense relative to a spec — see {!Spec.validate}. *)

type t =
  | Categorical of int  (** index into the spec's label table *)
  | Ordinal of int  (** index into the spec's level table *)
  | Continuous of float
  | Permutation of int array
      (** an arrangement of [0..n-1]; [p.(pos)] is the element placed
          at position [pos] (e.g. a loop-nest order) *)

val equal : t -> t -> bool
val compare : t -> t -> int
val hash : t -> int

val to_index : t -> int
(** Index of a discrete value. A [Permutation] maps to its Lehmer
    (factorial-number-system) rank in [0, n!) — the bijection that
    lets index-encoded pools and compiled scorers handle permutation
    parameters unchanged. Raises [Invalid_argument] for
    [Continuous]. *)

val to_float_raw : t -> float
(** The float of a [Continuous] value. Raises [Invalid_argument] for
    discrete values. *)
