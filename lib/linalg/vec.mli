(** Dense float vectors.

    Thin wrappers over [float array] with the arithmetic needed by the
    [nn] and [gp] substrates. All binary operations require equal
    lengths and raise [Invalid_argument] otherwise. *)

type t = float array

val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> t -> t
(** Element-wise product. *)

val axpy : float -> t -> t -> unit
(** [axpy a x y] performs [y <- a*x + y] in place. *)

val dot : t -> t -> float
val norm2 : t -> float
(** Euclidean norm. *)

val sum : t -> float
val mean : t -> float
val max : t -> float
val min : t -> float
val argmax : t -> int
val argmin : t -> int
val sq_dist : t -> t -> float
(** Squared Euclidean distance. *)
