(** Dense row-major matrices with the factorizations needed by the
    [gp] substrate (Cholesky) and the [nn] substrate (GEMM-style
    products). Dimensions are validated; mismatches raise
    [Invalid_argument]. *)

type t

val create : int -> int -> float -> t
val init : int -> int -> (int -> int -> float) -> t
val identity : int -> t
val rows : t -> int
val cols : t -> int
val get : t -> int -> int -> float
val set : t -> int -> int -> float -> unit
val copy : t -> t
val of_arrays : float array array -> t
val row : t -> int -> Vec.t
val col : t -> int -> Vec.t
val transpose : t -> t
val matmul : t -> t -> t
val mat_vec : t -> Vec.t -> Vec.t
val vec_mat : Vec.t -> t -> Vec.t
val outer : Vec.t -> Vec.t -> t
val trace : t -> float

val cholesky : t -> t
(** [cholesky a] returns the lower-triangular [l] with [l * l^T = a].
    Requires [a] symmetric positive definite; raises [Failure]
    otherwise. A small jitter should be added by the caller if the
    matrix is only positive semi-definite. *)

val solve_lower : t -> Vec.t -> Vec.t
(** Forward substitution: solves [l x = b] for lower-triangular [l]. *)

val solve_upper : t -> Vec.t -> Vec.t
(** Backward substitution: solves [u x = b] for upper-triangular [u]. *)

val cholesky_solve : t -> Vec.t -> Vec.t
(** [cholesky_solve l b] solves [a x = b] given [l = cholesky a]. *)

val log_det_from_cholesky : t -> float
(** Log-determinant of [a] from its Cholesky factor. *)
