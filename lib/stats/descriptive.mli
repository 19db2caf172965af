(** Descriptive statistics over float arrays.

    Empty-input behaviour: functions that are undefined on empty data
    raise [Invalid_argument]. *)

val mean : float array -> float
val variance : float array -> float
(** Unbiased sample variance (n-1 denominator); 0 for singletons. *)

val min : float array -> float
val max : float array -> float
val sum : float array -> float
val median : float array -> float
val geometric_mean : float array -> float
(** Requires strictly positive entries. *)

val normalize : float array -> float array
(** Rescale so entries sum to 1. Requires a positive sum. *)

val standardize : float array -> float array * float * float
(** [(z, mu, sigma)] where [z.(i) = (x.(i) - mu) / sigma]. If the data
    has zero variance, sigma is reported as 1 so z is all-zero. *)
