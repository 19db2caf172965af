(** Activation functions with derivatives, for the [nn] layers. *)

type t = Relu | Tanh | Identity

val apply : t -> float -> float
val derivative : t -> float -> float
(** Derivative as a function of the pre-activation input. *)
