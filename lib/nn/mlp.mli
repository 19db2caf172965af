(** Multi-layer perceptron regressor (scalar output), trained with
    mini-batch Adam on mean-squared error.

    This is the substrate for the PerfNet transfer-learning baseline
    (paper ref [11]): train a regressor on abundant source-domain
    samples, then fine-tune the same weights on the few target-domain
    samples (see {!fine_tune}), and rank candidate configurations by
    predicted performance.

    Everything is deterministic given the [Prng.Rng.t] passed at
    creation and training time. *)

type t

val create : rng:Prng.Rng.t -> layer_sizes:int list -> ?hidden:Activation.t -> unit -> t
(** [create ~rng ~layer_sizes:[d_in; h1; ...; 1] ()] builds a network
    with He-initialized weights. The last size must be 1 (scalar
    regression); at least one weight layer is required. [hidden]
    defaults to [Relu]; the output layer is always linear. *)

val copy : t -> t
(** Deep copy (weights and optimizer state), for fine-tuning without
    destroying the source model. *)

val n_parameters : t -> int
val predict : t -> float array -> float

type training = {
  epochs : int;
  batch_size : int;
  learning_rate : float;
  weight_decay : float;  (** L2 coefficient, 0 to disable *)
}

val default_training : training
(** 200 epochs, batch 32, lr 1e-3, no weight decay. *)

val train : t -> rng:Prng.Rng.t -> ?config:training -> inputs:float array array -> targets:float array -> unit -> float
(** Train in place; returns the final epoch's mean training loss.
    Raises [Invalid_argument] on empty data or input/target length
    mismatch. *)

val fine_tune : t -> rng:Prng.Rng.t -> ?config:training -> inputs:float array array -> targets:float array -> unit -> float
(** {!train} with the Adam moments reset — continue from the current
    weights on new data (the PerfNet transfer step). *)

val mse : t -> inputs:float array array -> targets:float array -> float
