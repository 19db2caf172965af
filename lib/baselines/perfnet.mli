(** PerfNet baseline (Marathe et al., SC 2017 — paper ref [11]):
    deep-learning transfer. An MLP regressor is trained on abundant
    source-domain observations (one-hot encoded configurations,
    log-standardized objectives), fine-tuned on a small random set of
    target-domain evaluations, and the remaining evaluation budget is
    spent on the configurations with the best predicted target
    performance. The selected set (random fine-tune samples plus
    top-predicted samples) is what the Recall metric scores. *)

type options = {
  hidden : int list;  (** hidden-layer widths (default [64; 32]) *)
  source_training : Nn.Mlp.training;
  finetune_training : Nn.Mlp.training;
  finetune_fraction : float;
      (** fraction of the budget spent on random fine-tuning samples
          (default 0.5); the rest goes to top-predicted candidates *)
  max_source_samples : int;
      (** cap on source rows used for training (default 2000) —
          the published source datasets have tens of thousands of
          rows, far more than the regressor needs *)
}

val run :
  ?options:options ->
  rng:Prng.Rng.t ->
  space:Param.Space.t ->
  source:(Param.Config.t * float) array ->
  objective:(Param.Config.t -> float) ->
  budget:int ->
  unit ->
  Outcome.t
(** [options] defaults to the field defaults above. Requires a finite
    space (predictions are ranked over its enumeration) and non-empty
    source data. *)
