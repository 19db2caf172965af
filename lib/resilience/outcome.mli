(** The failure taxonomy of the resilient evaluation layer.

    An HPC evaluation can succeed with a measured objective, fail in a
    way worth retrying (node crash, network hiccup, scheduler
    preemption), fail in a way that will never succeed (invalid
    solver/smoother combination, diverging configuration), or blow
    through its time budget. The taxonomy is what lets the retry
    policy distinguish "try again" from "give up and feed the bad
    density". *)

type t =
  | Value of float  (** successful measurement *)
  | Transient of string  (** retryable failure with a diagnostic *)
  | Permanent of string  (** deterministic failure; retrying is futile *)
  | Timeout  (** the evaluation exceeded its cost budget *)
  | Infeasible of string
      (** the configuration violates a hard constraint (invalid
          parameter combination, resource limit): it consumes budget
          and feeds the bad density exactly like a failure, is never
          retried, and never enters the good density [pg] *)

val value : t -> float option
(** The measurement of a [Value], [None] otherwise. *)

val kind : t -> string
(** Stable one-word tag: ["ok"], ["transient"], ["permanent"],
    ["timeout"], ["infeasible"] — the strings the run-log v2 format
    uses. *)

val of_option : float option -> t
(** Adapter for [float option] objectives: [None] becomes a
    [Permanent] failure, which is never retried. *)
