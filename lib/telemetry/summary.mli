(** In-memory trace aggregation and the end-of-campaign summary.

    Feed it events — live, as a {!Trace.sink}, or after the fact from
    a loaded {!Tracefile.t} — and render a per-phase time breakdown
    (refit / compile / rank / evaluate), the refit count, and p50/p95
    refit and ranking latencies. *)

type t

val create : unit -> t
val observe : t -> ts:float -> Event.t -> unit
val sink : t -> Trace.sink
(** A sink that feeds this aggregator (close is a no-op). *)

val of_trace : Tracefile.t -> t
(** Aggregate a loaded trace file. *)

(* Accessors used by tests and the CLI validator. *)
val refits : t -> int
val ranks : t -> int
val evals : t -> int
val failures : t -> int

val trust_sources : t -> (int * float * float * string) list
(** Last observed [(source, trust, weight, state)] per transfer
    source, sorted by source index — empty when the campaign emitted
    no [Trust]/[Gate] events (no gated prior), which keeps the
    per-source lines out of {!render} for ordinary campaigns. *)

val gate_decisions : t -> int
(** [Gate] events seen (attenuate/restore/drop/fallback transitions). *)

val fallback_refit : t -> int option
(** Refit ordinal of the pooled-prior fallback, if the campaign's
    whole prior was gated away. *)

val promotions : t -> int
(** Configurations promoted across all [Promote] events. *)

val demotions : t -> int
(** Configurations abandoned across all [Demote] events. *)

val rung_closures : t -> int
(** [Promote] events seen (one per successive-halving rung closure) —
    0 for flat campaigns, which keeps the fidelity line out of
    {!render}. *)

val submits : t -> int
(** [Submit] events seen — 0 for synchronous campaigns, which makes
    the async line of {!render} conditional. *)

val max_in_flight : t -> int
(** Deepest concurrent in-flight count reported by any [Submit]. *)

val sim_makespan : t -> float option
(** Largest simulated completion time over all [Complete] events: the
    campaign's simulated wall-clock under [k]-way concurrency. *)

val render : t -> string
(** Human-readable multi-line summary. *)
