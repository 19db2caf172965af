(** Minimal discrete-event simulation engine.

    Events are thunks scheduled at absolute times; running the engine
    pops them in time order and executes them, letting handlers
    schedule further events. This is the substrate under the
    {!Taskgraph} scheduler simulator. *)

type t

val create : unit -> t

val now : t -> float
(** Current simulation time: 0 before the first event, otherwise the
    timestamp of the event being (or last) processed. *)

val schedule : t -> at:float -> (t -> unit) -> unit
(** Schedule a handler at absolute time [at]. Raises
    [Invalid_argument] if [at] is in the simulated past. *)

val schedule_after : t -> delay:float -> (t -> unit) -> unit
(** Schedule relative to {!now}. Requires a non-negative delay. *)

val run : t -> float
(** Process events until the queue is empty; returns the final
    simulation time. Event counts are bounded by what handlers
    schedule. *)

val events_processed : t -> int
