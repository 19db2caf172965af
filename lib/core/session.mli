(** A campaign and its run log: how CLI [tune] and {!Serve} open,
    recover and persist a campaign. An existing log is rewritten (torn
    tail dropped) only once {!start} has replayed it, or at the first
    line an engine of its own persists ({!record}, {!append}), so a
    refused open leaves every byte as it was. *)

exception Seed_mismatch of int
exception Space_mismatch

type t

val open_log :
  ?strict_seed:bool -> ?resume:bool -> ?path:string -> name:string -> seed:int ->
  space:Param.Space.t -> unit -> t
(** With [resume] (default [true]) and a file at [path], load it with
    [~recover:true], then check its seed (only with [strict_seed]; else
    the log's seed wins) and space. Without [path] nothing persists. *)

val recovered : t -> Dataset.Runlog.t option

val start :
  ?telemetry:Telemetry.Trace.t -> ?options:Campaign.options -> ?policy:Resilience.Policy.t ->
  ?duration:(Param.Config.t -> Resilience.Evaluator.verdict -> float) ->
  ?shared_pool:Surrogate.Pool.t ->
  ?on_outcome:(int -> Param.Config.t -> Resilience.Evaluator.verdict -> unit) ->
  ?k:int -> budget:int -> t -> Campaign.t
(** {!Campaign.of_log} on the recovered log, else {!Campaign.create},
    at [k] in flight (default 1), persisting every [#gate] decision and
    every verdict (before [on_outcome] sees it). A driver on a
    simulated clock resumes with its [policy] and [duration]
    ({!Tuner.drive}); a server with neither. *)

val record : t -> Dataset.Runlog.entry -> unit
val append : t -> Dataset.Runlog.record -> unit

val close : t -> unit
(** Canonicalize the file, as {!Dataset.Runlog.writer_close} does. *)
