(* The blocking campaign entry points: one driver over the reentrant
   {!Campaign} state machine. The machine owns every campaign decision
   (init draws, gated refits, selection, replay verification,
   bookkeeping, telemetry, the simulated clock); the driver only
   produces verdicts, inline under the retry policy. *)

type prior = Campaign.prior = { sources : (Surrogate.t * float) array; gate : Gate.options option }

let prior_of = Campaign.prior_of

type options = Campaign.options = {
  n_init : int;
  surrogate : Surrogate.options;
  strategy : Strategy.t;
  prior : prior option;
  early_stop : int option;
}

let default_options = Campaign.default_options

type result = Campaign.result = {
  history : (Param.Config.t * float) array;
  best_config : Param.Config.t;
  best_value : float;
  trajectory : float array;
  final_surrogate : Surrogate.t option;
  stopped_early : bool;
  failures : (Param.Config.t * Resilience.Outcome.t) array;
  n_attempts : int;
  retry_cost : float;
}

type run_error = Campaign.run_error = {
  error_failures : (Param.Config.t * Resilience.Outcome.t) array;
  error_attempts : int;
}

let default_duration _config (v : Resilience.Evaluator.verdict) =
  let base =
    match v.Resilience.Evaluator.outcome with
    | Resilience.Outcome.Value y when Float.is_finite y && y > 0. -> y
    | _ -> 1.
  in
  base +. v.Resilience.Evaluator.retry_cost

(* One in-flight evaluation, evaluated at submission. Its attempts are
   buffered and emitted at completion, so [Attempt] events sit with
   their slot's [Eval] in the trace. *)
type slot = {
  sug : Campaign.suggestion;
  verdict : Resilience.Evaluator.verdict;
  attempts : (int * string * float) list;
  eval_ms : float;
  done_at : float;  (* completion time on the simulated clock *)
}

(* The campaign driver, fresh or resumed: a resumed campaign hands
   over the slots it had in flight at the cut ({!Campaign.pending})
   and its clock position ({!Campaign.last_completion}). Slots complete
   in simulated-clock order, never by wall time. *)
let drive ?(telemetry = Telemetry.Trace.disabled) ?(policy = Resilience.Policy.default)
    ?(duration = default_duration) ~objective campaign =
  let start (s : Campaign.suggestion) =
    let attempts = ref [] in
    let probe =
      if Telemetry.Trace.enabled telemetry then
        Some
          (fun ~attempt ~backoff outcome ->
            attempts := (attempt, Resilience.Outcome.kind outcome, backoff) :: !attempts)
      else None
    in
    let t0 = Telemetry.Trace.now telemetry in
    let verdict = Resilience.Evaluator.evaluate ?probe ~policy ~objective s.Campaign.config in
    {
      sug = s;
      verdict;
      attempts = List.rev !attempts;
      eval_ms = (Telemetry.Trace.now telemetry -. t0) *. 1000.;
      done_at = Campaign.completes_at campaign ~duration s verdict;
    }
  in
  let in_flight = ref (List.map start (Campaign.pending campaign)) in
  (* Keep the machine's in-flight set full at the clock's current
     time. The machine decides everything else: [Wait] pauses filling
     until a completion lands, [Finished] ends the campaign. *)
  let fill () =
    let at = fst (Campaign.last_completion campaign) in
    let filling = ref true in
    while !filling do
      match Campaign.suggest ~at campaign with
      | Campaign.Suggest s -> in_flight := start s :: !in_flight
      | Campaign.Wait | Campaign.Finished -> filling := false
    done
  in
  fill ();
  while !in_flight <> [] do
    let key s = (s.done_at, s.sug.Campaign.id) in
    let next =
      List.fold_left
        (fun best s -> if key s < key best then s else best)
        (List.hd !in_flight) (List.tl !in_flight)
    in
    in_flight := List.filter (fun s -> s != next) !in_flight;
    List.iter
      (fun (attempt, kind, backoff) ->
        Telemetry.Trace.emit telemetry (Telemetry.Event.Attempt { attempt; kind; backoff }))
      next.attempts;
    Campaign.report ~at:next.done_at ~eval_ms:next.eval_ms campaign ~id:next.sug.Campaign.id
      next.verdict;
    fill ()
  done;
  Campaign.result campaign

let run_async ?(telemetry = Telemetry.Trace.disabled) ?options ?policy ?warm_start ?candidates
    ?on_outcome ?on_gate ?duration ?(k = 1) ~rng ~space ~objective ~budget () =
  drive ~telemetry ?policy ?duration ~objective
    (Campaign.create ~telemetry ?options ?warm_start ?candidates ?on_outcome ?on_gate
       ~mode:(Campaign.Async k) ~rng ~space ~budget ())

let run_with_policy ?telemetry ?options ?policy ?warm_start ?candidates ?on_outcome ?on_gate ~rng
    ~space ~objective ~budget () =
  run_async ?telemetry ?options ?policy ?warm_start ?candidates ?on_outcome ?on_gate ~rng ~space
    ~objective ~budget ()

(* [Campaign.of_log] retraces the recorded prefix on the same
   simulated clock, hence the same [duration]. *)
let resume_async ?(telemetry = Telemetry.Trace.disabled) ?options
    ?(policy = Resilience.Policy.default) ?warm_start ?candidates ?on_outcome ?on_gate
    ?(duration = default_duration) ?(k = 1) ~log ~objective ~budget () =
  drive ~telemetry ~policy ~objective ~duration
    (Campaign.of_log ~telemetry ?options ~policy ?warm_start ?candidates ?on_outcome ?on_gate
       ~duration ~mode:(Campaign.Async k) ~log ~budget ())
