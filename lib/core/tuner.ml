(* The blocking campaign entry points, as thin drivers over the
   reentrant {!Campaign} state machine. The machine owns every
   campaign decision (init draws, gated refits, selection, replay
   verification, bookkeeping, telemetry); the drivers own only what
   varies per entry point — how verdicts are produced (inline
   objective call, retry policy, worker domains) and, for the async
   engine, the simulated clock that decides completion order. Bit-
   compatibility with the historical recursive loops is therefore
   structural rather than re-proven per engine. *)

type prior = Campaign.prior = {
  sources : (Surrogate.t * float) array;
  decay : int -> float;
  gate : Gate.options option;
}

let constant_decay = Campaign.constant_decay
let prior_of = Campaign.prior_of

type options = Campaign.options = {
  n_init : int;
  surrogate : Surrogate.options;
  strategy : Strategy.t;
  prior : prior option;
  batch_size : int;
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

(* The resilience layer stays dependency-free: it exposes a generic
   per-attempt probe, and the telemetry wiring lives here. *)
let attempt_probe telemetry =
  if Telemetry.Trace.enabled telemetry then
    Some
      (fun ~attempt ~backoff outcome ->
        Telemetry.Trace.emit telemetry
          (Telemetry.Event.Attempt { attempt; kind = Resilience.Outcome.kind outcome; backoff }))
  else None

(* The synchronous driver: one suggestion outstanding at a time,
   evaluated under the retry policy and reported immediately. *)
let drive_sync ~telemetry ~policy ~objective campaign =
  let probe = attempt_probe telemetry in
  let rec loop () =
    match Campaign.suggest campaign with
    | Campaign.Finished -> Campaign.result campaign
    | Campaign.Wait -> assert false (* the sync driver never leaves a suggestion pending *)
    | Campaign.Suggest s ->
        Campaign.report campaign ~id:s.Campaign.id
          (Resilience.Evaluator.evaluate ?probe ~policy ~objective s.Campaign.config);
        loop ()
  in
  loop ()

let run_with_policy ?(telemetry = Telemetry.Trace.disabled) ?options
    ?(policy = Resilience.Policy.default) ?warm_start ?candidates ?on_outcome ?on_gate ~rng
    ~space ~objective ~budget () =
  drive_sync ~telemetry ~policy ~objective
    (Campaign.create ~telemetry ?options ?warm_start ?candidates ?on_outcome ?on_gate
       ~mode:Campaign.Sync ~rng ~space ~budget ())

(* [Campaign.of_log] retraces the recorded prefix (same rng draws and
   selections, recorded verdicts reported in place of evaluations), so
   the live loop continues exactly where the interrupted run stopped. *)
let resume ?(telemetry = Telemetry.Trace.disabled) ?options ?(policy = Resilience.Policy.default)
    ?warm_start ?candidates ?on_outcome ?on_gate ~log ~objective ~budget () =
  drive_sync ~telemetry ~policy ~objective
    (Campaign.of_log ~telemetry ?options ~policy ?warm_start ?candidates ?on_outcome ?on_gate
       ~mode:Campaign.Sync ~log ~budget ())

(* ---- asynchronous campaign driver ---- *)

let default_duration _config (v : Resilience.Evaluator.verdict) =
  let base =
    match v.Resilience.Evaluator.outcome with
    | Resilience.Outcome.Value y when Float.is_finite y && y > 0. -> y
    | _ -> 1.
  in
  base +. v.Resilience.Evaluator.retry_cost

(* One in-flight evaluation. The verdict thunk is memoized: with a
   pool it awaits a future (the work already runs on a worker domain),
   without one it evaluates inline at first demand. The attempt log is
   captured inside the task and emitted at completion processing so
   telemetry sinks are only ever touched from the submitting domain. *)
type async_slot = {
  slot_sug : Campaign.suggestion;
  slot_submitted : float;  (* simulated submission time *)
  slot_run :
    unit -> Resilience.Evaluator.verdict * (int * string * float) list * bool * float;
  mutable slot_memo :
    (Resilience.Evaluator.verdict * (int * string * float) list * bool * float) option;
}

let slot_force slot =
  match slot.slot_memo with
  | Some r -> r
  | None ->
      let r = slot.slot_run () in
      slot.slot_memo <- Some r;
      r

let divergence_msg = Campaign.divergence_msg

let run_async ?(telemetry = Telemetry.Trace.disabled) ?options
    ?(policy = Resilience.Policy.default) ?warm_start ?candidates ?on_outcome ?on_gate
    ?recorded_gates ?(replay = [||]) ?pool ?(duration = default_duration) ~k ~rng ~space
    ~objective ~budget () =
  if k < 1 then invalid_arg "Tuner.run_async: k must be at least 1";
  let campaign =
    Campaign.create ~telemetry ?options ?warm_start ?candidates ?on_outcome ?on_gate
      ?recorded_gates ~replay ~mode:(Campaign.Async k) ~rng ~space ~budget ()
  in
  (* Replay verdicts are keyed by configuration (configurations never
     resubmit within a campaign, so the key is unique); completion
     processing additionally checks the recorded completion order. *)
  let replay_verdicts = Param.Config.Table.create (Array.length replay) in
  Array.iter (fun (c, v) -> Param.Config.Table.replace replay_verdicts c v) replay;
  let eval_task config () =
    match Param.Config.Table.find_opt replay_verdicts config with
    | Some v -> (v, [], true, 0.)
    | None ->
        let attempts = ref [] in
        let probe =
          if Telemetry.Trace.enabled telemetry then
            Some
              (fun ~attempt ~backoff outcome ->
                attempts := (attempt, Resilience.Outcome.kind outcome, backoff) :: !attempts)
          else None
        in
        let t0 = Telemetry.Trace.now telemetry in
        let v = Resilience.Evaluator.evaluate ?probe ~policy ~objective config in
        (v, List.rev !attempts, false, (Telemetry.Trace.now telemetry -. t0) *. 1000.)
  in
  let in_flight = ref [] in
  let sim_time = ref 0. in
  (* Keep the machine's in-flight set full, turning each suggestion
     into a slot whose evaluation starts immediately (on a worker
     domain when a pool is given). The machine decides everything
     else: [Wait] pauses filling until a completion lands, [Finished]
     ends the campaign. *)
  let fill at =
    let filling = ref true in
    while !filling do
      match Campaign.suggest ~at campaign with
      | Campaign.Suggest s ->
          let run =
            match pool with
            | Some w ->
                let fut = Parallel.Pool.async w (eval_task s.Campaign.config) in
                fun () -> Parallel.Pool.await fut
            | None -> eval_task s.Campaign.config
          in
          in_flight :=
            { slot_sug = s; slot_submitted = at; slot_run = run; slot_memo = None }
            :: !in_flight
      | Campaign.Wait | Campaign.Finished -> filling := false
    done
  in
  fill !sim_time;
  while !in_flight <> [] do
    (* Completion order is decided by the simulated clock, so every
       pending duration must be known before the earliest completion
       can be identified: force all in-flight verdicts (with a pool
       they are already being computed on worker domains). *)
    let timed =
      List.rev_map
        (fun slot ->
          let v, _, _, _ = slot_force slot in
          let d = duration slot.slot_sug.Campaign.config v in
          if (not (Float.is_finite d)) || d < 0. then
            invalid_arg "Tuner.run_async: duration must be finite and non-negative";
          (slot, slot.slot_submitted +. d))
        !in_flight
    in
    let slot, at =
      List.fold_left
        (fun ((bs, bt) as acc) ((s, t) as cand) ->
          if t < bt || (t = bt && s.slot_sug.Campaign.id < bs.slot_sug.Campaign.id) then cand
          else acc)
        (List.hd timed) (List.tl timed)
    in
    in_flight :=
      List.filter (fun s -> s.slot_sug.Campaign.id <> slot.slot_sug.Campaign.id) !in_flight;
    sim_time := at;
    let verdict, attempts_log, replayed, eval_ms = slot_force slot in
    let idx = Campaign.n_evaluated campaign in
    if idx < Array.length replay then begin
      let recorded_config, _ = replay.(idx) in
      if not (Param.Config.equal recorded_config slot.slot_sug.Campaign.config) then
        failwith divergence_msg
    end
    else if replayed then
      (* A recorded verdict completing beyond the recorded prefix
         means the completion order no longer matches the log. *)
      failwith divergence_msg;
    if Telemetry.Trace.enabled telemetry then
      List.iter
        (fun (attempt, kind, backoff) ->
          Telemetry.Trace.emit telemetry (Telemetry.Event.Attempt { attempt; kind; backoff }))
        attempts_log;
    Campaign.report ~at ~eval_ms campaign ~id:slot.slot_sug.Campaign.id verdict;
    fill !sim_time
  done;
  Campaign.result campaign

(* Async resume replays through the simulated clock instead of
   [Campaign.of_log]: the log does not hold the in-flight slots'
   submission times, which the clock needs to order completions. *)
let resume_async ?telemetry ?options ?(policy = Resilience.Policy.default) ?warm_start
    ?candidates ?on_outcome ?on_gate ?pool ?duration ~k ~log ~objective ~budget () =
  let replay = Campaign.replay_of_log ~policy log in
  if Array.length replay > budget then
    invalid_arg "Tuner.resume: budget is smaller than the recorded evaluation count";
  let rng = Prng.Rng.create log.Dataset.Runlog.seed in
  run_async ?telemetry ?options ~policy ?warm_start ?candidates ?on_outcome ?on_gate
    ~recorded_gates:log.Dataset.Runlog.gates ~replay ?pool ?duration ~k ~rng
    ~space:log.Dataset.Runlog.space ~objective ~budget ()
