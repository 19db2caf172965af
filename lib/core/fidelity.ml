type plan = {
  costs : float array;
  eta : float;
  cohort : int;
  brackets : int;
  low_weight : float;
  cost_budget : float option;
}

let default_plan =
  {
    costs = [| 0.25; 0.5; 1. |];
    eta = 3.;
    cohort = 18;
    brackets = 4;
    low_weight = 0.25;
    cost_budget = None;
  }

let validate_plan p =
  let n = Array.length p.costs in
  if n = 0 then invalid_arg "Fidelity.run: plan.costs must be non-empty";
  Array.iter
    (fun c ->
      if not (Float.is_finite c) || c <= 0. then
        invalid_arg "Fidelity.run: plan costs must be finite and positive")
    p.costs;
  for i = 1 to n - 1 do
    if p.costs.(i) <= p.costs.(i - 1) then
      invalid_arg "Fidelity.run: plan costs must be strictly increasing"
  done;
  if p.costs.(n - 1) <> 1. then
    invalid_arg "Fidelity.run: the top rung's cost must be 1 (full fidelity)";
  if not (Float.is_finite p.eta) || p.eta <= 1. then
    invalid_arg "Fidelity.run: eta must be finite and greater than 1";
  if p.cohort < 1 then invalid_arg "Fidelity.run: cohort must be at least 1";
  if p.brackets < 1 then invalid_arg "Fidelity.run: brackets must be at least 1";
  if not (Float.is_finite p.low_weight) || p.low_weight < 0. then
    invalid_arg "Fidelity.run: low_weight must be finite and non-negative";
  match p.cost_budget with
  | Some c when (not (Float.is_finite c)) || c <= 0. ->
      invalid_arg "Fidelity.run: cost_budget must be finite and positive"
  | Some _ | None -> ()

type result = {
  run : Tuner.result;
  total_cost : float;
  rung_evals : int array;
  n_promoted : int array;
  n_brackets : int;
  low_history : (int * Param.Config.t * float) array;
}

let entry_divergence_msg =
  "Fidelity.resume: run log diverges from the replayed trajectory (were the plan, seed, or \
   objective changed?)"

let fid_divergence_msg =
  "Fidelity.resume: recorded low-fidelity evaluations diverge from the recomputed schedule (were \
   the plan, seed, or options changed?)"

let rung_divergence_msg =
  "Fidelity.resume: recorded rung closures diverge from the recomputed ones (were the plan, \
   seed, or options changed?)"

let overrun_msg =
  "Fidelity.resume: the run log records more results than the recomputed campaign produces \
   (were the plan, budget, or options changed?)"

(* Mirrors the tuner's init-redraw bound: a duplicate random draw is
   retried this many times before the cohort slot is forfeited. *)
let max_seed_redraws = 50

(* A single-rung plan is a flat full-fidelity campaign: delegate to
   the async engine wholesale so the degenerate bracket is
   bit-identical to [Tuner.run_async] at the same [k] — same rng
   stream, same submissions, same completion schedule. *)
let run_flat ~telemetry ~options ?candidates ?on_eval ~replay ~k ~rng ~space ~objective ~budget
    () =
  let obj ~attempt:_ config = Resilience.Outcome.Value (objective ~rung:0 config) in
  let replay_verdicts =
    Array.map
      (fun (c, y) ->
        ( c,
          {
            Resilience.Evaluator.outcome = Resilience.Outcome.Value y;
            attempts = 1;
            retry_cost = 0.;
          } ))
      replay
  in
  let on_outcome =
    Option.map
      (fun f idx config (v : Resilience.Evaluator.verdict) ->
        match v.Resilience.Evaluator.outcome with
        | Resilience.Outcome.Value y -> f idx config y
        | _ -> ())
      on_eval
  in
  match
    Tuner.run_async ~telemetry ~options ?candidates ?on_outcome ~replay:replay_verdicts ~k ~rng
      ~space ~objective:obj ~budget ()
  with
  | Stdlib.Error e -> Stdlib.Error e
  | Stdlib.Ok run ->
      let evals = Array.length run.Tuner.history + Array.length run.Tuner.failures in
      Stdlib.Ok
        {
          run;
          total_cost = float_of_int evals;
          rung_evals = [| evals |];
          n_promoted = [| 0 |];
          n_brackets = 1;
          low_history = [||];
        }

(* One in-flight evaluation under the bracket scheduler's simulated
   clock. Duration is the rung's cost — deterministic and known at
   submission, so no verdict needs forcing to find the earliest
   completion. *)
type slot = {
  sl_config : Param.Config.t;
  sl_rung : int;
  sl_seq : int;  (* submission ordinal; completion-time tie-break *)
  sl_done : float;  (* simulated completion time *)
}

let run ?(telemetry = Telemetry.Trace.disabled) ?(options = Tuner.default_options) ?candidates
    ?on_eval ?on_fid ?on_rung ?(recorded_fids = [||]) ?(recorded_rungs = [||]) ?(replay = [||])
    ~plan ~k ~rng ~space ~objective ~budget () =
  validate_plan plan;
  if k < 1 then invalid_arg "Fidelity.run: k must be at least 1";
  if budget < 1 then invalid_arg "Fidelity.run: budget must be at least 1";
  let n_rungs = Array.length plan.costs in
  if n_rungs = 1 then begin
    if Array.length recorded_fids > 0 || Array.length recorded_rungs > 0 then
      failwith
        "Fidelity.resume: the run log records bracket state but this plan has a single rung \
         (restore the original multi-rung plan, or start fresh without resuming)";
    run_flat ~telemetry ~options ?candidates ?on_eval ~replay ~k ~rng ~space ~objective ~budget ()
  end
  else begin
    (match options.Tuner.prior with
    | Some _ ->
        invalid_arg
          "Fidelity.run: multi-rung plans carry low-rung evidence through the prior channel; \
           options.prior must be None"
    | None -> ());
    (match options.Tuner.strategy with
    | Strategy.Ranking -> ()
    | Strategy.Proposal _ ->
        invalid_arg "Fidelity.run: multi-rung plans require the Ranking strategy");
    (let alpha = options.Tuner.surrogate.Surrogate.alpha in
     if not (alpha > 0. && alpha < 1.) then invalid_arg "Fidelity.run: alpha outside (0, 1)");
    let encoded =
      match candidates with
      | Some c ->
          if Array.length c = 0 then invalid_arg "Fidelity.run: empty candidate set";
          Array.iter
            (fun config ->
              if not (Param.Space.validate space config) then
                invalid_arg "Fidelity.run: invalid candidate configuration")
            c;
          Surrogate.Pool.encode space c
      | None ->
          if not (Param.Space.is_finite space) then
            invalid_arg
              "Fidelity.run: multi-rung plans require a finite space (or explicit candidates)";
          Surrogate.Pool.of_space space
    in
    let campaign_t0 = Telemetry.Trace.now telemetry in
    let top = n_rungs - 1 in
    (* Campaign-wide state. [seen] deduplicates cohort entry only:
       promotions legitimately resubmit a configuration at a higher
       rung, so they bypass it. [excluded] holds the same
       configurations as pool rows, for guided ranking. *)
    let seen = Param.Config.Table.create budget in
    let excluded = Strategy.Exclusion.create () in
    let submitted = ref 0 in
    let completed = ref 0 in
    let total_cost = ref 0. in
    let rung_evals = Array.make n_rungs 0 in
    let n_promoted = Array.make n_rungs 0 in
    let low_obs = Array.make n_rungs [] in
    (* newest first *)
    let low_hist_rev = ref [] in
    let history = ref [] in
    let trajectory = ref [] in
    let best = ref None in
    let full_completed = ref 0 in
    let final_surrogate = ref None in
    let no_more = ref false in
    let next_fid = ref 0 in
    let next_rung_rec = ref 0 in
    (* Per-bracket state, reset at seeding. *)
    let queues = Array.init n_rungs (fun _ -> Queue.create ()) in
    let results = Array.make n_rungs [] in
    (* newest first *)
    let expected = Array.make n_rungs 0 in
    let bracket = ref 0 in
    let brackets_run = ref 0 in
    let in_flight = ref [] in
    let sim_time = ref 0. in
    let seq = ref 0 in
    let submit config r =
      let cost = plan.costs.(r) in
      let s = { sl_config = config; sl_rung = r; sl_seq = !seq; sl_done = !sim_time +. cost } in
      incr seq;
      incr submitted;
      total_cost := !total_cost +. cost;
      in_flight := s :: !in_flight;
      if Telemetry.Trace.enabled telemetry then
        Telemetry.Trace.emit telemetry
          (Telemetry.Event.Submit
             { index = s.sl_seq; in_flight = List.length !in_flight; sim_time = !sim_time })
    in
    (* Keep slots full from the lowest rung with queued work; the
       first submission that would overrun the budget (count or
       simulated cost) latches [no_more] — queued work beyond it is
       abandoned, and rungs left short of their expected results
       simply never close. *)
    let fill () =
      let filling = ref true in
      while !filling && (not !no_more) && List.length !in_flight < k do
        let rec find r =
          if r >= n_rungs then None
          else if not (Queue.is_empty queues.(r)) then Some r
          else find (r + 1)
        in
        match find 0 with
        | None -> filling := false
        | Some r ->
            if
              !submitted >= budget
              || (match plan.cost_budget with
                 | Some cb -> !total_cost +. plan.costs.(r) > cb
                 | None -> false)
            then no_more := true
            else submit (Queue.pop queues.(r)) r
      done
    in
    let random_candidate () =
      match candidates with
      | Some c -> c.(Prng.Rng.int rng (Array.length c))
      | None -> Param.Space.random_config space rng
    in
    let draw_fresh () =
      let rec attempt i =
        let c = random_candidate () in
        if (not (Param.Config.Table.mem seen c)) || i >= max_seed_redraws then c
        else attempt (i + 1)
      in
      attempt 0
    in
    (* Seed the current bracket's rung-0 cohort: random draws for
       bracket 0 (no evidence yet), a guided ranking over the pool —
       full-fidelity history as exact evidence, populated low rungs as
       weighted priors — afterwards, with random draws filling any
       shortfall. Ranking consumes no rng, so the random stream
       advances only on actual draws, which is what keeps a resumed
       campaign on the same stream. *)
    let seed_bracket () =
      Array.iter Queue.clear queues;
      Array.fill results 0 n_rungs [];
      Array.fill expected 0 n_rungs 0;
      let full_obs = Array.of_list (List.rev !history) in
      let guided =
        if Array.length full_obs = 0 then []
        else begin
          let priors =
            List.concat
              (List.init top (fun r ->
                   match low_obs.(r) with
                   | [] -> []
                   | obs ->
                       let o = Array.of_list (List.rev obs) in
                       [
                         ( Surrogate.fit ~options:options.Tuner.surrogate space o,
                           plan.low_weight *. plan.costs.(r) );
                       ]))
          in
          let surrogate =
            Surrogate.fit ~telemetry ~options:options.Tuner.surrogate ~priors space full_obs
          in
          final_surrogate := Some surrogate;
          Strategy.select_many_excluding ~telemetry ~k:plan.cohort ~surrogate ~encoded ~excluded
            ()
        end
      in
      let enqueue c =
        if not (Param.Config.Table.mem seen c) then begin
          Param.Config.Table.replace seen c ();
          Strategy.Exclusion.add_config excluded encoded c;
          Queue.push c queues.(0);
          expected.(0) <- expected.(0) + 1
        end
      in
      List.iter enqueue guided;
      let shortfall = plan.cohort - expected.(0) in
      for _ = 1 to shortfall do
        enqueue (draw_fresh ())
      done
    in
    (* A rung closure: sort ascending (stable, so completion order
       breaks ties), promote the best [ceil (n / eta)] — at least
       one — and abandon the rest. The closure record is verified
       against the recorded prefix on resume, exactly like the gate
       decisions: divergence means the campaign being resumed is not
       the one that was recorded, so fail loudly. *)
    let close_rung r =
      let n = expected.(r) in
      let sorted =
        List.stable_sort
          (fun (_, a) (_, b) -> Float.compare a b)
          (List.rev results.(r))
      in
      let kept = min n (max 1 (int_of_float (Float.ceil (float_of_int n /. plan.eta)))) in
      let best_v = match sorted with (_, v) :: _ -> v | [] -> assert false in
      List.iteri (fun i (c, _) -> if i < kept then Queue.push c queues.(r + 1)) sorted;
      expected.(r + 1) <- expected.(r + 1) + kept;
      n_promoted.(r) <- n_promoted.(r) + kept;
      let dropped = n - kept in
      if Telemetry.Trace.enabled telemetry then begin
        Telemetry.Trace.emit telemetry
          (Telemetry.Event.Promote
             { bracket = !bracket; rung = r; kept; total = n; best = best_v });
        if dropped > 0 then
          Telemetry.Trace.emit telemetry
            (Telemetry.Event.Demote { bracket = !bracket; rung = r; dropped; total = n })
      end;
      let record =
        {
          Dataset.Runlog.r_bracket = !bracket;
          r_rung = r;
          r_evaluated = n;
          r_promoted = kept;
          r_best = best_v;
        }
      in
      if !next_rung_rec < Array.length recorded_rungs then begin
        if not (Dataset.Runlog.rung_equal recorded_rungs.(!next_rung_rec) record) then
          failwith rung_divergence_msg;
        incr next_rung_rec
      end
      else match on_rung with Some f -> f record | None -> ()
    in
    (* Process the earliest simulated completion: replay prefixes
       short-circuit the objective call (top-rung completions against
       the recorded entries, low-rung completions against the
       recorded [#fid] stream), everything past the records runs live
       and fires the persistence callbacks. *)
    let process_completion () =
      let slot =
        match !in_flight with
        | [] -> assert false
        | first :: rest ->
            List.fold_left
              (fun acc s ->
                if s.sl_done < acc.sl_done || (s.sl_done = acc.sl_done && s.sl_seq < acc.sl_seq)
                then s
                else acc)
              first rest
      in
      in_flight := List.filter (fun s -> s.sl_seq <> slot.sl_seq) !in_flight;
      sim_time := slot.sl_done;
      let r = slot.sl_rung in
      let config = slot.sl_config in
      let live () =
        let t0 = Telemetry.Trace.now telemetry in
        let v = objective ~rung:r config in
        (v, false, (Telemetry.Trace.now telemetry -. t0) *. 1000.)
      in
      let value, replayed, eval_ms =
        if r = top then
          if !full_completed < Array.length replay then begin
            let recorded_config, v = replay.(!full_completed) in
            if not (Param.Config.equal recorded_config config) then
              failwith entry_divergence_msg;
            (v, true, 0.)
          end
          else live ()
        else if !next_fid < Array.length recorded_fids then begin
          let rf = recorded_fids.(!next_fid) in
          if
            rf.Dataset.Runlog.f_bracket <> !bracket
            || rf.Dataset.Runlog.f_rung <> r
            || not (Param.Config.equal rf.Dataset.Runlog.f_config config)
          then failwith fid_divergence_msg;
          incr next_fid;
          (rf.Dataset.Runlog.f_value, true, 0.)
        end
        else live ()
      in
      if not (Float.is_finite value) then
        invalid_arg "Fidelity.run: objective returned a non-finite value";
      rung_evals.(r) <- rung_evals.(r) + 1;
      results.(r) <- (config, value) :: results.(r);
      if r = top then begin
        let idx = !full_completed in
        history := (config, value) :: !history;
        (match !best with
        | Some (_, by) when by <= value -> ()
        | Some _ | None -> best := Some (config, value));
        trajectory := snd (Option.get !best) :: !trajectory;
        if not replayed then (match on_eval with Some f -> f idx config value | None -> ());
        if Telemetry.Trace.enabled telemetry then
          Telemetry.Trace.emit telemetry
            (Telemetry.Event.Eval
               {
                 index = idx;
                 kind = "ok";
                 value = Some value;
                 attempts = 1;
                 retry_cost = 0.;
                 replayed;
                 dur_ms = eval_ms;
               });
        incr full_completed
      end
      else begin
        low_obs.(r) <- (config, value) :: low_obs.(r);
        low_hist_rev := (r, config, value) :: !low_hist_rev;
        if not replayed then
          match on_fid with
          | Some f ->
              f { Dataset.Runlog.f_bracket = !bracket; f_rung = r; f_value = value; f_config = config }
          | None -> ()
      end;
      if Telemetry.Trace.enabled telemetry then
        Telemetry.Trace.emit telemetry
          (Telemetry.Event.Complete
             {
               index = !completed;
               in_flight = List.length !in_flight;
               sim_time = !sim_time;
               kind = "ok";
             });
      incr completed;
      if r < top && List.length results.(r) = expected.(r) && expected.(r) > 0 then close_rung r
    in
    if Telemetry.Trace.enabled telemetry then
      Telemetry.Trace.emit telemetry
        (Telemetry.Event.Campaign_start
           {
             budget;
             n_init = plan.cohort;
             batch_size = k;
             n_warm = 0;
             n_replay = Array.length replay;
           });
    while !bracket < plan.brackets && not !no_more do
      seed_bracket ();
      if expected.(0) = 0 then
        (* Pool exhausted (or every draw a duplicate): nothing fresh
           to evaluate, so further brackets would spin for nothing. *)
        no_more := true
      else begin
        incr brackets_run;
        fill ();
        while !in_flight <> [] do
          process_completion ();
          fill ()
        done
      end;
      incr bracket
    done;
    if
      !full_completed < Array.length replay
      || !next_fid < Array.length recorded_fids
      || !next_rung_rec < Array.length recorded_rungs
    then failwith overrun_msg;
    if Telemetry.Trace.enabled telemetry then
      Telemetry.Trace.emit telemetry
        (Telemetry.Event.Campaign_end
           {
             evaluations = !completed;
             failures = 0;
             best = Option.map snd !best;
             stopped_early = false;
             dur_ms = (Telemetry.Trace.now telemetry -. campaign_t0) *. 1000.;
           });
    match !best with
    | None -> Stdlib.Error { Tuner.error_failures = [||]; error_attempts = !completed }
    | Some (best_config, best_value) ->
        Stdlib.Ok
          {
            run =
              {
                Tuner.history = Array.of_list (List.rev !history);
                best_config;
                best_value;
                trajectory = Array.of_list (List.rev !trajectory);
                final_surrogate = !final_surrogate;
                stopped_early = false;
                failures = [||];
                n_attempts = !completed;
                retry_cost = 0.;
              };
            total_cost = !total_cost;
            rung_evals;
            n_promoted;
            n_brackets = !brackets_run;
            low_history = Array.of_list (List.rev !low_hist_rev);
          }
  end

let resume ?telemetry ?options ?candidates ?on_eval ?on_fid ?on_rung ~plan ~k ~log ~objective
    ~budget () =
  let replay =
    Array.mapi
      (fun i (e : Dataset.Runlog.entry) ->
        if e.Dataset.Runlog.index <> i then
          failwith "Fidelity.resume: run log indices are not dense from 0";
        match e.Dataset.Runlog.status with
        | Dataset.Runlog.Ok y -> (e.Dataset.Runlog.config, y)
        | Dataset.Runlog.Failed _ ->
            failwith
              "Fidelity.resume: the run log records evaluation failures, which the fidelity \
               scheduler never produces")
      log.Dataset.Runlog.entries
  in
  if Array.length replay > budget then
    invalid_arg "Fidelity.resume: budget is smaller than the recorded evaluation count";
  let rng = Prng.Rng.create log.Dataset.Runlog.seed in
  run ?telemetry ?options ?candidates ?on_eval ?on_fid ?on_rung
    ~recorded_fids:log.Dataset.Runlog.fids ~recorded_rungs:log.Dataset.Runlog.rungs ~replay
    ~plan ~k ~rng ~space:log.Dataset.Runlog.space ~objective ~budget ()
