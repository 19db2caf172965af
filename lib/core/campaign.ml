(* The reentrant campaign state machine. [Tuner]'s driver (k slots in
   flight; the synchronous campaign is k = 1) and the other engines
   are thin drivers over this module, so bit-compatibility with the
   historical recursive loops is structural: there is exactly one
   implementation of init draws, gated refits, selection, replay
   verification, bookkeeping and the simulated clock — one step path —
   and the drivers only decide how verdicts are produced. Every helper
   here preserves the engines' side-effect order (rng draws, telemetry
   emission, callback calls) exactly — that order is what the
   bit-exact resume and k=1 parity guarantees rest on. *)

type prior = { sources : (Surrogate.t * float) array; gate : Gate.options option }

let prior_of ?gate sources =
  (match gate with Some g -> Gate.validate_options g | None -> ());
  { sources = Array.of_list sources; gate }

type options = {
  n_init : int;
  surrogate : Surrogate.options;
  strategy : Strategy.t;
  prior : prior option;
  early_stop : int option;
}

let default_options =
  {
    n_init = 20;
    surrogate = Surrogate.default_options;
    strategy = Strategy.default;
    prior = None;
    early_stop = None;
  }

type result = {
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

type run_error = {
  error_failures : (Param.Config.t * Resilience.Outcome.t) array;
  error_attempts : int;
}

let max_init_redraws = 50

(* The prior list every refit starts from: each source at its base
   weight. *)
let priors ~options = match options.prior with None -> [] | Some p -> Array.to_list p.sources

(* ---- safeguarded transfer: gate plumbing ---- *)

let gate_state_of ~options =
  match options.prior with
  | Some { gate = Some g; sources; _ } when Array.length sources > 0 ->
      Some (Gate.create ~options:g ~n_sources:(Array.length sources))
  | _ -> None

let gate_divergence_msg =
  "Campaign.of_log: recorded gate decisions diverge from the recomputed ones (were the gate \
   options or sources changed?)"

let runlog_gate_of (d : Gate.decision) =
  {
    Dataset.Runlog.g_refit = d.Gate.d_refit;
    g_source = d.Gate.d_source;
    g_action = Gate.action_to_string d.Gate.d_action;
    g_trust = d.Gate.d_trust;
    g_below = d.Gate.d_below;
  }

(* A resumed campaign recomputes the whole gate-decision stream
   deterministically (replay re-runs every refit), so the recorded
   decisions serve as a divergence check: prefix-verify against them,
   then forward only the genuinely new decisions to [on_gate] — a
   resumed run never re-appends decisions its log already holds.
   The check is driven by recomputed decisions, so a campaign that
   recomputes none (gating disabled or prior removed) would never
   look at the record — catch that contradiction eagerly instead of
   silently continuing a different campaign. *)
let gate_emitter ?on_gate ?gate ~recorded () =
  if Array.length recorded > 0 && Option.is_none gate then
    failwith
      "Campaign.of_log: the run log records gate decisions but this campaign has gating disabled \
       (restore the original prior and gate options, or start fresh without --resume)";
  let is_new =
    Dataset.Runlog.verify_prefix ~msg:gate_divergence_msg
      (Array.map (fun g -> Dataset.Runlog.Gate g) recorded)
  in
  fun (d : Gate.decision) ->
    let g = runlog_gate_of d in
    if is_new (Gate g) then Option.iter (fun f -> f g) on_gate

(* One surrogate refit, gated when the campaign's prior asks for it:
   update the trust state against the campaign's unbiased anchor
   observations (warm start + random inits), then fit the surrogate on
   the surviving priors with [refit_with]. With no gate (or below the
   gate's min_obs) this performs exactly the ungated fit call; once
   every source has been dropped it performs exactly the no-prior fit
   call — the bit-identical fallback the containment guarantee rests
   on. *)
let fit_gated ~telemetry ~options ~gate ~emit_gate ~anchor ~n_obs refit_with =
  match gate with
  | None -> refit_with (priors ~options)
  | Some state when Gate.all_dropped state -> refit_with []
  | Some state ->
      let step = Gate.apply state ~anchor:(anchor ()) ~n_obs (priors ~options) in
      if Telemetry.Trace.enabled telemetry then begin
        List.iter
          (fun (s : Gate.snapshot) ->
            Telemetry.Trace.emit telemetry
              (Telemetry.Event.Trust
                 {
                   refit = s.Gate.s_refit;
                   source = s.Gate.s_source;
                   agreement = s.Gate.s_agreement;
                   trust = s.Gate.s_trust;
                   weight = s.Gate.s_weight;
                   state = Gate.status_to_string s.Gate.s_status;
                 }))
          step.Gate.step_snapshots;
        List.iter
          (fun (d : Gate.decision) ->
            Telemetry.Trace.emit telemetry
              (Telemetry.Event.Gate
                 {
                   refit = d.Gate.d_refit;
                   source = d.Gate.d_source;
                   action = Gate.action_to_string d.Gate.d_action;
                   trust = d.Gate.d_trust;
                 }))
          step.Gate.step_decisions
      end;
      List.iter emit_gate step.Gate.step_decisions;
      refit_with step.Gate.step_priors

(* How a campaign selects: Ranking over a candidate pool encoded once
   per campaign (the encoding depends only on the space and the pool,
   so every refit's compiled scorer reuses it) with the refit engine
   over that pool, or Proposal, which has no pool. *)
type selection =
  | Rank of { pool : Surrogate.Pool.t; refit : Surrogate.Refit.t }
  | Propose of { n_candidates : int }

(* Validation and per-campaign selection setup: checks the options
   and builds the selection. An enumerated Ranking space becomes a {e
   virtual} pool ([Surrogate.Pool.of_space]) — row i is decoded on
   demand, so a 10^7-configuration space costs O(1) memory. A
   [shared_pool] (the multi-tenant server keys one per space) is used
   as-is instead of encoding a fresh one; a boxed shared pool plays
   the role of an explicit candidate set. [n_init] is capped by the
   budget and the candidate count. *)
let campaign_setup ~options ~candidates ~shared_pool ~space ~budget =
  if budget < 1 then invalid_arg "Campaign.create: budget must be at least 1";
  if options.n_init < 1 then invalid_arg "Campaign.create: n_init must be at least 1";
  (match options.early_stop with
  | Some k when k < 1 -> invalid_arg "Campaign.create: early_stop must be at least 1"
  | Some _ | None -> ());
  if not (options.surrogate.Surrogate.alpha > 0. && options.surrogate.Surrogate.alpha < 1.) then
    invalid_arg "Campaign.create: alpha outside (0, 1)";
  (match options.strategy with
  | Strategy.Proposal { n_candidates } when n_candidates < 1 ->
      invalid_arg "Campaign.create: Proposal n_candidates must be at least 1"
  | Strategy.Proposal _ | Strategy.Ranking -> ());
  (match shared_pool with
  | None -> ()
  | Some p ->
      (match options.strategy with
      | Strategy.Ranking -> ()
      | Strategy.Proposal _ ->
          invalid_arg "Campaign.create: shared_pool requires the Ranking strategy");
      if Option.is_some candidates then
        invalid_arg "Campaign.create: shared_pool and candidates are mutually exclusive";
      if not (Param.Space.equal (Surrogate.Pool.space p) space) then
        invalid_arg "Campaign.create: shared_pool space does not match the campaign space");
  (* A boxed shared pool restricts init draws to its rows, exactly
     like an explicit candidate set (its configurations were already
     validated when the pool was encoded). *)
  let candidates =
    match shared_pool with
    | Some p when not (Surrogate.Pool.is_virtual p) -> Some (Surrogate.Pool.configs p)
    | _ -> candidates
  in
  (match (candidates, shared_pool) with
  | Some c, None ->
      if Array.length c = 0 then invalid_arg "Campaign.create: empty candidate set";
      (match options.strategy with
      | Strategy.Ranking -> ()
      | Strategy.Proposal _ ->
          invalid_arg "Campaign.create: candidates require the Ranking strategy");
      Array.iter
        (fun config ->
          if not (Param.Space.validate space config) then
            invalid_arg "Campaign.create: invalid candidate configuration")
        c
  | _ -> ());
  let selection =
    match options.strategy with
    | Strategy.Proposal { n_candidates } -> Propose { n_candidates }
    | Strategy.Ranking ->
        let pool =
          match (shared_pool, candidates) with
          | Some p, _ -> p
          | None, Some c -> Surrogate.Pool.encode space c
          | None, None ->
              if not (Param.Space.is_finite space) then
                invalid_arg "Campaign.create: Ranking strategy requires a finite space";
              Surrogate.Pool.of_space space
        in
        Rank { pool; refit = Surrogate.Refit.create ~options:options.surrogate pool }
  in
  let n_init =
    let cap = match candidates with Some c -> min budget (Array.length c) | None -> budget in
    min options.n_init cap
  in
  (selection, candidates, n_init)

(* A configuration joins the seen set when it is issued or
   warm-started, and its pool rows join the exclusion set at the same
   moment, so the two always describe the same configurations. *)
let mark_seen ~seen ~excluded ~selection config =
  Param.Config.Table.replace seen config ();
  match selection with
  | Rank { pool; _ } -> Strategy.Exclusion.add_config excluded pool config
  | Propose _ -> ()

let divergence_msg =
  "Campaign.of_log: run log diverges from the replayed trajectory (were the seed, options, or \
   objective changed?)"

let replay_of_log ~policy log =
  Array.mapi
    (fun i (e : Dataset.Runlog.entry) ->
      if e.Dataset.Runlog.index <> i then
        failwith "Campaign.of_log: run log indices are not dense from 0";
      let outcome =
        match e.Dataset.Runlog.status with
        | Dataset.Runlog.Ok y -> Resilience.Outcome.Value y
        | Dataset.Runlog.Failed Dataset.Runlog.Crash ->
            Resilience.Outcome.Permanent "recorded failure"
        | Dataset.Runlog.Failed Dataset.Runlog.Transient ->
            Resilience.Outcome.Transient "recorded failure"
        | Dataset.Runlog.Failed Dataset.Runlog.Permanent ->
            Resilience.Outcome.Permanent "recorded failure"
        | Dataset.Runlog.Failed Dataset.Runlog.Timeout -> Resilience.Outcome.Timeout
        | Dataset.Runlog.Failed Dataset.Runlog.Infeasible ->
            Resilience.Outcome.Infeasible "recorded failure"
      in
      ( e.Dataset.Runlog.config,
        {
          Resilience.Evaluator.outcome;
          attempts = e.Dataset.Runlog.attempts;
          retry_cost = Resilience.Policy.total_backoff policy ~attempts:e.Dataset.Runlog.attempts;
        } ))
    log.Dataset.Runlog.entries

(* The inverse direction: a verdict as the run-log entry that records
   it, in the shape of [on_outcome]. *)
let entry_of_verdict index config (v : Resilience.Evaluator.verdict) =
  let status =
    match v.Resilience.Evaluator.outcome with
    | Resilience.Outcome.Value y -> Dataset.Runlog.Ok y
    | Resilience.Outcome.Transient _ -> Dataset.Runlog.Failed Transient
    | Resilience.Outcome.Permanent _ -> Dataset.Runlog.Failed Permanent
    | Resilience.Outcome.Timeout -> Dataset.Runlog.Failed Timeout
    | Resilience.Outcome.Infeasible _ -> Dataset.Runlog.Failed Infeasible
  in
  { Dataset.Runlog.index; config; status; attempts = v.Resilience.Evaluator.attempts }

(* ---- the machine ---- *)

type mode = Async of int

type suggestion = { id : int; config : Param.Config.t; guided : bool; at : float }

type step = Suggest of suggestion | Wait | Finished

type pending_slot = { p_sug : suggestion; p_t0 : float }

type phase = Initializing | Guiding

type t = {
  k : int;  (* the in-flight bound *)
  telemetry : Telemetry.Trace.t;
  options : options;
  c_space : Param.Space.t;
  c_budget : int;
  rng : Prng.Rng.t;
  candidates : Param.Config.t array option;
  selection : selection;
  gate : Gate.t option;
  emit_gate : Gate.decision -> unit;
  on_outcome : (int -> Param.Config.t -> Resilience.Evaluator.verdict -> unit) option;
  warm_start : (Param.Config.t * float) array;
  (* Recorded verdicts [of_log] retraces; empty for a fresh campaign. *)
  replay : (Param.Config.t * Resilience.Evaluator.verdict) array;
  n_init : int;
  (* Deduplication at suggestion time: a configuration joins [seen]
     when issued (or warm-started), so in-flight configurations are
     excluded from init draws and guided selection exactly like
     completed ones. With one slot in flight ([Async 1]) no
     suggestion is outstanding at a read, so this holds the same
     configurations the old core's evaluated-at-report table did at
     every read point. *)
  seen : unit Param.Config.Table.t;
  (* [seen] in pool-index space, kept alongside it: the rows guided
     ranking skips. Empty when there is no pool (Proposal). *)
  excluded : Strategy.Exclusion.t;
  campaign_t0 : float;
  mutable phase : phase;
  mutable init_drawn : int;
  mutable pend : pending_slot list;  (* newest first, like the engines' in_flight *)
  mutable submitted : int;
  mutable completed : int;
  (* (at, id) of the latest report: the async clock's position, and
     the completion every later one must order after. *)
  mutable last : float * int;
  mutable history_rev : (Param.Config.t * float) list;
  mutable failures_rev : (Param.Config.t * Resilience.Outcome.t) list;
  (* The gate's unbiased anchor evidence: warm-start data plus the
     random-init completions that have landed so far (guided
     completions are excluded — they are prior-biased). With one slot
     in flight every unguided completion lands before the first
     guided refit, so this equals the old core's history-at-first-
     refit snapshot exactly. *)
  mutable anchor_rev : (Param.Config.t * float) list;
  mutable trajectory_rev : float list;
  mutable best_so_far : (Param.Config.t * float) option;
  mutable since_improvement : int;
  mutable attempts_total : int;
  mutable retry_cost_total : float;
  mutable final_surrogate : Surrogate.t option;
  mutable no_more : bool;
  mutable outcome : (result, run_error) Stdlib.result option;
}

(* [create], plus the recorded verdicts and gate decisions [of_log]
   retraces. *)
let start ?(telemetry = Telemetry.Trace.disabled) ?(options = default_options)
    ?(warm_start = [||]) ?candidates ?shared_pool ?on_outcome ?on_gate ~recorded_gates ~replay
    ~mode ~rng ~space ~budget () =
  let campaign_t0 = Telemetry.Trace.now telemetry in
  let (Async k) = mode in
  if k < 1 then invalid_arg "Campaign.create: k must be at least 1";
  (* The step API holds its inputs across turns, so copy every caller
     array: with the one-shot driver loops these were consumed within
     a single call, and mutating them afterwards was harmless — here
     the aliasing would silently corrupt a parked campaign. *)
  let warm_start = Array.copy warm_start in
  let candidates = Option.map Array.copy candidates in
  let selection, candidates, n_init =
    campaign_setup ~options ~candidates ~shared_pool ~space ~budget
  in
  let gate = gate_state_of ~options in
  let emit_gate = gate_emitter ?on_gate ?gate ~recorded:recorded_gates () in
  let seen = Param.Config.Table.create (budget + Array.length warm_start) in
  let excluded = Strategy.Exclusion.create () in
  Array.iter
    (fun (c, _) ->
      if not (Param.Space.validate space c) then
        invalid_arg "Campaign.create: invalid warm-start configuration";
      mark_seen ~seen ~excluded ~selection c)
    warm_start;
  if Telemetry.Trace.enabled telemetry then
    Telemetry.Trace.emit telemetry
      (Telemetry.Event.Campaign_start
         {
           budget;
           n_init;
           batch_size = k;
           n_warm = Array.length warm_start;
           n_replay = Array.length replay;
         });
  {
    k;
    telemetry;
    options;
    c_space = space;
    c_budget = budget;
    rng;
    candidates;
    selection;
    gate;
    emit_gate;
    on_outcome;
    warm_start;
    replay;
    n_init;
    seen;
    excluded;
    campaign_t0;
    phase = Initializing;
    init_drawn = 0;
    pend = [];
    submitted = 0;
    completed = 0;
    last = (0., -1);
    history_rev = [];
    failures_rev = [];
    anchor_rev = [];
    trajectory_rev = [];
    best_so_far = None;
    since_improvement = 0;
    attempts_total = 0;
    retry_cost_total = 0.;
    final_surrogate = None;
    no_more = false;
    outcome = None;
  }

let create ?telemetry ?options ?warm_start ?candidates ?shared_pool ?on_outcome ?on_gate ~mode
    ~rng ~space ~budget () =
  start ?telemetry ?options ?warm_start ?candidates ?shared_pool ?on_outcome ?on_gate
    ~recorded_gates:[||] ~replay:[||] ~mode ~rng ~space ~budget ()

let stale t =
  match t.options.early_stop with Some e -> t.since_improvement >= e | None -> false

let observations t = Array.append t.warm_start (Array.of_list (List.rev t.history_rev))
let no_observations t = Array.length t.warm_start = 0 && t.history_rev = []
let anchor t () = Array.append t.warm_start (Array.of_list (List.rev t.anchor_rev))

let finalize t =
  let stopped_early = stale t in
  if Telemetry.Trace.enabled t.telemetry then
    Telemetry.Trace.emit t.telemetry
      (Telemetry.Event.Campaign_end
         {
           evaluations = t.completed;
           failures = List.length t.failures_rev;
           best = Option.map snd t.best_so_far;
           stopped_early;
           dur_ms = (Telemetry.Trace.now t.telemetry -. t.campaign_t0) *. 1000.;
         });
  t.outcome <-
    Some
      (match t.best_so_far with
      | None ->
          Stdlib.Error
            {
              error_failures = Array.of_list (List.rev t.failures_rev);
              error_attempts = t.attempts_total;
            }
      | Some (best_config, best_value) ->
          Stdlib.Ok
            {
              history = Array.of_list (List.rev t.history_rev);
              best_config;
              best_value;
              trajectory = Array.of_list (List.rev t.trajectory_rev);
              final_surrogate = t.final_surrogate;
              stopped_early;
              failures = Array.of_list (List.rev t.failures_rev);
              n_attempts = t.attempts_total;
              retry_cost = t.retry_cost_total;
            })

let random_candidate t =
  match t.candidates with
  | Some c -> c.(Prng.Rng.int t.rng (Array.length c))
  | None -> Param.Space.random_config t.c_space t.rng

(* Once a finite pool is fully covered, every draw is a duplicate:
   each would spin [max_init_redraws] hash probes for nothing, so
   initialization exits early instead. The pool is covered exactly
   when every one of its rows is excluded. *)
let pool_exhausted t =
  match t.selection with
  | Rank { pool; _ } -> Strategy.Exclusion.cardinal t.excluded >= Surrogate.Pool.length pool
  | Propose _ -> false

let draw_fresh t =
  let rec attempt i =
    let c = random_candidate t in
    if (not (Param.Config.Table.mem t.seen c)) || i >= max_init_redraws then (c, i)
    else attempt (i + 1)
  in
  attempt 0

let issue t ~at ~guided config =
  mark_seen ~seen:t.seen ~excluded:t.excluded ~selection:t.selection config;
  let id = t.submitted in
  t.submitted <- id + 1;
  let sug = { id; config; guided; at } in
  t.pend <- { p_sug = sug; p_t0 = Telemetry.Trace.now t.telemetry } :: t.pend;
  if Telemetry.Trace.enabled t.telemetry then
    Telemetry.Trace.emit t.telemetry
      (Telemetry.Event.Submit { index = id; in_flight = List.length t.pend; sim_time = at });
  Suggest sug

(* One gated refit + selection of the next configuration, consuming
   the rng exactly like the engines (including refits whose selection
   comes back empty). A Ranking refit routes through the refit engine:
   the surrogate is still the reference [Surrogate.fit] result, and
   the compiled scorer — bit-identical to compiling from scratch — is
   filled into the engine's reused table buffer and handed to [rank].
   Proposal samples from pg and never looks at a pool. *)
let refit_and_select t ~extra_bad =
  let telemetry = t.telemetry in
  let obs = observations t in
  let fit refit_with =
    fit_gated ~telemetry ~options:t.options ~gate:t.gate ~emit_gate:t.emit_gate
      ~anchor:(anchor t) ~n_obs:(Array.length obs) refit_with
  in
  match t.selection with
  | Rank { pool; refit } ->
      let surrogate, compiled =
        fit (fun priors -> Surrogate.Refit.update ~telemetry ~priors ~extra_bad refit obs)
      in
      t.final_surrogate <- Some surrogate;
      List.nth_opt
        (Strategy.rank ~telemetry ~compiled ~k:1 ~surrogate ~encoded:pool ~excluded:t.excluded ())
        0
  | Propose { n_candidates } ->
      let surrogate =
        fit (fun priors ->
            Surrogate.fit ~telemetry ~options:t.options.surrogate ~priors ~extra_bad t.c_space obs)
      in
      t.final_surrogate <- Some surrogate;
      Some (Strategy.propose ~rng:t.rng ~surrogate ~evaluated:t.seen ~n_candidates)

let init_exhausted t = t.init_drawn >= t.n_init || pool_exhausted t

(* The one step path: keep up to [k] suggestions in flight. *)
let rec next_step t ~at =
  if t.no_more || List.length t.pend >= t.k || t.submitted >= t.c_budget || stale t then
    if t.pend = [] then begin
      finalize t;
      Finished
    end
    else Wait
  else
    match t.phase with
    | Initializing ->
        if not (init_exhausted t) then begin
          let c, redraws = draw_fresh t in
          let duplicate = Param.Config.Table.mem t.seen c in
          if Telemetry.Trace.enabled t.telemetry then
            Telemetry.Trace.emit t.telemetry
              (Telemetry.Event.Init_draw { index = t.init_drawn; redraws; duplicate });
          t.init_drawn <- t.init_drawn + 1;
          if duplicate then next_step t ~at else issue t ~at ~guided:false c
        end
        else begin
          t.phase <- Guiding;
          next_step t ~at
        end
    | Guiding ->
        if no_observations t then
          (* `Not_yet: nothing to fit on until a completion lands. *)
          if t.pend = [] then begin
            finalize t;
            Finished
          end
          else Wait
        else begin
          (* Pending configurations join the bad density as constant-
             liar observations, after the failures — preserving the
             synchronous fit input order when the pending set is
             empty. *)
          let pending = Array.of_list (List.rev_map (fun p -> p.p_sug.config) t.pend) in
          let extra_bad =
            Array.append (Array.of_list (List.rev_map fst t.failures_rev)) pending
          in
          match refit_and_select t ~extra_bad with
          | None ->
              t.no_more <- true;
              if t.pend = [] then begin
                finalize t;
                Finished
              end
              else Wait
          | Some c -> issue t ~at ~guided:true c
        end

let suggest ?(at = 0.) t =
  match t.outcome with
  | Some _ -> Finished
  | None -> next_step t ~at

(* Campaign completion is detected eagerly when the last outstanding
   report lands (so a server's [status] is accurate without a
   rng-consuming [suggest] call), with the same conditions — and the
   same [Campaign_end] emission point — the engine loops used. *)
let settle t =
  if
    Option.is_none t.outcome && t.pend = []
    && (t.no_more || t.submitted >= t.c_budget || stale t
       || (init_exhausted t && no_observations t))
  then finalize t

let report ?(at = 0.) ?eval_ms t ~id verdict =
  if Option.is_some t.outcome then
    invalid_arg "Campaign.report: the campaign is finished";
  let slot =
    match List.find_opt (fun p -> p.p_sug.id = id) t.pend with
    | Some s -> s
    | None ->
        invalid_arg
          (Printf.sprintf
             "Campaign.report: suggestion %d is not pending (never issued, already reported, \
              or out of order)"
             id)
  in
  t.pend <- List.filter (fun p -> p.p_sug.id <> id) t.pend;
  t.last <- (at, id);
  let config = slot.p_sug.config in
  let idx = t.completed in
  let replayed = idx < Array.length t.replay in
  (if not replayed then
     match t.on_outcome with Some f -> f idx config verdict | None -> ());
  t.attempts_total <- t.attempts_total + verdict.Resilience.Evaluator.attempts;
  t.retry_cost_total <- t.retry_cost_total +. verdict.Resilience.Evaluator.retry_cost;
  (* The early-stop counter counts non-improving guided completions
     only: with [k > 1] random-init completions overlap guided ones and
     must not poison it, and with one slot every init completion lands
     before the first guided suggestion, so the count equals one
     restarted at the init→guided switch. *)
  let stale_step () =
    if slot.p_sug.guided then t.since_improvement <- t.since_improvement + 1
  in
  (match verdict.Resilience.Evaluator.outcome with
  | Resilience.Outcome.Value y ->
      t.history_rev <- (config, y) :: t.history_rev;
      if not slot.p_sug.guided then t.anchor_rev <- (config, y) :: t.anchor_rev;
      (match t.best_so_far with
      | Some (_, by) when by <= y -> stale_step ()
      | Some _ | None ->
          t.best_so_far <- Some (config, y);
          t.since_improvement <- 0);
      t.trajectory_rev <- snd (Option.get t.best_so_far) :: t.trajectory_rev
  | failure ->
      t.failures_rev <- (config, failure) :: t.failures_rev;
      stale_step ());
  if Telemetry.Trace.enabled t.telemetry then begin
    let outcome = verdict.Resilience.Evaluator.outcome in
    let dur_ms =
      match eval_ms with
      | Some ms -> ms
      | None -> (Telemetry.Trace.now t.telemetry -. slot.p_t0) *. 1000.
    in
    Telemetry.Trace.emit t.telemetry
      (Telemetry.Event.Eval
         {
           index = idx;
           kind = Resilience.Outcome.kind outcome;
           value = Resilience.Outcome.value outcome;
           attempts = verdict.Resilience.Evaluator.attempts;
           retry_cost = verdict.Resilience.Evaluator.retry_cost;
           replayed;
           dur_ms;
         });
    Telemetry.Trace.emit t.telemetry
      (Telemetry.Event.Complete
         {
           index = idx;
           in_flight = List.length t.pend;
           sim_time = at;
           kind = Resilience.Outcome.kind outcome;
         })
  end;
  t.completed <- idx + 1;
  settle t

let result t =
  match t.outcome with
  | Some r -> r
  | None -> invalid_arg "Campaign.result: the campaign is not finished"

let is_finished t = Option.is_some t.outcome
let n_evaluated t = t.completed
let n_pending t = List.length t.pend
let pending t = List.rev_map (fun p -> p.p_sug) t.pend
let best t = t.best_so_far
let excluded t = Strategy.Exclusion.elements t.excluded
let last_completion t = t.last

(* The simulated clock, shared by the driver and [fast_forward]: a
   slot submitted at [s.at] completes [duration] later, and each
   completion orders after the previous one (by time, then id). A
   slot issued at the clock's position can never break that order, so
   only a slot in flight at a resume's cut can: it completes inside
   the recorded prefix, and the log is not this campaign's. *)
let completes_at t ~duration (s : suggestion) verdict =
  let d = duration s.config verdict in
  if (not (Float.is_finite d)) || d < 0. then
    invalid_arg "Campaign.completes_at: duration must be finite and non-negative";
  let at = s.at +. d in
  if (at, s.id) < t.last then failwith divergence_msg;
  at

(* Retrace a recorded prefix: keep the in-flight set full (consuming
   the rng exactly like a live campaign) and complete pending
   suggestions in recorded order. Without a [duration] the log's order
   is authoritative: a server's completion order is whatever its
   clients reported, which is exactly what the log records. With one,
   the completions retrace the driver's simulated clock. *)
let fast_forward ?duration t =
  let n = Array.length t.replay in
  let rec loop () =
    if t.completed < n then
      match suggest ~at:(fst t.last) t with
      | Suggest _ -> loop ()
      | Wait -> (
          let recorded_config, verdict = t.replay.(t.completed) in
          match
            List.find_opt (fun p -> Param.Config.equal p.p_sug.config recorded_config) t.pend
          with
          | Some { p_sug; _ } ->
              let at =
                match duration with
                | None -> 0.
                | Some duration -> completes_at t ~duration p_sug verdict
              in
              report ~at t ~id:p_sug.id verdict;
              loop ()
          | None -> failwith divergence_msg)
      | Finished -> failwith divergence_msg
  in
  loop ()

let of_log ?telemetry ?options ?(policy = Resilience.Policy.default) ?warm_start ?candidates
    ?shared_pool ?on_outcome ?on_gate ?duration ~mode ~log ~budget () =
  let replay = replay_of_log ~policy log in
  if Array.length replay > budget then
    invalid_arg "Campaign.of_log: budget is smaller than the recorded evaluation count";
  let rng = Prng.Rng.create log.Dataset.Runlog.seed in
  let t =
    start ?telemetry ?options ?warm_start ?candidates ?shared_pool ?on_outcome ?on_gate
      ~recorded_gates:log.Dataset.Runlog.gates ~replay ~mode ~rng
      ~space:log.Dataset.Runlog.space ~budget ()
  in
  fast_forward ?duration t;
  t
