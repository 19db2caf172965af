(* The reentrant campaign state machine. The synchronous and
   asynchronous engines in [Tuner] are thin drivers over this module,
   so bit-compatibility with the historical recursive loops is
   structural: there is exactly one implementation of init draws,
   gated refits, selection, replay verification, and bookkeeping, and
   the drivers only decide how verdicts are produced and in what
   order completions land. Every helper here preserves the engines'
   side-effect order (rng draws, telemetry emission, callback calls)
   exactly — that order is what the bit-exact resume and k=1 parity
   guarantees rest on. *)

type prior = {
  sources : (Surrogate.t * float) array;
  decay : int -> float;
  gate : Gate.options option;
}

let constant_decay _ = 1.

let prior_of ?(decay = constant_decay) ?gate sources =
  (match gate with Some g -> Gate.validate_options g | None -> ());
  { sources = Array.of_list sources; decay; gate }

type options = {
  n_init : int;
  surrogate : Surrogate.options;
  strategy : Strategy.t;
  prior : prior option;
  batch_size : int;
  early_stop : int option;
}

let default_options =
  {
    n_init = 20;
    surrogate = Surrogate.default_options;
    strategy = Strategy.default;
    prior = None;
    batch_size = 1;
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

(* Effective prior list for a refit over [n_obs] target observations:
   each source's base weight scaled by the decay schedule's multiplier.
   The constant schedule multiplies by 1., which is bit-exact, so a
   constant-decay prior reproduces an undecayed campaign exactly. *)
let priors_at ~options n_obs =
  match options.prior with
  | None -> []
  | Some { sources; decay; _ } ->
      let m = decay n_obs in
      if not (Float.is_finite m) || m < 0. then
        invalid_arg "Campaign.suggest: prior decay multiplier must be finite and non-negative";
      Array.to_list (Array.map (fun (p, w) -> (p, w *. m)) sources)

(* ---- safeguarded transfer: gate plumbing ---- *)

let gate_state_of ~options =
  match options.prior with
  | Some { gate = Some g; sources; _ } when Array.length sources > 0 ->
      Some (Gate.create ~options:g ~n_sources:(Array.length sources))
  | _ -> None

let gate_divergence_msg =
  "Tuner.resume: recorded gate decisions diverge from the recomputed ones (were the gate \
   options, sources, or schedule changed?)"

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
      "Tuner.resume: the run log records gate decisions but this campaign has gating disabled \
       (restore the original prior and gate options, or start fresh without --resume)";
  let next = ref 0 in
  fun (d : Gate.decision) ->
    let g = runlog_gate_of d in
    if !next < Array.length recorded then begin
      if not (Dataset.Runlog.gate_equal recorded.(!next) g) then failwith gate_divergence_msg;
      incr next
    end
    else match on_gate with Some f -> f g | None -> ()

(* One surrogate refit, gated when the campaign's prior asks for it:
   update the trust state against the campaign's unbiased anchor
   observations (warm start + random inits), then fit the surrogate on
   the surviving priors. With no gate (or below the gate's min_obs)
   this performs exactly the ungated fit call; once every source has
   been dropped it performs exactly the no-prior fit call — the
   bit-identical fallback the containment guarantee rests on.

   With [refit] (Ranking campaigns, whose candidate pool is encoded
   once at setup) the fit routes through the refit engine: the
   surrogate is still the reference [Surrogate.fit] result, and the
   returned compiled scorer — bit-identical to compiling from scratch —
   is filled into the engine's reused table buffer and handed to
   selection. *)
let fit_gated ~telemetry ~options ~gate ~emit_gate ~refit ~space ~anchor ~extra_bad obs =
  let n_obs = Array.length obs in
  let refit_with priors =
    match refit with
    | Some engine ->
        let s, c = Surrogate.Refit.update ~telemetry ~priors ~extra_bad engine obs in
        (s, Some c)
    | None ->
        (Surrogate.fit ~telemetry ~options:options.surrogate ~priors ~extra_bad space obs, None)
  in
  match gate with
  | None -> refit_with (priors_at ~options n_obs)
  | Some state when Gate.all_dropped state -> refit_with []
  | Some state ->
      let step = Gate.apply state ~anchor:(anchor ()) ~n_obs (priors_at ~options n_obs) in
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

(* Validation and per-campaign candidate-pool setup: checks the
   options and index-encodes the candidate pool once (the encoding
   depends only on the space and the pool, so every refit's compiled
   scorer reuses it). An enumerated Ranking space becomes a {e
   virtual} pool ([Surrogate.Pool.of_space]) — row i is decoded on
   demand, so a 10^7-configuration space costs O(1) memory. A
   [shared_pool] (the multi-tenant server keys one per space) is used
   as-is instead of encoding a fresh one; a boxed shared pool plays
   the role of an explicit candidate set. [n_init] is capped by the
   budget and the candidate count. *)
let campaign_setup ~options ~candidates ~shared_pool ~space ~budget =
  if budget < 1 then invalid_arg "Campaign.create: budget must be at least 1";
  if options.n_init < 1 then invalid_arg "Campaign.create: n_init must be at least 1";
  if options.batch_size < 1 then invalid_arg "Campaign.create: batch_size must be at least 1";
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
      let ps = Param.Space.specs (Surrogate.Pool.space p) in
      let cs = Param.Space.specs space in
      let same_spec a b =
        Param.Spec.name a = Param.Spec.name b && Param.Spec.domain a = Param.Spec.domain b
      in
      if
        Array.length ps <> Array.length cs
        || not (Array.for_all2 same_spec ps cs)
      then invalid_arg "Campaign.create: shared_pool space does not match the campaign space");
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
  let encoded =
    match (shared_pool, candidates, options.strategy) with
    | Some p, _, _ -> Some p
    | None, Some c, _ -> Some (Surrogate.Pool.encode space c)
    | None, None, Strategy.Ranking ->
        if not (Param.Space.is_finite space) then
          invalid_arg "Campaign.create: Ranking strategy requires a finite space";
        Some (Surrogate.Pool.of_space space)
    | None, None, Strategy.Proposal _ -> None
  in
  let n_init =
    let cap = match candidates with Some c -> min budget (Array.length c) | None -> budget in
    min options.n_init cap
  in
  (encoded, candidates, n_init)

(* Guided selection: Ranking campaigns always rank over the encoded
   pool, reusing the refit engine's compiled scorer; Proposal samples
   from pg and never looks at a pool. *)
let select_batch ~telemetry ~options ~encoded ~compiled ~k ~rng ~surrogate ~evaluated ~excluded
    () =
  match (options.strategy, encoded) with
  | Strategy.Ranking, Some e ->
      Strategy.select_many_excluding ~telemetry ?compiled ~k ~surrogate ~encoded:e ~excluded ()
  | Strategy.Ranking, None -> assert false (* campaign_setup always encodes for Ranking *)
  | (Strategy.Proposal _ as strategy), _ ->
      Strategy.select_many ~telemetry strategy ~k ~rng ~surrogate ~pool:[||] ~evaluated

(* A configuration joins the seen set when it is issued or
   warm-started, and its pool rows join the exclusion set at the same
   moment, so the two always describe the same configurations. *)
let mark_seen ~seen ~excluded ~encoded config =
  Param.Config.Table.replace seen config ();
  match encoded with
  | Some e -> Strategy.Exclusion.add_config excluded e config
  | None -> ()

let divergence_msg =
  "Tuner.resume: run log diverges from the replayed trajectory (were the seed, options, or \
   objective changed?)"

let replay_of_log ~policy log =
  Array.mapi
    (fun i (e : Dataset.Runlog.entry) ->
      if e.Dataset.Runlog.index <> i then
        failwith "Tuner.resume: run log indices are not dense from 0";
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

(* ---- the machine ---- *)

type mode = Sync | Async of int

type suggestion = { id : int; config : Param.Config.t; guided : bool }

type step = Suggest of suggestion | Wait | Finished

type pending_slot = { p_sug : suggestion; p_t0 : float }

type phase = Initializing | Guiding

type t = {
  mode : mode;
  telemetry : Telemetry.Trace.t;
  options : options;
  c_space : Param.Space.t;
  c_budget : int;
  rng : Prng.Rng.t;
  candidates : Param.Config.t array option;
  encoded : Surrogate.Pool.t option;
  refit : Surrogate.Refit.t option;
  gate : Gate.t option;
  emit_gate : Gate.decision -> unit;
  on_outcome : (int -> Param.Config.t -> Resilience.Evaluator.verdict -> unit) option;
  warm_start : (Param.Config.t * float) array;
  replay : (Param.Config.t * Resilience.Evaluator.verdict) array;
  n_init : int;
  (* Deduplication at suggestion time: a configuration joins [seen]
     when issued (or warm-started), so in-flight configurations are
     excluded from init draws and guided selection exactly like
     completed ones. In [Sync] mode at most one suggestion is
     outstanding between reads, so this holds the same
     configurations the old core's evaluated-at-report table did at
     every read point. *)
  seen : unit Param.Config.Table.t;
  (* [seen] in pool-index space, kept alongside it: the rows guided
     ranking skips. Empty when there is no pool (Proposal). *)
  excluded : Strategy.Exclusion.t;
  campaign_t0 : float;
  mutable phase : phase;
  mutable init_drawn : int;
  mutable batch_queue : Param.Config.t list;  (* Sync: selected, not yet issued *)
  mutable pend : pending_slot list;  (* newest first, like the engines' in_flight *)
  mutable submitted : int;
  mutable completed : int;
  mutable history_rev : (Param.Config.t * float) list;
  mutable failures_rev : (Param.Config.t * Resilience.Outcome.t) list;
  (* The gate's unbiased anchor evidence: warm-start data plus the
     random-init completions that have landed so far (guided
     completions are excluded — they are prior-biased). In [Sync]
     mode every unguided completion lands before the first guided
     refit, so this equals the old core's history-at-first-refit
     snapshot exactly. *)
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

let create ?(telemetry = Telemetry.Trace.disabled) ?(options = default_options)
    ?(warm_start = [||]) ?candidates ?shared_pool ?on_outcome ?on_gate ?(recorded_gates = [||])
    ?(replay = [||]) ~mode ~rng ~space ~budget () =
  let campaign_t0 = Telemetry.Trace.now telemetry in
  (match mode with
  | Async k when k < 1 -> invalid_arg "Tuner.run_async: k must be at least 1"
  | Async _ | Sync -> ());
  (* The step API holds its inputs across turns, so copy every caller
     array: with the one-shot driver loops these were consumed within
     a single call, and mutating them afterwards was harmless — here
     the aliasing would silently corrupt a parked campaign. *)
  let warm_start = Array.copy warm_start in
  let candidates = Option.map Array.copy candidates in
  let recorded_gates = Array.copy recorded_gates in
  let replay = Array.copy replay in
  let encoded, candidates, n_init =
    campaign_setup ~options ~candidates ~shared_pool ~space ~budget
  in
  let refit = Option.map (Surrogate.Refit.create ~options:options.surrogate) encoded in
  let gate = gate_state_of ~options in
  let emit_gate = gate_emitter ?on_gate ?gate ~recorded:recorded_gates () in
  let seen = Param.Config.Table.create (budget + Array.length warm_start) in
  let excluded = Strategy.Exclusion.create () in
  Array.iter
    (fun (c, _) ->
      if not (Param.Space.validate space c) then
        invalid_arg "Campaign.create: invalid warm-start configuration";
      mark_seen ~seen ~excluded ~encoded c)
    warm_start;
  if Telemetry.Trace.enabled telemetry then
    Telemetry.Trace.emit telemetry
      (Telemetry.Event.Campaign_start
         {
           budget;
           n_init;
           batch_size = (match mode with Sync -> options.batch_size | Async k -> k);
           n_warm = Array.length warm_start;
           n_replay = Array.length replay;
         });
  {
    mode;
    telemetry;
    options;
    c_space = space;
    c_budget = budget;
    rng;
    candidates;
    encoded;
    refit;
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
    batch_queue = [];
    pend = [];
    submitted = 0;
    completed = 0;
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
  match t.encoded with
  | None -> false
  | Some e -> Strategy.Exclusion.cardinal t.excluded >= Surrogate.Pool.length e

let draw_fresh t =
  let rec attempt i =
    let c = random_candidate t in
    if (not (Param.Config.Table.mem t.seen c)) || i >= max_init_redraws then (c, i)
    else attempt (i + 1)
  in
  attempt 0

let issue t ~at ~guided config =
  mark_seen ~seen:t.seen ~excluded:t.excluded ~encoded:t.encoded config;
  let id = t.submitted in
  t.submitted <- id + 1;
  let sug = { id; config; guided } in
  t.pend <- { p_sug = sug; p_t0 = Telemetry.Trace.now t.telemetry } :: t.pend;
  (match t.mode with
  | Async _ ->
      if Telemetry.Trace.enabled t.telemetry then
        Telemetry.Trace.emit t.telemetry
          (Telemetry.Event.Submit { index = id; in_flight = List.length t.pend; sim_time = at })
  | Sync -> ());
  Suggest sug

(* One gated refit + selection of [k] configurations, consuming the
   rng exactly like the engines (including refits whose selection
   comes back empty). *)
let refit_and_select t ~k ~extra_bad =
  let obs = observations t in
  let surrogate, compiled =
    fit_gated ~telemetry:t.telemetry ~options:t.options ~gate:t.gate ~emit_gate:t.emit_gate
      ~refit:t.refit ~space:t.c_space ~anchor:(anchor t) ~extra_bad obs
  in
  t.final_surrogate <- Some surrogate;
  select_batch ~telemetry:t.telemetry ~options:t.options ~encoded:t.encoded ~compiled ~k
    ~rng:t.rng ~surrogate ~evaluated:t.seen ~excluded:t.excluded ()

let rec suggest_sync t ~at =
  if t.pend <> [] then Wait
  else
    match t.phase with
    | Initializing ->
        if t.init_drawn < t.n_init && not (pool_exhausted t) then begin
          let c, redraws = draw_fresh t in
          let duplicate = Param.Config.Table.mem t.seen c in
          if Telemetry.Trace.enabled t.telemetry then
            Telemetry.Trace.emit t.telemetry
              (Telemetry.Event.Init_draw { index = t.init_drawn; redraws; duplicate });
          t.init_drawn <- t.init_drawn + 1;
          if duplicate then suggest_sync t ~at else issue t ~at ~guided:false c
        end
        else begin
          t.phase <- Guiding;
          t.since_improvement <- 0;
          suggest_sync t ~at
        end
    | Guiding -> (
        if t.completed >= t.c_budget || stale t then begin
          t.batch_queue <- [];
          finalize t;
          Finished
        end
        else
          match t.batch_queue with
          | c :: rest ->
              t.batch_queue <- rest;
              issue t ~at ~guided:true c
          | [] ->
              if no_observations t then begin
                finalize t;
                Finished
              end
              else begin
                let k = min t.options.batch_size (t.c_budget - t.completed) in
                let extra_bad = Array.of_list (List.rev_map fst t.failures_rev) in
                match refit_and_select t ~k ~extra_bad with
                | [] ->
                    finalize t;
                    Finished
                | batch ->
                    t.batch_queue <- batch;
                    suggest_sync t ~at
              end)

let init_exhausted t = t.init_drawn >= t.n_init || pool_exhausted t

let rec suggest_async t ~at ~k =
  if t.no_more || List.length t.pend >= k || t.submitted >= t.c_budget || stale t then
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
          if duplicate then suggest_async t ~at ~k else issue t ~at ~guided:false c
        end
        else begin
          (* No [since_improvement] reset here: the async engine never
             had one (its counter only tracks guided completions). *)
          t.phase <- Guiding;
          suggest_async t ~at ~k
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
          match refit_and_select t ~k:1 ~extra_bad with
          | [] ->
              t.no_more <- true;
              if t.pend = [] then begin
                finalize t;
                Finished
              end
              else Wait
          | c :: _ -> issue t ~at ~guided:true c
        end

let suggest ?(at = 0.) t =
  match t.outcome with
  | Some _ -> Finished
  | None -> (
      match t.mode with
      | Sync -> suggest_sync t ~at
      | Async k -> suggest_async t ~at ~k)

(* Campaign completion is detected eagerly when the last outstanding
   report lands (so a server's [status] is accurate without a
   rng-consuming [suggest] call), with the same conditions — and the
   same [Campaign_end] emission point — the engine loops used. *)
let settle t =
  if Option.is_none t.outcome && t.pend = [] then
    match t.mode with
    | Sync -> (
        match t.phase with
        | Initializing ->
            (* Budget exhausted by init draws alone: the old core left
               the init loop, reset the staleness counter at the
               init→guided transition, then skipped the guided loop. *)
            if t.completed >= t.c_budget then begin
              t.phase <- Guiding;
              t.since_improvement <- 0;
              finalize t
            end
        | Guiding ->
            if t.completed >= t.c_budget || stale t then begin
              t.batch_queue <- [];
              finalize t
            end)
    | Async _ ->
        if
          t.no_more || t.submitted >= t.c_budget || stale t
          || (init_exhausted t && no_observations t)
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
  let config = slot.p_sug.config in
  let idx = t.completed in
  let replayed = idx < Array.length t.replay in
  if replayed then begin
    let recorded_config, _ = t.replay.(idx) in
    if not (Param.Config.equal recorded_config config) then failwith divergence_msg
  end;
  (if not replayed then
     match t.on_outcome with Some f -> f idx config verdict | None -> ());
  t.attempts_total <- t.attempts_total + verdict.Resilience.Evaluator.attempts;
  t.retry_cost_total <- t.retry_cost_total +. verdict.Resilience.Evaluator.retry_cost;
  (match verdict.Resilience.Evaluator.outcome with
  | Resilience.Outcome.Value y ->
      t.history_rev <- (config, y) :: t.history_rev;
      if not slot.p_sug.guided then t.anchor_rev <- (config, y) :: t.anchor_rev;
      (match t.best_so_far with
      | Some (_, by) when by <= y -> (
          (* Sync counts every non-improving completion; async only
             guided ones — the init phase there overlaps with guided
             completions and must not poison the counter. *)
          match t.mode with
          | Sync -> t.since_improvement <- t.since_improvement + 1
          | Async _ ->
              if slot.p_sug.guided then t.since_improvement <- t.since_improvement + 1)
      | Some _ | None ->
          t.best_so_far <- Some (config, y);
          t.since_improvement <- 0);
      t.trajectory_rev <- snd (Option.get t.best_so_far) :: t.trajectory_rev
  | failure -> (
      t.failures_rev <- (config, failure) :: t.failures_rev;
      match t.mode with
      | Sync -> t.since_improvement <- t.since_improvement + 1
      | Async _ -> if slot.p_sug.guided then t.since_improvement <- t.since_improvement + 1));
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
    match t.mode with
    | Async _ ->
        Telemetry.Trace.emit t.telemetry
          (Telemetry.Event.Complete
             {
               index = idx;
               in_flight = List.length t.pend;
               sim_time = at;
               kind = Resilience.Outcome.kind outcome;
             })
    | Sync -> ()
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
let space t = t.c_space
let budget t = t.c_budget
let mode t = t.mode
let excluded t = Strategy.Exclusion.elements t.excluded

(* Retrace a recorded prefix: keep the in-flight set full (consuming
   the rng exactly like a live campaign) and complete pending
   suggestions in recorded order. The engines instead replay through
   their simulated clock and *verify* the completion order against
   the log; here the log's order is authoritative — the two agree
   because the engines fail loudly on any mismatch before a log like
   that can exist, and a server's completion order is whatever its
   clients reported, which is exactly what the log records. *)
let fast_forward t =
  let n = Array.length t.replay in
  let rec loop () =
    if t.completed < n then
      match suggest t with
      | Suggest _ -> loop ()
      | Wait -> (
          let recorded_config, recorded_verdict = t.replay.(t.completed) in
          match
            List.find_opt
              (fun p -> Param.Config.equal p.p_sug.config recorded_config)
              t.pend
          with
          | Some p ->
              report t ~id:p.p_sug.id recorded_verdict;
              loop ()
          | None -> failwith divergence_msg)
      | Finished -> failwith divergence_msg
  in
  loop ()

let of_log ?telemetry ?options ?(policy = Resilience.Policy.default) ?warm_start ?candidates
    ?shared_pool ?on_outcome ?on_gate ~mode ~log ~budget () =
  let replay = replay_of_log ~policy log in
  if Array.length replay > budget then
    invalid_arg "Tuner.resume: budget is smaller than the recorded evaluation count";
  let rng = Prng.Rng.create log.Dataset.Runlog.seed in
  let t =
    create ?telemetry ?options ?warm_start ?candidates ?shared_pool ?on_outcome ?on_gate
      ~recorded_gates:log.Dataset.Runlog.gates ~replay ~mode ~rng
      ~space:log.Dataset.Runlog.space ~budget ()
  in
  fast_forward t;
  t
