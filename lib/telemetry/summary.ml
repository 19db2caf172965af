type source_state = {
  mutable src_trust : float;
  mutable src_weight : float;
  mutable src_state : string;
  mutable src_drop_refit : int option;
}

type t = {
  mutable campaign_start : float option;
  mutable campaign_wall_ms : float option;
  mutable init_draws : int;
  mutable init_redraws : int;
  mutable init_duplicates : int;
  mutable refit_ms : float list;  (* newest first *)
  mutable compile_ms : float list;
  mutable rank_ms : float list;
  mutable eval_ms : float list;
  mutable evals : int;
  mutable failures : int;
  mutable attempts : int;
  mutable retry_cost : float;
  mutable replayed : int;
  mutable submits : int;
  mutable max_in_flight : int;
  mutable sim_makespan : float option;
  mutable last_alpha : float option;
  mutable best : float option;
  mutable stopped_early : bool;
  sources : (int, source_state) Hashtbl.t;
  mutable gate_decisions : int;
  mutable fallback_refit : int option;
  mutable promotions : int;
  mutable demotions : int;
  mutable rung_closures : int;
  mutable max_bracket : int option;
}

let create () =
  {
    campaign_start = None;
    campaign_wall_ms = None;
    init_draws = 0;
    init_redraws = 0;
    init_duplicates = 0;
    refit_ms = [];
    compile_ms = [];
    rank_ms = [];
    eval_ms = [];
    evals = 0;
    failures = 0;
    attempts = 0;
    retry_cost = 0.;
    replayed = 0;
    submits = 0;
    max_in_flight = 0;
    sim_makespan = None;
    last_alpha = None;
    best = None;
    stopped_early = false;
    sources = Hashtbl.create 4;
    gate_decisions = 0;
    fallback_refit = None;
    promotions = 0;
    demotions = 0;
    rung_closures = 0;
    max_bracket = None;
  }

let source_state t i =
  match Hashtbl.find_opt t.sources i with
  | Some s -> s
  | None ->
      let s = { src_trust = 1.; src_weight = 0.; src_state = "active"; src_drop_refit = None } in
      Hashtbl.replace t.sources i s;
      s

let observe t ~ts (ev : Event.t) =
  match ev with
  | Campaign_start _ -> t.campaign_start <- Some ts
  | Init_draw { redraws; duplicate; _ } ->
      t.init_draws <- t.init_draws + 1;
      t.init_redraws <- t.init_redraws + redraws;
      if duplicate then t.init_duplicates <- t.init_duplicates + 1
  | Refit { alpha; dur_ms; _ } ->
      t.refit_ms <- dur_ms :: t.refit_ms;
      t.last_alpha <- Some alpha
  | Compile { dur_ms; _ } -> t.compile_ms <- dur_ms :: t.compile_ms
  | Rank { dur_ms; _ } -> t.rank_ms <- dur_ms :: t.rank_ms
  | Trust { source; trust; weight; state; _ } ->
      let s = source_state t source in
      s.src_trust <- trust;
      s.src_weight <- weight;
      s.src_state <- state
  | Gate { refit; source; action; trust } ->
      t.gate_decisions <- t.gate_decisions + 1;
      if action = "fallback" then t.fallback_refit <- Some refit
      else begin
        let s = source_state t source in
        s.src_state <- (match action with "drop" -> "dropped" | "restore" -> "active" | _ -> "attenuated");
        s.src_trust <- trust;
        if action = "drop" then begin
          s.src_drop_refit <- Some refit;
          s.src_weight <- 0.
        end
      end
  | Promote { bracket; kept; _ } ->
      t.rung_closures <- t.rung_closures + 1;
      t.promotions <- t.promotions + kept;
      t.max_bracket <-
        Some (match t.max_bracket with None -> bracket | Some m -> Stdlib.max m bracket)
  | Demote { bracket; dropped; _ } ->
      t.demotions <- t.demotions + dropped;
      t.max_bracket <-
        Some (match t.max_bracket with None -> bracket | Some m -> Stdlib.max m bracket)
  | Submit { in_flight; _ } ->
      t.submits <- t.submits + 1;
      if in_flight > t.max_in_flight then t.max_in_flight <- in_flight
  | Complete { sim_time; _ } ->
      t.sim_makespan <-
        Some (match t.sim_makespan with None -> sim_time | Some m -> Float.max m sim_time)
  | Attempt _ -> ()
  | Eval { kind; attempts; retry_cost; replayed; dur_ms; _ } ->
      t.evals <- t.evals + 1;
      if kind <> "ok" then t.failures <- t.failures + 1;
      (* Every attempt is already folded into its Eval record, so
         counting [Attempt] events too would double-count. *)
      t.attempts <- t.attempts + attempts;
      t.retry_cost <- t.retry_cost +. retry_cost;
      if replayed then t.replayed <- t.replayed + 1;
      t.eval_ms <- dur_ms :: t.eval_ms
  | Campaign_end { failures; best; stopped_early; dur_ms; _ } ->
      t.failures <- max t.failures failures;
      t.best <- best;
      t.stopped_early <- stopped_early;
      t.campaign_wall_ms <- Some dur_ms

let sink t : Trace.sink = { emit = (fun ~ts ev -> observe t ~ts ev); close = ignore }

let of_trace (tf : Tracefile.t) =
  let t = create () in
  Array.iter (fun (ts, ev) -> observe t ~ts ev) tf.Tracefile.events;
  t

let refits t = List.length t.refit_ms
let ranks t = List.length t.rank_ms
let evals t = t.evals
let failures t = t.failures
let submits t = t.submits
let max_in_flight t = t.max_in_flight
let sim_makespan t = t.sim_makespan

let trust_sources t =
  Hashtbl.fold (fun i s acc -> (i, s.src_trust, s.src_weight, s.src_state) :: acc) t.sources []
  |> List.sort (fun (a, _, _, _) (b, _, _, _) -> compare a b)

let gate_decisions t = t.gate_decisions
let fallback_refit t = t.fallback_refit
let promotions t = t.promotions
let demotions t = t.demotions
let rung_closures t = t.rung_closures

let sum = List.fold_left ( +. ) 0.

let pq p xs =
  match xs with
  | [] -> nan
  | xs -> Stats.Quantile.quantile (Array.of_list xs) p

let fmt_ms f = if Float.is_nan f then "-" else Printf.sprintf "%.2f ms" f

let phase_line b name durs =
  if durs <> [] then
    Buffer.add_string b
      (Printf.sprintf "  %-10s %5d spans  total %9.2f ms  p50 %s  p95 %s\n" name
         (List.length durs) (sum durs)
         (fmt_ms (pq 0.5 durs))
         (fmt_ms (pq 0.95 durs)))

let render t =
  let b = Buffer.create 512 in
  Buffer.add_string b "campaign summary\n";
  (match t.campaign_wall_ms with
  | Some w -> Buffer.add_string b (Printf.sprintf "  wall time  %.2f ms%s\n" w (if t.stopped_early then "  (stopped early)" else ""))
  | None -> ());
  Buffer.add_string b
    (Printf.sprintf "  init       %d draws (%d redraws, %d duplicates)\n" t.init_draws
       t.init_redraws t.init_duplicates);
  Buffer.add_string b
    (Printf.sprintf "  refits     %d%s\n" (refits t)
       (match t.last_alpha with
       | Some a -> Printf.sprintf "  (last alpha %.3f)" a
       | None -> ""));
  Buffer.add_string b
    (Printf.sprintf "  evals      %d ok, %d failed, %d attempts%s%s\n" (t.evals - t.failures)
       t.failures t.attempts
       (if t.replayed > 0 then Printf.sprintf ", %d replayed" t.replayed else "")
       (if t.retry_cost > 0. then Printf.sprintf ", retry cost %.3f" t.retry_cost else ""));
  if Hashtbl.length t.sources > 0 then begin
    let dropped =
      Hashtbl.fold (fun _ s n -> if s.src_state = "dropped" then n + 1 else n) t.sources 0
    in
    Buffer.add_string b
      (Printf.sprintf "  transfer   %d sources, %d dropped, %d gate decisions%s\n"
         (Hashtbl.length t.sources) dropped t.gate_decisions
         (match t.fallback_refit with
         | Some r -> Printf.sprintf " (no-prior fallback at refit %d)" r
         | None -> ""));
    List.iter
      (fun (i, trust, weight, state) ->
        let s = Hashtbl.find t.sources i in
        Buffer.add_string b
          (Printf.sprintf "    source %-3d trust %.3f  weight %.4g  %s%s\n" i trust weight state
             (match s.src_drop_refit with
             | Some r -> Printf.sprintf " (refit %d)" r
             | None -> "")))
      (trust_sources t)
  end;
  if t.rung_closures > 0 then
    Buffer.add_string b
      (Printf.sprintf "  fidelity   %d rung closures%s: %d promoted, %d demoted\n" t.rung_closures
         (match t.max_bracket with
         | Some m -> Printf.sprintf " over %d brackets" (m + 1)
         | None -> "")
         t.promotions t.demotions);
  if t.submits > 0 then
    Buffer.add_string b
      (Printf.sprintf "  async      %d submits, max in-flight %d%s\n" t.submits t.max_in_flight
         (match t.sim_makespan with
         | Some m -> Printf.sprintf ", sim makespan %.6g" m
         | None -> ""));
  (match t.best with
  | Some v -> Buffer.add_string b (Printf.sprintf "  best       %.6g\n" v)
  | None -> ());
  Buffer.add_string b "  phases\n";
  phase_line b "refit" (List.rev t.refit_ms);
  phase_line b "compile" (List.rev t.compile_ms);
  phase_line b "rank" (List.rev t.rank_ms);
  phase_line b "evaluate" (List.rev t.eval_ms);
  Buffer.contents b
