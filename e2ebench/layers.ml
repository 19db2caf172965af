(* Per-layer counters and latencies of one traced run, and the
   per-layer metric list every workload emits (zeros for layers the
   workload never reaches, so every run reports the same names).

   Telemetry events feed the generic counters through [observe]; the
   workloads fill the rest from the calls they make themselves. *)

open Bench

type t = {
  refit_ms : Samples.t;
  compile_ms : Samples.t;
  rank_ms : Samples.t;
  select_ms_lulesh : Samples.t;  (* Refit + Compile + Rank of one guided step on lulesh *)
  mutable rows_offered : int;
  mutable rank_workers : int;
  probe_seq_ms : Samples.t;
  probe_par_ms : Samples.t;
  mutable probes : int;
  mutable probe_mismatches : int;  (* selections that differed by configuration *)
  mutable probe_tie_flips : int;  (* ... of which with bit-identical scores *)
  mutable suggests : int;
  mutable init_draws : int;
  mutable init_redraws : int;
  mutable replayed : int;
  of_log_ms : Samples.t;
  recover_ms : Samples.t;
  makespan : Samples.t;  (* simulated makespan per async campaign *)
  mutable attempts : int;
  mutable retries : int;
  mutable transient : int;
  mutable permanent : int;
  mutable timeout : int;
  mutable backoff_cost : float;
  mutable ok_verdicts : int;
  mutable rung_evals : int;
  mutable low_rung_evals : int;
  mutable promoted : int;
  mutable total_cost : float;
  mutable records : int;
  mutable record_bytes : int;
  write_us : Samples.t;
  load_ms : Samples.t;
  mutable requests : int;
  mutable suggest_requests : int;
  mutable wait_replies : int;
  report_ms : Samples.t;
  status_ms : Samples.t;
  open_ms : Samples.t;
  reopen_ms : Samples.t;
  mutable errs : int;
  mutable pools : int;
  mutable participants : int;
  mutable overhead_pct : float;
}

let create () =
  {
    refit_ms = Samples.create ();
    compile_ms = Samples.create ();
    rank_ms = Samples.create ();
    select_ms_lulesh = Samples.create ();
    rows_offered = 0;
    rank_workers = 0;
    probe_seq_ms = Samples.create ();
    probe_par_ms = Samples.create ();
    probes = 0;
    probe_mismatches = 0;
    probe_tie_flips = 0;
    suggests = 0;
    init_draws = 0;
    init_redraws = 0;
    replayed = 0;
    of_log_ms = Samples.create ();
    recover_ms = Samples.create ();
    makespan = Samples.create ();
    attempts = 0;
    retries = 0;
    transient = 0;
    permanent = 0;
    timeout = 0;
    backoff_cost = 0.;
    ok_verdicts = 0;
    rung_evals = 0;
    low_rung_evals = 0;
    promoted = 0;
    total_cost = 0.;
    records = 0;
    record_bytes = 0;
    write_us = Samples.create ();
    load_ms = Samples.create ();
    requests = 0;
    suggest_requests = 0;
    wait_replies = 0;
    report_ms = Samples.create ();
    status_ms = Samples.create ();
    open_ms = Samples.create ();
    reopen_ms = Samples.create ();
    errs = 0;
    pools = 0;
    participants = 1;
    overhead_pct = 0.;
  }

let observe t (_, ev) =
  match ev with
  | Telemetry.Event.Refit { dur_ms; _ } -> Samples.add t.refit_ms dur_ms
  | Telemetry.Event.Compile { dur_ms; _ } -> Samples.add t.compile_ms dur_ms
  | Telemetry.Event.Rank { dur_ms; pool_size; workers; _ } ->
      Samples.add t.rank_ms dur_ms;
      t.rows_offered <- t.rows_offered + pool_size;
      t.rank_workers <- max t.rank_workers workers
  | Telemetry.Event.Init_draw { redraws; _ } ->
      t.init_draws <- t.init_draws + 1;
      t.init_redraws <- t.init_redraws + redraws
  | Telemetry.Event.Attempt { attempt; kind; _ } -> (
      t.attempts <- t.attempts + 1;
      if attempt > 1 then t.retries <- t.retries + 1;
      match kind with
      | "transient" -> t.transient <- t.transient + 1
      | "permanent" -> t.permanent <- t.permanent + 1
      | "timeout" -> t.timeout <- t.timeout + 1
      | _ -> ())
  | Telemetry.Event.Eval { replayed = true; _ } -> t.replayed <- t.replayed + 1
  | Telemetry.Event.Eval { kind; retry_cost; _ } ->
      if kind = "ok" then t.ok_verdicts <- t.ok_verdicts + 1;
      t.backoff_cost <- t.backoff_cost +. retry_cost
  | _ -> ()

(* Sum of Refit + Compile + Rank per guided step: the selection latency
   the paper's §VII quotes (~600 ms per LULESH step on its hardware). *)
let select_observer t =
  let step = ref 0. in
  fun (_, ev) ->
    match ev with
    | Telemetry.Event.Refit { dur_ms; _ } -> step := dur_ms
    | Telemetry.Event.Compile { dur_ms; _ } -> step := !step +. dur_ms
    | Telemetry.Event.Rank { dur_ms; _ } -> Samples.add t.select_ms_lulesh (!step +. dur_ms)
    | _ -> ()

let ratio a b = if b = 0. then 0. else a /. b
let count name v = metric name "count" (float_of_int v)

(* [timed_s] is the wall time of the traced load, summed over client
   domains — what the root spans should account for. *)
let metrics t ~spans ~timed_s =
  let s = Spans.summarize spans in
  let share layer =
    ratio (Option.value (List.assoc_opt layer s.Spans.self_by_layer) ~default:0.) s.Spans.root_s
  in
  let hpcsim_us = Samples.create () in
  List.iter
    (fun r -> Spans.iter_named r "Hpcsim.eval" (fun d -> Samples.add hpcsim_us (d *. 1e6)))
    spans;
  let gc = Gc.quick_stat () in
  let p q x = Samples.quantile x q in
  [
    count "surrogate.refits" (Samples.count t.refit_ms);
    metric "surrogate.refit_ms_p50" "ms" (p 0.5 t.refit_ms);
    metric "surrogate.refit_ms_p99" "ms" (p 0.99 t.refit_ms);
    metric "surrogate.compile_ms_p50" "ms" (p 0.5 t.compile_ms);
    metric "surrogate.self_share" "ratio" (share "surrogate");
    metric "surrogate.select_ms_p50.lulesh" "ms" (p 0.5 t.select_ms_lulesh);
    count "strategy.ranks" (Samples.count t.rank_ms);
    metric "strategy.rank_ms_p50" "ms" (p 0.5 t.rank_ms);
    metric "strategy.rank_ms_p99" "ms" (p 0.99 t.rank_ms);
    count "strategy.rows_offered" t.rows_offered;
    count "strategy.rank_workers" t.rank_workers;
    metric "strategy.self_share" "ratio" (share "strategy");
    metric "strategy.probe_seq_ms_p50" "ms" (p 0.5 t.probe_seq_ms);
    metric "strategy.probe_par_ms_p50" "ms" (p 0.5 t.probe_par_ms);
    metric "strategy.probe_match" "bool"
      (if t.probes > 0 && t.probe_mismatches = 0 then 1. else 0.);
    count "strategy.probe_tie_flips" t.probe_tie_flips;
    metric "tuner.self_share" "ratio" (share "tuner");
    metric "tuner.sim_makespan" "sim" (Samples.mean t.makespan);
    count "campaign.suggests" t.suggests;
    count "campaign.init_draws" t.init_draws;
    count "campaign.init_redraws" t.init_redraws;
    metric "campaign.self_share" "ratio" (share "campaign");
    count "campaign.replayed" t.replayed;
    metric "campaign.of_log_ms_p50" "ms" (p 0.5 t.of_log_ms);
    metric "campaign.recover_ms_p50" "ms" (p 0.5 t.recover_ms);
    count "resilience.attempts" t.attempts;
    count "resilience.retries" t.retries;
    count "resilience.transient" t.transient;
    count "resilience.permanent" t.permanent;
    count "resilience.timeout" t.timeout;
    metric "resilience.backoff_cost" "sim" t.backoff_cost;
    metric "resilience.useful_ratio" "ratio"
      (ratio (float_of_int t.ok_verdicts) (float_of_int t.attempts));
    count "fidelity.rung_evals" t.rung_evals;
    count "fidelity.promoted" t.promoted;
    metric "fidelity.promote_ratio" "ratio"
      (ratio (float_of_int t.promoted) (float_of_int t.low_rung_evals));
    metric "fidelity.total_cost" "sim" t.total_cost;
    metric "fidelity.self_share" "ratio" (share "fidelity");
    count "runlog.records" t.records;
    metric "runlog.bytes_per_record" "B"
      (ratio (float_of_int t.record_bytes) (float_of_int t.records));
    metric "runlog.write_us_p50" "us" (p 0.5 t.write_us);
    metric "runlog.write_us_p99" "us" (p 0.99 t.write_us);
    metric "runlog.load_ms_p50" "ms" (p 0.5 t.load_ms);
    metric "runlog.self_share" "ratio" (share "runlog");
    count "serve.requests" t.requests;
    metric "serve.wait_ratio" "ratio"
      (ratio (float_of_int t.wait_replies) (float_of_int t.suggest_requests));
    metric "serve.report_ms_p50" "ms" (p 0.5 t.report_ms);
    metric "serve.report_ms_p99" "ms" (p 0.99 t.report_ms);
    metric "serve.status_ms_p50" "ms" (p 0.5 t.status_ms);
    metric "serve.open_ms_p50" "ms" (p 0.5 t.open_ms);
    metric "serve.recover_ms_p50" "ms" (p 0.5 t.reopen_ms);
    count "serve.err" t.errs;
    count "serve.pools" t.pools;
    metric "serve.self_share" "ratio" (share "serve");
    count "hpcsim.evals" (Samples.count hpcsim_us);
    metric "hpcsim.eval_us_p50" "us" (p 0.5 hpcsim_us);
    metric "hpcsim.share" "ratio" (share "hpcsim");
    count "gc.minor_collections" gc.Gc.minor_collections;
    count "gc.major_collections" gc.Gc.major_collections;
    metric "gc.promoted_mb" "MB"
      (gc.Gc.promoted_words *. float_of_int (Sys.word_size / 8) /. 1048576.);
    metric "gc.top_heap_mb" "MB" (mb_of_words gc.Gc.top_heap_words);
    count "parallel.participants" t.participants;
    count "telemetry.events" s.Spans.events;
    metric "telemetry.overhead_pct" "%" t.overhead_pct;
    count "trace.spans" s.Spans.spans;
    metric "trace.accounted_share" "ratio" (ratio s.Spans.root_s timed_s);
  ]
