(* async-faults: writes beside reads. Per seed, Tuner.run_async with
   k=4 on hypre (budget 441) and kripke (192), both through
   Hpcsim.Faults.standard at rate 0.2 under Policy.default plus a
   timeout, every verdict written with Runlog.writer_record. Each log
   is then reloaded, cut at half its entries, and rebuilt with
   Campaign.of_log up to its first suggest; every 10th cut log is
   resumed to the end with Tuner.resume_async and must finish
   bit-identical to its uninterrupted campaign. Each seed also runs
   Fidelity.run with the default plan and k=4 on kripke. This is the
   workload for Resilience, Runlog writes and loads, resume,
   constant-liar pending, and the rung scheduler. *)

open Bench

let k = 4
let fault_rate = 0.2
let resume_every = 10

type dataset = {
  name : string;
  space : Param.Space.t;
  lookup : Param.Config.t -> float;
  budget : int;
  policy : Resilience.Policy.t;
  good : Metrics.Recall.good_set;
  exhaustive_best : float;
}

type env = {
  datasets : dataset array;
  fidelity : Hpcsim.Registry.fidelity;  (* kripke's node-count ladder *)
  rung_offset : int;  (* ladder level of the plan's rung 0 *)
}

let options = { Hiperbot.Tuner.default_options with n_init = 20 }
let plan = Hiperbot.Fidelity.default_plan

let dataset ctx name build budget =
  let table = build () in
  {
    name;
    space = Dataset.Table.space table;
    lookup = Dataset.Table.objective_fn table;
    budget = (if ctx.smoke then 30 else budget);
    (* Kill a run that takes 4x the dataset's median: an 8x straggler
       of a typical configuration times out, a healthy run never
       does. *)
    policy =
      {
        Resilience.Policy.default with
        timeout = Some (4. *. Stats.Quantile.quantile (Dataset.Table.objectives table) 0.5);
      };
    good = Metrics.Recall.percentile_good_set table 0.05;
    exhaustive_best = Dataset.Table.best_value table;
  }

let setup ctx () =
  let fidelity = Option.get (Hpcsim.Registry.find "kripke").Hpcsim.Registry.fidelity in
  let rung_offset = Array.length fidelity.Hpcsim.Registry.levels - Array.length plan.costs in
  Array.iteri
    (fun r c ->
      if fidelity.Hpcsim.Registry.cost (rung_offset + r) <> c then
        failwith "async-faults: the default plan's rung costs no longer match kripke's ladder")
    plan.costs;
  {
    datasets =
      [|
        dataset ctx "hypre" Hpcsim.Hypre.table 441;
        dataset ctx "kripke" Hpcsim.Kripke.exec_table 192;
      |];
    fidelity;
    rung_offset;
  }

let entry_of_verdict index config (v : Resilience.Evaluator.verdict) =
  let status =
    match v.outcome with
    | Resilience.Outcome.Value y -> Dataset.Runlog.Ok y
    | Resilience.Outcome.Transient _ -> Dataset.Runlog.Failed Dataset.Runlog.Transient
    | Resilience.Outcome.Permanent _ -> Dataset.Runlog.Failed Dataset.Runlog.Permanent
    | Resilience.Outcome.Timeout -> Dataset.Runlog.Failed Dataset.Runlog.Timeout
    | Resilience.Outcome.Infeasible _ -> Dataset.Runlog.Failed Dataset.Runlog.Infeasible
  in
  { Dataset.Runlog.index; config; status; attempts = v.attempts }

let faulty ds ~seed = Hpcsim.Faults.inject (Hpcsim.Faults.standard ~seed ~rate:fault_rate) ds.lookup

let run_async ?telemetry ?on_outcome ds ~seed ~objective =
  Hiperbot.Tuner.run_async ?telemetry ~options ~policy:ds.policy ?on_outcome ~k
    ~rng:(Prng.Rng.create seed) ~space:ds.space ~objective ~budget:ds.budget ()

(* The reference set: seeds 1..4 on both datasets, faults included. *)
let reference ctx env spans =
  List.concat_map
    (fun seed ->
      List.map
        (fun ds ->
          ( ds,
            Spans.traced_call spans ~campaign:seed ~layer:"tuner" "Tuner.run_async"
              ~observe:ignore (fun telemetry ->
                run_async ~telemetry ds ~seed ~objective:(faulty ds ~seed)) ))
        (Array.to_list env.datasets))
    (List.init (if ctx.smoke then 1 else 4) (fun i -> i + 1))

let run ctx =
  let env, setup = timed_setup ctx (setup ctx) in
  let next_seed = seed_stream ctx in
  let spans = Spans.create ~on:ctx.traced ~domain:0 in
  let layers = Layers.create () in
  let waits = Waits.create () in
  let campaign_s = Samples.create () in
  let units = ref 0 and timed_s = ref 0. and recover_s = ref 0. in
  let attempted = ref 0 and failed = ref 0 in
  let resumed_identical = ref true and cut_logs = ref 0 in
  let next_campaign = ref 0 in
  (* One timed campaign: [f] gets the campaign id and returns its
     budget units, or None when it failed outright. *)
  let timed f =
    let cid = !next_campaign in
    incr next_campaign;
    incr attempted;
    Waits.campaign_start waits;
    let t0 = now () in
    let units_done = f cid in
    let dt = now () -. t0 in
    Samples.add campaign_s dt;
    timed_s := !timed_s +. dt;
    match units_done with Some u -> units := !units + u | None -> incr failed
  in
  let recover ds ~cid ~path ~result =
    incr attempted;
    let t0 = now () in
    let log =
      Spans.span spans ~campaign:cid ~layer:"runlog" "Runlog.load" (fun () ->
          Dataset.Runlog.load path)
    in
    Samples.add layers.Layers.load_ms ((now () -. t0) *. 1e3);
    let cut =
      { log with entries = Array.sub log.entries 0 (Array.length log.entries / 2) }
    in
    let t1 = now () in
    let c =
      Spans.traced_call spans ~campaign:cid ~layer:"campaign" "Campaign.of_log"
        ~observe:(Layers.observe layers) (fun telemetry ->
          Hiperbot.Campaign.of_log ~telemetry ~options ~policy:ds.policy
            ~mode:(Hiperbot.Campaign.Async k) ~log:cut ~budget:ds.budget ())
    in
    Samples.add layers.Layers.of_log_ms ((now () -. t1) *. 1e3);
    ignore
      (Spans.span spans ~campaign:cid ~layer:"campaign" "Campaign.suggest" (fun () ->
           Hiperbot.Campaign.suggest c));
    Samples.add layers.Layers.recover_ms ((now () -. t0) *. 1e3);
    recover_s := !recover_s +. (now () -. t0);
    if !cut_logs mod resume_every = 0 then begin
      incr attempted;
      match
        Hiperbot.Tuner.resume_async ~options ~policy:ds.policy ~k ~log:cut
          ~objective:(faulty ds ~seed:log.seed) ~budget:ds.budget ()
      with
      | Ok resumed when same_result resumed result -> ()
      | Ok _ | Error _ ->
          resumed_identical := false;
          incr failed
    end;
    incr cut_logs
  in
  let async_campaign ds ~seed ~index cid =
    let path = Filename.concat ctx.work_dir (Printf.sprintf "%s-%d.runlog" ds.name index) in
    let writer =
      Spans.span spans ~campaign:cid ~layer:"runlog" "Runlog.writer_create" (fun () ->
          Dataset.Runlog.writer_create ~path ~name:ds.name ~seed ~space:ds.space)
    in
    let on_outcome i config verdict =
      let t0 = now () in
      Spans.span spans ~campaign:cid ~layer:"runlog" "Runlog.writer_record" (fun () ->
          Dataset.Runlog.writer_record writer (entry_of_verdict i config verdict));
      Samples.add layers.Layers.write_us ((now () -. t0) *. 1e6)
    in
    let makespan = ref 0. in
    let observe ((_, ev) as e) =
      Layers.observe layers e;
      match ev with
      | Telemetry.Event.Complete { sim_time; _ } -> makespan := Float.max !makespan sim_time
      | Telemetry.Event.Submit _ -> layers.Layers.suggests <- layers.Layers.suggests + 1
      | _ -> ()
    in
    let objective = instrument ~waits ~spans ~campaign:cid (faulty ds ~seed) in
    let r =
      Spans.traced_call spans ~campaign:cid ~layer:"tuner" "Tuner.run_async" ~observe
        (fun telemetry -> run_async ~telemetry ~on_outcome ds ~seed ~objective)
    in
    Spans.span spans ~campaign:cid ~layer:"runlog" "Runlog.writer_close" (fun () ->
        Dataset.Runlog.writer_close writer);
    if ctx.traced then Samples.add layers.Layers.makespan !makespan;
    match r with
    | Error _ -> None
    | Ok r ->
        let n = Array.length r.history + Array.length r.failures in
        layers.Layers.records <- layers.Layers.records + n;
        layers.Layers.record_bytes <- layers.Layers.record_bytes + (Unix.stat path).Unix.st_size;
        Some (n, r, path)
  in
  let fidelity_campaign ~seed cid =
    let kripke = env.datasets.(1) in
    let measure =
      instrument ~waits ~spans ~campaign:cid (fun ~attempt:_ (rung, config) ->
          env.fidelity.Hpcsim.Registry.objective_at (env.rung_offset + rung) config)
    in
    let observe ((_, ev) as e) =
      Layers.observe layers e;
      match ev with
      | Telemetry.Event.Submit _ -> layers.Layers.suggests <- layers.Layers.suggests + 1
      | _ -> ()
    in
    match
      Spans.traced_call spans ~campaign:cid ~layer:"fidelity" "Fidelity.run" ~observe
        (fun telemetry ->
          Hiperbot.Fidelity.run ~telemetry ~options ~plan ~k ~rng:(Prng.Rng.create seed)
            ~space:kripke.space
            ~objective:(fun ~rung config -> measure ~attempt:1 (rung, config))
            ~budget:kripke.budget ())
    with
    | Error _ -> None
    | Ok f ->
        let evals = Array.fold_left ( + ) 0 f.rung_evals in
        let top = Array.length f.rung_evals - 1 in
        layers.Layers.rung_evals <- layers.Layers.rung_evals + evals;
        layers.Layers.low_rung_evals <- layers.Layers.low_rung_evals + evals - f.rung_evals.(top);
        layers.Layers.promoted <- layers.Layers.promoted + Array.fold_left ( + ) 0 f.n_promoted;
        layers.Layers.total_cost <- layers.Layers.total_cost +. f.total_cost;
        Some evals
  in
  load ctx ~setup ~per_second:8.5 (fun index ->
      let seed = next_seed () in
      Array.iter
        (fun ds ->
          let outcome = ref None in
          timed (fun cid ->
              match async_campaign ds ~seed ~index cid with
              | Some (n, r, path) ->
                  outcome := Some (cid, r, path);
                  Some n
              | None -> None);
          Option.iter
            (fun (cid, result, path) ->
              recover ds ~cid ~path ~result;
              Sys.remove path)
            !outcome)
        env.datasets;
      timed (fidelity_campaign ~seed));
  let runs, traced_matches, overhead_pct =
    reference_pass ctx (reference ctx env) ~same:(fun (_, a) (_, b) -> same_outcome a b)
  in
  layers.Layers.overhead_pct <- overhead_pct;
  let quality = Quality.create () in
  List.iter
    (fun (ds, r) ->
      incr attempted;
      match r with
      | Ok (r : Hiperbot.Tuner.result) ->
          Quality.add quality ~good:ds.good ~exhaustive_best:ds.exhaustive_best r.history
      | Error _ -> incr failed)
    runs;
  {
    attempted = !attempted;
    failed = !failed;
    checks =
      ("resumed_bit_identical", !resumed_identical)
      :: (if ctx.traced then [ ("traced_matches_untraced", traced_matches) ] else []);
    e2e =
      e2e ~setup_s:(setup_s setup) ~units:!units ~timed_s:!timed_s ~campaign_s
        ~tuner_ms:waits.samples ~quality;
    layers =
      (if ctx.traced then Layers.metrics layers ~spans:[ spans ] ~timed_s:(!timed_s +. !recover_s)
       else []);
    trace = (if ctx.traced then [ spans ] else []);
  }
