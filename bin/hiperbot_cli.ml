(* hiperbot command-line interface.

   Subcommands: list, describe, tune, tune-csv, transfer, importance,
   export, replay, trace, compare, serve.
   Every built-in dataset of the reproduction is addressable by name;
   `export` writes a dataset as CSV so external tools (or the
   `Dataset.Table.of_csv` loader) can round-trip it. *)

open Cmdliner

let find_table name =
  match Hpcsim.Registry.find name with
  | entry -> Ok (entry.Hpcsim.Registry.table ())
  | exception Not_found ->
      Error
        (Printf.sprintf "unknown dataset %S (try: %s)" name
           (String.concat ", " Hpcsim.Registry.names))

let dataset_arg =
  let doc = "Built-in dataset name (see the `list' subcommand)." in
  Arg.(required & opt (some string) None & info [ "d"; "dataset" ] ~docv:"NAME" ~doc)

let seed_arg =
  let doc = "PRNG seed; runs are fully deterministic given the seed." in
  Arg.(value & opt int 1 & info [ "seed" ] ~docv:"N" ~doc)

let budget_arg default =
  let doc = "Evaluation budget (number of objective evaluations)." in
  Arg.(value & opt int default & info [ "b"; "budget" ] ~docv:"N" ~doc)

(* ---- transfer-learning flags (shared by tune and transfer) ---- *)

(* "NAME:2.5" -> ("NAME", 2.5); a suffix that is not a float is part
   of the name, so plain paths with colons still work. *)
let split_weight s =
  match String.rindex_opt s ':' with
  | Some i -> (
      match float_of_string_opt (String.sub s (i + 1) (String.length s - i - 1)) with
      | Some w -> (String.sub s 0 i, w)
      | None -> (s, 1.0))
  | None -> (s, 1.0)

(* Reject duplicate source names and non-finite weights before
   anything is loaded or fitted: both are command-line mistakes (the
   same log listed twice doubles its prior mass silently; a nan/inf
   weight would only surface deep inside the surrogate merge). *)
let check_source_specs specs =
  let seen = Hashtbl.create 8 in
  try
    List.iter
      (fun spec ->
        let name, w = split_weight spec in
        if not (Float.is_finite w) then
          failwith (Printf.sprintf "transfer source %s: weight is not finite" name);
        if Hashtbl.mem seen name then
          failwith (Printf.sprintf "transfer source %s: given more than once" name);
        Hashtbl.add seen name ())
      specs;
    Ok ()
  with Failure msg -> Error msg

let gate_thresh_arg =
  let doc =
    "Safeguarded-transfer trust threshold in (0, 1): a source prior whose rank agreement with \
     the unbiased init observations stays below $(docv) is attenuated, then dropped for the \
     rest of the campaign. Defaults to the library's calibrated threshold."
  in
  Arg.(value & opt (some float) None & info [ "transfer-gate" ] ~docv:"THRESH" ~doc)

let no_gate_arg =
  let doc = "Disable safeguarded-transfer gating: keep every source prior all campaign." in
  Arg.(value & flag & info [ "no-transfer-gate" ] ~doc)

(* Resolve the two gate flags into [Some options] (gate on) / [None]
   (gate off); gating is on by default whenever transfer sources are
   in play. *)
let resolve_gate thresh no_gate =
  match (thresh, no_gate) with
  | Some _, true -> Error "--transfer-gate and --no-transfer-gate cannot be combined"
  | None, true -> Ok None
  | None, false -> Ok (Some Hiperbot.Gate.default_options)
  | Some t, false ->
      if Float.is_finite t && t > 0. && t < 1. then
        Ok (Some { Hiperbot.Gate.default_options with Hiperbot.Gate.threshold = t })
      else Error "--transfer-gate THRESH must lie strictly between 0 and 1"

(* Load `--transfer-from FILE[:WEIGHT]` run logs into transfer sources
   for [space]; every failure becomes a clean CLI error. *)
let load_transfer_sources ~space files =
  try
    Ok
      (List.map
         (fun spec ->
           let path, w = split_weight spec in
           let log = Dataset.Runlog.load ~recover:true path in
           if not (Param.Space.equal log.Dataset.Runlog.space space) then
             failwith (Printf.sprintf "transfer source %s: space does not match the target" path);
           let hist = Dataset.Runlog.history log in
           if Array.length hist = 0 then
             failwith (Printf.sprintf "transfer source %s: no successful evaluations" path);
           (hist, w))
         files)
  with Failure msg | Sys_error msg -> Error msg

(* ---- list ---- *)

let list_cmd =
  let run () =
    List.iter
      (fun e -> Printf.printf "%-14s %s\n" e.Hpcsim.Registry.name e.Hpcsim.Registry.description)
      Hpcsim.Registry.all
  in
  Cmd.v (Cmd.info "list" ~doc:"List the built-in datasets.") Term.(const run $ const ())

(* ---- describe ---- *)

let describe_cmd =
  let run dataset =
    match find_table dataset with
    | Error e -> `Error (false, e)
    | Ok table ->
        let space = Dataset.Table.space table in
        Printf.printf "dataset: %s (%d configurations)\n" (Dataset.Table.name table)
          (Dataset.Table.size table);
        Printf.printf "parameters:\n";
        Array.iter (fun spec -> Format.printf "  %a@." Param.Spec.pp spec) (Param.Space.specs space);
        let ys = Dataset.Table.objectives table in
        Array.sort Float.compare ys;
        let q p = Stats.Quantile.quantile_sorted ys p in
        Printf.printf "objective: min=%.4g p25=%.4g median=%.4g p75=%.4g max=%.4g\n" ys.(0) (q 0.25)
          (q 0.5) (q 0.75)
          ys.(Array.length ys - 1);
        let config, value = Dataset.Table.best table in
        Printf.printf "best: %s -> %.4g\n" (Param.Space.to_string space config) value;
        `Ok ()
  in
  Cmd.v
    (Cmd.info "describe" ~doc:"Show a dataset's parameters and objective distribution.")
    Term.(ret (const run $ dataset_arg))

(* ---- tune ---- *)

let method_arg =
  let doc = "Tuning method: hiperbot, random, geist, gp, or gbt." in
  Arg.(
    value
    & opt
        (enum
           [ ("hiperbot", `Hiperbot); ("random", `Random); ("geist", `Geist); ("gp", `Gp); ("gbt", `Gbt) ])
        `Hiperbot
    & info [ "m"; "method" ] ~docv:"METHOD" ~doc)

let alpha_arg =
  let doc = "HiPerBOt quantile threshold for the good/bad split." in
  Arg.(value & opt float 0.2 & info [ "alpha" ] ~docv:"A" ~doc)

let n_init_arg =
  let doc = "Random initialization samples." in
  Arg.(value & opt int 20 & info [ "n-init" ] ~docv:"N" ~doc)

let proposal_arg =
  let doc = "Use the Proposal selection strategy with $(docv) sampled candidates instead of exhaustive Ranking." in
  Arg.(value & opt (some int) None & info [ "proposal" ] ~docv:"K" ~doc)

let verbose_arg =
  let doc = "Print every evaluation, not just improvements." in
  Arg.(value & flag & info [ "verbose" ] ~doc)

let trace_file_arg =
  let doc = "Write a structured JSONL campaign trace to $(docv): one flushed line per event (init draws, refit/compile/rank spans, evaluations, retry attempts). Tracing never changes the campaign — traced runs are bit-identical to untraced ones. Hiperbot method only." in
  Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"PATH" ~doc)

let trace_summary_arg =
  let doc = "Print an end-of-campaign telemetry summary (per-phase time breakdown, refit count, p50/p95 refit and ranking latencies). Hiperbot method only." in
  Arg.(value & flag & info [ "trace-summary" ] ~doc)

let save_arg =
  let doc = "Write a run log of every evaluation to $(docv), one flushed line per evaluation so an interrupted run is recoverable (see Dataset.Runlog). Hiperbot method only." in
  Arg.(value & opt (some string) None & info [ "save" ] ~docv:"PATH" ~doc)

let resume_arg =
  let doc = "Resume an interrupted campaign from the --save run log: recorded evaluations are replayed (not re-run) and the remaining budget is tuned and appended to the log. Requires --save and the hiperbot method." in
  Arg.(value & flag & info [ "resume" ] ~doc)

let faults_arg =
  let doc = "Inject deterministic faults at transient rate $(docv) (plus permanent failures at a quarter and 8x stragglers at half that rate). Hiperbot method only." in
  Arg.(value & opt float 0. & info [ "faults" ] ~docv:"RATE" ~doc)

let fault_seed_arg =
  let doc = "Seed of the fault-injection streams (default: derived from --seed)." in
  Arg.(value & opt (some int) None & info [ "fault-seed" ] ~docv:"N" ~doc)

let retries_arg =
  let doc = "Maximum attempts per configuration (transient failures and timeouts are retried with exponential simulated backoff; permanent failures never are)." in
  Arg.(value & opt int 3 & info [ "retries" ] ~docv:"N" ~doc)

let timeout_arg =
  let doc = "Per-evaluation cost budget: an evaluation above $(docv) is classified as a timeout (straggler) instead of a measurement." in
  Arg.(value & opt (some float) None & info [ "timeout" ] ~docv:"COST" ~doc)

let async_arg =
  let doc = "Run the asynchronous campaign engine with up to $(docv) evaluations in flight: the surrogate refits on every completion and pending configurations are penalized as constant liars. $(docv) = 1 is the synchronous engine: the same step path, so the same history and a byte-identical --save run log. Composes with --faults, --retries, --timeout, --save/--resume, and --trace. Hiperbot method only." in
  Arg.(value & opt (some int) None & info [ "async" ] ~docv:"K" ~doc)

let fidelity_arg =
  let doc =
    "Run the multi-fidelity successive-halving scheduler over the last $(docv) levels of the \
     dataset's fidelity ladder (node count for kripke/hypre, problem size for lulesh): each \
     bracket evaluates a cohort of --n-init configurations at the cheapest rung and promotes the \
     best ceil(n/eta) per rung closure, so most of the budget is spent at a fraction of the \
     full-fidelity cost. $(docv) = 1 degrades to the flat full-fidelity campaign. Composes with \
     --async, --save/--resume, and --trace. Hiperbot method only."
  in
  Arg.(value & opt (some int) None & info [ "fidelity" ] ~docv:"R" ~doc)

let brackets_arg =
  let doc = "Successive-halving brackets to run (requires --fidelity; default 4)." in
  Arg.(value & opt (some int) None & info [ "brackets" ] ~docv:"B" ~doc)

let eta_arg =
  let doc =
    "Promotion ratio: each rung closure keeps the best ceil(n/$(docv)) of its n results \
     (requires --fidelity; default 3)."
  in
  Arg.(value & opt (some float) None & info [ "eta" ] ~docv:"F" ~doc)

(* Tune a dataset objective, a table lookup that never fails, with one
   evaluation in flight. *)
let tune_total ?options ?candidates ?on_gate ~rng ~space ~objective ~budget () =
  match
    Hiperbot.Tuner.run_async ?options ?candidates ?on_gate ~rng ~space
      ~objective:(fun ~attempt:_ c -> Resilience.Outcome.Value (objective c))
      ~budget ()
  with
  | Stdlib.Ok r -> r
  | Stdlib.Error _ -> failwith "every evaluation failed"

let tune_cmd =
  let transfer_from_arg =
    let doc =
      "Load a source run log (written by `tune --save') as a transfer prior, optionally weighted \
       ($(docv) is FILE or FILE:WEIGHT; weight defaults to 1). Repeatable: each log becomes one \
       prior source. Composes with --faults, --resume, --async, and --trace. Hiperbot method \
       only."
    in
    Arg.(value & opt_all string [] & info [ "transfer-from" ] ~docv:"FILE[:W]" ~doc)
  in
  let run dataset seed budget method_ alpha n_init proposal verbose trace_file
      trace_summary save resume faults fault_seed retries timeout async transfer_from
      transfer_gate no_transfer_gate fidelity brackets eta =
    match find_table dataset with
    | Error e -> `Error (false, e)
    | Ok table ->
        let fidelity_ladder = (Hpcsim.Registry.find dataset).Hpcsim.Registry.fidelity in
        let space = Dataset.Table.space table in
        let objective = Dataset.Table.objective_fn table in
        let rng = Prng.Rng.create seed in
        let gate_opts = resolve_gate transfer_gate no_transfer_gate in
        let base_options =
          {
            Hiperbot.Tuner.default_options with
            n_init;
            strategy =
              (match proposal with
              | Some k -> Hiperbot.Strategy.Proposal { n_candidates = k }
              | None -> Hiperbot.Strategy.Ranking);
            surrogate = { Hiperbot.Surrogate.default_options with alpha };
          }
        in
        (* Resolve --transfer-from eagerly so a bad source log fails
           before any tuning starts; the resulting prior rides in the
           options, so every engine path (plain, resume, async) picks
           it up without further wiring. *)
        let hiperbot_options =
          match (transfer_from, gate_opts) with
          | [], _ | _, Error _ -> Ok base_options
          | files, Ok gate -> (
              match check_source_specs files with
              | Error e -> Error e
              | Ok () -> (
                  match load_transfer_sources ~space files with
                  | Error e -> Error e
                  | Ok sources -> (
                      try
                        Ok
                          (Hiperbot.Transfer.options ~options:base_options ~gate ~space sources)
                      with Invalid_argument msg -> Error msg)))
        in
        if (save <> None || resume || faults > 0. || async <> None) && method_ <> `Hiperbot then
          `Error
            ( false,
              "--save, --resume, --faults, and --async are only supported with --method hiperbot"
            )
        else if (match async with Some k -> k < 1 | None -> false) then
          `Error (false, "--async K must be at least 1")
        else if resume && save = None then `Error (false, "--resume requires --save PATH")
        else if not (0. <= faults && faults <= 1.) then
          `Error (false, "--faults RATE must be in [0, 1]")
        else if retries < 1 then `Error (false, "--retries must be at least 1")
        else if (match timeout with Some t -> t <= 0. | None -> false) then
          `Error (false, "--timeout must be positive")
        else if (trace_file <> None || trace_summary) && method_ <> `Hiperbot then
          `Error (false, "--trace and --trace-summary are only supported with --method hiperbot")
        else if transfer_from <> [] && method_ <> `Hiperbot then
          `Error (false, "--transfer-from is only supported with --method hiperbot")
        else if (transfer_gate <> None || no_transfer_gate) && transfer_from = [] then
          `Error (false, "--transfer-gate and --no-transfer-gate require --transfer-from")
        else if Result.is_error gate_opts then `Error (false, Result.get_error gate_opts)
        else if Result.is_error hiperbot_options then
          `Error (false, Result.get_error hiperbot_options)
        else if (match fidelity with Some r -> r < 1 | None -> false) then
          `Error (false, "--fidelity R must be at least 1")
        else if fidelity <> None && method_ <> `Hiperbot then
          `Error (false, "--fidelity is only supported with --method hiperbot")
        else if fidelity <> None && proposal <> None then
          `Error (false, "--fidelity is incompatible with --proposal")
        else if fidelity <> None && transfer_from <> [] then
          `Error (false, "--fidelity is incompatible with --transfer-from")
        else if fidelity <> None && faults > 0. then
          `Error (false, "--fidelity is incompatible with --faults")
        else if fidelity = None && (brackets <> None || eta <> None) then
          `Error (false, "--brackets and --eta require --fidelity")
        else if (match brackets with Some b -> b < 1 | None -> false) then
          `Error (false, "--brackets must be at least 1")
        else if (match eta with Some e -> (not (Float.is_finite e)) || e <= 1. | None -> false)
        then `Error (false, "--eta must be finite and greater than 1")
        else if fidelity <> None && fidelity_ladder = None then
          `Error
            ( false,
              Printf.sprintf "dataset %s has no fidelity ladder (fidelity-capable: kripke, \
                              hypre, lulesh)" dataset )
        else if
          match (fidelity, fidelity_ladder) with
          | Some r, Some f -> r > Array.length f.Hpcsim.Registry.levels
          | _ -> false
        then
          `Error
            ( false,
              Printf.sprintf "--fidelity R exceeds the dataset's ladder depth (%d levels)"
                (match fidelity_ladder with
                | Some f -> Array.length f.Hpcsim.Registry.levels
                | None -> 0) )
        else begin
          let summary = if trace_summary then Some (Telemetry.Summary.create ()) else None in
          let telemetry =
            Telemetry.Trace.make
              ((match trace_file with Some p -> [ Telemetry.Trace.jsonl_sink p ] | None -> [])
              @ match summary with Some s -> [ Telemetry.Summary.sink s ] | None -> [])
          in
          let finish_trace () =
            Telemetry.Trace.close telemetry;
            (match trace_file with
            | Some p -> Printf.printf "trace written to %s\n" p
            | None -> ());
            match summary with Some s -> print_string (Telemetry.Summary.render s) | None -> ()
          in
          let best = ref infinity in
          let print_evaluation i config y =
            if verbose || y < !best then begin
              if y < !best then best := y;
              Printf.printf "%4d  %10.4g  %s\n" i y (Param.Space.to_string space config)
            end
          in
          let print_tuner_result (result : Hiperbot.Tuner.result) =
            (match result.Hiperbot.Tuner.final_surrogate with
            | Some s ->
                Printf.printf "parameter importance: %s\n"
                  (Hiperbot.Importance.to_string (Hiperbot.Importance.of_surrogate s))
            | None -> ());
            let n_fail = Array.length result.Hiperbot.Tuner.failures in
            if n_fail > 0 || result.Hiperbot.Tuner.n_attempts > Array.length result.Hiperbot.Tuner.history
            then
              Printf.printf "failures: %d  attempts: %d  backoff cost: %.4g\n" n_fail
                result.Hiperbot.Tuner.n_attempts result.Hiperbot.Tuner.retry_cost;
            Baselines.Outcome.of_tuner_result result
          in
          let options = Result.get_ok hiperbot_options in
          (* Run the engine over the --save log (recovered with
             --resume); every refusal comes back as [Error]. *)
          let with_session_log run =
            let session = ref None in
            let result =
              try
                let log =
                  Hiperbot.Session.open_log ~resume ?path:save ~name:("tune:" ^ dataset) ~seed
                    ~space ()
                in
                session := Some log;
                Option.iter
                  (fun (r : Dataset.Runlog.t) ->
                    if r.seed <> seed then
                      Printf.printf "resuming with the log's seed %d (ignoring --seed %d)\n" r.seed
                        seed;
                    Printf.printf "resuming after %d recorded evaluations\n" (Array.length r.entries))
                  (Hiperbot.Session.recovered log);
                Ok (run log)
              with
              | Hiperbot.Session.Space_mismatch -> Error "run log space does not match the dataset"
              | Failure msg | Invalid_argument msg | Sys_error msg -> Error msg
            in
            Option.iter Hiperbot.Session.close !session;
            finish_trace ();
            result
          in
          let report_best (outcome : Baselines.Outcome.t) =
            Printf.printf "best after %d evaluations: %.4g\n"
              (Array.length outcome.Baselines.Outcome.history)
              outcome.Baselines.Outcome.best_value;
            Printf.printf "  %s\n"
              (Param.Space.to_string space outcome.Baselines.Outcome.best_config);
            Printf.printf "exhaustive best: %.4g\n" (Dataset.Table.best_value table);
            (match save with
            | Some path -> Printf.printf "run log written to %s\n" path
            | None -> ());
            `Ok ()
          in
          if fidelity <> None then begin
            (* Multi-fidelity path: successive-halving brackets over the
               dataset's natural fidelity ladder, rung state persisted as
               #fid / #rung run-log lines for bit-exact resume. *)
            let r = Option.get fidelity in
            let fid = Option.get fidelity_ladder in
            let n_levels = Array.length fid.Hpcsim.Registry.levels in
            let offset = n_levels - r in
            let costs = Array.init r (fun i -> fid.Hpcsim.Registry.cost (offset + i)) in
            let plan =
              {
                Hiperbot.Fidelity.costs;
                eta = Option.value eta ~default:3.;
                cohort = n_init;
                brackets = Option.value brackets ~default:4;
                low_weight = 0.25;
                cost_budget = None;
              }
            in
            let fid_objective ~rung config =
              fid.Hpcsim.Registry.objective_at (offset + rung) config
            in
            let k = Option.value async ~default:1 in
            let fid_result =
              with_session_log @@ fun log ->
              let on_eval i config y =
                Hiperbot.Session.record log
                  { Dataset.Runlog.index = i; config; status = Ok y; attempts = 1 };
                print_evaluation i config y
              in
              let on_record (record : Dataset.Runlog.record) =
                Hiperbot.Session.append log record;
                match record with
                | Fid f ->
                    if verbose then
                      Printf.printf "  b%d/r%d  %10.4g  %s\n" f.f_bracket f.f_rung f.f_value
                        (Param.Space.to_string space f.f_config)
                | Rung rg ->
                    Printf.printf
                      "bracket %d rung %d closed: %d evaluated, %d promoted (best %.4g)\n"
                      rg.r_bracket rg.r_rung rg.r_evaluated rg.r_promoted rg.r_best
                | Gate _ | Obj _ -> ()
              in
              match Hiperbot.Session.recovered log with
              | Some log ->
                  Hiperbot.Fidelity.resume ~telemetry ~options ~on_eval ~on_record ~plan ~k ~log
                    ~objective:fid_objective ~budget ()
              | None ->
                  Hiperbot.Fidelity.run ~telemetry ~options ~on_eval ~on_record ~plan ~k ~rng
                    ~space ~objective:fid_objective ~budget ()
            in
            match fid_result with
            | Error msg -> `Error (false, msg)
            | Ok (Stdlib.Error err) ->
                `Error
                  ( false,
                    Printf.sprintf
                      "no full-fidelity evaluation completed (%d low-fidelity evaluations \
                       spent); raise --budget or lower --fidelity"
                      err.Hiperbot.Tuner.error_attempts )
            | Ok (Stdlib.Ok fres) ->
                let outcome = print_tuner_result fres.Hiperbot.Fidelity.run in
                let rungs =
                  String.concat "/"
                    (Array.to_list (Array.map string_of_int fres.Hiperbot.Fidelity.rung_evals))
                in
                Printf.printf
                  "fidelity: %d brackets, %s evaluations per rung, total cost %.4g \
                   full-fidelity-equivalents\n"
                  fres.Hiperbot.Fidelity.n_brackets rungs fres.Hiperbot.Fidelity.total_cost;
                report_best outcome
          end
          else if method_ = `Hiperbot then begin
            (* Outcome-taxonomy objective, retry policy, flush-per-entry
               v2 run log, optional resume and async engine. *)
            let policy =
              { Resilience.Policy.default with max_attempts = retries; timeout }
            in
            let fault_spec =
              if faults > 0. then
                Some
                  (Hpcsim.Faults.standard
                     ~seed:(Option.value fault_seed ~default:(seed + 7919))
                     ~rate:faults)
              else None
            in
            let outcome_objective ~attempt c =
              match fault_spec with
              | Some fs -> Hpcsim.Faults.inject fs objective ~attempt c
              | None -> Resilience.Outcome.Value (objective c)
            in
            let tuner_result =
              with_session_log @@ fun log ->
              let on_outcome i config (v : Resilience.Evaluator.verdict) =
                match v.Resilience.Evaluator.outcome with
                | Resilience.Outcome.Value y -> print_evaluation i config y
                | failure ->
                    if verbose then
                      Printf.printf "%4d  %10s  %s\n" i
                        (Resilience.Outcome.kind failure)
                        (Param.Space.to_string space config)
              in
              Hiperbot.Tuner.drive ~telemetry ~policy ~objective:outcome_objective
                (Hiperbot.Session.start ~telemetry ~options ~policy
                   ~duration:Hiperbot.Tuner.default_duration ~on_outcome ?k:async ~budget log)
            in
            match tuner_result with
            | Error msg -> `Error (false, msg)
            | Ok (Stdlib.Error err) ->
                `Error
                  ( false,
                    Printf.sprintf
                      "every evaluation failed (%d failures, %d attempts); no best configuration"
                      (Array.length err.Hiperbot.Tuner.error_failures)
                      err.Hiperbot.Tuner.error_attempts )
            | Ok (Stdlib.Ok result) -> report_best (print_tuner_result result)
          end
          else begin
            (* Baselines keep no run log and no trace (both refused
               above); only their option checks can fail. *)
            match
              match method_ with
              | `Random -> Baselines.Random_search.run ~rng ~space ~objective ~budget ()
              | `Geist -> Baselines.Geist.run ~rng ~space ~objective ~budget ()
              | `Gp -> Baselines.Gp_tuner.run ~rng ~space ~objective ~budget ()
              | `Gbt -> Baselines.Gbt_tuner.run ~rng ~space ~objective ~budget ()
              | `Hiperbot -> assert false (* tuned by the branch above *)
            with
            | outcome -> report_best outcome
            | exception Invalid_argument msg -> `Error (false, msg)
          end
        end
  in
  Cmd.v
    (Cmd.info "tune" ~doc:"Run a tuner on a dataset and report the best configuration found.")
    Term.(
      ret
        (const run $ dataset_arg $ seed_arg $ budget_arg 150 $ method_arg $ alpha_arg $ n_init_arg
       $ proposal_arg $ verbose_arg $ trace_file_arg $ trace_summary_arg $ save_arg
       $ resume_arg $ faults_arg $ fault_seed_arg $ retries_arg $ timeout_arg
       $ async_arg $ transfer_from_arg $ gate_thresh_arg $ no_gate_arg $ fidelity_arg
       $ brackets_arg $ eta_arg))

(* ---- transfer ---- *)

let transfer_cmd =
  let source_arg =
    let doc =
      "Source-domain dataset whose rows become a prior, optionally weighted ($(docv) is NAME or \
       NAME:WEIGHT; weight defaults to --weight). Repeatable for multi-source transfer."
    in
    Arg.(non_empty & opt_all string [] & info [ "source" ] ~docv:"NAME[:W]" ~doc)
  in
  let target_arg =
    let doc = "Target-domain dataset (tuned with the sources as priors)." in
    Arg.(required & opt (some string) None & info [ "target" ] ~docv:"NAME" ~doc)
  in
  let weight_arg =
    let doc = "Default prior weight w (paper eqs. 9-10) for sources without their own :WEIGHT." in
    Arg.(value & opt float 1.0 & info [ "w"; "weight" ] ~docv:"W" ~doc)
  in
  let run sources target seed budget weight transfer_gate no_transfer_gate =
    let named =
      List.map
        (fun s ->
          match split_weight s with
          | name, w when String.contains s ':' -> (name, w)
          | name, _ -> (name, weight))
        sources
    in
    let tables =
      List.fold_left
        (fun acc (name, w) ->
          match (acc, find_table name) with
          | Error e, _ -> Error e
          | Ok _, Error e -> Error e
          | Ok l, Ok t -> Ok ((t, w) :: l))
        (Ok []) named
    in
    match (check_source_specs sources, resolve_gate transfer_gate no_transfer_gate) with
    | Error e, _ | _, Error e -> `Error (false, e)
    | Ok (), Ok gate -> (
    match (tables, find_table target) with
    | Error e, _ | _, Error e -> `Error (false, e)
    | Ok rev_sources, Ok trgt ->
        let src_tables = List.rev rev_sources in
        let space = Dataset.Table.space trgt in
        if
          List.exists
            (fun (src, _) -> not (Param.Space.equal (Dataset.Table.space src) space))
            src_tables
        then `Error (false, "source and target datasets have different parameter spaces")
        else begin
          let source_obs =
            List.map
              (fun (src, w) ->
                ( Array.init (Dataset.Table.size src) (fun i ->
                      (Dataset.Table.config src i, Dataset.Table.objective src i)),
                  w ))
              src_tables
          in
          let rng = Prng.Rng.create seed in
          let names = Array.of_list (List.map fst named) in
          let on_gate (g : Dataset.Runlog.gate) =
            if g.Dataset.Runlog.g_source < 0 then
              Printf.printf "gate: every source dropped at refit %d; continuing without priors\n"
                g.Dataset.Runlog.g_refit
            else
              Printf.printf "gate: %s source %s at refit %d (trust %.3f)\n"
                g.Dataset.Runlog.g_action
                names.(g.Dataset.Runlog.g_source)
                g.Dataset.Runlog.g_refit g.Dataset.Runlog.g_trust
          in
          let options = Hiperbot.Transfer.options ~gate ~space source_obs in
          let result =
            tune_total ~options ~on_gate ~rng ~space ~objective:(Dataset.Table.objective_fn trgt)
              ~budget ()
          in
          Printf.printf "best after %d evaluations: %.4g\n"
            (Array.length result.Hiperbot.Tuner.history)
            result.Hiperbot.Tuner.best_value;
          Printf.printf "  %s\n" (Param.Space.to_string space result.Hiperbot.Tuner.best_config);
          Printf.printf "exhaustive target best: %.4g\n" (Dataset.Table.best_value trgt);
          let good = Metrics.Recall.tolerance_good_set trgt 0.10 in
          Printf.printf "recall at 10%% tolerance: %.3f (%d good configurations)\n"
            (Metrics.Recall.recall good result.Hiperbot.Tuner.history)
            good.Metrics.Recall.count;
          `Ok ()
        end)
  in
  Cmd.v
    (Cmd.info "transfer" ~doc:"Transfer-learn from source dataset(s) onto a target dataset.")
    Term.(
      ret
        (const run $ source_arg $ target_arg $ seed_arg $ budget_arg 278 $ weight_arg
       $ gate_thresh_arg $ no_gate_arg))

(* ---- tune-csv ---- *)

let tune_csv_cmd =
  let csv_arg =
    let doc = "CSV file: parameter columns, then one objective column. Parameter types are inferred (numeric columns become ordinal, the rest categorical)." in
    Arg.(required & opt (some file) None & info [ "csv" ] ~docv:"PATH" ~doc)
  in
  let run path seed budget alpha n_init =
    let text =
      let ic = open_in path in
      let n = in_channel_length ic in
      let s = really_input_string ic n in
      close_in ic;
      s
    in
    match Dataset.Infer.table_of_csv ~name:(Filename.basename path) text with
    | exception Failure msg -> `Error (false, msg)
    | table ->
        let space = Dataset.Table.space table in
        Printf.printf "inferred space (%d measured rows):\n" (Dataset.Table.size table);
        Array.iter (fun spec -> Format.printf "  %a@." Param.Spec.pp spec) (Param.Space.specs space);
        let options =
          {
            Hiperbot.Tuner.default_options with
            n_init;
            surrogate = { Hiperbot.Surrogate.default_options with alpha };
          }
        in
        let result =
          tune_total ~options
            ~candidates:(Dataset.Table.configs table)
            ~rng:(Prng.Rng.create seed) ~space
            ~objective:(Dataset.Table.objective_fn table)
            ~budget ()
        in
        Printf.printf "best after %d evaluations: %.4g\n"
          (Array.length result.Hiperbot.Tuner.history)
          result.Hiperbot.Tuner.best_value;
        Printf.printf "  %s\n" (Param.Space.to_string space result.Hiperbot.Tuner.best_config);
        Printf.printf "best row in the file: %.4g\n" (Dataset.Table.best_value table);
        (match result.Hiperbot.Tuner.final_surrogate with
        | Some s ->
            Printf.printf "parameter importance: %s\n"
              (Hiperbot.Importance.to_string (Hiperbot.Importance.of_surrogate s))
        | None -> ());
        `Ok ()
  in
  Cmd.v
    (Cmd.info "tune-csv" ~doc:"Tune over the measured rows of a CSV study (space inferred).")
    Term.(ret (const run $ csv_arg $ seed_arg $ budget_arg 100 $ alpha_arg $ n_init_arg))

(* ---- importance ---- *)

let importance_cmd =
  let samples_arg =
    let doc = "Fit the surrogate on a random subset of $(docv) rows (default: all rows)." in
    Arg.(value & opt (some int) None & info [ "samples" ] ~docv:"N" ~doc)
  in
  let run dataset seed samples =
    match find_table dataset with
    | Error e -> `Error (false, e)
    | Ok table ->
        let space = Dataset.Table.space table in
        let all =
          Array.init (Dataset.Table.size table) (fun i ->
              (Dataset.Table.config table i, Dataset.Table.objective table i))
        in
        let obs =
          match samples with
          | None -> all
          | Some n ->
              let n = min n (Array.length all) in
              let rng = Prng.Rng.create seed in
              let idx = Prng.Rng.sample_without_replacement rng n (Array.length all) in
              Array.map (fun i -> all.(i)) idx
        in
        let ranking = Hiperbot.Importance.of_observations space obs in
        Printf.printf "parameter importance (JS divergence, %d observations):\n" (Array.length obs);
        Array.iter (fun (name, s) -> Printf.printf "  %-12s %.4f\n" name s) ranking;
        `Ok ()
  in
  Cmd.v
    (Cmd.info "importance" ~doc:"Rank a dataset's parameters by Jensen-Shannon importance.")
    Term.(ret (const run $ dataset_arg $ seed_arg $ samples_arg))

(* ---- export ---- *)

let export_cmd =
  let output_arg =
    let doc = "Output CSV path (defaults to stdout)." in
    Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"PATH" ~doc)
  in
  let run dataset output =
    match find_table dataset with
    | Error e -> `Error (false, e)
    | Ok table ->
        let csv = Dataset.Table.to_csv table in
        (match output with
        | None -> print_string csv
        | Some path ->
            let oc = open_out path in
            output_string oc csv;
            close_out oc;
            Printf.printf "wrote %d rows to %s\n" (Dataset.Table.size table) path);
        `Ok ()
  in
  Cmd.v
    (Cmd.info "export" ~doc:"Export a dataset as CSV.")
    Term.(ret (const run $ dataset_arg $ output_arg))

(* ---- replay ---- *)

let replay_cmd =
  let log_arg =
    let doc = "Run log written by `tune --save'." in
    Arg.(required & opt (some file) None & info [ "log" ] ~docv:"PATH" ~doc)
  in
  let against_arg =
    let doc = "Score the log's recall against this built-in dataset." in
    Arg.(value & opt (some string) None & info [ "against" ] ~docv:"NAME" ~doc)
  in
  let run path against =
    match Dataset.Runlog.load ~recover:true path with
    | exception Failure msg -> `Error (false, msg)
    | log ->
        let space = log.Dataset.Runlog.space in
        let history = Dataset.Runlog.history log in
        Printf.printf "run %S (seed %d): %d evaluations, %d failures\n" log.Dataset.Runlog.name
          log.Dataset.Runlog.seed (Array.length history)
          (Array.length log.Dataset.Runlog.entries - Array.length history);
        List.iter
          (fun kind ->
            let n = Dataset.Runlog.count_kind log kind in
            if n > 0 then
              Printf.printf "  %s: %d\n" (Dataset.Runlog.failure_kind_to_string kind) n)
          [
            Dataset.Runlog.Crash;
            Dataset.Runlog.Transient;
            Dataset.Runlog.Permanent;
            Dataset.Runlog.Timeout;
            Dataset.Runlog.Infeasible;
          ];
        (match Dataset.Runlog.best log with
        | Some (c, y) -> Printf.printf "best: %.4g at %s\n" y (Param.Space.to_string space c)
        | None -> Printf.printf "no successful evaluation\n");
        (match against with
        | None -> `Ok ()
        | Some name -> begin
            match find_table name with
            | Error e -> `Error (false, e)
            | Ok table ->
                if not (Param.Space.equal (Dataset.Table.space table) space) then
                  `Error (false, "run log space does not match the dataset")
                else begin
                  let good = Metrics.Recall.percentile_good_set table 0.05 in
                  Printf.printf "top-5%% recall vs %s: %.3f (%d good configs)\n" name
                    (Metrics.Recall.recall good history)
                    good.Metrics.Recall.count;
                  `Ok ()
                end
          end)
  in
  Cmd.v
    (Cmd.info "replay" ~doc:"Inspect a saved run log, optionally scoring it against a dataset.")
    Term.(ret (const run $ log_arg $ against_arg))

(* ---- trace ---- *)

let trace_cmd =
  let log_arg =
    let doc = "Campaign trace written by `tune --trace'." in
    Arg.(required & opt (some file) None & info [ "log" ] ~docv:"PATH" ~doc)
  in
  let run path =
    match Telemetry.Tracefile.load ~recover:true path with
    | exception Failure msg -> `Error (false, msg)
    | tf ->
        Printf.printf "trace %s (schema %s v%d): %d events%s\n" path Telemetry.Tracefile.schema
          tf.Telemetry.Tracefile.version
          (Array.length tf.Telemetry.Tracefile.events)
          (if tf.Telemetry.Tracefile.dropped then " (truncated final line dropped)" else "");
        print_string (Telemetry.Summary.render (Telemetry.Summary.of_trace tf));
        `Ok ()
  in
  Cmd.v
    (Cmd.info "trace" ~doc:"Inspect and summarize a saved campaign trace.")
    Term.(ret (const run $ log_arg))

(* ---- serve ---- *)

let serve_cmd =
  let dir_arg =
    let doc =
      "Session directory: every session persists to $(docv)/<name>.runlog and can be \
       recovered after a crash by re-opening it with the same seed and space."
    in
    Arg.(value & opt (some string) None & info [ "dir" ] ~docv:"DIR" ~doc)
  in
  let run dir =
    let server = Hiperbot.Serve.create ?dir () in
    let rec loop () =
      match In_channel.input_line In_channel.stdin with
      | None -> ()
      | Some line ->
          print_endline (Hiperbot.Serve.handle server line);
          flush stdout;
          loop ()
    in
    loop ();
    Hiperbot.Serve.close_all server;
    `Ok ()
  in
  let doc = "Run the tuning server: one request line on stdin, one response line on stdout." in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Multiplexes any number of concurrent tuning campaigns over a line protocol. \
         Clients open sessions, ask for configurations and report measurements; the \
         server never evaluates anything itself.";
      `P "Protocol (one request per line; responses start with `ok' or `err'):";
      `Pre
        "  open <name> seed=<n> budget=<n> space=<spec;...> [k=<n>] [n_init=<n>] \
         [early_stop=<n>]\n\
        \  suggest <name>\n\
        \  report <name> <id> ok:<value>|fail:<kind> [attempts=<n>]\n\
        \  status <name>\n\
        \  close <name>";
      `P
        "Specs use the run-log wire form, e.g. \
         `space=level=cat:O0,O1,O2;unroll=ord:1,2,4'.";
    ]
  in
  Cmd.v (Cmd.info "serve" ~doc ~man) Term.(ret (const run $ dir_arg))

(* ---- compare ---- *)

let compare_cmd =
  let reps_arg =
    let doc = "Seeded repetitions per method." in
    Arg.(value & opt int 5 & info [ "reps" ] ~docv:"N" ~doc)
  in
  let run dataset budget reps =
    match find_table dataset with
    | Error e -> `Error (false, e)
    | Ok table ->
        let space = Dataset.Table.space table in
        let objective = Dataset.Table.objective_fn table in
        let good = Metrics.Recall.percentile_good_set table 0.05 in
        Printf.printf "dataset %s: %d configs, exhaustive best %.4g, %d good (top 5%%), budget %d, reps %d\n"
          dataset (Dataset.Table.size table) (Dataset.Table.best_value table)
          good.Metrics.Recall.count budget reps;
        Printf.printf "%-10s %16s %16s\n" "method" "best (mean+-std)" "recall (mean+-std)";
        let methods =
          [
            ("random", fun ~rng ~budget -> Baselines.Random_search.run ~rng ~space ~objective ~budget ());
            ("geist", fun ~rng ~budget -> Baselines.Geist.run ~rng ~space ~objective ~budget ());
            ("gbt", fun ~rng ~budget -> Baselines.Gbt_tuner.run ~rng ~space ~objective ~budget ());
            ( "hiperbot",
              fun ~rng ~budget ->
                Baselines.Outcome.of_tuner_result (tune_total ~rng ~space ~objective ~budget ()) );
          ]
        in
        List.iter
          (fun (label, run) ->
            let d =
              Metrics.Runner.sweep_detailed ~reps ~base_seed:100 ~sample_sizes:[| budget |] ~good ~run
            in
            let p = d.Metrics.Runner.points.(0) in
            Printf.printf "%-10s %8.4g+-%-7.3g %8.3f+-%-6.3f\n%!" label p.Metrics.Runner.best_mean
              p.Metrics.Runner.best_std p.Metrics.Runner.recall_mean p.Metrics.Runner.recall_std)
          methods;
        `Ok ()
  in
  Cmd.v
    (Cmd.info "compare" ~doc:"Compare tuning methods on a dataset at one budget.")
    Term.(ret (const run $ dataset_arg $ budget_arg 150 $ reps_arg))

let () =
  let doc = "HiPerBOt: Bayesian-optimization autotuning for HPC applications" in
  let info = Cmd.info "hiperbot" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            list_cmd;
            describe_cmd;
            tune_cmd;
            tune_csv_cmd;
            transfer_cmd;
            importance_cmd;
            export_cmd;
            replay_cmd;
            trace_cmd;
            compare_cmd;
            serve_cmd;
          ]))
