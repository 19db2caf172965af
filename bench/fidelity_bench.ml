(* Multi-fidelity successive halving vs the flat full-fidelity tuner
   on the datasets with natural fidelity ladders: Kripke and HYPRE
   (node count: a rung-r evaluation costs nodes/16 node-hours under
   weak scaling). Both tuners chase the same top-decile good set of
   the full-fidelity table under the paper's budget protocol
   (size/100 + 100 evaluations for the flat tuner):

   - flat:  HiPerBOt at full fidelity, one cost unit per evaluation
            (total simulated cost = budget)
   - sh:    the successive-halving bracket scheduler, capped at 60%
            of the flat tuner's total simulated cost; cheap rungs
            triage cohorts so the full-fidelity evaluations
            concentrate on survivors

   Reported metric is top-decile discovery recall: the fraction of
   the best-10% full-fidelity rows the tuner evaluated at any rung.
   Good-set membership is always judged by the full-fidelity table;
   cheap rungs only change how much of the space a fixed simulated
   cost can visit — which is exactly the multi-fidelity claim. For
   the flat tuner every evaluation is full-fidelity, so its discovery
   recall is the ordinary history recall. The JSON also reports the
   successive-halving recall restricted to full-fidelity evaluations
   (recall_full_mean) for transparency: that view trades coverage for
   certainty and is necessarily far smaller at a capped cost. Best
   value found and total simulated cost round out the table. Results
   go to stdout for humans and BENCH_fidelity.json for tooling.

   Two invariants are asserted, not just reported. First, on both
   datasets the successive-halving recall must be at least the flat
   recall while spending at most 60% of the flat cost — the headline
   multi-fidelity claim. Second, a degenerate single-rung bracket must
   be bit-identical to the async engine at the same k: identical
   history, trajectory, and best configuration. HIPERBOT_FIDELITY_BUDGET
   overrides the flat budget for CI smoke runs; the recall/cost
   assertions are skipped then (a handful of evaluations is pure
   noise) but the bit-identity assertion always runs. *)

let output_path = "BENCH_fidelity.json"
let top_decile = 0.10
let cost_fraction = 0.6
let k_inflight = 4

type setup = {
  dataset : string;
  rungs : int;  (* bottom of the ladder to skip: use the last [rungs] levels *)
  eta : float;
  cohort : int;
  low_weight : float;
}

let setups =
  [
    { dataset = "kripke"; rungs = 4; eta = 8.; cohort = 24; low_weight = 1.0 };
    { dataset = "hypre"; rungs = 3; eta = 8.; cohort = 16; low_weight = 1.5 };
  ]

type row = {
  setup : setup;
  budget : int;
  cost_cap : float;
  good_count : int;
  flat_best : Stats.Running.t;
  flat_recall : Stats.Running.t;
  sh_best : Stats.Running.t;
  sh_recall : Stats.Running.t;
  sh_recall_full : Stats.Running.t;
  sh_cost : Stats.Running.t;
  sh_full_evals : Stats.Running.t;
}

let budget_override =
  match Sys.getenv_opt "HIPERBOT_FIDELITY_BUDGET" with
  | None -> None
  | Some s -> (
      match int_of_string_opt s with
      | Some n when n > 0 -> Some n
      | _ -> failwith "HIPERBOT_FIDELITY_BUDGET must be a positive integer")

(* The degenerate single-rung bracket delegates to the async engine;
   any drift between the two code paths is a scheduler bug, so the
   equivalence is asserted on every bench run, smoke included. *)
let assert_degenerate_identity ~space ~objective ~budget ~seed =
  let outcome_objective ~attempt:_ c = Resilience.Outcome.Value (objective c) in
  let flat =
    Hiperbot.Tuner.run_async ~k:k_inflight
      ~rng:(Prng.Rng.create seed)
      ~space ~objective:outcome_objective ~budget ()
  in
  let plan =
    {
      Hiperbot.Fidelity.default_plan with
      Hiperbot.Fidelity.costs = [| 1. |];
      cost_budget = None;
    }
  in
  let fid =
    Hiperbot.Fidelity.run ~plan ~k:k_inflight
      ~rng:(Prng.Rng.create seed)
      ~space
      ~objective:(fun ~rung:_ c -> objective c)
      ~budget ()
  in
  match (flat, fid) with
  | Stdlib.Ok a, Stdlib.Ok f ->
      let b = f.Hiperbot.Fidelity.run in
      let same =
        a.Hiperbot.Tuner.best_value = b.Hiperbot.Tuner.best_value
        && a.Hiperbot.Tuner.best_config = b.Hiperbot.Tuner.best_config
        && a.Hiperbot.Tuner.history = b.Hiperbot.Tuner.history
        && a.Hiperbot.Tuner.trajectory = b.Hiperbot.Tuner.trajectory
        && a.Hiperbot.Tuner.n_attempts = b.Hiperbot.Tuner.n_attempts
      in
      if not same then
        failwith "BENCH fidelity: single-rung bracket diverges from the async engine"
  | _ -> failwith "BENCH fidelity: degenerate comparison run failed"

let run ~reps () =
  Harness.section "Multi-fidelity successive halving vs flat full-fidelity tuning";
  let rows =
    List.map
      (fun setup ->
        let entry = Hpcsim.Registry.find setup.dataset in
        let table = entry.Hpcsim.Registry.table () in
        let fid = Option.get entry.Hpcsim.Registry.fidelity in
        let space = Dataset.Table.space table in
        let objective = Dataset.Table.objective_fn table in
        let budget =
          match budget_override with
          | Some b -> b
          | None -> (Dataset.Table.size table / 100) + 100
        in
        let cost_cap = cost_fraction *. float_of_int budget in
        let n_levels = Array.length fid.Hpcsim.Registry.levels in
        let offset = n_levels - setup.rungs in
        let costs =
          Array.init setup.rungs (fun i -> fid.Hpcsim.Registry.cost (offset + i))
        in
        let plan =
          {
            Hiperbot.Fidelity.costs;
            eta = setup.eta;
            cohort = setup.cohort;
            brackets = 1000;
            (* the cost budget, not the bracket count, ends the campaign *)
            low_weight = setup.low_weight;
            cost_budget = Some cost_cap;
          }
        in
        let fid_objective ~rung config =
          fid.Hpcsim.Registry.objective_at (offset + rung) config
        in
        let good = Metrics.Recall.percentile_good_set table top_decile in
        let row =
          {
            setup;
            budget;
            cost_cap;
            good_count = good.Metrics.Recall.count;
            flat_best = Stats.Running.create ();
            flat_recall = Stats.Running.create ();
            sh_best = Stats.Running.create ();
            sh_recall = Stats.Running.create ();
            sh_recall_full = Stats.Running.create ();
            sh_cost = Stats.Running.create ();
            sh_full_evals = Stats.Running.create ();
          }
        in
        for rep = 0 to reps - 1 do
          let seed = 100 + rep in
          let flat =
            Harness.tune ~rng:(Prng.Rng.create seed) ~space ~objective ~budget ()
          in
          Stats.Running.add row.flat_best flat.Hiperbot.Tuner.best_value;
          Stats.Running.add row.flat_recall
            (Metrics.Recall.recall good flat.Hiperbot.Tuner.history);
          (match
             Hiperbot.Fidelity.run ~plan ~k:k_inflight
               ~rng:(Prng.Rng.create seed)
               ~space ~objective:fid_objective ~budget:(100 * budget) ()
           with
          | Stdlib.Error _ -> failwith "BENCH fidelity: scheduler produced no full evaluation"
          | Stdlib.Ok fres ->
              let r = fres.Hiperbot.Fidelity.run in
              let visited =
                Array.append r.Hiperbot.Tuner.history
                  (Array.map
                     (fun (_, config, value) -> (config, value))
                     fres.Hiperbot.Fidelity.low_history)
              in
              Stats.Running.add row.sh_best r.Hiperbot.Tuner.best_value;
              Stats.Running.add row.sh_recall (Metrics.Recall.recall good visited);
              Stats.Running.add row.sh_recall_full
                (Metrics.Recall.recall good r.Hiperbot.Tuner.history);
              Stats.Running.add row.sh_cost fres.Hiperbot.Fidelity.total_cost;
              Stats.Running.add row.sh_full_evals
                (float_of_int (Array.length r.Hiperbot.Tuner.history)));
          if rep = 0 then
            assert_degenerate_identity ~space ~objective ~budget:(min budget 40) ~seed
        done;
        row)
      setups
  in
  List.iter
    (fun row ->
      Printf.printf
        "\n%s: flat budget=%d (cost %d), sh cost cap=%.1f, reps=%d, good set=%d configs\n"
        row.setup.dataset row.budget row.budget row.cost_cap reps row.good_count;
      Printf.printf "%-6s %18s %20s %16s\n" "method" "best (mean+-std)" "recall (mean+-std)"
        "cost (mean)";
      Printf.printf "%-6s %10.4g+-%-7.2g %12.3f+-%-7.3f %12d\n" "flat"
        (Stats.Running.mean row.flat_best) (Stats.Running.stddev row.flat_best)
        (Stats.Running.mean row.flat_recall) (Stats.Running.stddev row.flat_recall) row.budget;
      Printf.printf "%-6s %10.4g+-%-7.2g %12.3f+-%-7.3f %12.1f\n" "sh"
        (Stats.Running.mean row.sh_best) (Stats.Running.stddev row.sh_best)
        (Stats.Running.mean row.sh_recall) (Stats.Running.stddev row.sh_recall)
        (Stats.Running.mean row.sh_cost);
      Printf.printf
        "sh full-fidelity evaluations: %.1f mean (recall restricted to them: %.3f)\n"
        (Stats.Running.mean row.sh_full_evals)
        (Stats.Running.mean row.sh_recall_full))
    rows;
  let buf = Buffer.create 1024 in
  Printf.bprintf buf "{\n";
  Printf.bprintf buf "  \"benchmark\": \"fidelity\",\n";
  Harness.stamp buf;
  Printf.bprintf buf "  \"top_decile\": %.2f,\n" top_decile;
  Printf.bprintf buf "  \"cost_fraction\": %.2f,\n" cost_fraction;
  Printf.bprintf buf "  \"reps\": %d,\n" reps;
  Printf.bprintf buf "  \"datasets\": [\n";
  List.iteri
    (fun i row ->
      Printf.bprintf buf
        "    { \"dataset\": \"%s\", \"budget\": %d, \"cost_cap\": %.2f, \"good_set\": %d,\n"
        row.setup.dataset row.budget row.cost_cap row.good_count;
      Printf.bprintf buf
        "      \"flat\": { \"best_mean\": %.6g, \"best_std\": %.6g, \"recall_mean\": %.4f, \
         \"recall_std\": %.4f, \"cost_mean\": %d },\n"
        (Stats.Running.mean row.flat_best) (Stats.Running.stddev row.flat_best)
        (Stats.Running.mean row.flat_recall) (Stats.Running.stddev row.flat_recall) row.budget;
      Printf.bprintf buf
        "      \"sh\": { \"best_mean\": %.6g, \"best_std\": %.6g, \"recall_mean\": %.4f, \
         \"recall_std\": %.4f, \"recall_full_mean\": %.4f, \"cost_mean\": %.2f, \
         \"full_evals_mean\": %.1f }\n"
        (Stats.Running.mean row.sh_best) (Stats.Running.stddev row.sh_best)
        (Stats.Running.mean row.sh_recall) (Stats.Running.stddev row.sh_recall)
        (Stats.Running.mean row.sh_recall_full)
        (Stats.Running.mean row.sh_cost)
        (Stats.Running.mean row.sh_full_evals);
      Printf.bprintf buf "    }%s\n" (if i = List.length rows - 1 then "" else ","))
    rows;
  Printf.bprintf buf "  ]\n";
  Printf.bprintf buf "}\n";
  let oc = open_out output_path in
  output_string oc (Buffer.contents buf);
  close_out oc;
  Printf.printf "\nwrote %s\n%!" output_path;
  match budget_override with
  | Some _ -> print_endline "budget override set: skipping the recall/cost assertions"
  | None ->
      List.iter
        (fun row ->
          let sh = Stats.Running.mean row.sh_recall in
          let flat = Stats.Running.mean row.flat_recall in
          let cost = Stats.Running.mean row.sh_cost in
          if sh < flat then
            failwith
              (Printf.sprintf "BENCH fidelity: %s sh recall %.3f below flat %.3f"
                 row.setup.dataset sh flat);
          if cost > row.cost_cap +. 1e-9 then
            failwith
              (Printf.sprintf "BENCH fidelity: %s sh cost %.2f exceeds the %.2f cap"
                 row.setup.dataset cost row.cost_cap))
        rows
