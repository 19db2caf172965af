(* Transfer learning on the paper's source->target pairs: Kripke 16->64
   nodes and HYPRE 16->64 nodes (DESIGN.md, SVII). For each pair the
   full source table serves as prior data and five tuners run on the
   target under the paper's budget protocol (size/100 + 100):

   - transfer:  HiPerBOt with the source prior under the default
                safeguard gate (the headline configuration)
   - ungated:   the same prior with the gate disabled — what negative
                transfer costs when nothing contains it
   - copula:    the Gaussian-copula few-shot baseline (source-only
                generative model, no target-side refits)
   - no-prior:  the same HiPerBOt loop without any prior
   - random:    uniform random search

   Reported metric is recall of the target's top-decile set (the
   fraction of the best-10% target rows the tuner evaluated), plus the
   best value found. Results go to stdout for humans and
   BENCH_transfer.json for tooling.

   Two invariants are asserted, not just reported. On the Kripke pair
   (source and target rankings agree strongly) the gated transfer
   recall must be at least the no-prior recall: the gate must not
   spend a helpful prior. On the HYPRE pair (the source ranking
   misleads the target) the gated recall must also be at least the
   no-prior recall: the gate must contain the harmful prior, whose
   ungated recall collapses to roughly half the no-prior level.
   HIPERBOT_TRANSFER_BUDGET overrides the budget for CI smoke runs;
   the assertions are skipped then, since a handful of evaluations is
   pure noise. *)

let output_path = "BENCH_transfer.json"
let top_decile = 0.10

let pairs =
  [ ("kripke", "kripke_src", "kripke_trgt"); ("hypre", "hypre_src", "hypre_trgt") ]

type row = {
  pair : string;
  budget : int;
  good_count : int;
  transfer_best : Stats.Running.t;
  transfer_recall : Stats.Running.t;
  ungated_best : Stats.Running.t;
  ungated_recall : Stats.Running.t;
  copula_best : Stats.Running.t;
  copula_recall : Stats.Running.t;
  noprior_best : Stats.Running.t;
  noprior_recall : Stats.Running.t;
  random_best : Stats.Running.t;
  random_recall : Stats.Running.t;
}

let table_of name = (Hpcsim.Registry.find name).Hpcsim.Registry.table ()

let rows_of table =
  let n = Dataset.Table.size table in
  Array.init n (fun i -> (Dataset.Table.config table i, Dataset.Table.objective table i))

let budget_override =
  match Sys.getenv_opt "HIPERBOT_TRANSFER_BUDGET" with
  | None -> None
  | Some s -> (
      match int_of_string_opt s with
      | Some n when n > 0 -> Some n
      | _ -> failwith "HIPERBOT_TRANSFER_BUDGET must be a positive integer")

let run ~reps () =
  Harness.section "Transfer learning: gated prior vs ungated vs baselines";
  let rows =
    List.map
      (fun (pair, src_name, trgt_name) ->
        let src = table_of src_name in
        let trgt = table_of trgt_name in
        let space = Dataset.Table.space trgt in
        let source = rows_of src in
        let objective = Dataset.Table.objective_fn trgt in
        (* Paper budget protocol: 1% of the target space plus the 100
           paper-protocol seed evaluations. *)
        let budget =
          match budget_override with
          | Some b -> b
          | None -> (Dataset.Table.size trgt / 100) + 100
        in
        let good = Metrics.Recall.percentile_good_set trgt top_decile in
        let row =
          {
            pair;
            budget;
            good_count = good.Metrics.Recall.count;
            transfer_best = Stats.Running.create ();
            transfer_recall = Stats.Running.create ();
            ungated_best = Stats.Running.create ();
            ungated_recall = Stats.Running.create ();
            copula_best = Stats.Running.create ();
            copula_recall = Stats.Running.create ();
            noprior_best = Stats.Running.create ();
            noprior_recall = Stats.Running.create ();
            random_best = Stats.Running.create ();
            random_recall = Stats.Running.create ();
          }
        in
        for rep = 0 to reps - 1 do
          let seed = 100 + rep in
          let add best recall (r : Hiperbot.Tuner.result) =
            Stats.Running.add best r.Hiperbot.Tuner.best_value;
            Stats.Running.add recall (Metrics.Recall.recall good r.Hiperbot.Tuner.history)
          in
          let transfer ?gate () =
            Harness.tune
              ~options:(Hiperbot.Transfer.options ?gate ~space [ (source, 1.) ])
              ~rng:(Prng.Rng.create seed) ~space ~objective ~budget ()
          in
          transfer () |> add row.transfer_best row.transfer_recall;
          transfer ~gate:None () |> add row.ungated_best row.ungated_recall;
          let copula =
            Baselines.Copula_transfer.run ~rng:(Prng.Rng.create seed) ~space ~source ~objective
              ~budget ()
          in
          Stats.Running.add row.copula_best copula.Baselines.Outcome.best_value;
          Stats.Running.add row.copula_recall
            (Metrics.Recall.recall good copula.Baselines.Outcome.history);
          Harness.tune ~rng:(Prng.Rng.create seed) ~space ~objective ~budget ()
          |> add row.noprior_best row.noprior_recall;
          let random =
            Baselines.Random_search.run ~rng:(Prng.Rng.create seed) ~space ~objective ~budget ()
          in
          Stats.Running.add row.random_best random.Baselines.Outcome.best_value;
          Stats.Running.add row.random_recall
            (Metrics.Recall.recall good random.Baselines.Outcome.history)
        done;
        row)
      pairs
  in
  List.iter
    (fun row ->
      Printf.printf "\n%s: budget=%d, reps=%d, good set=%d configs (top %.0f%%)\n" row.pair
        row.budget reps row.good_count (100. *. top_decile);
      Printf.printf "%-10s %18s %20s\n" "method" "best (mean+-std)" "recall (mean+-std)";
      let line label best recall =
        Printf.printf "%-10s %10.4g+-%-7.2g %12.3f+-%-7.3f\n" label (Stats.Running.mean best)
          (Stats.Running.stddev best) (Stats.Running.mean recall) (Stats.Running.stddev recall)
      in
      line "transfer" row.transfer_best row.transfer_recall;
      line "ungated" row.ungated_best row.ungated_recall;
      line "copula" row.copula_best row.copula_recall;
      line "no-prior" row.noprior_best row.noprior_recall;
      line "random" row.random_best row.random_recall)
    rows;
  let buf = Buffer.create 1024 in
  Printf.bprintf buf "{\n";
  Printf.bprintf buf "  \"benchmark\": \"transfer\",\n";
  Harness.stamp buf;
  Printf.bprintf buf "  \"top_decile\": %.2f,\n" top_decile;
  Printf.bprintf buf "  \"reps\": %d,\n" reps;
  Printf.bprintf buf "  \"pairs\": [\n";
  List.iteri
    (fun i row ->
      let entry label best recall last =
        Printf.bprintf buf
          "      \"%s\": { \"best_mean\": %.6g, \"best_std\": %.6g, \"recall_mean\": %.4f, \
           \"recall_std\": %.4f }%s\n"
          label (Stats.Running.mean best) (Stats.Running.stddev best) (Stats.Running.mean recall)
          (Stats.Running.stddev recall)
          (if last then "" else ",")
      in
      Printf.bprintf buf "    { \"pair\": \"%s\", \"budget\": %d, \"good_set\": %d,\n" row.pair
        row.budget row.good_count;
      entry "transfer" row.transfer_best row.transfer_recall false;
      entry "ungated" row.ungated_best row.ungated_recall false;
      entry "copula" row.copula_best row.copula_recall false;
      entry "no_prior" row.noprior_best row.noprior_recall false;
      entry "random" row.random_best row.random_recall true;
      Printf.bprintf buf "    }%s\n" (if i = List.length rows - 1 then "" else ","))
    rows;
  Printf.bprintf buf "  ]\n";
  Printf.bprintf buf "}\n";
  let oc = open_out output_path in
  output_string oc (Buffer.contents buf);
  close_out oc;
  Printf.printf "\nwrote %s\n%!" output_path;
  match budget_override with
  | Some _ -> print_endline "budget override set: skipping the gated>=no-prior assertions"
  | None ->
      List.iter
        (fun row ->
          let t = Stats.Running.mean row.transfer_recall in
          let n = Stats.Running.mean row.noprior_recall in
          if t < n then
            failwith
              (Printf.sprintf "BENCH transfer: %s gated recall %.3f below no-prior %.3f" row.pair
                 t n))
        rows
