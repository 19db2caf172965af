(* Tune the Kripke particle-transport proxy (the paper's SV-A case
   study) and compare HiPerBOt against random sampling on the two
   paper metrics: best configuration found and Recall.

     dune exec examples/tune_kripke.exe *)

let budget = 96 (* the paper: HiPerBOt finds Kripke's best with 96 samples *)

let () =
  let table = (Hpcsim.Registry.find "kripke").Hpcsim.Registry.table () in
  let space = Dataset.Table.space table in
  let objective = Dataset.Table.objective_fn table in
  let exhaustive_config, exhaustive_best = Dataset.Table.best table in
  Printf.printf "Kripke: %d configurations; exhaustive best %.2f s at\n  %s\n\n"
    (Dataset.Table.size table) exhaustive_best
    (Param.Space.to_string space exhaustive_config);

  let result =
    Result.get_ok
      (Hiperbot.Tuner.run_async ~rng:(Prng.Rng.create 7) ~space
         ~objective:(fun ~attempt:_ c -> Resilience.Outcome.Value (objective c))
         ~budget ())
  in
  Printf.printf "HiPerBOt after %d evaluations: %.2f s (%.1f%% above exhaustive best)\n" budget
    result.Hiperbot.Tuner.best_value
    (100. *. ((result.Hiperbot.Tuner.best_value /. exhaustive_best) -. 1.));
  Printf.printf "  %s\n" (Param.Space.to_string space result.Hiperbot.Tuner.best_config);

  let random =
    Baselines.Random_search.run ~rng:(Prng.Rng.create 7) ~space ~objective ~budget ()
  in
  Printf.printf "Random after %d evaluations:  %.2f s\n\n" budget
    random.Baselines.Outcome.best_value;

  (* Recall: how many of the top-5% configurations each method's
     evaluated set contains (paper eq. 11). *)
  let good = Metrics.Recall.percentile_good_set table 0.05 in
  Printf.printf "top-5%% recall (of %d good configurations):\n" good.Metrics.Recall.count;
  Printf.printf "  HiPerBOt %.2f   Random %.2f\n"
    (Metrics.Recall.recall good result.Hiperbot.Tuner.history)
    (Metrics.Recall.recall good random.Baselines.Outcome.history);

  (* Best-so-far trajectory at a few checkpoints. *)
  Printf.printf "\nbest-so-far trajectory (HiPerBOt):\n";
  List.iter
    (fun n ->
      Printf.printf "  %3d samples: %.2f s\n" n
        (Metrics.Recall.best_prefix result.Hiperbot.Tuner.history n))
    [ 20; 40; 60; 80; budget ]
