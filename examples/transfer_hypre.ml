(* Transfer learning (the paper's SVII-B case study): use the full
   16-node HYPRE study as a prior to tune the 64-node problem with a
   small evaluation budget.

   HYPRE is also the cautionary half of the case study: the 16-node
   prior ranks the 64-node space poorly, so an ungated campaign spends
   its budget where the source — not the target — says the good
   configurations are. The safeguarded gate (on by default) watches
   each source's rank agreement with the unbiased init observations,
   attenuates it as trust falls, and drops it outright, falling back
   to the plain no-prior surrogate.

     dune exec examples/transfer_hypre.exe *)

let () =
  let src = (Hpcsim.Registry.find "hypre_src").Hpcsim.Registry.table () in
  let trgt = (Hpcsim.Registry.find "hypre_trgt").Hpcsim.Registry.table () in
  let space = Dataset.Table.space trgt in
  let objective = Dataset.Table.objective_fn trgt in
  let source =
    Array.init (Dataset.Table.size src) (fun i ->
        (Dataset.Table.config src i, Dataset.Table.objective src i))
  in
  (* The paper's protocol: 1% of the target space plus 100 samples. *)
  let budget = (Dataset.Table.size trgt / 100) + 100 in
  Printf.printf "source: %d rows at 16 nodes; target: %d rows at 64 nodes; budget %d\n\n"
    (Dataset.Table.size src) (Dataset.Table.size trgt) budget;

  (* Narrate the gate's decisions as they happen. *)
  let on_gate (g : Dataset.Runlog.gate) =
    match g.Dataset.Runlog.g_action with
    | "fallback" ->
        Printf.printf "  [gate] refit %d: every source dropped, falling back to no-prior fit\n"
          g.Dataset.Runlog.g_refit
    | action ->
        Printf.printf "  [gate] refit %d: source %d %s (trust %.3f)\n" g.Dataset.Runlog.g_refit
          g.Dataset.Runlog.g_source action g.Dataset.Runlog.g_trust
  in
  let tune ?options ?on_gate () =
    Result.get_ok
      (Hiperbot.Tuner.run_async ?options ?on_gate ~rng:(Prng.Rng.create 3) ~space
         ~objective:(fun ~attempt:_ c -> Resilience.Outcome.Value (objective c))
         ~budget ())
  in
  (* The source rows become a prior with weight 1 (the paper's w). *)
  let gated = tune ~options:(Hiperbot.Transfer.options ~space [ (source, 1.) ]) ~on_gate () in
  let ungated = tune ~options:(Hiperbot.Transfer.options ~gate:None ~space [ (source, 1.) ]) () in
  let no_prior = tune () in

  let good = Metrics.Recall.tolerance_good_set trgt 0.10 in
  let report label (r : Hiperbot.Tuner.result) =
    Printf.printf "%-24s best %.4g s, 10%%-tolerance recall %.2f\n" label
      r.Hiperbot.Tuner.best_value
      (Metrics.Recall.recall good r.Hiperbot.Tuner.history)
  in
  Printf.printf "\ntarget exhaustive best: %.4g s\n" (Dataset.Table.best_value trgt);
  report "gated prior (default):" gated;
  report "ungated prior:" ungated;
  report "no prior:" no_prior;
  Printf.printf "(%d configurations are within 10%% of the target best)\n"
    good.Metrics.Recall.count
