(* One function per paper artifact (see DESIGN.md's experiment index).
   Each prints the rows/series of the corresponding table or figure;
   EXPERIMENTS.md records these outputs against the paper's numbers. *)

let default_ell = 0.05 (* "good" percentile for the Recall metric of Figs. 2-6 *)

(* ---------- Figure 1: toy example ---------- *)

(* A one-parameter continuous objective shaped like the paper's toy:
   a broad basin with its minimum near x = 2 on [0, 5]. *)
let toy_objective config =
  let x = Param.Value.to_float_raw config.(0) in
  (20. *. ((x -. 2.) ** 2.)) -. 25. +. (8. *. sin (3. *. x))

let fig1 ~reps:_ () =
  Harness.section "Figure 1: toy example (1-D continuous objective)";
  let space = Param.Space.make [ Param.Spec.continuous "x" ~lo:0. ~hi:5. ] in
  let rng = Prng.Rng.create 7 in
  let options =
    {
      Hiperbot.Tuner.default_options with
      n_init = 10;
      strategy = Hiperbot.Strategy.Proposal { n_candidates = 64 };
    }
  in
  let stages = [ (1, "after iteration 1"); (9, "after iteration 10") ] in
  let snapshot budget label =
    let rng = Prng.Rng.copy rng in
    let result =
      Harness.tune ~options ~rng ~space ~objective:toy_objective ~budget:(10 + budget) ()
    in
    Harness.subsection (Printf.sprintf "Samples %s" label);
    Printf.printf "best f=%.3f at x=%.3f\n" result.Hiperbot.Tuner.best_value
      (Param.Value.to_float_raw result.Hiperbot.Tuner.best_config.(0));
    (* Histogram of sample positions in 10 bins over [0, 5]. *)
    let bins = Array.make 10 0 in
    Array.iter
      (fun (c, _) ->
        let x = Param.Value.to_float_raw c.(0) in
        let b = Stdlib.min 9 (int_of_float (x /. 0.5)) in
        bins.(b) <- bins.(b) + 1)
      result.Hiperbot.Tuner.history;
    Array.iteri
      (fun i n -> Printf.printf "  x in [%.1f,%.1f): %s (%d)\n" (0.5 *. float_of_int i) (0.5 *. float_of_int (i + 1)) (String.make n '*') n)
      bins;
    result
  in
  let result = snapshot 10 "(densities from 10 random + 10 guided samples)" in
  (match result.Hiperbot.Tuner.final_surrogate with
  | None -> ()
  | Some s ->
      Harness.subsection "Surrogate densities and expected improvement on a grid";
      Printf.printf "%8s %12s %12s %12s\n" "x" "pg(x)" "pb(x)" "EI(x)";
      for i = 0 to 20 do
        let x = 0.25 *. float_of_int i in
        let c = [| Param.Value.Continuous (Stdlib.min 5. x) |] in
        Printf.printf "%8.2f %12.4f %12.4f %12.4f\n" x (Hiperbot.Surrogate.good_pdf s c)
          (Hiperbot.Surrogate.bad_pdf s c)
          (Hiperbot.Surrogate.expected_improvement s c)
      done);
  List.iter (fun (extra, label) -> ignore (snapshot (10 + extra) label)) stages

(* ---------- Figures 2-6: configuration selection ---------- *)

let selection_figure ~reps ~dataset ~sizes ~title =
  Harness.section title;
  let table = (Hpcsim.Registry.find dataset).Hpcsim.Registry.table () in
  let tuners =
    [ Harness.random_tuner table; Harness.geist_tuner table; Harness.hiperbot_tuner table ]
  in
  ignore (Harness.selection_experiment ~reps ~ell:default_ell ~sizes table tuners)

let fig2 ~reps () =
  selection_figure ~reps ~dataset:"kripke"
    ~sizes:[| 32; 64; 96; 128; 160; 192 |]
    ~title:"Figure 2: Kripke execution time"

let fig3 ~reps () =
  selection_figure ~reps ~dataset:"kripke_energy"
    ~sizes:[| 39; 139; 239; 339; 439 |]
    ~title:"Figure 3: Kripke energy under power capping"

let fig4 ~reps () =
  selection_figure ~reps ~dataset:"hypre"
    ~sizes:[| 41; 141; 241; 341; 441 |]
    ~title:"Figure 4: HYPRE new_ij"

let fig5 ~reps () =
  selection_figure ~reps ~dataset:"lulesh"
    ~sizes:[| 46; 146; 246; 346; 446 |]
    ~title:"Figure 5: LULESH compiler flags"

let fig6 ~reps () =
  selection_figure ~reps ~dataset:"openatom"
    ~sizes:[| 39; 139; 239; 339; 439 |]
    ~title:"Figure 6: OpenAtom"

(* ---------- Figure 7: hyperparameter sensitivity ---------- *)

let sensitivity_datasets = [ "kripke"; "lulesh"; "hypre"; "openatom"; "kripke_energy" ]
let sensitivity_budget = 150

let sensitivity ~reps ~title ~values ~value_label ~options_of =
  Harness.section title;
  Printf.printf "ratio = best selected / exhaustive best (1.0 = optimal); budget=%d reps=%d\n%!"
    sensitivity_budget reps;
  Printf.printf "%-14s" value_label;
  List.iter (fun name -> Printf.printf " %14s" name) sensitivity_datasets;
  Printf.printf "\n";
  List.iter
    (fun v ->
      Printf.printf "%-14.2f" v;
      List.iter
        (fun name ->
          let table = (Hpcsim.Registry.find name).Hpcsim.Registry.table () in
          let space = Dataset.Table.space table in
          let objective = Dataset.Table.objective_fn table in
          let exhaustive = Dataset.Table.best_value table in
          let summary =
            Metrics.Runner.replicate ~reps ~base_seed:2000 (fun ~rng ->
                let r =
                  Harness.tune ~options:(options_of v) ~rng ~space ~objective
                    ~budget:sensitivity_budget ()
                in
                r.Hiperbot.Tuner.best_value /. exhaustive)
          in
          Printf.printf " %8.4f+-%4.2f" summary.Metrics.Runner.mean summary.Metrics.Runner.std)
        sensitivity_datasets;
      Printf.printf "\n%!")
    values

let fig7a ~reps () =
  sensitivity ~reps ~title:"Figure 7a: sensitivity to the initial sample size"
    ~values:[ 10.; 20.; 40.; 60.; 80.; 100. ]
    ~value_label:"n_init" ~options_of:(fun v ->
      { Hiperbot.Tuner.default_options with n_init = int_of_float v })

let fig7b ~reps () =
  sensitivity ~reps ~title:"Figure 7b: sensitivity to the quantile threshold"
    ~values:[ 0.01; 0.05; 0.1; 0.2; 0.3; 0.4; 0.5 ]
    ~value_label:"alpha" ~options_of:(fun v ->
      {
        Hiperbot.Tuner.default_options with
        surrogate = { Hiperbot.Surrogate.default_options with alpha = v };
      })

(* ---------- Table I: parameter importance ---------- *)

let tab1 ~reps () =
  Harness.section "Table I: relative ranking of parameters (JS divergence)";
  Printf.printf
    "10%%-sample column: surrogate fitted on a random 10%% subset (first of %d seeds shown);\n" reps;
  Printf.printf "all-samples column: surrogate fitted on the exhaustive dataset.\n%!";
  List.iter
    (fun name ->
      let table = (Hpcsim.Registry.find name).Hpcsim.Registry.table () in
      let space = Dataset.Table.space table in
      let all_obs =
        Array.init (Dataset.Table.size table) (fun i ->
            (Dataset.Table.config table i, Dataset.Table.objective table i))
      in
      let full = Hiperbot.Importance.of_observations space all_obs in
      let n_sub = Stdlib.max 20 (Dataset.Table.size table / 10) in
      let sampled_ranking ~rng =
        let idx = Prng.Rng.sample_without_replacement rng n_sub (Dataset.Table.size table) in
        Hiperbot.Importance.of_observations space (Array.map (fun i -> all_obs.(i)) idx)
      in
      let first_sample = sampled_ranking ~rng:(Prng.Rng.create 3000) in
      let agreement =
        Metrics.Runner.replicate ~reps ~base_seed:3000 (fun ~rng ->
            Hiperbot.Importance.spearman (sampled_ranking ~rng) full)
      in
      Harness.subsection name;
      Printf.printf "10%% samples: %s\n" (Hiperbot.Importance.to_string first_sample);
      Printf.printf "all samples: %s\n" (Hiperbot.Importance.to_string full);
      Printf.printf "Spearman(10%% vs all) over %d seeds: %.3f+-%.3f\n%!" reps
        agreement.Metrics.Runner.mean agreement.Metrics.Runner.std)
    sensitivity_datasets

(* ---------- Figure 8: transfer learning ---------- *)

let transfer_figure ~reps ~title ~src_name ~trgt_name =
  Harness.section title;
  let src = (Hpcsim.Registry.find src_name).Hpcsim.Registry.table () in
  let trgt = (Hpcsim.Registry.find trgt_name).Hpcsim.Registry.table () in
  let space = Dataset.Table.space trgt in
  let objective = Dataset.Table.objective_fn trgt in
  let source =
    Array.init (Dataset.Table.size src) (fun i ->
        (Dataset.Table.config src i, Dataset.Table.objective src i))
  in
  (* The paper selects 1% of the target space plus 100 more. *)
  let budget = (Dataset.Table.size trgt / 100) + 100 in
  Printf.printf "source=%s (%d rows)  target=%s (%d rows)  budget=%d  reps=%d\n%!" src_name
    (Dataset.Table.size src) (Dataset.Table.name trgt) (Dataset.Table.size trgt) budget reps;
  let gammas = [ 0.05; 0.10; 0.15; 0.20 ] in
  let methods =
    [
      ( "PerfNet",
        fun ~rng ~budget ->
          Baselines.Perfnet.run ~rng ~space ~source ~objective ~budget () );
      ( "HiPerBOt",
        fun ~rng ~budget ->
          Baselines.Outcome.of_tuner_result
            (Harness.tune
               ~options:(Hiperbot.Transfer.options ~space [ (source, 1.) ])
               ~rng ~space ~objective ~budget ()) );
    ]
  in
  Printf.printf "%-22s" "threshold (good cases)";
  List.iter (fun (label, _) -> Printf.printf " %18s" label) methods;
  Printf.printf "\n";
  (* One run per repetition; all tolerance recalls are computed from
     the same evaluation history (identical to re-running with the
     same seed, at a quarter of the cost). *)
  let good_sets = List.map (fun gamma -> (gamma, Metrics.Recall.tolerance_good_set trgt gamma)) gammas in
  let per_method =
    List.map
      (fun (label, run) ->
        let accs = List.map (fun (gamma, good) -> (gamma, good, Stats.Running.create ())) good_sets in
        for r = 0 to reps - 1 do
          let rng = Prng.Rng.create (4000 + r) in
          let outcome = run ~rng ~budget in
          List.iter
            (fun (_, good, acc) ->
              Stats.Running.add acc (Metrics.Recall.recall good outcome.Baselines.Outcome.history))
            accs
        done;
        let recalls =
          List.map
            (fun (gamma, _, acc) ->
              ( gamma,
                { Metrics.Runner.mean = Stats.Running.mean acc; std = Stats.Running.stddev acc } ))
            accs
        in
        (label, recalls))
      methods
  in
  List.iteri
    (fun i gamma ->
      let good = Metrics.Recall.tolerance_good_set trgt gamma in
      Printf.printf "%4.0f%% (%5d)          " (100. *. gamma) good.Metrics.Recall.count;
      List.iter
        (fun (_, recalls) ->
          let _, s = List.nth recalls i in
          Printf.printf " %10.3f+-%5.3f" s.Metrics.Runner.mean s.Metrics.Runner.std)
        per_method;
      Printf.printf "\n%!")
    gammas

let fig8a ~reps () =
  transfer_figure ~reps ~title:"Figure 8a: Kripke transfer learning (16 -> 64 nodes)"
    ~src_name:"kripke_src" ~trgt_name:"kripke_trgt"

let fig8b ~reps () =
  transfer_figure ~reps ~title:"Figure 8b: HYPRE transfer learning (16 -> 64 nodes)"
    ~src_name:"hypre_src" ~trgt_name:"hypre_trgt"

(* ---------- Ablations (DESIGN.md design-choice benches) ---------- *)

let ablation_strategy ~reps () =
  Harness.section "Ablation: Ranking vs Proposal selection (Kripke)";
  let table = (Hpcsim.Registry.find "kripke").Hpcsim.Registry.table () in
  let tuners =
    [
      Harness.hiperbot_tuner ~label:"Ranking" table;
      Harness.hiperbot_tuner ~label:"Proposal(64)"
        ~options:
          {
            Hiperbot.Tuner.default_options with
            strategy = Hiperbot.Strategy.Proposal { n_candidates = 64 };
          }
        table;
      Harness.hiperbot_tuner ~label:"Proposal(512)"
        ~options:
          {
            Hiperbot.Tuner.default_options with
            strategy = Hiperbot.Strategy.Proposal { n_candidates = 512 };
          }
        table;
    ]
  in
  ignore
    (Harness.selection_experiment ~reps ~ell:default_ell ~sizes:[| 32; 96; 192 |] table tuners)

let ablation_smoothing ~reps () =
  Harness.section "Ablation: histogram smoothing constant (Kripke)";
  let table = (Hpcsim.Registry.find "kripke").Hpcsim.Registry.table () in
  let tuners =
    List.map
      (fun s ->
        Harness.hiperbot_tuner
          ~label:(Printf.sprintf "smooth=%.2f" s)
          ~options:
            {
              Hiperbot.Tuner.default_options with
              surrogate =
                {
                  Hiperbot.Surrogate.default_options with
                  density = { Hiperbot.Density.default_options with smoothing = s };
                };
            }
          table)
      [ 0.1; 0.5; 1.0; 2.0 ]
  in
  ignore
    (Harness.selection_experiment ~reps ~ell:default_ell ~sizes:[| 32; 96; 192 |] table tuners)

let ablation_bandwidth ~reps () =
  Harness.section "Ablation: KDE bandwidth fraction (continuous toy objective)";
  let space = Param.Space.make [ Param.Spec.continuous "x" ~lo:0. ~hi:5. ] in
  let fractions = [ ("fixed 5%", 0.05); ("fixed 10%", 0.1); ("fixed 25%", 0.25) ] in
  Printf.printf "budget=60 (10 init), best objective found, mean+-std over %d reps\n" reps;
  List.iter
    (fun (label, bandwidth_fraction) ->
      let options =
        {
          Hiperbot.Tuner.default_options with
          n_init = 10;
          strategy = Hiperbot.Strategy.Proposal { n_candidates = 64 };
          surrogate =
            {
              Hiperbot.Surrogate.default_options with
              density = { Hiperbot.Density.default_options with bandwidth_fraction };
            };
        }
      in
      let s =
        Metrics.Runner.replicate ~reps ~base_seed:5000 (fun ~rng ->
            (Harness.tune ~options ~rng ~space ~objective:toy_objective ~budget:60 ())
              .Hiperbot.Tuner.best_value)
      in
      Printf.printf "%-12s %10.4f+-%6.4f\n%!" label s.Metrics.Runner.mean s.Metrics.Runner.std)
    fractions

let ablation_transfer_weight ~reps () =
  Harness.section "Ablation: transfer prior weight w (Kripke 16 -> 64 nodes)";
  let src = (Hpcsim.Registry.find "kripke_src").Hpcsim.Registry.table () in
  let trgt = (Hpcsim.Registry.find "kripke_trgt").Hpcsim.Registry.table () in
  let space = Dataset.Table.space trgt in
  let objective = Dataset.Table.objective_fn trgt in
  let source =
    Array.init (Dataset.Table.size src) (fun i ->
        (Dataset.Table.config src i, Dataset.Table.objective src i))
  in
  let good = Metrics.Recall.tolerance_good_set trgt 0.10 in
  let budget = (Dataset.Table.size trgt / 100) + 100 in
  Printf.printf "budget=%d, recall at 10%% tolerance (good=%d), mean+-std over %d reps\n" budget
    good.Metrics.Recall.count reps;
  List.iter
    (fun weight ->
      let s =
        Metrics.Runner.replicate ~reps ~base_seed:6000 (fun ~rng ->
            let r =
              if weight = 0. then Harness.tune ~rng ~space ~objective ~budget ()
              else
                Harness.tune
                  ~options:(Hiperbot.Transfer.options ~space [ (source, weight) ])
                  ~rng ~space ~objective ~budget ()
            in
            Metrics.Recall.recall good r.Hiperbot.Tuner.history)
      in
      Printf.printf "w=%-6.2f %8.3f+-%5.3f\n%!" weight s.Metrics.Runner.mean s.Metrics.Runner.std)
    [ 0.; 0.1; 0.5; 1.0; 2.0; 5.0 ]

let ablation_surrogates ~reps () =
  Harness.section "Ablation: surrogate model family (Kripke, budget 150)";
  let table = (Hpcsim.Registry.find "kripke").Hpcsim.Registry.table () in
  let tuners = [ Harness.gp_tuner table; Harness.gbt_tuner table; Harness.hiperbot_tuner table ] in
  ignore
    (Harness.selection_experiment ~reps ~ell:default_ell ~sizes:[| 50; 100; 150 |] table tuners)

let ablation_early_stop ~reps () =
  Harness.section "Ablation: early-stop patience (Kripke, budget cap 192)";
  let table = (Hpcsim.Registry.find "kripke").Hpcsim.Registry.table () in
  let space = Dataset.Table.space table in
  let objective = Dataset.Table.objective_fn table in
  Printf.printf "%-12s %16s %16s %12s\n" "patience" "best (mean+-std)" "evals used" "stopped%";
  List.iter
    (fun patience ->
      let bests = Stats.Running.create () in
      let evals = Stats.Running.create () in
      let stopped = ref 0 in
      for r = 0 to reps - 1 do
        let rng = Prng.Rng.create (7000 + r) in
        let options = { Hiperbot.Tuner.default_options with early_stop = patience } in
        let result = Harness.tune ~options ~rng ~space ~objective ~budget:192 () in
        Stats.Running.add bests result.Hiperbot.Tuner.best_value;
        Stats.Running.add evals (float_of_int (Array.length result.Hiperbot.Tuner.history));
        if result.Hiperbot.Tuner.stopped_early then incr stopped
      done;
      Printf.printf "%-12s %8.3f+-%5.3f %10.1f       %6.0f%%\n%!"
        (match patience with None -> "none" | Some k -> string_of_int k)
        (Stats.Running.mean bests) (Stats.Running.stddev bests) (Stats.Running.mean evals)
        (100. *. float_of_int !stopped /. float_of_int reps))
    [ None; Some 20; Some 50; Some 100 ]

(* ---------- registry ---------- *)

type entry = { id : string; describe : string; run : reps:int -> unit -> unit }

let all =
  [
    { id = "fig1"; describe = "toy example (paper Fig. 1)"; run = fig1 };
    { id = "fig2"; describe = "Kripke exec selection (Fig. 2)"; run = fig2 };
    { id = "fig3"; describe = "Kripke energy selection (Fig. 3)"; run = fig3 };
    { id = "fig4"; describe = "HYPRE selection (Fig. 4)"; run = fig4 };
    { id = "fig5"; describe = "LULESH selection (Fig. 5)"; run = fig5 };
    { id = "fig6"; describe = "OpenAtom selection (Fig. 6)"; run = fig6 };
    { id = "fig7a"; describe = "init-sample sensitivity (Fig. 7a)"; run = fig7a };
    { id = "fig7b"; describe = "threshold sensitivity (Fig. 7b)"; run = fig7b };
    { id = "tab1"; describe = "parameter importance (Table I)"; run = tab1 };
    { id = "fig8a"; describe = "Kripke transfer (Fig. 8a)"; run = fig8a };
    { id = "fig8b"; describe = "HYPRE transfer (Fig. 8b)"; run = fig8b };
    { id = "ablation_strategy"; describe = "Ranking vs Proposal"; run = ablation_strategy };
    { id = "ablation_smoothing"; describe = "histogram smoothing"; run = ablation_smoothing };
    { id = "ablation_bandwidth"; describe = "KDE bandwidth fraction"; run = ablation_bandwidth };
    {
      id = "ablation_transfer_weight";
      describe = "transfer prior weight";
      run = ablation_transfer_weight;
    };
    { id = "ablation_surrogates"; describe = "TPE vs GP-EI vs GBT surrogates"; run = ablation_surrogates };
    { id = "ablation_early_stop"; describe = "early-stop patience"; run = ablation_early_stop };
  ]
