(* End-to-end integration tests across libraries: the paper's headline
   claims at reduced scale, persistence round-trips, and live-kernel
   tuning. These use the real hpcsim datasets (memoized across the
   whole test binary). *)

let check = Alcotest.check

let table name = (Hpcsim.Registry.find name).Hpcsim.Registry.table ()

(* The headline claim of the paper, as a regression test: on Kripke,
   HiPerBOt finds better configurations than random sampling and at
   least matches GEIST's recall, averaged over seeds. *)
let test_hiperbot_beats_random_on_kripke () =
  let t = table "kripke" in
  let space = Dataset.Table.space t in
  let objective = Dataset.Table.objective_fn t in
  let good = Metrics.Recall.percentile_good_set t 0.05 in
  let sizes = [| 96 |] in
  let hb =
    Metrics.Runner.sweep ~reps:5 ~base_seed:50 ~sample_sizes:sizes ~good ~run:(fun ~rng ~budget ->
        Baselines.Outcome.of_tuner_result
          (Gen.ok
             (Hiperbot.Tuner.run_async ~rng ~space ~objective:(Gen.total objective)
                ~budget ())))
  in
  let rnd =
    Metrics.Runner.sweep ~reps:5 ~base_seed:50 ~sample_sizes:sizes ~good ~run:(fun ~rng ~budget ->
        Baselines.Random_search.run ~rng ~space ~objective ~budget ())
  in
  check Alcotest.bool "hiperbot best below random best" true
    (hb.(0).Metrics.Runner.best_mean < rnd.(0).Metrics.Runner.best_mean);
  check Alcotest.bool "hiperbot recall above random recall" true
    (hb.(0).Metrics.Runner.recall_mean > 2. *. rnd.(0).Metrics.Runner.recall_mean)

let test_hiperbot_finds_hypre_best () =
  (* Paper SV-B: HiPerBOt narrows to HYPRE's absolute best within ~5%
     of the space. *)
  let t = table "hypre" in
  let space = Dataset.Table.space t in
  let result =
    Gen.ok
      (Hiperbot.Tuner.run_async ~rng:(Prng.Rng.create 4) ~space
         ~objective:(Gen.total (Dataset.Table.objective_fn t)) ~budget:241 ())
  in
  check (Alcotest.float 1e-9) "absolute best found" (Dataset.Table.best_value t)
    result.Hiperbot.Tuner.best_value

let test_transfer_beats_cold_start () =
  (* Transfer learning (SVII): with the 16-node study as prior, the
     64-node run should recall at least as many good configurations as
     a cold-start run with the same budget. *)
  let src = table "kripke_src" and trgt = table "kripke_trgt" in
  let space = Dataset.Table.space trgt in
  let objective = Dataset.Table.objective_fn trgt in
  let source =
    Array.init (Dataset.Table.size src) (fun i ->
        (Dataset.Table.config src i, Dataset.Table.objective src i))
  in
  let good = Metrics.Recall.tolerance_good_set trgt 0.15 in
  let budget = 150 in
  let avg f =
    let acc = ref 0. in
    for r = 0 to 2 do
      let rng = Prng.Rng.create (60 + r) in
      acc := !acc +. f ~rng
    done;
    !acc /. 3.
  in
  let with_prior =
    avg (fun ~rng ->
        let options = Hiperbot.Transfer.options ~space [ (source, 1.) ] in
        let r =
          Gen.ok
            (Hiperbot.Tuner.run_async ~options ~rng ~space ~objective:(Gen.total objective)
               ~budget ())
        in
        Metrics.Recall.recall good r.Hiperbot.Tuner.history)
  in
  let cold =
    avg (fun ~rng ->
        let r =
          Gen.ok
            (Hiperbot.Tuner.run_async ~rng ~space ~objective:(Gen.total objective) ~budget ())
        in
        Metrics.Recall.recall good r.Hiperbot.Tuner.history)
  in
  check Alcotest.bool "prior at least matches cold start" true (with_prior >= cold)

let test_export_reimport_roundtrip () =
  let t = table "kripke" in
  let csv = Dataset.Table.to_csv t in
  let back = Dataset.Table.of_csv ~name:"kripke2" ~space:(Dataset.Table.space t) csv in
  check Alcotest.int "row count" (Dataset.Table.size t) (Dataset.Table.size back);
  check (Alcotest.float 1e-12) "best value survives" (Dataset.Table.best_value t)
    (Dataset.Table.best_value back);
  (* Space inference from the same CSV also reconstructs a table with
     identical objectives. *)
  let inferred = Dataset.Infer.table_of_csv ~name:"kripke3" csv in
  check Alcotest.int "inferred row count" (Dataset.Table.size t) (Dataset.Table.size inferred);
  check (Alcotest.float 1e-9) "inferred best value" (Dataset.Table.best_value t)
    (Dataset.Table.best_value inferred)

let test_importance_recovers_ground_truth () =
  let t = table "hypre" in
  let space = Dataset.Table.space t in
  let all =
    Array.init (Dataset.Table.size t) (fun i ->
        (Dataset.Table.config t i, Dataset.Table.objective t i))
  in
  let full = Hiperbot.Importance.of_observations space all in
  let rng = Prng.Rng.create 70 in
  let idx = Prng.Rng.sample_without_replacement rng (Array.length all / 10) (Array.length all) in
  let sampled = Hiperbot.Importance.of_observations space (Array.map (fun i -> all.(i)) idx) in
  check Alcotest.bool "sampled ranking correlates with exhaustive" true
    (Hiperbot.Importance.spearman sampled full > 0.5);
  check Alcotest.string "top parameter agrees" (fst full.(0)) (fst sampled.(0))

let test_runlog_warm_start_continuation () =
  (* Record a run, then continue from its log without repeating any
     of its configurations. *)
  let t = table "lulesh" in
  let space = Dataset.Table.space t in
  let objective = Dataset.Table.objective_fn t in
  let entries = ref [] in
  let on_outcome index config v =
    entries := Hiperbot.Campaign.entry_of_verdict index config v :: !entries
  in
  let phase1 =
    Gen.ok
      (Hiperbot.Tuner.run_async ~on_outcome ~rng:(Prng.Rng.create 80) ~space
         ~objective:(Gen.total objective) ~budget:40 ())
  in
  let log = Dataset.Runlog.create ~name:"phase1" ~seed:80 ~space !entries in
  let warm = Dataset.Runlog.history log in
  let phase2 =
    Gen.ok
      (Hiperbot.Tuner.run_async ~warm_start:warm ~rng:(Prng.Rng.create 81) ~space
         ~objective:(Gen.total objective) ~budget:30 ())
  in
  let seen = Param.Config.Table.create 64 in
  Array.iter (fun (c, _) -> Param.Config.Table.replace seen c ()) warm;
  Array.iter
    (fun (c, _) ->
      if Param.Config.Table.mem seen c then Alcotest.fail "phase 2 repeated a phase-1 config")
    phase2.Hiperbot.Tuner.history;
  check Alcotest.bool "continuation at least as good as phase 1" true
    (phase2.Hiperbot.Tuner.best_value <= phase1.Hiperbot.Tuner.best_value +. 1e-9
    || phase2.Hiperbot.Tuner.best_value < Dataset.Table.best_value t *. 1.2)

let test_live_kernel_tuning () =
  Parallel.Pool.with_pool ~num_domains:0 (fun pool ->
      let space = Kernels.Live.matmul_space in
      let objective = Kernels.Live.matmul_objective ~pool ~n:32 () in
      let result =
        Gen.ok
          (Hiperbot.Tuner.run_async
             ~options:{ Hiperbot.Tuner.default_options with n_init = 8 } ~rng:(Prng.Rng.create 90)
             ~space ~objective:(Gen.total objective) ~budget:16 ())
      in
      check Alcotest.int "live tuning completes the budget" 16
        (Array.length result.Hiperbot.Tuner.history);
      check Alcotest.bool "positive best time" true (result.Hiperbot.Tuner.best_value > 0.))

let test_gbt_tuner_on_dataset () =
  let t = table "lulesh" in
  let space = Dataset.Table.space t in
  let o =
    Baselines.Gbt_tuner.run ~rng:(Prng.Rng.create 91) ~space
      ~objective:(Dataset.Table.objective_fn t) ~budget:100 ()
  in
  check Alcotest.bool "gbt lands within 15% of best" true
    (o.Baselines.Outcome.best_value <= 1.15 *. Dataset.Table.best_value t)

let suite =
  let tc = Alcotest.test_case in
  ( "integration",
    [
      tc "hiperbot beats random on kripke" `Slow test_hiperbot_beats_random_on_kripke;
      tc "hiperbot finds hypre best" `Slow test_hiperbot_finds_hypre_best;
      tc "transfer beats cold start" `Slow test_transfer_beats_cold_start;
      tc "export / reimport roundtrip" `Slow test_export_reimport_roundtrip;
      tc "importance recovers ground truth" `Slow test_importance_recovers_ground_truth;
      tc "runlog warm-start continuation" `Slow test_runlog_warm_start_continuation;
      tc "live kernel tuning" `Slow test_live_kernel_tuning;
      tc "gbt tuner on a dataset" `Slow test_gbt_tuner_on_dataset;
    ] )
