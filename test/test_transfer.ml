(* Transfer-learning engine tests: single/multi-source parity, the
   w = 0 no-prior property, engine composition (fault policy,
   interrupt/resume, async), telemetry prior provenance, the
   source/target overlap sanity check behind the transfer experiments,
   and the smoothing = 0 density-floor regression. *)

let check = Alcotest.check
let table name = (Hpcsim.Registry.find name).Hpcsim.Registry.table ()

(* Deterministic source subset: full tables make the suite slow. *)
let source_rows ?(n = 400) ?(seed = 42) t =
  let rng = Prng.Rng.create seed in
  Array.init n (fun _ ->
      let i = Prng.Rng.int rng (Dataset.Table.size t) in
      (Dataset.Table.config t i, Dataset.Table.objective t i))

(* ---- single-source / multi-source parity ---- *)

let test_multi_single_source_parity () =
  let trgt = table "kripke_trgt" in
  let space = Dataset.Table.space trgt in
  let source = source_rows (table "kripke_src") in
  let objective = Dataset.Table.objective_fn trgt in
  let options = { Hiperbot.Tuner.default_options with n_init = 8 } in
  let budget = 24 and weight = 2.5 in
  let run options =
    Gen.ok
      (Hiperbot.Tuner.run_async ~options ~rng:(Prng.Rng.create 11) ~space
         ~objective:(Gen.total objective) ~budget ())
  in
  let single = run (Hiperbot.Transfer.options ~options ~space [ (source, weight) ]) in
  (* The same prior built by hand: the source fitted with the target's
     surrogate options, default gate. *)
  let by_hand =
    run
      {
        options with
        Hiperbot.Tuner.prior =
          Some
            (Hiperbot.Tuner.prior_of ~gate:Hiperbot.Gate.default_options
               [ (Hiperbot.Surrogate.fit ~options:options.Hiperbot.Tuner.surrogate space source,
                  weight) ]);
      }
  in
  check Alcotest.bool "Transfer.options with one source = hand-built prior, bit-for-bit" true
    (Gen.results_identical single by_hand)

(* ---- w = 0 equals the no-prior loop ---- *)

let prop_zero_prior_equals_no_prior =
  let gen =
    let open QCheck2.Gen in
    let* space = Gen.space_gen ~max_params:2 ~allow_continuous:false () in
    let* source = Gen.observations_gen ~min_n:4 ~max_n:16 space in
    let+ seed = Gen.seed_gen in
    (space, source, seed)
  in
  QCheck2.Test.make
    ~name:"transfer: zero weight = no prior"
    ~count:30
    ~print:(fun (space, source, seed) ->
      Printf.sprintf "%s source=%d seed=%d" (Gen.space_to_string space) (Array.length source)
        seed)
    gen
    (fun (space, source, seed) ->
      let options = { Hiperbot.Tuner.default_options with n_init = 4 } in
      let budget = 10 in
      let bare =
        Gen.ok
          (Hiperbot.Tuner.run_async ~options ~rng:(Prng.Rng.create seed) ~space
             ~objective:(Gen.total Gen.hash_objective) ~budget ())
      in
      let zero_weight =
        Gen.ok
          (Hiperbot.Tuner.run_async
             ~options:(Hiperbot.Transfer.options ~options ~space [ (source, 0.) ])
             ~rng:(Prng.Rng.create seed) ~space ~objective:(Gen.total Gen.hash_objective)
             ~budget ())
      in
      Gen.results_identical bare zero_weight)

(* ---- engine composition: fault policy, interrupt/resume, async ---- *)

let faulty_campaign () =
  let trgt = table "kripke_trgt" in
  let space = Dataset.Table.space trgt in
  let spec = Hpcsim.Faults.standard ~seed:101 ~rate:0.15 in
  let objective = Hpcsim.Faults.inject spec (Dataset.Table.objective_fn trgt) in
  let sources = [ (source_rows (table "kripke_src"), 1.5) ] in
  (space, objective, sources)

let test_transfer_resume_parity () =
  let space, objective, sources = faulty_campaign () in
  let options =
    Hiperbot.Transfer.options
      ~options:{ Hiperbot.Tuner.default_options with n_init = 8 }
      ~space sources
  in
  let budget = 24 and interrupt_after = 10 and seed = 6 in
  let recorded = ref [] in
  let full =
    match
      Hiperbot.Tuner.run_async ~options ~policy:Gen.policy3
        ~on_outcome:(fun i c v -> recorded := (i, c, v) :: !recorded)
        ~rng:(Prng.Rng.create seed) ~space ~objective ~budget ()
    with
    | Stdlib.Ok r -> r
    | Stdlib.Error _ -> Alcotest.fail "uninterrupted transfer campaign failed outright"
  in
  let entries =
    List.rev !recorded
    |> List.filteri (fun i _ -> i < interrupt_after)
    |> List.map (fun (i, c, v) -> Hiperbot.Campaign.entry_of_verdict i c v)
  in
  let log = Dataset.Runlog.create ~name:"kripke_trgt" ~seed ~space entries in
  let resumed =
    match
      Hiperbot.Tuner.resume_async ~options ~policy:Gen.policy3 ~log ~objective ~budget ()
    with
    | Stdlib.Ok r -> r
    | Stdlib.Error _ -> Alcotest.fail "resumed transfer campaign failed outright"
  in
  check Alcotest.bool "transfer resume reproduces the uninterrupted run bit-for-bit" true
    (Gen.results_identical full resumed)

let test_transfer_async_k1_parity () =
  let space, objective, sources = faulty_campaign () in
  let options =
    Hiperbot.Transfer.options
      ~options:{ Hiperbot.Tuner.default_options with n_init = 8 }
      ~space sources
  in
  let budget = 24 in
  let unwrap label = function
    | Stdlib.Ok r -> r
    | Stdlib.Error _ -> Alcotest.fail (label ^ " failed outright")
  in
  let retried seed =
    let sync =
      unwrap "step-driven sync"
        (Gen.drive_sync
           (Hiperbot.Campaign.create ~options ~mode:(Hiperbot.Campaign.Async 1)
              ~rng:(Prng.Rng.create seed) ~space ~budget ())
           (Resilience.Evaluator.evaluate ~policy:Gen.policy3 ~objective))
    in
    let async =
      unwrap "run_async"
        (Hiperbot.Tuner.run_async ~options ~policy:Gen.policy3 ~k:1 ~rng:(Prng.Rng.create seed)
           ~space ~objective ~budget ())
    in
    check Alcotest.bool
      (Printf.sprintf "seed %d: transfer async k=1 = step-driven sync, bit-for-bit" seed)
      true
      (Gen.results_identical sync async);
    sync.Hiperbot.Tuner.n_attempts
    > Array.length sync.Hiperbot.Tuner.history + Array.length sync.Hiperbot.Tuner.failures
  in
  (* Seed 9 draws no transient fault; seed 1 does, so the retry policy
     is on the compared path. *)
  let retries = List.map retried [ 9; 1 ] in
  check Alcotest.bool "some campaign retried a transient fault" true (List.mem true retries)

(* ---- source validation ---- *)

let test_source_validation () =
  let space = Dataset.Table.space (table "kripke_trgt") in
  let run sources () = ignore (Hiperbot.Transfer.options ~space sources) in
  let source = source_rows (table "kripke_src") ~n:20 in
  Alcotest.check_raises "empty source list"
    (Invalid_argument "Transfer.options: empty source list") (run []);
  Alcotest.check_raises "empty source data"
    (Invalid_argument "Transfer.options: empty source data")
    (run [ (source, 1.); ([||], 1.) ]);
  Alcotest.check_raises "nan weight"
    (Invalid_argument "Transfer.options: prior weight must be finite and non-negative")
    (run [ (source, Float.nan) ])

(* ---- telemetry: refit prior provenance ---- *)

let test_refit_provenance () =
  let trgt = table "kripke_trgt" in
  let space = Dataset.Table.space trgt in
  let objective = Dataset.Table.objective_fn trgt in
  let sources =
    [ (source_rows (table "kripke_src") ~n:100 ~seed:1, 2.0);
      (source_rows (table "kripke_src") ~n:100 ~seed:2, 0.5) ]
  in
  let refits =
    let sink, collected = Telemetry.Trace.memory_sink () in
    let telemetry = Telemetry.Trace.make [ sink ] in
    let options = { Hiperbot.Tuner.default_options with n_init = 6 } in
    ignore
      (Hiperbot.Tuner.run_async ~telemetry
         ~options:(Hiperbot.Transfer.options ~options ~space sources)
         ~rng:(Prng.Rng.create 3) ~space ~objective:(Gen.total objective) ~budget:16 ());
    Telemetry.Trace.close telemetry;
    List.filter_map
      (fun (_, ev) ->
        match ev with
        | Telemetry.Event.Refit { n_priors; prior_weight; _ } -> Some (n_priors, prior_weight)
        | _ -> None)
      (collected ())
  in
  check Alcotest.bool "at least one refit traced" true (List.length refits > 0);
  List.iter
    (fun (n, w) ->
      check Alcotest.int "two prior sources" 2 n;
      check (Alcotest.float 0.) "total effective weight" 2.5 w)
    refits

(* ---- source/target overlap sanity ---- *)

(* The transfer experiments only make sense if a source's best decile
   overlaps the target's well beyond the 10% a random subset would
   get. This pins the property the BENCH_transfer.json gains rest
   on — if a dataset regeneration ever decorrelates the pairs, this
   fails before the bench does. *)
let test_overlap_sanity () =
  List.iter
    (fun (src_name, trgt_name) ->
      let src = table src_name and trgt = table trgt_name in
      let good = Metrics.Recall.percentile_good_set trgt 0.10 in
      let rows =
        Array.init (Dataset.Table.size src) (fun i ->
            (Dataset.Table.config src i, Dataset.Table.objective src i))
      in
      Array.sort (fun (_, a) (_, b) -> Float.compare a b) rows;
      let n_top = max 1 (Dataset.Table.size src / 10) in
      let hits = ref 0 in
      for i = 0 to n_top - 1 do
        if good.Metrics.Recall.test (fst rows.(i)) then incr hits
      done;
      let overlap = float_of_int !hits /. float_of_int n_top in
      check Alcotest.bool
        (Printf.sprintf "%s top decile overlaps %s top decile well above chance (got %.3f)"
           src_name trgt_name overlap)
        true (overlap > 0.2))
    [ ("kripke_src", "kripke_trgt"); ("hypre_src", "hypre_trgt") ]

(* ---- smoothing = 0: the density floor regression ---- *)

(* With Laplace smoothing disabled, categories never observed have
   exactly zero histogram mass. Before the floor, log_pdf tables
   produced -inf and score NaN; now every score path clamps at
   Kde.min_density. *)
let test_smoothing_zero_regression () =
  let space =
    Param.Space.make
      [ Param.Spec.categorical "c" [ "a"; "b"; "x" ]; Param.Spec.ordinal_ints "o" [ 1; 2 ] ]
  in
  let seen = [| Param.Value.Categorical 0; Param.Value.Ordinal 0 |] in
  let obs = Array.init 6 (fun i -> (seen, float_of_int (i + 1))) in
  let options =
    {
      Hiperbot.Surrogate.default_options with
      density = { Hiperbot.Density.default_options with smoothing = 0. };
    }
  in
  let surrogate = Hiperbot.Surrogate.fit ~options space obs in
  let unseen = [| Param.Value.Categorical 2; Param.Value.Ordinal 1 |] in
  let lr = Hiperbot.Surrogate.log_ratio surrogate unseen in
  check Alcotest.bool "log_ratio finite on never-observed config" true (Float.is_finite lr);
  check Alcotest.bool "score strictly positive on never-observed config" true
    (Hiperbot.Surrogate.score surrogate unseen > 0.);
  (* The compiled tables agree with the naive path on the floored
     values too. *)
  let pool = Param.Space.enumerate space in
  let compiled =
    Hiperbot.Surrogate.compile surrogate (Hiperbot.Surrogate.Pool.encode space pool)
  in
  Array.iteri
    (fun i c ->
      let naive = Hiperbot.Surrogate.log_ratio surrogate c in
      let fast = Hiperbot.Surrogate.Compiled.log_ratio compiled i in
      check Alcotest.bool "compiled = naive with smoothing 0" true
        (Float.is_finite naive && Float.equal naive fast))
    pool

let prop_score_finite =
  let gen =
    let open QCheck2.Gen in
    let* space = Gen.space_gen ~max_params:3 () in
    let* obs = Gen.observations_gen ~min_n:4 ~max_n:16 space in
    let* prior_obs = Gen.observations_gen ~min_n:4 ~max_n:12 space in
    let* w = oneofl [ 0.; 0.5; 1.; 50. ] in
    let* smoothing = oneofl [ 0.; 0.5; 1. ] in
    let+ probes = Gen.configs_gen ~min_n:5 ~max_n:20 space in
    (space, obs, prior_obs, w, smoothing, probes)
  in
  QCheck2.Test.make
    ~name:"surrogate: score finite and positive for every smoothing and prior weight" ~count:60
    ~print:(fun (space, obs, prior_obs, w, smoothing, probes) ->
      Printf.sprintf "%s obs=%d prior=%d w=%g smoothing=%g probes=%d"
        (Gen.space_to_string space) (Array.length obs) (Array.length prior_obs) w smoothing
        (Array.length probes))
    gen
    (fun (space, obs, prior_obs, w, smoothing, probes) ->
      let options =
        {
          Hiperbot.Surrogate.default_options with
          density = { Hiperbot.Density.default_options with smoothing };
        }
      in
      let prior = Hiperbot.Surrogate.fit ~options space prior_obs in
      let surrogate = Hiperbot.Surrogate.fit ~options ~priors:[ (prior, w) ] space obs in
      Array.for_all
        (fun c ->
          let lr = Hiperbot.Surrogate.log_ratio surrogate c in
          let s = Hiperbot.Surrogate.score surrogate c in
          (* The floor keeps log_ratio finite; its exp may still
             underflow to 0. across parameters, which is fine — only
             -inf/NaN would poison selection. *)
          Float.is_finite lr && Float.is_finite s && (not (Float.is_nan s)) && s >= 0.)
        probes)

let suite =
  let tc = Alcotest.test_case in
  ( "transfer",
    [
      tc "multi/single source parity" `Quick test_multi_single_source_parity;
      QCheck_alcotest.to_alcotest prop_zero_prior_equals_no_prior;
      tc "interrupt/resume parity" `Slow test_transfer_resume_parity;
      tc "async k=1 parity" `Slow test_transfer_async_k1_parity;
      tc "source validation" `Quick test_source_validation;
      tc "refit prior provenance" `Quick test_refit_provenance;
      tc "source/target overlap sanity" `Quick test_overlap_sanity;
      tc "smoothing 0: floored scores" `Quick test_smoothing_zero_regression;
      QCheck_alcotest.to_alcotest prop_score_finite;
    ] )
