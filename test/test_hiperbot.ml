(* Tests for the HiPerBOt core: densities, surrogate, selection
   strategies, the tuning loop, transfer learning, and importance. *)

let check = Alcotest.check
let feq = Alcotest.float 1e-9

let cat_spec = Param.Spec.categorical "c" [ "a"; "b"; "x" ]
let cont_spec = Param.Spec.continuous "r" ~lo:0. ~hi:10.

(* ---- Density ---- *)

let test_density_discrete () =
  let d = Hiperbot.Density.fit cat_spec [| Param.Value.Categorical 0; Param.Value.Categorical 0; Param.Value.Categorical 1 |] in
  let p i = Hiperbot.Density.pdf d (Param.Value.Categorical i) in
  check Alcotest.bool "seen more likely" true (p 0 > p 1 && p 1 > p 2);
  check (Alcotest.float 1e-9) "sums to 1" 1. (p 0 +. p 1 +. p 2);
  check Alcotest.bool "unseen still positive" true (p 2 > 0.)

let test_density_continuous () =
  let d = Hiperbot.Density.fit cont_spec [| Param.Value.Continuous 2.; Param.Value.Continuous 2.5 |] in
  let p x = Hiperbot.Density.pdf d (Param.Value.Continuous x) in
  check Alcotest.bool "peak near data" true (p 2.2 > p 8.);
  check Alcotest.bool "positive everywhere in range" true (p 9.9 > 0.)

let test_density_empty_is_uniform () =
  let d = Hiperbot.Density.fit cat_spec [||] in
  check feq "uniform over 3 categories" (1. /. 3.) (Hiperbot.Density.pdf d (Param.Value.Categorical 1));
  let u = Hiperbot.Density.uniform cont_spec in
  check feq "uniform density over range" 0.1 (Hiperbot.Density.pdf u (Param.Value.Continuous 4.))

let test_density_sample_valid () =
  let rng = Prng.Rng.create 61 in
  let d = Hiperbot.Density.fit cont_spec [| Param.Value.Continuous 0.1 |] in
  for _ = 1 to 200 do
    match Hiperbot.Density.sample d rng with
    | Param.Value.Continuous x ->
        if x < 0. || x > 10. then Alcotest.failf "sample clamped outside range: %f" x
    | Param.Value.Categorical _ | Param.Value.Ordinal _ | Param.Value.Permutation _ ->
        Alcotest.fail "wrong value kind"
  done

let test_density_merge_prior () =
  let prior = Hiperbot.Density.fit cat_spec [| Param.Value.Categorical 2; Param.Value.Categorical 2 |] in
  let target = Hiperbot.Density.fit cat_spec [| Param.Value.Categorical 0 |] in
  let merged = Hiperbot.Density.merge_prior ~prior ~w:1.0 target in
  let p i = Hiperbot.Density.pdf merged (Param.Value.Categorical i) in
  check Alcotest.bool "prior mass visible" true (p 2 > p 1);
  check Alcotest.bool "target mass visible" true (p 0 > p 1);
  (* zero weight = target only *)
  let unweighted = Hiperbot.Density.merge_prior ~prior ~w:0. target in
  check feq "w=0 keeps target" (Hiperbot.Density.pdf target (Param.Value.Categorical 0))
    (Hiperbot.Density.pdf unweighted (Param.Value.Categorical 0))

(* The Uniform-involved merges mix in probability space at weight w:
   (pdf target + w * pdf prior) / (1 + w). Historically a Uniform on
   either side was returned/dropped wholesale, ignoring w entirely —
   a fitted prior merged into a Uniform target applied at full
   strength even at w = 0. *)
let test_density_merge_uniform_respects_weight () =
  let target = Hiperbot.Density.fit cat_spec [| Param.Value.Categorical 0 |] in
  let p_t i = Hiperbot.Density.pdf target (Param.Value.Categorical i) in
  (* Uniform prior into a fitted target: exact mixture value. *)
  let merged = Hiperbot.Density.merge_prior ~prior:(Hiperbot.Density.uniform cat_spec) ~w:5. target in
  let p_m i = Hiperbot.Density.pdf merged (Param.Value.Categorical i) in
  check feq "uniform prior mixes at weight w" ((p_t 0 +. (5. /. 3.)) /. 6.) (p_m 0);
  check feq "mixture still sums to 1" 1. (p_m 0 +. p_m 1 +. p_m 2);
  (* w = 0 recovers the target exactly. *)
  let w0 = Hiperbot.Density.merge_prior ~prior:(Hiperbot.Density.uniform cat_spec) ~w:0. target in
  check feq "w=0 uniform prior is identity" (p_t 0)
    (Hiperbot.Density.pdf w0 (Param.Value.Categorical 0));
  (* Fitted prior into a Uniform target: w scales the prior's pull,
     and w = 0 keeps the uniform target untouched. *)
  let prior = Hiperbot.Density.fit cat_spec [| Param.Value.Categorical 2; Param.Value.Categorical 2 |] in
  let into_uniform w =
    Hiperbot.Density.pdf
      (Hiperbot.Density.merge_prior ~prior ~w (Hiperbot.Density.uniform cat_spec))
      (Param.Value.Categorical 2)
  in
  check feq "w=0 into uniform target is uniform" (1. /. 3.) (into_uniform 0.);
  check Alcotest.bool "larger w pulls harder toward the prior" true
    (into_uniform 5. > into_uniform 0.5 && into_uniform 0.5 > into_uniform 0.);
  (* Log tables agree with pdf on Blend densities too. *)
  let values = Array.init 3 (fun i -> Param.Value.Categorical i) in
  Array.iteri
    (fun i lp ->
      check feq "log table = log pdf on blends" (log (p_m i)) lp)
    (Hiperbot.Density.log_pdf_table merged values)

let test_density_js () =
  let a = Hiperbot.Density.fit cat_spec (Array.make 10 (Param.Value.Categorical 0)) in
  let b = Hiperbot.Density.fit cat_spec (Array.make 10 (Param.Value.Categorical 2)) in
  check Alcotest.bool "divergent densities" true (Hiperbot.Density.js_divergence cat_spec a b > 0.2);
  check (Alcotest.float 1e-9) "identical densities" 0. (Hiperbot.Density.js_divergence cat_spec a a)

(* ---- Surrogate ---- *)

let space2 =
  Param.Space.make
    [ Param.Spec.categorical "c" [ "a"; "b"; "x" ]; Param.Spec.ordinal_ints "o" [ 1; 2; 3; 4 ] ]

(* Objective: configs with c=a are fast, everything else slow; o is
   irrelevant. *)
let separable_obs =
  Array.concat
    [
      Array.init 8 (fun i -> ([| Param.Value.Categorical 0; Param.Value.Ordinal (i mod 4) |], 1. +. (0.01 *. float_of_int i)));
      Array.init 16 (fun i ->
          ([| Param.Value.Categorical (1 + (i mod 2)); Param.Value.Ordinal (i mod 4) |], 10. +. float_of_int i));
    ]

let test_surrogate_split () =
  let s = Hiperbot.Surrogate.fit space2 separable_obs in
  check Alcotest.int "good + bad = n" 24 (Hiperbot.Surrogate.n_good s + Hiperbot.Surrogate.n_bad s);
  check Alcotest.bool "good is the alpha fraction" true
    (Hiperbot.Surrogate.n_good s >= 4 && Hiperbot.Surrogate.n_good s <= 6);
  check Alcotest.bool "threshold separates" true (Hiperbot.Surrogate.threshold s < 10.)

let test_surrogate_scores_good_region () =
  let s = Hiperbot.Surrogate.fit space2 separable_obs in
  let fast = [| Param.Value.Categorical 0; Param.Value.Ordinal 0 |] in
  let slow = [| Param.Value.Categorical 1; Param.Value.Ordinal 0 |] in
  check Alcotest.bool "fast region scores higher" true
    (Hiperbot.Surrogate.score s fast > Hiperbot.Surrogate.score s slow);
  check Alcotest.bool "score positive" true (Hiperbot.Surrogate.score s slow > 0.)

let test_surrogate_ei_bounds () =
  let s = Hiperbot.Surrogate.fit space2 separable_obs in
  let alpha = Hiperbot.Surrogate.alpha s in
  Array.iter
    (fun config ->
      let ei = Hiperbot.Surrogate.expected_improvement s config in
      if ei < 0. || ei > 1. /. alpha then Alcotest.failf "EI out of (0, 1/alpha): %f" ei)
    (Param.Space.enumerate space2)

let test_surrogate_ei_monotone_in_score () =
  let s = Hiperbot.Surrogate.fit space2 separable_obs in
  let pool = Param.Space.enumerate space2 in
  let by_score = Array.map (fun c -> (Hiperbot.Surrogate.score s c, Hiperbot.Surrogate.expected_improvement s c)) pool in
  Array.sort compare by_score;
  for i = 1 to Array.length by_score - 1 do
    let _, e0 = by_score.(i - 1) and _, e1 = by_score.(i) in
    if e1 < e0 -. 1e-12 then Alcotest.fail "EI not monotone in score"
  done

let test_surrogate_pdf_factorizes () =
  let s = Hiperbot.Surrogate.fit space2 separable_obs in
  let c = [| Param.Value.Categorical 0; Param.Value.Ordinal 1 |] in
  let product =
    Hiperbot.Density.pdf (Hiperbot.Surrogate.good_density s 0) c.(0)
    *. Hiperbot.Density.pdf (Hiperbot.Surrogate.good_density s 1) c.(1)
  in
  check (Alcotest.float 1e-12) "good_pdf is the product" product (Hiperbot.Surrogate.good_pdf s c)

let test_surrogate_sample_good_valid () =
  let s = Hiperbot.Surrogate.fit space2 separable_obs in
  let rng = Prng.Rng.create 71 in
  for _ = 1 to 100 do
    check Alcotest.bool "sampled config valid" true
      (Param.Space.validate space2 (Hiperbot.Surrogate.sample_good s rng))
  done

let test_surrogate_importance () =
  let s = Hiperbot.Surrogate.fit space2 separable_obs in
  check Alcotest.bool "relevant param more important" true
    (Hiperbot.Surrogate.param_js_divergence s 0 > Hiperbot.Surrogate.param_js_divergence s 1)

let test_surrogate_validation () =
  Alcotest.check_raises "no observations" (Invalid_argument "Surrogate.fit: no observations")
    (fun () -> ignore (Hiperbot.Surrogate.fit space2 [||]));
  Alcotest.check_raises "bad alpha" (Invalid_argument "Surrogate.fit: alpha outside (0, 1)")
    (fun () ->
      ignore
        (Hiperbot.Surrogate.fit
           ~options:{ Hiperbot.Surrogate.default_options with alpha = 1.5 }
           space2 separable_obs))

(* ---- Strategy ---- *)

(* [Strategy.rank] over space2's enumerated pool, skipping the
   configurations in [evaluated]. *)
let rank ~k s evaluated =
  let encoded = Hiperbot.Surrogate.Pool.encode space2 (Param.Space.enumerate space2) in
  let excluded = Hiperbot.Strategy.Exclusion.create () in
  Param.Config.Table.iter
    (fun c () -> Hiperbot.Strategy.Exclusion.add_config excluded encoded c)
    evaluated;
  Hiperbot.Strategy.rank ~k ~surrogate:s ~encoded ~excluded ()

let test_ranking_excludes_evaluated () =
  let s = Hiperbot.Surrogate.fit space2 separable_obs in
  let pool = Param.Space.enumerate space2 in
  let evaluated = Param.Config.Table.create 16 in
  (* Repeatedly select; every selection must be new. *)
  for _ = 1 to Array.length pool do
    match rank ~k:1 s evaluated with
    | [ c ] ->
        if Param.Config.Table.mem evaluated c then Alcotest.fail "selected an evaluated config";
        Param.Config.Table.replace evaluated c ()
    | _ -> Alcotest.fail "pool exhausted early"
  done;
  check Alcotest.int "exhausted pool ranks nothing" 0 (List.length (rank ~k:1 s evaluated))

let test_ranking_picks_argmax () =
  let s = Hiperbot.Surrogate.fit space2 separable_obs in
  let pool = Param.Space.enumerate space2 in
  match rank ~k:1 s (Param.Config.Table.create 16) with
  | [ c ] ->
      let best = Array.fold_left (fun acc x -> Float.max acc (Hiperbot.Surrogate.score s x)) neg_infinity pool in
      check (Alcotest.float 1e-12) "argmax score" best (Hiperbot.Surrogate.score s c)
  | _ -> Alcotest.fail "no selection"

let test_proposal_returns_valid () =
  let s = Hiperbot.Surrogate.fit space2 separable_obs in
  let evaluated = Param.Config.Table.create 16 in
  let rng = Prng.Rng.create 83 in
  let c = Hiperbot.Strategy.propose ~rng ~surrogate:s ~evaluated ~n_candidates:16 in
  check Alcotest.bool "valid" true (Param.Space.validate space2 c)

(* ---- Tuner ---- *)

let counted_objective () =
  let count = ref 0 in
  let f config =
    incr count;
    let c = Param.Value.to_index config.(0) in
    let o = Param.Value.to_index config.(1) in
    float_of_int (((c * 4) + o + 3) mod 11)
  in
  (f, count)

let test_tuner_budget_respected () =
  let objective, count = counted_objective () in
  let result =
    Gen.ok
      (Hiperbot.Tuner.run_async ~rng:(Prng.Rng.create 91) ~space:space2
         ~objective:(Gen.total objective) ~budget:10 ())
  in
  check Alcotest.bool "at most budget evaluations" true (!count <= 10);
  check Alcotest.int "history matches evaluation count" !count
    (Array.length result.Hiperbot.Tuner.history)

let test_tuner_no_duplicate_evaluations () =
  let objective, _ = counted_objective () in
  let result =
    Gen.ok
      (Hiperbot.Tuner.run_async ~rng:(Prng.Rng.create 92) ~space:space2
         ~objective:(Gen.total objective) ~budget:12 ())
  in
  let seen = Param.Config.Table.create 12 in
  Array.iter
    (fun (c, _) ->
      if Param.Config.Table.mem seen c then Alcotest.fail "duplicate evaluation";
      Param.Config.Table.replace seen c ())
    result.Hiperbot.Tuner.history

let test_tuner_trajectory_monotone () =
  let objective, _ = counted_objective () in
  let result =
    Gen.ok
      (Hiperbot.Tuner.run_async ~rng:(Prng.Rng.create 93) ~space:space2
         ~objective:(Gen.total objective) ~budget:12 ())
  in
  let t = result.Hiperbot.Tuner.trajectory in
  for i = 1 to Array.length t - 1 do
    if t.(i) > t.(i - 1) then Alcotest.fail "trajectory not non-increasing"
  done;
  check feq "trajectory ends at best" result.Hiperbot.Tuner.best_value t.(Array.length t - 1)

let test_tuner_exhausts_small_space () =
  let objective, count = counted_objective () in
  let result =
    Gen.ok
      (Hiperbot.Tuner.run_async ~rng:(Prng.Rng.create 94) ~space:space2
         ~objective:(Gen.total objective) ~budget:100 ())
  in
  check Alcotest.int "stops at space size" 12 !count;
  check Alcotest.int "history covers the space" 12 (Array.length result.Hiperbot.Tuner.history)

let test_tuner_finds_optimum_of_separable () =
  (* A clean separable objective over a bigger space: the tuner must
     find the global optimum well before exhausting the space. *)
  let space =
    Param.Space.make
      [
        Param.Spec.ordinal_ints "a" [ 0; 1; 2; 3; 4; 5 ];
        Param.Spec.ordinal_ints "b" [ 0; 1; 2; 3; 4; 5 ];
        Param.Spec.ordinal_ints "c" [ 0; 1; 2; 3; 4; 5 ];
      ]
  in
  let objective config =
    let v i = float_of_int (Param.Value.to_index config.(i)) in
    ((v 0 -. 2.) ** 2.) +. ((v 1 -. 4.) ** 2.) +. ((v 2 -. 1.) ** 2.)
  in
  let result =
    Gen.ok
      (Hiperbot.Tuner.run_async ~rng:(Prng.Rng.create 95) ~space
         ~objective:(Gen.total objective) ~budget:80 ())
  in
  check feq "global optimum found" 0. result.Hiperbot.Tuner.best_value

let test_tuner_on_evaluation_callback () =
  let objective, _ = counted_objective () in
  let calls = ref [] in
  let on_outcome i _ v = calls := (i, v) :: !calls in
  let result =
    Gen.ok
      (Hiperbot.Tuner.run_async ~on_outcome ~rng:(Prng.Rng.create 96) ~space:space2
         ~objective:(Gen.total objective) ~budget:8 ())
  in
  let calls = List.rev !calls in
  check Alcotest.int "one callback per evaluation" (Array.length result.Hiperbot.Tuner.history)
    (List.length calls);
  List.iteri (fun i (j, _) -> check Alcotest.int "indices sequential" i j) calls

let test_tuner_warm_start () =
  let objective, count = counted_objective () in
  let warm = Array.map (fun (c, y) -> (c, y)) separable_obs in
  (* warm_start configs are in space2; budget small *)
  let result =
    Gen.ok
      (Hiperbot.Tuner.run_async ~warm_start:warm ~rng:(Prng.Rng.create 97) ~space:space2
         ~objective:(Gen.total objective) ~budget:4 ())
  in
  check Alcotest.bool "warm start not re-evaluated" true (!count <= 4);
  check Alcotest.bool "history excludes warm start" true
    (Array.length result.Hiperbot.Tuner.history <= 4)

let test_tuner_validation () =
  let objective, _ = counted_objective () in
  Alcotest.check_raises "bad budget" (Invalid_argument "Campaign.create: budget must be at least 1")
    (fun () ->
      ignore
        (Hiperbot.Tuner.run_async ~rng:(Prng.Rng.create 1) ~space:space2
           ~objective:(Gen.total objective) ~budget:0 ()));
  let cont = Param.Space.make [ Param.Spec.continuous "x" ~lo:0. ~hi:1. ] in
  Alcotest.check_raises "ranking needs finite space"
    (Invalid_argument "Campaign.create: Ranking strategy requires a finite space") (fun () ->
      ignore
        (Hiperbot.Tuner.run_async ~rng:(Prng.Rng.create 1) ~space:cont
           ~objective:(Gen.total (fun _ -> 0.)) ~budget:5 ()))

let test_tuner_deterministic () =
  let run seed =
    let objective, _ = counted_objective () in
    (Gen.ok
       (Hiperbot.Tuner.run_async ~rng:(Prng.Rng.create seed) ~space:space2
          ~objective:(Gen.total objective) ~budget:10 ()))
      .Hiperbot.Tuner.best_value
  in
  check feq "same seed same result" (run 5) (run 5)

(* ---- Transfer ---- *)

let test_transfer_prior_biases_selection () =
  (* Source data says categorical value 2 is great; with a heavy
     prior and an uninformative target, guided samples should favor
     value 2 over the alternatives. *)
  let source =
    Array.concat
      [
        Array.init 30 (fun i -> ([| Param.Value.Categorical 2; Param.Value.Ordinal (i mod 4) |], 1.));
        Array.init 60 (fun i ->
            ([| Param.Value.Categorical (i mod 2); Param.Value.Ordinal (i mod 4) |], 50.));
      ]
  in
  let objective _ = 5. in
  let options =
    Hiperbot.Transfer.options
      ~options:{ Hiperbot.Tuner.default_options with n_init = 2 }
      ~space:space2 [ (source, 10.) ]
  in
  let result =
    Gen.ok
      (Hiperbot.Tuner.run_async ~options ~rng:(Prng.Rng.create 101) ~space:space2
         ~objective:(Gen.total objective) ~budget:6 ())
  in
  let guided = Array.sub result.Hiperbot.Tuner.history 2 (Array.length result.Hiperbot.Tuner.history - 2) in
  let favored =
    Array.fold_left (fun acc (c, _) -> if Param.Value.to_index c.(0) = 2 then acc + 1 else acc) 0 guided
  in
  check Alcotest.bool "guided samples favor the source optimum" true
    (favored * 2 > Array.length guided)

let test_transfer_validation () =
  Alcotest.check_raises "empty source" (Invalid_argument "Transfer.options: empty source data")
    (fun () -> ignore (Hiperbot.Transfer.options ~space:space2 [ ([||], 1.) ]));
  let bad_weight =
    Invalid_argument "Transfer.options: prior weight must be finite and non-negative"
  in
  List.iter
    (fun (label, w) ->
      Alcotest.check_raises label bad_weight (fun () ->
          ignore (Hiperbot.Transfer.options ~space:space2 [ (separable_obs, w) ])))
    [ ("negative weight", -1.); ("nan weight", Float.nan); ("infinite weight", Float.infinity) ]

let test_surrogate_weight_validation () =
  let prior = Hiperbot.Surrogate.fit space2 separable_obs in
  List.iter
    (fun (label, w) ->
      Alcotest.check_raises label
        (Invalid_argument "Surrogate.fit: prior weight must be finite and non-negative")
        (fun () -> ignore (Hiperbot.Surrogate.fit ~priors:[ (prior, w) ] space2 separable_obs)))
    [ ("negative weight", -0.5); ("nan weight", Float.nan); ("infinite weight", Float.infinity) ]

let test_surrogate_rejects_non_finite_objective () =
  List.iter
    (fun (label, y) ->
      let obs = Array.copy separable_obs in
      obs.(3) <- (fst obs.(3), y);
      Alcotest.check_raises label
        (Invalid_argument "Surrogate.fit: non-finite objective value")
        (fun () -> ignore (Hiperbot.Surrogate.fit space2 obs)))
    [ ("nan objective", Float.nan); ("inf objective", Float.infinity);
      ("-inf objective", Float.neg_infinity) ]

(* ---- Importance ---- *)

let test_importance_ranking_sorted () =
  let ranking = Hiperbot.Importance.of_observations space2 separable_obs in
  check Alcotest.int "one entry per parameter" 2 (Array.length ranking);
  check Alcotest.string "relevant parameter first" "c" (fst ranking.(0));
  check Alcotest.bool "sorted descending" true (snd ranking.(0) >= snd ranking.(1))

let test_importance_spearman () =
  let a = [| ("x", 0.5); ("y", 0.3); ("z", 0.1) |] in
  let b = [| ("x", 0.9); ("y", 0.2); ("z", 0.05) |] in
  check feq "identical order" 1. (Hiperbot.Importance.spearman a b);
  let reversed = [| ("z", 0.9); ("y", 0.2); ("x", 0.05) |] in
  check feq "reversed order" (-1.) (Hiperbot.Importance.spearman a reversed)

let test_importance_spearman_ties () =
  (* a has x and y tied at 3.0 (fractional ranks: w=4, x=y=2.5, z=1);
     b ranks w=4, y=3, x=2, z=1. Pearson on those fractional ranks is
     4.5 / sqrt(4.5 * 5) = sqrt 0.9 — hand-computed, and distinct
     from any value the tie-blind position formula can produce. *)
  let a = [| ("w", 4.); ("x", 3.); ("y", 3.); ("z", 1.) |] in
  let b = [| ("w", 10.); ("y", 8.); ("x", 2.); ("z", 1.) |] in
  check feq "tie-aware fractional ranks" (sqrt 0.9) (Hiperbot.Importance.spearman a b);
  (* Swapping the order tied entries happen to appear in must not
     change the coefficient. *)
  let a' = [| ("w", 4.); ("y", 3.); ("x", 3.); ("z", 1.) |] in
  check feq "tie order irrelevant" (Hiperbot.Importance.spearman a b)
    (Hiperbot.Importance.spearman a' b);
  (* An all-tied ranking carries no order information: correlation 0
     by the zero-variance convention, not 1. *)
  let flat = [| ("w", 1.); ("x", 1.); ("y", 1.); ("z", 1.) |] in
  check feq "all-tied ranking is uninformative" 0. (Hiperbot.Importance.spearman flat b)

let test_importance_spearman_validation () =
  let a = [| ("x", 0.5) |] and b = [| ("y", 0.5) |] in
  Alcotest.check_raises "different parameter sets"
    (Invalid_argument "Importance.spearman: parameter sets differ") (fun () ->
      ignore (Hiperbot.Importance.spearman a b));
  let dup = [| ("x", 0.5); ("x", 0.3) |] and ok = [| ("x", 0.5); ("y", 0.3) |] in
  Alcotest.check_raises "duplicate name in second ranking"
    (Invalid_argument "Importance.spearman: duplicate parameter \"x\"") (fun () ->
      ignore (Hiperbot.Importance.spearman ok dup));
  Alcotest.check_raises "duplicate name in first ranking"
    (Invalid_argument "Importance.spearman: duplicate parameter \"x\"") (fun () ->
      ignore (Hiperbot.Importance.spearman dup ok))

let test_importance_to_string () =
  check Alcotest.string "formatting" "a(0.50),b(0.10)"
    (Hiperbot.Importance.to_string [| ("a", 0.5); ("b", 0.1) |])

let suite =
  let tc = Alcotest.test_case in
  ( "hiperbot",
    [
      tc "density: discrete" `Quick test_density_discrete;
      tc "density: continuous" `Quick test_density_continuous;
      tc "density: empty is uniform" `Quick test_density_empty_is_uniform;
      tc "density: samples valid" `Quick test_density_sample_valid;
      tc "density: merge prior" `Quick test_density_merge_prior;
      tc "density: uniform merge respects weight" `Quick test_density_merge_uniform_respects_weight;
      tc "density: js divergence" `Quick test_density_js;
      tc "surrogate: split" `Quick test_surrogate_split;
      tc "surrogate: scores good region" `Quick test_surrogate_scores_good_region;
      tc "surrogate: EI bounds" `Quick test_surrogate_ei_bounds;
      tc "surrogate: EI monotone in score" `Quick test_surrogate_ei_monotone_in_score;
      tc "surrogate: pdf factorizes" `Quick test_surrogate_pdf_factorizes;
      tc "surrogate: sample_good valid" `Quick test_surrogate_sample_good_valid;
      tc "surrogate: importance signal" `Quick test_surrogate_importance;
      tc "surrogate: validation" `Quick test_surrogate_validation;
      tc "strategy: ranking excludes evaluated" `Quick test_ranking_excludes_evaluated;
      tc "strategy: ranking picks argmax" `Quick test_ranking_picks_argmax;
      tc "strategy: proposal valid" `Quick test_proposal_returns_valid;
      tc "tuner: budget respected" `Quick test_tuner_budget_respected;
      tc "tuner: no duplicates" `Quick test_tuner_no_duplicate_evaluations;
      tc "tuner: trajectory monotone" `Quick test_tuner_trajectory_monotone;
      tc "tuner: exhausts small space" `Quick test_tuner_exhausts_small_space;
      tc "tuner: finds separable optimum" `Quick test_tuner_finds_optimum_of_separable;
      tc "tuner: callback" `Quick test_tuner_on_evaluation_callback;
      tc "tuner: warm start" `Quick test_tuner_warm_start;
      tc "tuner: validation" `Quick test_tuner_validation;
      tc "tuner: deterministic" `Quick test_tuner_deterministic;
      tc "transfer: prior biases selection" `Quick test_transfer_prior_biases_selection;
      tc "transfer: validation" `Quick test_transfer_validation;
      tc "surrogate: weight validation" `Quick test_surrogate_weight_validation;
      tc "surrogate: rejects non-finite objective" `Quick test_surrogate_rejects_non_finite_objective;
      tc "importance: ranking sorted" `Quick test_importance_ranking_sorted;
      tc "importance: spearman" `Quick test_importance_spearman;
      tc "importance: spearman ties" `Quick test_importance_spearman_ties;
      tc "importance: spearman validation" `Quick test_importance_spearman_validation;
      tc "importance: to_string" `Quick test_importance_to_string;
    ] )

(* ---- Batch selection and early stopping (extensions) ---- *)

let test_select_many_distinct_and_ordered () =
  let s = Hiperbot.Surrogate.fit space2 separable_obs in
  let pool = Param.Space.enumerate space2 in
  let evaluated = Param.Config.Table.create 4 in
  let batch = rank ~k:5 s evaluated in
  check Alcotest.int "five returned" 5 (List.length batch);
  let seen = Param.Config.Table.create 5 in
  List.iter
    (fun c ->
      if Param.Config.Table.mem seen c then Alcotest.fail "duplicate in batch";
      Param.Config.Table.replace seen c ())
    batch;
  let scores = List.map (Hiperbot.Surrogate.score s) batch in
  let rec nonincreasing = function
    | a :: b :: rest -> a +. 1e-12 >= b && nonincreasing (b :: rest)
    | _ -> true
  in
  check Alcotest.bool "batch sorted by score" true (nonincreasing scores);
  (* the head must equal the k=1 ranking, and the batch the reference *)
  (match rank ~k:1 s evaluated with
  | [ best ] ->
      check (Alcotest.float 1e-12) "head is the argmax" (Hiperbot.Surrogate.score s best)
        (List.hd scores)
  | _ -> Alcotest.fail "no selection");
  let reference =
    Gen.top_k ~k:5 ~n:(Array.length pool) (fun i -> Hiperbot.Surrogate.log_ratio s pool.(i))
  in
  check Alcotest.bool "batch = score-sort reference" true
    (List.for_all2 Param.Config.equal batch (List.map (Array.get pool) reference))

let test_select_many_respects_pool_size () =
  let s = Hiperbot.Surrogate.fit space2 separable_obs in
  let pool = Param.Space.enumerate space2 in
  let evaluated = Param.Config.Table.create 12 in
  Array.iteri (fun i c -> if i < 10 then Param.Config.Table.replace evaluated c ()) pool;
  let batch = rank ~k:5 s evaluated in
  check Alcotest.int "only the remaining pool" 2 (List.length batch)

let test_tuner_early_stop () =
  (* Constant objective: nothing ever improves, so the run must stop
     after n_init + early_stop evaluations. *)
  let count = ref 0 in
  let objective _ =
    incr count;
    7.
  in
  let options = { Hiperbot.Tuner.default_options with n_init = 3; early_stop = Some 4 } in
  let result =
    Gen.ok
      (Hiperbot.Tuner.run_async ~options ~rng:(Prng.Rng.create 114) ~space:space2
         ~objective:(Gen.total objective) ~budget:12 ())
  in
  check Alcotest.bool "stopped early flag" true result.Hiperbot.Tuner.stopped_early;
  check Alcotest.int "stopped after init + patience" 7 !count

let test_tuner_no_early_stop_when_improving () =
  (* Strictly improving objective: early stop must never fire. *)
  let count = ref 0 in
  let objective _ =
    incr count;
    100. -. float_of_int !count
  in
  let options = { Hiperbot.Tuner.default_options with n_init = 3; early_stop = Some 2 } in
  let result =
    Gen.ok
      (Hiperbot.Tuner.run_async ~options ~rng:(Prng.Rng.create 115) ~space:space2
         ~objective:(Gen.total objective) ~budget:12 ())
  in
  check Alcotest.bool "ran the full budget" true (Array.length result.Hiperbot.Tuner.history = 12);
  check Alcotest.bool "not stopped early" false result.Hiperbot.Tuner.stopped_early

let test_tuner_early_stop_counts_evaluations () =
  (* The no-improvement counter counts guided evaluations, starting
     after the random init: with a constant objective, early_stop = 4,
     and n_init = 3, the run stops after exactly 3 + 4 evaluations. *)
  let count = ref 0 in
  let objective _ =
    incr count;
    7.
  in
  let options = { Hiperbot.Tuner.default_options with n_init = 3; early_stop = Some 4 } in
  let result =
    Gen.ok
      (Hiperbot.Tuner.run_async ~options ~rng:(Prng.Rng.create 116) ~space:space2
         ~objective:(Gen.total objective) ~budget:50 ())
  in
  check Alcotest.bool "stopped early" true result.Hiperbot.Tuner.stopped_early;
  check Alcotest.int "exactly n_init + early_stop evaluations" 7 !count

(* ---- Importance edge cases (eqs. 13-14) ---- *)

let test_importance_one_choice_param () =
  (* A single-choice parameter has identical one-bin good and bad
     histograms: its JS divergence must be exactly 0, never NaN. *)
  let space =
    Param.Space.make
      [ Param.Spec.categorical "fixed" [ "only" ]; Param.Spec.ordinal_ints "o" [ 1; 2; 3; 4 ] ]
  in
  let rng = Prng.Rng.create 21 in
  let obs =
    Array.init 16 (fun i ->
        (Param.Space.random_config space rng, 1. +. float_of_int (i mod 5)))
  in
  let ranking = Hiperbot.Importance.of_observations space obs in
  Array.iter
    (fun (name, score) ->
      check Alcotest.bool (name ^ " finite") true (Float.is_finite score);
      if name = "fixed" then check (Alcotest.float 0.) "one-bin divergence is 0" 0. score)
    ranking

let test_importance_extreme_alpha () =
  (* alpha small enough that the quantile cut would leave the good set
     empty: the split promotes the minima instead, so every score must
     come back finite. alpha outside (0,1) is a named error. *)
  let rng = Prng.Rng.create 22 in
  let obs =
    Array.init 20 (fun i -> (Param.Space.random_config space2 rng, 1. +. float_of_int i))
  in
  let options = { Hiperbot.Surrogate.default_options with alpha = 0.001 } in
  let ranking = Hiperbot.Importance.of_observations ~options space2 obs in
  check Alcotest.int "one score per parameter" (Array.length (Param.Space.specs space2))
    (Array.length ranking);
  Array.iter
    (fun (name, score) -> check Alcotest.bool (name ^ " finite") true (Float.is_finite score))
    ranking;
  List.iter
    (fun alpha ->
      let options = { Hiperbot.Surrogate.default_options with alpha } in
      match Hiperbot.Importance.of_observations ~options space2 obs with
      | _ -> Alcotest.failf "alpha=%g must be rejected" alpha
      | exception Invalid_argument _ -> ())
    [ 0.; 1.; -0.5; Float.nan ]

let test_importance_all_equal_objectives () =
  (* Every observation identical: the good/bad split degenerates, but
     the ranking must still be finite (all divergences 0 or near 0). *)
  let rng = Prng.Rng.create 23 in
  let obs = Array.init 12 (fun _ -> (Param.Space.random_config space2 rng, 4.2)) in
  let ranking = Hiperbot.Importance.of_observations space2 obs in
  Array.iter
    (fun (name, score) ->
      check Alcotest.bool (name ^ " finite") true (Float.is_finite score);
      check Alcotest.bool (name ^ " non-negative") true (score >= 0.))
    ranking

let suite =
  let name, cases = suite in
  ( name,
    cases
    @ [
        Alcotest.test_case "strategy: select_many ordered batch" `Quick test_select_many_distinct_and_ordered;
        Alcotest.test_case "strategy: select_many pool bound" `Quick test_select_many_respects_pool_size;
        Alcotest.test_case "tuner: early stop fires" `Quick test_tuner_early_stop;
        Alcotest.test_case "tuner: early stop quiescent while improving" `Quick test_tuner_no_early_stop_when_improving;
        Alcotest.test_case "tuner: early stop counts evaluations after init" `Quick test_tuner_early_stop_counts_evaluations;
        Alcotest.test_case "importance: one-choice parameter scores 0" `Quick test_importance_one_choice_param;
        Alcotest.test_case "importance: extreme alpha stays finite or errors" `Quick test_importance_extreme_alpha;
        Alcotest.test_case "importance: all-equal objectives finite" `Quick test_importance_all_equal_objectives;
      ] )

(* ---- Resilient tuning (failed evaluations) ---- *)

let test_resilient_avoids_failing_region () =
  (* Configurations with c = "x" always crash; everything else
     returns a flat objective. The failures must land in [failures],
     consume budget, and push selection away from c = "x". *)
  let failures_seen = ref 0 in
  let objective config =
    if Param.Value.to_index config.(0) = 2 then None
    else Some (5. +. (0.1 *. float_of_int (Param.Value.to_index config.(1))))
  in
  let options = { Hiperbot.Tuner.default_options with n_init = 4 } in
  let on_outcome _ _ (v : Resilience.Evaluator.verdict) =
    match v.Resilience.Evaluator.outcome with
    | Resilience.Outcome.Value _ -> ()
    | _ -> incr failures_seen
  in
  let result =
    Gen.ok
      (Hiperbot.Tuner.run_async ~options ~on_outcome ~rng:(Prng.Rng.create 211)
         ~space:space2
         ~objective:(fun ~attempt:_ c -> Resilience.Outcome.of_option (objective c))
         ~budget:12 ())
  in
  let n_ok = Array.length result.Hiperbot.Tuner.history in
  let n_fail = Array.length result.Hiperbot.Tuner.failures in
  check Alcotest.int "failure callback count" n_fail !failures_seen;
  check Alcotest.int "budget = successes + failures" 12 (n_ok + n_fail);
  Array.iter
    (fun (c, outcome) ->
      check Alcotest.int "failures all in the crashing region" 2 (Param.Value.to_index c.(0));
      check Alcotest.bool "None maps to a permanent failure" true
        (match outcome with Resilience.Outcome.Permanent _ -> true | _ -> false))
    result.Hiperbot.Tuner.failures;
  Array.iter
    (fun (c, _) ->
      check Alcotest.bool "history contains no crashing configs" true
        (Param.Value.to_index c.(0) <> 2))
    result.Hiperbot.Tuner.history

let test_resilient_all_fail () =
  (* Every evaluation failing is reported as a structured error, not
     an exception — callers degrade gracefully. *)
  match
    Hiperbot.Tuner.run_async ~rng:(Prng.Rng.create 212) ~space:space2
      ~objective:(fun ~attempt:_ _ -> Resilience.Outcome.of_option None)
      ~budget:5 ()
  with
  | Stdlib.Ok _ -> Alcotest.fail "expected an all-failed error"
  | Stdlib.Error err ->
      check Alcotest.int "all five failures reported" 5
        (Array.length err.Hiperbot.Tuner.error_failures);
      check Alcotest.int "one attempt each (None is never retried)" 5
        err.Hiperbot.Tuner.error_attempts

let test_resilient_matches_run_when_no_failures () =
  (* Nothing fails, so the retry policy never acts: the default policy
     and no retries at all run the same campaign, one attempt each. *)
  let objective c = float_of_int (Param.Config.hash c mod 17) in
  let run policy =
    Gen.ok
      (Hiperbot.Tuner.run_async ~policy ~rng:(Prng.Rng.create 213) ~space:space2
         ~objective:(Gen.total objective) ~budget:10 ())
  in
  let a = run Resilience.Policy.default and b = run Resilience.Policy.no_retry in
  check Alcotest.bool "same campaign" true (Gen.results_identical a b);
  check Alcotest.int "one attempt per evaluation" 10 a.Hiperbot.Tuner.n_attempts;
  check Alcotest.int "no failures" 0 (Array.length a.Hiperbot.Tuner.failures)

let test_surrogate_extra_bad_shifts_scores () =
  let s_plain = Hiperbot.Surrogate.fit space2 separable_obs in
  let crashing = Array.init 6 (fun i -> [| Param.Value.Categorical 2; Param.Value.Ordinal (i mod 4) |]) in
  let s_with_bad = Hiperbot.Surrogate.fit ~extra_bad:crashing space2 separable_obs in
  let c = [| Param.Value.Categorical 2; Param.Value.Ordinal 0 |] in
  check Alcotest.bool "failures lower the region's score" true
    (Hiperbot.Surrogate.score s_with_bad c < Hiperbot.Surrogate.score s_plain c);
  check Alcotest.int "n_bad includes failures" (Hiperbot.Surrogate.n_bad s_plain + 6)
    (Hiperbot.Surrogate.n_bad s_with_bad)

let suite =
  let name, cases = suite in
  ( name,
    cases
    @ [
        Alcotest.test_case "resilient: avoids failing region" `Quick test_resilient_avoids_failing_region;
        Alcotest.test_case "resilient: all fail returns structured error" `Quick test_resilient_all_fail;
        Alcotest.test_case "resilient: matches run when clean" `Quick test_resilient_matches_run_when_no_failures;
        Alcotest.test_case "surrogate: extra_bad shifts scores" `Quick test_surrogate_extra_bad_shifts_scores;
      ] )

(* ---- Property tests ---- *)

let prop_tuner_invariants =
  QCheck2.Test.make ~name:"tuner: budget, dedupe, and monotone trajectory for random seeds/budgets"
    ~count:25
    QCheck2.Gen.(pair (int_range 0 100000) (int_range 1 12))
    (fun (seed, budget) ->
      let objective c = float_of_int ((Param.Config.hash c land 0xFFFF) + 1) in
      let r =
        Gen.ok
          (Hiperbot.Tuner.run_async ~rng:(Prng.Rng.create seed) ~space:space2
             ~objective:(Gen.total objective) ~budget ())
      in
      let h = r.Hiperbot.Tuner.history in
      let n = Array.length h in
      let distinct =
        let t = Param.Config.Table.create n in
        Array.for_all
          (fun (c, _) ->
            if Param.Config.Table.mem t c then false
            else begin
              Param.Config.Table.replace t c ();
              true
            end)
          h
      in
      let monotone = ref true in
      Array.iteri
        (fun i v -> if i > 0 && v > r.Hiperbot.Tuner.trajectory.(i - 1) then monotone := false)
        r.Hiperbot.Tuner.trajectory;
      n >= 1 && n <= budget && distinct && !monotone
      && r.Hiperbot.Tuner.best_value = r.Hiperbot.Tuner.trajectory.(n - 1))

let prop_select_many_bounds =
  QCheck2.Test.make ~name:"strategy: select_many returns <= k distinct unevaluated configs" ~count:40
    QCheck2.Gen.(pair (int_range 1 15) (int_range 0 11))
    (fun (k, n_evaluated) ->
      let s = Hiperbot.Surrogate.fit space2 separable_obs in
      let pool = Param.Space.enumerate space2 in
      let evaluated = Param.Config.Table.create 12 in
      Array.iteri (fun i c -> if i < n_evaluated then Param.Config.Table.replace evaluated c ()) pool;
      let batch = rank ~k s evaluated in
      let expected = min k (12 - n_evaluated) in
      List.length batch = expected
      && List.for_all (fun c -> not (Param.Config.Table.mem evaluated c)) batch)

let prop_surrogate_score_positive =
  QCheck2.Test.make ~name:"surrogate: score strictly positive over the whole space" ~count:30
    QCheck2.Gen.(int_range 0 10000)
    (fun seed ->
      let rng = Prng.Rng.create seed in
      (* random observations over space2 *)
      let n = 5 + Prng.Rng.int rng 30 in
      let obs =
        Array.init n (fun _ ->
            (Param.Space.random_config space2 rng, Prng.Rng.float rng *. 100.))
      in
      (* random configs may repeat; the surrogate does not mind *)
      let s = Hiperbot.Surrogate.fit space2 obs in
      Array.for_all (fun c -> Hiperbot.Surrogate.score s c > 0.) (Param.Space.enumerate space2))

let suite =
  let name, cases = suite in
  ( name,
    cases
    @ [
        QCheck_alcotest.to_alcotest prop_tuner_invariants;
        QCheck_alcotest.to_alcotest prop_select_many_bounds;
        QCheck_alcotest.to_alcotest prop_surrogate_score_positive;
      ] )
