(* Tests for the compiled scoring path: naive/compiled score
   equivalence, Topk tie-breaking, the shared density floor, virtual
   pools, and the exactness of the branch-and-bound ranking scan. *)

let check = Alcotest.check

let ulp_diff a b =
  Int64.abs (Int64.sub (Int64.bits_of_float a) (Int64.bits_of_float b))

let same_configs a b = List.length a = List.length b && List.for_all2 Param.Config.equal a b

(* ---- compiled scorer vs naive scorer ---- *)

(* Random space, observations, priors, extra_bad, and two bandwidth
   fractions: every pool element must score identically (<= 1 ulp; the
   implementation is expected to be exactly bit-equal) through the
   naive per-config path and the compiled tables. Everything is built
   from the shared [Gen] generators, so a failure shrinks to a minimal
   space and pool. *)
let prop_compiled_matches_naive =
  let gen =
    let open QCheck2.Gen in
    let* space = Gen.space_gen ~max_params:3 () in
    let* pool = Gen.configs_gen ~min_n:5 ~max_n:45 space in
    let* obs = Gen.observations_gen ~min_n:4 ~max_n:24 space in
    let* extra_bad = Gen.configs_gen ~min_n:0 ~max_n:3 space in
    let* bandwidth_fraction = oneofl [ 0.1; 0.25 ] in
    let* smoothing = oneofl [ 0.; 0.5; 1. ] in
    let* n_priors = int_range 0 2 in
    let* prior_obs =
      flatten_l (List.init n_priors (fun _ -> Gen.observations_gen ~min_n:4 ~max_n:12 space))
    in
    let* prior_weights =
      flatten_l (List.init n_priors (fun _ -> oneofl [ 0.; 0.5; 1.; 5.; 50. ]))
    in
    let+ alpha = float_range 0.1 0.5 in
    ( space,
      pool,
      obs,
      extra_bad,
      bandwidth_fraction,
      smoothing,
      List.combine prior_obs prior_weights,
      alpha )
  in
  QCheck2.Test.make ~name:"surrogate: compiled log_ratio/score equal naive within 1 ulp"
    ~count:60
    ~print:(fun (space, pool, obs, extra_bad, _, smoothing, priors, alpha) ->
      Printf.sprintf "%s pool=%d obs=%d extra_bad=%d smoothing=%g priors=[%s] alpha=%.3f"
        (Gen.space_to_string space) (Array.length pool) (Array.length obs)
        (Array.length extra_bad) smoothing
        (String.concat ";"
           (List.map (fun (o, w) -> Printf.sprintf "%d@%g" (Array.length o) w) priors))
        alpha)
    gen
    (fun (space, pool, obs, extra_bad, bandwidth_fraction, smoothing, prior_sources, alpha) ->
      let options =
        {
          Hiperbot.Surrogate.alpha;
          density = { Hiperbot.Density.smoothing; bandwidth_fraction };
        }
      in
      let priors =
        List.map
          (fun (o, w) -> (Hiperbot.Surrogate.fit ~options space o, w))
          prior_sources
      in
      let surrogate = Hiperbot.Surrogate.fit ~options ~priors ~extra_bad space obs in
      let encoded = Hiperbot.Surrogate.Pool.encode space pool in
      let compiled = Hiperbot.Surrogate.compile surrogate encoded in
      Array.for_all
        (fun i ->
          let naive = Hiperbot.Surrogate.log_ratio surrogate pool.(i) in
          let fast = Hiperbot.Surrogate.Compiled.log_ratio compiled i in
          ulp_diff naive fast <= 1L
          && ulp_diff (Hiperbot.Surrogate.score surrogate pool.(i))
               (Hiperbot.Surrogate.Compiled.score compiled i)
             <= 1L)
        (Array.init (Array.length pool) Fun.id))

(* ---- shared fixtures ---- *)

let space3 =
  Param.Space.make
    [
      Param.Spec.categorical "c" [ "a"; "b"; "x" ];
      Param.Spec.ordinal_ints "o" [ 1; 2; 3; 4 ];
      Param.Spec.categorical "z" [ "p"; "q"; "r" ];
    ]

let obs3 =
  let rng = Prng.Rng.create 7 in
  Array.init 30 (fun _ ->
      (Param.Space.random_config space3 rng, float_of_int (1 + Prng.Rng.int rng 1000)))

(* All four observations share one configuration value per parameter,
   so the good and bad histograms coincide and every candidate scores
   exactly log 1 = 0: ranking must fall back to pool order, and
   Proposal must keep the first of its (equal-scoring) draws. *)
let test_all_equal_scores_select_pool_order () =
  let space =
    Param.Space.make
      [ Param.Spec.categorical "c" [ "a"; "b"; "x" ]; Param.Spec.ordinal_ints "o" [ 1; 2 ] ]
  in
  let c0 = [| Param.Value.Categorical 0; Param.Value.Ordinal 0 |] in
  let obs = [| (c0, 1.); (c0, 2.); (c0, 30.); (c0, 40.) |] in
  let options = { Hiperbot.Surrogate.default_options with alpha = 0.5 } in
  let surrogate = Hiperbot.Surrogate.fit ~options space obs in
  let pool = Param.Space.enumerate space in
  Array.iter
    (fun c ->
      check (Alcotest.float 0.) "log-ratio exactly 0" 0.
        (Hiperbot.Surrogate.log_ratio surrogate c))
    pool;
  let expected = Array.to_list (Array.sub pool 0 4) in
  let got =
    Hiperbot.Strategy.rank ~k:4 ~surrogate ~encoded:(Hiperbot.Surrogate.Pool.encode space pool)
      ~excluded:(Hiperbot.Strategy.Exclusion.create ()) ()
  in
  check Alcotest.bool "first k in pool order" true (same_configs expected got);
  let rng = Prng.Rng.create 5 in
  let first = Hiperbot.Surrogate.sample_good surrogate (Prng.Rng.copy rng) in
  let proposed =
    Hiperbot.Strategy.propose ~rng ~surrogate ~evaluated:(Param.Config.Table.create 1)
      ~n_candidates:16
  in
  check Alcotest.bool "proposal keeps the first draw" true (Param.Config.equal first proposed)

(* ---- shared density floor ---- *)

let test_density_floor_unified () =
  (* A point far outside a narrow kernel underflows pdf to 0; log_pdf
     must land exactly on the shared floor. *)
  let kde = Stats.Kde.create ~bandwidth:1e-3 [| 0. |] in
  check (Alcotest.float 0.) "kde pdf underflows" 0. (Stats.Kde.pdf kde 50.);
  check (Alcotest.float 0.) "kde log_pdf hits the shared floor" Stats.Kde.log_min_density
    (Stats.Kde.log_pdf kde 50.);
  check (Alcotest.float 0.) "floor is log min_density" (log Stats.Kde.min_density)
    Stats.Kde.log_min_density;
  (* Density.pdf clamps to the same constant, so log (Density.pdf _)
     (the naive path) equals the compiled table entry exactly. *)
  let spec = Param.Spec.continuous "r" ~lo:0. ~hi:10. in
  let options =
    { Hiperbot.Density.default_options with bandwidth_fraction = 1e-9 }
  in
  let d = Hiperbot.Density.fit ~options spec [| Param.Value.Continuous 0.1 |] in
  let far = Param.Value.Continuous 9. in
  check (Alcotest.float 0.) "Density.pdf clamps at min_density" Stats.Kde.min_density
    (Hiperbot.Density.pdf d far);
  let table = Hiperbot.Density.log_pdf_table d [| far |] in
  check (Alcotest.float 0.) "log_pdf_table agrees with the clamp" Stats.Kde.log_min_density
    table.(0)

(* ---- streaming top-k == materialized top-k ---- *)

(* Scores are drawn from a 5-value set so duplicates are common: the
   streaming heap must reproduce the score-sort reference exactly,
   tie order included, and must not depend on the offer order. *)
let prop_stream_topk_matches_reference =
  let gen =
    let open QCheck2.Gen in
    let* k = int_range 1 8 in
    let* n = int_range 1 60 in
    let+ scores = flatten_l (List.init n (fun _ -> oneofl [ -1.; 0.; 0.5; 1.; 2. ])) in
    (k, Array.of_list scores)
  in
  QCheck2.Test.make ~name:"strategy: Topk_stream equals the score sort, tie order included"
    ~count:200
    ~print:(fun (k, scores) ->
      Printf.sprintf "k=%d scores=[%s]" k
        (String.concat ";" (Array.to_list (Array.map (Printf.sprintf "%g") scores))))
    gen
    (fun (k, scores) ->
      let expected = Gen.top_k ~k ~n:(Array.length scores) (Array.get scores) in
      let stream = Hiperbot.Strategy.Topk_stream.create k in
      Array.iteri (fun i s -> Hiperbot.Strategy.Topk_stream.offer stream s i) scores;
      let got = List.map snd (Hiperbot.Strategy.Topk_stream.to_desc stream) in
      let stream_rev = Hiperbot.Strategy.Topk_stream.create k in
      for i = Array.length scores - 1 downto 0 do
        Hiperbot.Strategy.Topk_stream.offer stream_rev scores.(i) i
      done;
      let got_rev = List.map snd (Hiperbot.Strategy.Topk_stream.to_desc stream_rev) in
      got = expected && got_rev = expected)

(* ---- refit engine == fit + compile ---- *)

(* Replay a growing observation history (crossing the alpha-quantile
   boundary at every step) through one Refit engine and demand that
   every compiled table entry equals the from-scratch fit+compile
   bit-for-bit, with the extra_bad set churning every third step the
   way the async engine's pending set does. *)
let prop_incremental_refit_matches_full =
  let gen =
    let open QCheck2.Gen in
    let* space = Gen.space_gen ~max_params:3 () in
    let* pool = Gen.configs_gen ~min_n:4 ~max_n:24 space in
    let* obs = Gen.observations_gen ~min_n:6 ~max_n:22 space in
    let* extra_bad = Gen.configs_gen ~min_n:1 ~max_n:4 space in
    let* n_priors = int_range 0 2 in
    let* prior_obs =
      flatten_l (List.init n_priors (fun _ -> Gen.observations_gen ~min_n:4 ~max_n:10 space))
    in
    let* prior_weights =
      flatten_l (List.init n_priors (fun _ -> oneofl [ 0.5; 1.; 5. ]))
    in
    let+ alpha = float_range 0.15 0.5 in
    (space, pool, obs, extra_bad, List.combine prior_obs prior_weights, alpha)
  in
  QCheck2.Test.make
    ~name:"surrogate: incremental refit equals full rebuild bit-for-bit across a campaign"
    ~count:30
    ~print:(fun (space, pool, obs, extra_bad, priors, alpha) ->
      Printf.sprintf "%s pool=%d obs=%d extra_bad=%d priors=%d alpha=%.3f"
        (Gen.space_to_string space) (Array.length pool) (Array.length obs)
        (Array.length extra_bad) (List.length priors) alpha)
    gen
    (fun (space, pool, obs, extra_bad, prior_sources, alpha) ->
      let options = { Hiperbot.Surrogate.default_options with alpha } in
      let priors =
        List.map (fun (o, w) -> (Hiperbot.Surrogate.fit ~options space o, w)) prior_sources
      in
      let encoded = Hiperbot.Surrogate.Pool.encode space pool in
      let engine = Hiperbot.Surrogate.Refit.create ~options encoded in
      let n_pool = Array.length pool in
      let ok = ref true in
      for len = 1 to Array.length obs do
        let prefix = Array.sub obs 0 len in
        let eb = if len mod 3 = 0 then extra_bad else [||] in
        let s_ref = Hiperbot.Surrogate.fit ~options ~priors ~extra_bad:eb space prefix in
        let c_ref = Hiperbot.Surrogate.compile s_ref encoded in
        let s_inc, c_inc = Hiperbot.Surrogate.Refit.update ~priors ~extra_bad:eb engine prefix in
        for i = 0 to n_pool - 1 do
          let bits c = Int64.bits_of_float (Hiperbot.Surrogate.Compiled.log_ratio c i) in
          if bits c_ref <> bits c_inc then ok := false
        done;
        (* Selection through the engine's scorer must match selection
           through the from-scratch scorer, tie order included. *)
        let select surrogate compiled =
          Hiperbot.Strategy.rank ~compiled ~k:3 ~surrogate ~encoded
            ~excluded:(Hiperbot.Strategy.Exclusion.create ()) ()
        in
        if not (same_configs (select s_ref c_ref) (select s_inc c_inc)) then ok := false
      done;
      !ok)

(* ---- virtual pools ---- *)

let test_virtual_pool_matches_materialized () =
  let pool = Param.Space.enumerate space3 in
  let virt = Hiperbot.Surrogate.Pool.of_space space3 in
  let enc = Hiperbot.Surrogate.Pool.encode space3 pool in
  check Alcotest.int "virtual length = enumerate length" (Array.length pool)
    (Hiperbot.Surrogate.Pool.length virt);
  check Alcotest.bool "virtual flag" true (Hiperbot.Surrogate.Pool.is_virtual virt);
  check Alcotest.bool "materialized flag" false (Hiperbot.Surrogate.Pool.is_virtual enc);
  Array.iteri
    (fun i c ->
      if not (Param.Config.equal c (Hiperbot.Surrogate.Pool.config virt i)) then
        Alcotest.failf "virtual row %d does not decode to enumerate order" i;
      check (Alcotest.list Alcotest.int) "indices_of = enumeration rank" [ i ]
        (Hiperbot.Surrogate.Pool.indices_of virt c))
    pool;
  let surrogate = Hiperbot.Surrogate.fit space3 obs3 in
  let cv = Hiperbot.Surrogate.compile surrogate virt in
  let cm = Hiperbot.Surrogate.compile surrogate enc in
  Array.iteri
    (fun i _ ->
      if
        Int64.bits_of_float (Hiperbot.Surrogate.Compiled.log_ratio cv i)
        <> Int64.bits_of_float (Hiperbot.Surrogate.Compiled.log_ratio cm i)
      then Alcotest.failf "virtual compiled score differs at row %d" i)
    pool;
  let evaluated = Param.Config.Table.create 8 in
  Array.iteri (fun i c -> if i mod 7 = 0 then Param.Config.Table.replace evaluated c ()) pool;
  let rng = Prng.Rng.create 2 in
  let sel p = Hiperbot.Strategy.select_many_encoded ~k:5 ~rng ~surrogate ~encoded:p ~evaluated () in
  check Alcotest.bool "virtual selection = materialized selection" true
    (same_configs (sel enc) (sel virt))

(* ---- branch and bound is exact in floating point ---- *)

(* Virtual pools of 5-7 parameters whose compiled tables are
   overwritten with values from {-0.2, -0.1, 0, 0.1, 0.2}: not exactly
   representable, so sums taken in different orders round
   differently, and so heavily tied that the best score recurs many
   times. A subtree bound summed in any order other than a row's own
   can fall an ulp below that row, and pruning on it could skip a row
   of the top k. Every row in a random exclusion set must be skipped.
   At configuration level, the scan must equal a naive scan of every
   unexcluded row. *)
let prop_branch_and_bound_exact =
  let gen =
    let open QCheck2.Gen in
    let* radices = list_size (int_range 5 7) (int_range 2 6) in
    let n = List.fold_left ( * ) 1 radices in
    let* tenths = list_repeat (List.fold_left ( + ) 0 radices) (int_range (-2) 2) in
    let* excluded = list_size (int_range 1 40) (int_range 0 (n - 1)) in
    let+ k = int_range 1 5 in
    (radices, tenths, excluded, k)
  in
  QCheck2.Test.make
    ~name:"strategy: branch and bound = naive scan on tie-heavy tables"
    ~count:300
    ~print:(fun (radices, tenths, excluded, k) ->
      Printf.sprintf "radices=[%s] tenths=[%s] excluded=[%s] k=%d"
        (String.concat ";" (List.map string_of_int radices))
        (String.concat ";" (List.map string_of_int tenths))
        (String.concat ";" (List.map string_of_int excluded))
        k)
    gen
    (fun (radices, tenths, excluded, k) ->
      let space =
        Param.Space.make
          (List.mapi
             (fun p r ->
               Param.Spec.ordinal_ints (Printf.sprintf "p%d" p) (List.init r (fun j -> j + 1)))
             radices)
      in
      let encoded = Hiperbot.Surrogate.Pool.of_space space in
      let obs = Array.init 4 (fun i -> (Hiperbot.Surrogate.Pool.config encoded i, float_of_int i)) in
      let surrogate = Hiperbot.Surrogate.fit space obs in
      let compiled = Hiperbot.Surrogate.compile surrogate encoded in
      let table = Hiperbot.Surrogate.Compiled.table compiled in
      List.iteri (fun j t -> Bigarray.Array1.set table j (0.1 *. float_of_int t)) tenths;
      let exclusion = Hiperbot.Strategy.Exclusion.create () in
      List.iter (Hiperbot.Strategy.Exclusion.add exclusion) excluded;
      let selected =
        Hiperbot.Strategy.rank ~compiled ~k ~surrogate ~encoded ~excluded:exclusion ()
      in
      let naive =
        List.map (Hiperbot.Surrogate.Pool.config encoded)
          (Gen.top_k ~k
             ~n:(Hiperbot.Surrogate.Pool.length encoded)
             ~skip:(Hiperbot.Strategy.Exclusion.mem exclusion)
             (Hiperbot.Surrogate.Compiled.log_ratio compiled))
      in
      same_configs naive selected)

(* One ranking call over a 10^7-row virtual pool with 200 evaluated
   rows must not allocate anything proportional to the pool: the
   exclusion set is built from the evaluated side and the scan keeps
   its prefix sums in a preallocated float array. *)
let test_rank_allocation_bounded () =
  let space =
    Param.Space.make
      (List.init 7 (fun p ->
           Param.Spec.ordinal_ints (Printf.sprintf "p%d" p) (List.init 10 (fun j -> j + 1))))
  in
  let encoded = Hiperbot.Surrogate.Pool.of_space space in
  check Alcotest.int "pool size" 10_000_000 (Hiperbot.Surrogate.Pool.length encoded);
  let rng = Prng.Rng.create 5 in
  let obs =
    Array.init 200 (fun _ ->
        let c = Param.Space.random_config space rng in
        (c, Gen.hash_objective c))
  in
  let evaluated = Param.Config.Table.create 256 in
  Array.iter (fun (c, _) -> Param.Config.Table.replace evaluated c ()) obs;
  let engine = Hiperbot.Surrogate.Refit.create encoded in
  let surrogate, compiled = Hiperbot.Surrogate.Refit.update engine obs in
  let select () =
    Hiperbot.Strategy.select_many_encoded ~compiled ~k:1 ~rng ~surrogate ~encoded ~evaluated ()
  in
  ignore (select ());
  let before = Gc.allocated_bytes () in
  let selected = select () in
  let allocated = Gc.allocated_bytes () -. before in
  check Alcotest.int "one configuration selected" 1 (List.length selected);
  check Alcotest.bool "selection is unevaluated" false
    (Param.Config.Table.mem evaluated (List.hd selected));
  if allocated >= 1e6 then
    Alcotest.failf "one ranking call allocated %.0f bytes (limit 1 MB)" allocated

(* ---- initialization early-exit ---- *)

(* When the warm start already covers every candidate, phase 1 must
   exit without consuming a single rng draw (no redraw spinning), and
   the run reports an error since nothing was evaluated. *)
let test_init_exits_early_when_pool_covered () =
  let space =
    Param.Space.make
      [ Param.Spec.categorical "c" [ "a"; "b"; "x" ]; Param.Spec.ordinal_ints "o" [ 1; 2; 3; 4 ] ]
  in
  let pool = Param.Space.enumerate space in
  let warm_start = Array.map (fun c -> (c, Gen.hash_objective c)) pool in
  let rng = Prng.Rng.create 77 in
  let objective ~attempt:_ _ = Alcotest.fail "no evaluation should run" in
  (match
     Hiperbot.Tuner.run_async ~warm_start ~rng ~space ~objective ~budget:5 ()
   with
  | Stdlib.Error e -> check Alcotest.int "no attempts made" 0 e.Hiperbot.Tuner.error_attempts
  | Stdlib.Ok _ -> Alcotest.fail "fully warm-started run cannot evaluate anything");
  let fresh = Prng.Rng.create 77 in
  check Alcotest.int "rng stream untouched by the covered-pool exit" (Prng.Rng.int fresh 1000000)
    (Prng.Rng.int rng 1000000)

let suite =
  ( "compiled",
    [
      Alcotest.test_case "all-equal scores select pool order" `Quick
        test_all_equal_scores_select_pool_order;
      Alcotest.test_case "density floor unified across paths" `Quick test_density_floor_unified;
      Alcotest.test_case "covered pool exits init without rng draws" `Quick
        test_init_exits_early_when_pool_covered;
      Alcotest.test_case "virtual pool = materialized pool" `Quick
        test_virtual_pool_matches_materialized;
      Alcotest.test_case "ranking a 10^7 pool allocates under 1 MB" `Quick
        test_rank_allocation_bounded;
      QCheck_alcotest.to_alcotest prop_branch_and_bound_exact;
      QCheck_alcotest.to_alcotest prop_compiled_matches_naive;
      QCheck_alcotest.to_alcotest prop_stream_topk_matches_reference;
      QCheck_alcotest.to_alcotest prop_incremental_refit_matches_full;
    ] )
