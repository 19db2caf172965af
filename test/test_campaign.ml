(* Conformance tests for the reentrant {!Campaign} state machine: a
   hand-written step driver must replay both blocking engines
   bit-for-bit over random spaces/seeds/fault plans, interrupt/resume
   through [of_log] must land on the uninterrupted result from any cut
   point, out-of-order and duplicate reports must be rejected without
   corrupting the campaign, and the state the refactor made explicit
   (caller arrays, interleaved and pool-sharing campaigns) must be
   isolated per machine. *)

let check = Alcotest.check
let policy3 = Gen.policy3

(* ---- property: step-driven k=1 machine = run_with_policy ---- *)

let campaign_gen =
  let open QCheck2.Gen in
  let* space = Gen.space_gen ~max_params:3 ~allow_continuous:false () in
  let* faults = Gen.fault_spec_gen in
  let* seed = Gen.seed_gen in
  let* n_init = int_range 1 6 in
  let+ budget = int_range 1 16 in
  (space, faults, seed, n_init, budget)

let print_campaign (space, faults, seed, n_init, budget) =
  Printf.sprintf "%s %s seed=%d n_init=%d budget=%d" (Gen.space_to_string space)
    (Gen.fault_spec_to_string faults) seed n_init budget

let prop_sync_conformance =
  QCheck2.Test.make ~name:"campaign: step driver = run_with_policy bit-for-bit" ~count:60
    ~print:print_campaign campaign_gen
    (fun (space, faults, seed, n_init, budget) ->
      let objective = Hpcsim.Faults.inject faults Gen.hash_objective in
      let options = { Hiperbot.Tuner.default_options with n_init } in
      let engine =
        Hiperbot.Tuner.run_with_policy ~options ~policy:policy3 ~rng:(Prng.Rng.create seed)
          ~space ~objective ~budget ()
      in
      let campaign =
        Hiperbot.Campaign.create ~options ~mode:(Hiperbot.Campaign.Async 1)
          ~rng:(Prng.Rng.create seed) ~space ~budget ()
      in
      let stepped =
        Gen.drive_sync campaign (Resilience.Evaluator.evaluate ~policy:policy3 ~objective)
      in
      Gen.run_outcomes_identical engine stepped)

(* ---- property: step-driven Async machine = run_async, k in {1,4},
   under scrambled completion orders ---- *)

let async_gen =
  let open QCheck2.Gen in
  let* space = Gen.space_gen ~max_params:3 ~allow_continuous:false () in
  let* faults = Gen.fault_spec_gen in
  let* seed = Gen.seed_gen in
  let* n_init = int_range 1 6 in
  let* dur_salt = int_range 0 1_000_000 in
  let+ budget = int_range 1 16 in
  (space, faults, seed, n_init, dur_salt, budget)

let print_async (space, faults, seed, n_init, dur_salt, budget) =
  Printf.sprintf "%s %s seed=%d n_init=%d dur_salt=%d budget=%d" (Gen.space_to_string space)
    (Gen.fault_spec_to_string faults) seed n_init dur_salt budget

let prop_async_conformance k =
  QCheck2.Test.make
    ~name:(Printf.sprintf "campaign: step driver = run_async (k=%d) bit-for-bit" k)
    ~count:40 ~print:print_async async_gen
    (fun (space, faults, seed, n_init, dur_salt, budget) ->
      let objective = Hpcsim.Faults.inject faults Gen.hash_objective in
      let options = { Hiperbot.Tuner.default_options with n_init } in
      let duration = Gen.salted_duration dur_salt in
      let engine =
        Hiperbot.Tuner.run_async ~options ~policy:policy3 ~duration ~k
          ~rng:(Prng.Rng.create seed) ~space ~objective ~budget ()
      in
      let campaign =
        Hiperbot.Campaign.create ~options ~mode:(Hiperbot.Campaign.Async k)
          ~rng:(Prng.Rng.create seed) ~space ~budget ()
      in
      let stepped =
        Gen.drive_async campaign
          ~eval:(Resilience.Evaluator.evaluate ~policy:policy3 ~objective)
          ~duration
      in
      Gen.run_outcomes_identical engine stepped)

(* ---- property: of_log resume from any cut point lands on the
   uninterrupted result ---- *)

let resume_gen =
  let open QCheck2.Gen in
  let* space = Gen.space_gen ~max_params:3 ~allow_continuous:false () in
  let* faults = Gen.fault_spec_gen in
  let* seed = Gen.seed_gen in
  let* n_init = int_range 1 6 in
  let* budget = int_range 1 16 in
  let+ source = opt (Gen.observations_gen ~min_n:4 ~max_n:12 space) in
  (space, faults, seed, n_init, budget, source)

(* With a source, the campaign carries a gated transfer prior that
   disagrees with the target (negated objective) under a gate eager
   enough to act within the small budgets: the cut logs then hold
   gate decisions that resume must verify rather than re-emit. *)
let prop_resume_any_cut =
  QCheck2.Test.make
    ~name:"campaign: of_log resume from any cut point = uninterrupted run" ~count:60
    ~print:(fun (space, faults, seed, n_init, budget, source) ->
      Printf.sprintf "%s %s seed=%d n_init=%d budget=%d source=%s" (Gen.space_to_string space)
        (Gen.fault_spec_to_string faults) seed n_init budget
        (match source with Some o -> string_of_int (Array.length o) | None -> "none"))
    resume_gen
    (fun (space, faults, seed, n_init, budget, source) ->
      let objective = Hpcsim.Faults.inject faults Gen.hash_objective in
      let options = { Hiperbot.Tuner.default_options with n_init } in
      let options =
        match source with
        | None -> options
        | Some obs ->
            Hiperbot.Transfer.options ~options
              ~gate:(Some { Hiperbot.Gate.default_options with Hiperbot.Gate.min_obs = 2 })
              ~space
              [ (Array.map (fun (c, _) -> (c, -.Gen.hash_objective c)) obs, 1.) ]
      in
      let recorded = ref [] and gates = ref [] in
      let full =
        Hiperbot.Tuner.run_async ~options ~policy:policy3
          ~on_outcome:(fun i c v -> recorded := (i, c, v) :: !recorded)
          ~on_gate:(fun g -> gates := (List.length !recorded, g) :: !gates)
          ~rng:(Prng.Rng.create seed) ~space ~objective ~budget ()
      in
      let recorded = List.rev !recorded and gates = List.rev !gates in
      (* Cut at every point in [0, completed] — including the empty log
         and the already-finished one. Each log keeps the gate
         decisions a writer had flushed by then. *)
      let resumed_at cut =
        let entries =
          List.filteri (fun i _ -> i < cut) recorded
          |> List.map (fun (i, c, v) -> Hiperbot.Campaign.entry_of_verdict i c v)
        in
        let cut_gates =
          List.filter_map (fun (n, g) -> if n <= cut then Some g else None) gates
        in
        let log = Dataset.Runlog.create ~gates:cut_gates ~name:"cut" ~seed ~space entries in
        let campaign =
          Hiperbot.Campaign.of_log ~options ~policy:policy3 ~mode:(Hiperbot.Campaign.Async 1) ~log
            ~budget ()
        in
        let resumed =
          if Hiperbot.Campaign.is_finished campaign then Hiperbot.Campaign.result campaign
          else Gen.drive_sync campaign (Resilience.Evaluator.evaluate ~policy:policy3 ~objective)
        in
        let new_gates = ref 0 in
        let tuner_resumed =
          Hiperbot.Tuner.resume_async ~options ~policy:policy3
            ~on_gate:(fun _ -> incr new_gates)
            ~log ~objective ~budget ()
        in
        Gen.run_outcomes_identical full resumed
        && Gen.run_outcomes_identical full tuner_resumed
        && !new_gates = List.length gates - List.length cut_gates
      in
      List.for_all resumed_at (List.init (List.length recorded + 1) Fun.id))

(* ---- property: the exclusion set tracks the seen set ---- *)

(* Guided ranking skips the pool rows in the campaign's exclusion set,
   which is kept incrementally. At every step it must hold exactly the
   rows of every configuration warm-started or issued so far. *)
let rows_of space configs =
  let pool = Hiperbot.Surrogate.Pool.of_space space in
  List.sort_uniq Int.compare (List.concat_map (Hiperbot.Surrogate.Pool.indices_of pool) configs)

let ok_verdict c =
  {
    Resilience.Evaluator.outcome = Resilience.Outcome.Value (Gen.hash_objective c);
    attempts = 1;
    retry_cost = 0.;
  }

(* Drive to completion, reporting the newest outstanding suggestion
   first, and check the exclusion set after every transition. [seen]
   starts as what the campaign has seen before driving begins. *)
let drive_checking_exclusion campaign ~space ~seen =
  let seen = ref seen and ok = ref true in
  let check_now () =
    if Hiperbot.Campaign.excluded campaign <> rows_of space !seen then ok := false
  in
  check_now ();
  let rec loop outstanding =
    match Hiperbot.Campaign.suggest campaign with
    | Hiperbot.Campaign.Suggest s ->
        seen := s.Hiperbot.Campaign.config :: !seen;
        check_now ();
        loop (s :: outstanding)
    | Hiperbot.Campaign.Wait | Hiperbot.Campaign.Finished -> (
        match outstanding with
        | [] -> ()
        | s :: rest ->
            Hiperbot.Campaign.report campaign ~id:s.Hiperbot.Campaign.id
              (ok_verdict s.Hiperbot.Campaign.config);
            check_now ();
            loop rest)
  in
  loop (Hiperbot.Campaign.pending campaign);
  !ok

let exclusion_gen =
  let open QCheck2.Gen in
  let* space = Gen.space_gen ~max_params:3 ~allow_continuous:false () in
  let* seed = Gen.seed_gen in
  let* n_init = int_range 1 6 in
  let* budget = int_range 1 16 in
  let* async = bool in
  let+ warm = Gen.configs_gen ~min_n:0 ~max_n:3 space in
  (space, seed, n_init, budget, async, warm)

(* k=1 and k=4, with and without a warm start; then the
   recorded run is cut at every point and rebuilt with [of_log], whose
   exclusion set must hold the warm start, the replayed prefix and the
   refilled in-flight slots, and keep tracking the resumed run. *)
let prop_exclusion_tracks_seen =
  QCheck2.Test.make
    ~name:"campaign: exclusion set = rows of every issued or warm-started config, resume included"
    ~count:40
    ~print:(fun (space, seed, n_init, budget, async, warm) ->
      Printf.sprintf "%s seed=%d n_init=%d budget=%d async=%b warm=%d"
        (Gen.space_to_string space) seed n_init budget async (Array.length warm))
    exclusion_gen
    (fun (space, seed, n_init, budget, async, warm) ->
      let options = { Hiperbot.Tuner.default_options with n_init } in
      let warm_start = Array.map (fun c -> (c, Gen.hash_objective c)) warm in
      let mode = Hiperbot.Campaign.Async (if async then 4 else 1) in
      let recorded = ref [] in
      let campaign =
        Hiperbot.Campaign.create ~options ~warm_start
          ~on_outcome:(fun i c v -> recorded := (i, c, v) :: !recorded)
          ~mode ~rng:(Prng.Rng.create seed) ~space ~budget ()
      in
      let live = drive_checking_exclusion campaign ~space ~seen:(Array.to_list warm) in
      let recorded = List.rev !recorded in
      let entries =
        List.map
          (fun (i, c, v) -> Hiperbot.Campaign.entry_of_verdict i c v)
          recorded
      in
      let resumed_at cut =
        let prefix = List.filteri (fun i _ -> i < cut) entries in
        let log = Dataset.Runlog.create ~name:"cut" ~seed ~space prefix in
        let campaign =
          Hiperbot.Campaign.of_log ~options ~warm_start ~mode ~log ~budget ()
        in
        let seen =
          Array.to_list warm
          @ List.map (fun e -> e.Dataset.Runlog.config) prefix
          @ List.map (fun s -> s.Hiperbot.Campaign.config) (Hiperbot.Campaign.pending campaign)
        in
        drive_checking_exclusion campaign ~space ~seen
      in
      live && List.for_all resumed_at (List.init (List.length entries + 1) Fun.id))

(* ---- invalid options are refused before the first evaluation ---- *)

let test_create_rejects_bad_options () =
  let bad =
    let d = Hiperbot.Tuner.default_options in
    let alpha a = { d with surrogate = { d.surrogate with Hiperbot.Surrogate.alpha = a } } in
    [
      ("n_init 0", { d with n_init = 0 }, "n_init must be at least 1");
      ("early_stop 0", { d with early_stop = Some 0 }, "early_stop must be at least 1");
      ("alpha 0", alpha 0., "alpha outside (0, 1)");
      ("alpha 1", alpha 1., "alpha outside (0, 1)");
      ("alpha 1.5", alpha 1.5, "alpha outside (0, 1)");
      ("alpha nan", alpha Float.nan, "alpha outside (0, 1)");
      ( "proposal 0",
        { d with strategy = Hiperbot.Strategy.Proposal { n_candidates = 0 } },
        "Proposal n_candidates must be at least 1" );
    ]
  in
  List.iter
    (fun (label, options, msg) ->
      Alcotest.check_raises label (Invalid_argument ("Campaign.create: " ^ msg)) (fun () ->
          ignore
            (Hiperbot.Campaign.create ~options ~mode:(Hiperbot.Campaign.Async 1)
               ~rng:(Prng.Rng.create 1) ~space:Gen.cat_ord_space ~budget:8 ()));
      (* The drivers refuse the same options before calling the
         objective even once. *)
      let called = ref false in
      Alcotest.check_raises (label ^ " (driver)") (Invalid_argument ("Campaign.create: " ^ msg))
        (fun () ->
          ignore
            (Hiperbot.Tuner.run_async ~options ~rng:(Prng.Rng.create 1)
               ~space:Gen.cat_ord_space
               ~objective:(fun ~attempt:_ _ ->
                 called := true;
                 Resilience.Outcome.Value 1.)
               ~budget:8 ()));
      check Alcotest.bool (label ^ ": objective never called") false !called)
    bad

(* ---- report rejection: duplicates, unknown ids, finished ---- *)

let rejects f =
  match f () with exception Invalid_argument _ -> true | _ -> false

let test_report_rejection () =
  let campaign =
    Hiperbot.Campaign.create ~mode:(Hiperbot.Campaign.Async 1) ~rng:(Prng.Rng.create 7)
      ~space:Gen.cat_ord_space ~budget:2 ()
  in
  let ok y = { Resilience.Evaluator.outcome = Resilience.Outcome.Value y; attempts = 1; retry_cost = 0. } in
  check Alcotest.bool "report before any suggestion rejected" true
    (rejects (fun () -> Hiperbot.Campaign.report campaign ~id:0 (ok 1.)));
  let s =
    match Hiperbot.Campaign.suggest campaign with
    | Hiperbot.Campaign.Suggest s -> s
    | _ -> Alcotest.fail "expected a suggestion"
  in
  check Alcotest.bool "unknown id rejected" true
    (rejects (fun () -> Hiperbot.Campaign.report campaign ~id:99 (ok 1.)));
  Hiperbot.Campaign.report campaign ~id:s.Hiperbot.Campaign.id (ok 1.);
  check Alcotest.bool "duplicate report rejected" true
    (rejects (fun () -> Hiperbot.Campaign.report campaign ~id:s.Hiperbot.Campaign.id (ok 1.)));
  check Alcotest.int "rejections did not corrupt the count" 1
    (Hiperbot.Campaign.n_evaluated campaign);
  (* Drain the budget, then reports on the finished campaign. *)
  let rec drain () =
    match Hiperbot.Campaign.suggest campaign with
    | Hiperbot.Campaign.Suggest s ->
        Hiperbot.Campaign.report campaign ~id:s.Hiperbot.Campaign.id (ok 2.);
        drain ()
    | Hiperbot.Campaign.Wait -> Alcotest.fail "unexpected Wait"
    | Hiperbot.Campaign.Finished -> ()
  in
  drain ();
  check Alcotest.bool "finished campaign rejects reports" true
    (rejects (fun () -> Hiperbot.Campaign.report campaign ~id:0 (ok 1.)));
  check Alcotest.bool "result is available" true
    (match Hiperbot.Campaign.result campaign with Stdlib.Ok _ -> true | _ -> false)

(* Async out-of-order: reporting any currently-pending id is legal
   (that is the point of the async engine); ids that were never
   issued, or already reported, are not. *)
let test_async_out_of_order () =
  let campaign =
    Hiperbot.Campaign.create
      ~options:{ Hiperbot.Tuner.default_options with n_init = 4 }
      ~mode:(Hiperbot.Campaign.Async 3) ~rng:(Prng.Rng.create 11) ~space:Gen.wide_space
      ~budget:6 ()
  in
  let ok y = { Resilience.Evaluator.outcome = Resilience.Outcome.Value y; attempts = 1; retry_cost = 0. } in
  let rec take acc =
    if List.length acc >= 3 then List.rev acc
    else
      match Hiperbot.Campaign.suggest campaign with
      | Hiperbot.Campaign.Suggest s -> take (s :: acc)
      | _ -> Alcotest.fail "expected 3 suggestions in flight"
  in
  let sugs = take [] in
  check Alcotest.int "three pending" 3 (Hiperbot.Campaign.n_pending campaign);
  (* Report the newest first: out of submission order, but pending. *)
  let newest = List.nth sugs 2 in
  Hiperbot.Campaign.report campaign ~id:newest.Hiperbot.Campaign.id (ok 5.);
  check Alcotest.bool "already-reported id rejected" true
    (rejects (fun () ->
         Hiperbot.Campaign.report campaign ~id:newest.Hiperbot.Campaign.id (ok 5.)));
  check Alcotest.bool "never-issued id rejected" true
    (rejects (fun () -> Hiperbot.Campaign.report campaign ~id:42 (ok 5.)));
  check Alcotest.int "pending shrank by exactly one" 2
    (Hiperbot.Campaign.n_pending campaign)

(* ---- regression: caller arrays are copied at create time ----

   The step API holds campaign inputs across turns, so [create] must
   defend against callers mutating the arrays they passed in — the
   recursive engines consumed them within one call and never noticed
   the aliasing. *)
let test_warm_start_aliasing () =
  let space = Gen.wide_space in
  let objective = Gen.hash_objective in
  let ws () =
    [|
      (Param.Space.random_config space (Prng.Rng.create 3), 50.);
      (Param.Space.random_config space (Prng.Rng.create 4), 60.);
    |]
  in
  let options = { Hiperbot.Tuner.default_options with n_init = 2 } in
  let eval c =
    { Resilience.Evaluator.outcome = Resilience.Outcome.Value (objective c);
      attempts = 1; retry_cost = 0. }
  in
  let control =
    let campaign =
      Hiperbot.Campaign.create ~options ~warm_start:(ws ()) ~mode:(Hiperbot.Campaign.Async 1)
        ~rng:(Prng.Rng.create 5) ~space ~budget:8 ()
    in
    Gen.drive_sync campaign eval
  in
  let mutated =
    let arr = ws () in
    let campaign =
      Hiperbot.Campaign.create ~options ~warm_start:arr ~mode:(Hiperbot.Campaign.Async 1)
        ~rng:(Prng.Rng.create 5) ~space ~budget:8 ()
    in
    (* Clobber the caller's array mid-campaign: the machine must not
       see it. *)
    arr.(0) <- (fst arr.(0), Float.neg_infinity);
    arr.(1) <- (fst arr.(1), Float.nan);
    Gen.drive_sync campaign eval
  in
  check Alcotest.bool "mutating warm_start after create has no effect" true
    (Gen.run_outcomes_identical control mutated)

let test_candidates_aliasing () =
  let space = Gen.cat_ord_space in
  let objective = Gen.cat_ord_objective in
  let candidates () = Param.Space.enumerate space in
  let options = { Hiperbot.Tuner.default_options with n_init = 3 } in
  let eval c =
    { Resilience.Evaluator.outcome = Resilience.Outcome.Value (objective c);
      attempts = 1; retry_cost = 0. }
  in
  let control =
    let campaign =
      Hiperbot.Campaign.create ~options ~candidates:(candidates ())
        ~mode:(Hiperbot.Campaign.Async 1) ~rng:(Prng.Rng.create 9) ~space ~budget:8 ()
    in
    Gen.drive_sync campaign eval
  in
  let mutated =
    let arr = candidates () in
    let campaign =
      Hiperbot.Campaign.create ~options ~candidates:arr ~mode:(Hiperbot.Campaign.Async 1)
        ~rng:(Prng.Rng.create 9) ~space ~budget:8 ()
    in
    let swap = arr.(Array.length arr - 1) in
    Array.fill arr 0 (Array.length arr) swap;
    Gen.drive_sync campaign eval
  in
  check Alcotest.bool "mutating candidates after create has no effect" true
    (Gen.run_outcomes_identical control mutated)

(* ---- regression: interleaved campaigns = isolated campaigns ----

   All per-campaign state lives in the machine record; two machines
   advanced turn-about must behave exactly as if each ran alone. *)
let test_interleaved_campaigns () =
  let space = Gen.wide_space in
  let eval c =
    { Resilience.Evaluator.outcome = Resilience.Outcome.Value (Gen.hash_objective c);
      attempts = 1; retry_cost = 0. }
  in
  let options = { Hiperbot.Tuner.default_options with n_init = 3 } in
  let mk seed =
    Hiperbot.Campaign.create ~options ~mode:(Hiperbot.Campaign.Async 1)
      ~rng:(Prng.Rng.create seed) ~space ~budget:10 ()
  in
  let isolated seed = Gen.drive_sync (mk seed) eval in
  let iso1 = isolated 21 and iso2 = isolated 22 in
  let c1 = mk 21 and c2 = mk 22 in
  let step c =
    match Hiperbot.Campaign.suggest c with
    | Hiperbot.Campaign.Suggest s ->
        Hiperbot.Campaign.report c ~id:s.Hiperbot.Campaign.id
          (eval s.Hiperbot.Campaign.config);
        true
    | Hiperbot.Campaign.Wait -> Alcotest.fail "unexpected Wait"
    | Hiperbot.Campaign.Finished -> false
  in
  let live1 = ref true and live2 = ref true in
  while !live1 || !live2 do
    if !live1 then live1 := step c1;
    if !live2 then live2 := step c2
  done;
  check Alcotest.bool "interleaved campaign 1 = isolated" true
    (Gen.run_outcomes_identical iso1 (Hiperbot.Campaign.result c1));
  check Alcotest.bool "interleaved campaign 2 = isolated" true
    (Gen.run_outcomes_identical iso2 (Hiperbot.Campaign.result c2))

(* ---- shared encoded pool: concurrent campaigns on one pool =
   isolated campaigns with private pools ---- *)
let test_shared_pool_concurrent () =
  let space = Gen.wide_space in
  let eval c =
    { Resilience.Evaluator.outcome = Resilience.Outcome.Value (Gen.hash_objective c);
      attempts = 1; retry_cost = 0. }
  in
  let options = { Hiperbot.Tuner.default_options with n_init = 4 } in
  let run_shared pool seed =
    let campaign =
      Hiperbot.Campaign.create ~options ~shared_pool:pool ~mode:(Hiperbot.Campaign.Async 1)
        ~rng:(Prng.Rng.create seed) ~space ~budget:12 ()
    in
    Gen.drive_sync campaign eval
  in
  let isolated seed =
    let campaign =
      Hiperbot.Campaign.create ~options ~mode:(Hiperbot.Campaign.Async 1)
        ~rng:(Prng.Rng.create seed) ~space ~budget:12 ()
    in
    Gen.drive_sync campaign eval
  in
  let pool = Hiperbot.Surrogate.Pool.of_space space in
  let seeds = [| 31; 32; 33; 34 |] in
  let domains =
    Array.map (fun seed -> Domain.spawn (fun () -> run_shared pool seed)) seeds
  in
  let shared = Array.map Domain.join domains in
  Array.iteri
    (fun i seed ->
      check Alcotest.bool
        (Printf.sprintf "seed %d: shared-pool campaign = isolated campaign" seed)
        true
        (Gen.run_outcomes_identical (isolated seed) shared.(i)))
    seeds

let suite =
  ( "campaign",
    [
      Alcotest.test_case "create rejects bad options before evaluating" `Quick
        test_create_rejects_bad_options;
      Alcotest.test_case "report rejection (sync)" `Quick test_report_rejection;
      Alcotest.test_case "report rejection (async out-of-order)" `Quick
        test_async_out_of_order;
      Alcotest.test_case "warm_start array aliasing" `Quick test_warm_start_aliasing;
      Alcotest.test_case "candidates array aliasing" `Quick test_candidates_aliasing;
      Alcotest.test_case "interleaved campaigns are isolated" `Quick
        test_interleaved_campaigns;
      Alcotest.test_case "shared pool across domains" `Quick test_shared_pool_concurrent;
      QCheck_alcotest.to_alcotest prop_sync_conformance;
      QCheck_alcotest.to_alcotest (prop_async_conformance 1);
      QCheck_alcotest.to_alcotest (prop_async_conformance 4);
      QCheck_alcotest.to_alcotest prop_resume_any_cut;
      QCheck_alcotest.to_alcotest prop_exclusion_tracks_seen;
    ] )
