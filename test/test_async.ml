(* Tests for the asynchronous campaign engine: the k=1 degradation to
   the synchronous resilient tuner (bit-for-bit, property-tested over
   random spaces/seeds/fault plans and over the simulator datasets),
   permutation-equality of async and sync histories under arbitrary
   completion orders, the budget bound for every in-flight depth,
   run-to-run determinism, and interrupt-then-resume at every k. *)

let check = Alcotest.check

let table name = (Hpcsim.Registry.find name).Hpcsim.Registry.table ()

(* Every completed configuration with its outcome, as a sorted list of
   strings — the order-insensitive view used by the permutation
   property. *)
let completion_multiset space outcome =
  let items =
    match outcome with
    | Stdlib.Ok (r : Hiperbot.Tuner.result) ->
        Array.to_list
          (Array.map
             (fun (c, y) -> Printf.sprintf "%s=%h" (Param.Space.to_string space c) y)
             r.Hiperbot.Tuner.history)
        @ Array.to_list
            (Array.map
               (fun (c, o) ->
                 Printf.sprintf "%s!%s" (Param.Space.to_string space c)
                   (Resilience.Outcome.kind o))
               r.Hiperbot.Tuner.failures)
    | Stdlib.Error (e : Hiperbot.Tuner.run_error) ->
        Array.to_list
          (Array.map
             (fun (c, o) ->
               Printf.sprintf "%s!%s" (Param.Space.to_string space c)
                 (Resilience.Outcome.kind o))
             e.Hiperbot.Tuner.error_failures)
  in
  List.sort compare items

let completion_count outcome =
  match outcome with
  | Stdlib.Ok (r : Hiperbot.Tuner.result) ->
      Array.length r.Hiperbot.Tuner.history + Array.length r.Hiperbot.Tuner.failures
  | Stdlib.Error (e : Hiperbot.Tuner.run_error) ->
      Array.length e.Hiperbot.Tuner.error_failures

(* ---- property: k=1 degrades exactly to the synchronous loop ----

   The reference is [Gen.drive_sync], the independent step driver that
   evaluates and reports each suggestion in turn, so the property
   checks [Tuner]'s driver from outside rather than against itself.
   The coarse objective (four distinct values) makes non-improving
   completions common, so the early-stop counter actually reaches its
   patience; the warm start gives guided selection observations before
   any completion lands. [stopped_early] is compared on top of
   [Gen.results_identical], which skips it. *)

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

let k1_gen =
  let open QCheck2.Gen in
  let* ((space, _, _, _, _) as campaign) = campaign_gen in
  let* early_stop = opt (int_range 1 6) in
  let+ warm_start = opt (Gen.observations_gen ~min_n:1 ~max_n:5 space) in
  (campaign, early_stop, warm_start)

let print_k1 (((space, _, _, _, _) as campaign), early_stop, warm_start) =
  Printf.sprintf "%s early_stop=%s warm=%s" (print_campaign campaign)
    (match early_stop with Some e -> string_of_int e | None -> "none")
    (match warm_start with
    | Some w ->
        String.concat ";"
          (Array.to_list
             (Array.map (fun (c, y) -> Printf.sprintf "%s=%g" (Gen.config_to_string space c) y) w))
    | None -> "none")

let coarse_objective c = float_of_int ((Param.Config.hash c land 0x3) + 1)

let stopped_early_identical a b =
  match (a, b) with
  | Stdlib.Ok a, Stdlib.Ok b -> a.Hiperbot.Tuner.stopped_early = b.Hiperbot.Tuner.stopped_early
  | _ -> true

let prop_k1_bit_identical =
  QCheck2.Test.make ~name:"async: k=1 = run_with_policy over random spaces/seeds/faults"
    ~count:60 ~print:print_k1 k1_gen
    (fun ((space, faults, seed, n_init, budget), early_stop, warm_start) ->
      let objective = Hpcsim.Faults.inject faults coarse_objective in
      let options = { Hiperbot.Tuner.default_options with n_init; early_stop } in
      let sync =
        Gen.drive_sync
          (Hiperbot.Campaign.create ~options ?warm_start ~mode:(Hiperbot.Campaign.Async 1)
             ~rng:(Prng.Rng.create seed) ~space ~budget ())
          (Resilience.Evaluator.evaluate ~policy:Gen.policy3 ~objective)
      in
      let asynchronous =
        Hiperbot.Tuner.run_async ~options ~policy:Gen.policy3 ?warm_start ~k:1
          ~rng:(Prng.Rng.create seed) ~space ~objective ~budget ()
      in
      Gen.run_outcomes_identical sync asynchronous && stopped_early_identical sync asynchronous)

(* ---- property: async history is a permutation of the sync one ----

   During pure random initialization the submission stream depends
   only on the rng, never on completions, so whatever completion order
   a duration function induces, the async engine evaluates exactly the
   configurations the synchronous engine would — in some order. The
   precondition (no guided step ran in the sync run) is what makes the
   claim exact; guided steps legitimately diverge because pending
   penalties change selection. *)
let prop_permutation_equal =
  let gen =
    let open QCheck2.Gen in
    let* space = Gen.space_gen ~max_params:3 ~allow_continuous:false () in
    let* faults = Gen.fault_spec_gen in
    let* seed = Gen.seed_gen in
    let* k = int_range 1 6 in
    let* dur_salt = int_range 0 1_000_000 in
    let+ budget = int_range 1 10 in
    (space, faults, seed, k, dur_salt, budget)
  in
  QCheck2.Test.make
    ~name:"async: history permutation-equal to sync under any completion order" ~count:60
    ~print:(fun (space, faults, seed, k, dur_salt, budget) ->
      Printf.sprintf "%s %s seed=%d k=%d dur_salt=%d budget=%d" (Gen.space_to_string space)
        (Gen.fault_spec_to_string faults) seed k dur_salt budget)
    gen
    (fun (space, faults, seed, k, dur_salt, budget) ->
      let objective = Hpcsim.Faults.inject faults Gen.hash_objective in
      (* n_init >= budget: the whole campaign is random initialization
         unless duplicate draws push it into the guided phase. *)
      let options = { Hiperbot.Tuner.default_options with n_init = budget } in
      (* An arbitrary deterministic completion-order scrambler. *)
      let duration c _ = float_of_int (1 + ((Param.Config.hash c lxor dur_salt) land 0xFF)) in
      let sync =
        Hiperbot.Tuner.run_async ~options ~policy:Gen.policy3
          ~rng:(Prng.Rng.create seed) ~space ~objective ~budget ()
      in
      let no_guided_step =
        match sync with
        | Stdlib.Ok r -> r.Hiperbot.Tuner.final_surrogate = None
        | Stdlib.Error _ -> true
      in
      QCheck2.assume no_guided_step;
      let asynchronous =
        Hiperbot.Tuner.run_async ~options ~policy:Gen.policy3 ~duration ~k
          ~rng:(Prng.Rng.create seed) ~space ~objective ~budget ()
      in
      completion_multiset space sync = completion_multiset space asynchronous)

(* ---- property: budget bound for every in-flight depth ---- *)

let prop_budget_never_exceeded =
  let gen =
    let open QCheck2.Gen in
    let* (space, faults, seed, n_init, budget) = campaign_gen in
    let+ k = int_range 1 (budget + 5) in
    (space, faults, seed, n_init, budget, k)
  in
  QCheck2.Test.make ~name:"async: budget never exceeded, no config resubmitted" ~count:60
    ~print:(fun (space, faults, seed, n_init, budget, k) ->
      Printf.sprintf "%s k=%d %s" (print_campaign (space, faults, seed, n_init, budget)) k
        (Gen.fault_spec_to_string faults))
    gen
    (fun (space, faults, seed, n_init, budget, k) ->
      let objective = Hpcsim.Faults.inject faults Gen.hash_objective in
      let options = { Hiperbot.Tuner.default_options with n_init } in
      let outcome =
        Hiperbot.Tuner.run_async ~options ~policy:Gen.policy3 ~k
          ~rng:(Prng.Rng.create seed) ~space ~objective ~budget ()
      in
      let n = completion_count outcome in
      let distinct =
        (* no configuration may be submitted twice *)
        let configs =
          match outcome with
          | Stdlib.Ok r ->
              Array.to_list (Array.map fst r.Hiperbot.Tuner.history)
              @ Array.to_list (Array.map fst r.Hiperbot.Tuner.failures)
          | Stdlib.Error e -> Array.to_list (Array.map fst e.Hiperbot.Tuner.error_failures)
        in
        List.length (List.sort_uniq Param.Config.compare configs) = List.length configs
      in
      let full_budget_when_possible =
        match (outcome, Param.Space.cardinality space) with
        | Stdlib.Ok _, Some card when card >= budget -> n = budget
        | _ -> true
      in
      n <= budget && distinct && full_budget_when_possible)

(* ---- k=1 equivalence over the simulator datasets ---- *)

(* Over 2 datasets x 2 seeds, a faulty async campaign at k=1 retraces
   the independent synchronous step driver bit-for-bit, and at k>1 the
   engine is deterministic (same seed => same history). *)
let check_dataset_k1 ~dataset ~seed =
  let t = table dataset in
  let space = Dataset.Table.space t in
  let spec = Hpcsim.Faults.standard ~seed:(seed * 131 + 7) ~rate:0.15 in
  let objective = Hpcsim.Faults.inject spec (Dataset.Table.objective_fn t) in
  let options = { Hiperbot.Tuner.default_options with n_init = 8 } in
  let budget = 24 in
  let sync =
    Gen.drive_sync
      (Hiperbot.Campaign.create ~options ~mode:(Hiperbot.Campaign.Async 1)
         ~rng:(Prng.Rng.create seed) ~space ~budget ())
      (Resilience.Evaluator.evaluate ~policy:Gen.policy3 ~objective)
  in
  let asynchronous =
    Hiperbot.Tuner.run_async ~options ~policy:Gen.policy3 ~k:1 ~rng:(Prng.Rng.create seed)
      ~space ~objective ~budget ()
  in
  check Alcotest.bool
    (Printf.sprintf "%s seed %d: async k=1 = step-driven sync" dataset seed)
    true
    (Gen.run_outcomes_identical sync asynchronous);
  List.iter
    (fun k ->
      let run () =
        Hiperbot.Tuner.run_async ~options ~policy:Gen.policy3 ~k ~rng:(Prng.Rng.create seed)
          ~space ~objective ~budget ()
      in
      check Alcotest.bool
        (Printf.sprintf "%s seed %d k=%d: two runs agree" dataset seed k)
        true
        (Gen.run_outcomes_identical (run ()) (run ())))
    [ 2; 4 ]

let test_dataset_k1_equivalence () =
  List.iter
    (fun dataset -> List.iter (fun seed -> check_dataset_k1 ~dataset ~seed) [ 3; 14 ])
    [ "kripke"; "hypre" ]

(* ---- async interrupt-then-resume ---- *)

let test_async_resume_determinism () =
  let t = table "kripke" in
  let space = Dataset.Table.space t in
  let spec = Hpcsim.Faults.standard ~seed:101 ~rate:0.15 in
  let objective = Hpcsim.Faults.inject spec (Dataset.Table.objective_fn t) in
  let options = { Hiperbot.Tuner.default_options with n_init = 8 } in
  let budget = 24 and interrupt_after = 10 and k = 3 and seed = 6 in
  let recorded = ref [] in
  let full =
    match
      Hiperbot.Tuner.run_async ~options ~policy:Gen.policy3 ~k
        ~on_outcome:(fun i c v -> recorded := (i, c, v) :: !recorded)
        ~rng:(Prng.Rng.create seed) ~space ~objective ~budget ()
    with
    | Stdlib.Ok r -> r
    | Stdlib.Error _ -> Alcotest.fail "uninterrupted async campaign failed outright"
  in
  check Alcotest.int "one on_outcome per budget unit" budget (List.length !recorded);
  let entries =
    List.rev !recorded
    |> List.filteri (fun i _ -> i < interrupt_after)
    |> List.map (fun (i, c, v) -> Hiperbot.Campaign.entry_of_verdict i c v)
  in
  let log = Dataset.Runlog.create ~name:"kripke" ~seed ~space entries in
  let resumed =
    match
      Hiperbot.Tuner.resume_async ~options ~policy:Gen.policy3 ~k ~log ~objective ~budget ()
    with
    | Stdlib.Ok r -> r
    | Stdlib.Error _ -> Alcotest.fail "resumed async campaign failed outright"
  in
  check Alcotest.bool "async resume reproduces the uninterrupted run bit-for-bit" true
    (Gen.results_identical full resumed);
  (* Resuming with a different k must be detected, not absorbed: the
     recorded completion order cannot match. *)
  match
    Hiperbot.Tuner.resume_async ~options ~policy:Gen.policy3 ~k:1 ~log ~objective ~budget ()
  with
  | _ -> Alcotest.fail "resume with a different k must be rejected"
  | exception Failure _ -> ()

(* ---- property: async resume from every cut = uninterrupted run ----

   Salted durations scramble the completion order, so a cut log holds
   completions of slots submitted long before the cut and leaves other
   slots in flight. With a source, the campaign carries a gated prior
   that disagrees with the target (negated objective) under a gate
   eager enough to act within the small budgets, so the cut logs hold
   gate decisions the resume must verify rather than re-emit. *)

(* Spaces of 9..125 configurations: roomy enough that most campaigns
   reach the guided phase and refit often enough for the gate to act. *)
let roomy_space_gen =
  let open QCheck2.Gen in
  let spec i =
    let* n = int_range 3 5 in
    let+ categorical = bool in
    if categorical then
      Param.Spec.categorical (Printf.sprintf "c%d" i)
        (List.init n (fun j -> String.make 1 (Char.chr (Char.code 'a' + j))))
    else Param.Spec.ordinal_ints (Printf.sprintf "o%d" i) (List.init n (fun j -> 1 lsl j))
  in
  let* n = int_range 2 3 in
  let+ specs = flatten_l (List.init n spec) in
  Param.Space.make specs

let resume_every_cut_gen =
  let open QCheck2.Gen in
  let* space = roomy_space_gen in
  let* faults = Gen.fault_spec_gen in
  let* seed = Gen.seed_gen in
  let* k = oneofl [ 1; 2; 4 ] in
  let* n_init = int_range 1 6 in
  let* dur_salt = int_range 0 1_000_000 in
  let* budget = int_range 4 16 in
  let+ source = opt (Gen.observations_gen ~min_n:4 ~max_n:12 space) in
  (space, faults, seed, k, n_init, dur_salt, budget, source)

let print_resume_every_cut (space, faults, seed, k, n_init, dur_salt, budget, source) =
  Printf.sprintf "%s %s seed=%d k=%d n_init=%d dur_salt=%d budget=%d source=%s"
    (Gen.space_to_string space) (Gen.fault_spec_to_string faults) seed k n_init dur_salt budget
    (match source with Some o -> string_of_int (Array.length o) | None -> "none")

let prop_resume_every_cut =
  QCheck2.Test.make ~name:"async: resume_async from every cut = uninterrupted run" ~count:100
    ~print:print_resume_every_cut resume_every_cut_gen
    (fun (space, faults, seed, k, n_init, dur_salt, budget, source) ->
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
      let duration = Gen.salted_duration dur_salt in
      let recorded = ref [] and gates = ref [] in
      let full =
        Hiperbot.Tuner.run_async ~options ~policy:Gen.policy3 ~duration ~k
          ~on_outcome:(fun i c v -> recorded := (i, c, v) :: !recorded)
          ~on_gate:(fun g -> gates := (List.length !recorded, g) :: !gates)
          ~rng:(Prng.Rng.create seed) ~space ~objective ~budget ()
      in
      let recorded = List.rev !recorded and gates = List.rev !gates in
      let gate_equal a b = Dataset.Runlog.equal (Gate a) (Gate b) in
      (* Each cut log keeps the gate decisions a writer had flushed by
         then; the resume must re-emit exactly the later ones. *)
      let resumed_at cut =
        let entries =
          List.filteri (fun i _ -> i < cut) recorded
          |> List.map (fun (i, c, v) -> Hiperbot.Campaign.entry_of_verdict i c v)
        in
        let flushed, later = List.partition (fun (n, _) -> n <= cut) gates in
        let log =
          Dataset.Runlog.create ~gates:(List.map snd flushed) ~name:"cut" ~seed ~space entries
        in
        let new_gates = ref [] in
        let resumed =
          Hiperbot.Tuner.resume_async ~options ~policy:Gen.policy3 ~duration ~k
            ~on_gate:(fun g -> new_gates := g :: !new_gates)
            ~log ~objective ~budget ()
        in
        Gen.run_outcomes_identical full resumed
        && List.equal gate_equal (List.rev !new_gates) (List.map snd later)
      in
      List.for_all resumed_at (List.init (List.length recorded + 1) Fun.id))

(* Two ways a cut log can disagree with the simulated clock, each of
   which must fail loudly instead of continuing a different campaign:
   recorded completions out of clock order (the first two entries,
   both in flight from the start, swapped), and a slot in flight at
   the cut whose objective changed so that it now completes before
   the last logged entry. *)
let test_async_resume_clock_divergence () =
  let t = table "kripke" in
  let space = Dataset.Table.space t in
  let objective ~attempt:_ c = Resilience.Outcome.Value (Dataset.Table.objective_fn t c) in
  let options = { Hiperbot.Tuner.default_options with n_init = 8 } in
  let budget = 24 and cut = 10 and k = 4 and seed = 6 in
  let recorded = ref [] in
  let full =
    Gen.ok
      (Hiperbot.Tuner.run_async ~options ~k
         ~on_outcome:(fun i c v -> recorded := (i, c, v) :: !recorded)
         ~rng:(Prng.Rng.create seed) ~space ~objective ~budget ())
  in
  let entries =
    List.rev !recorded
    |> List.filteri (fun i _ -> i < cut)
    |> List.map (fun (i, c, v) -> Hiperbot.Campaign.entry_of_verdict i c v)
  in
  let log = Dataset.Runlog.create ~name:"kripke" ~seed ~space entries in
  let in_flight =
    Hiperbot.Campaign.pending
      (Hiperbot.Campaign.of_log ~options ~mode:(Hiperbot.Campaign.Async k) ~log ~budget ())
  in
  check Alcotest.int "k-1 slots in flight at the cut" (k - 1) (List.length in_flight);
  check Alcotest.bool "the unchanged objective resumes bit-for-bit" true
    (Gen.results_identical full
       (Gen.ok (Hiperbot.Tuner.resume_async ~options ~k ~log ~objective ~budget ())));
  let swapped =
    match entries with
    | e0 :: e1 :: rest ->
        Dataset.Runlog.create ~name:"kripke" ~seed ~space
          ({ e1 with Dataset.Runlog.index = 0 } :: { e0 with Dataset.Runlog.index = 1 } :: rest)
    | _ -> Alcotest.fail "expected at least two entries"
  in
  (match Hiperbot.Tuner.resume_async ~options ~k ~log:swapped ~objective ~budget () with
  | _ -> Alcotest.fail "recorded completions out of clock order must be rejected"
  | exception Failure _ -> ());
  (* The default duration is the measured value, so a near-zero value
     makes the slot complete right after its submission. *)
  let target = (List.hd in_flight).Hiperbot.Campaign.config in
  let changed ~attempt c =
    if Param.Config.equal c target then Resilience.Outcome.Value 1e-9 else objective ~attempt c
  in
  match Hiperbot.Tuner.resume_async ~options ~k ~log ~objective:changed ~budget () with
  | _ -> Alcotest.fail "an in-flight slot completing before the logged prefix must be rejected"
  | exception Failure _ -> ()

(* ---- async telemetry structure ---- *)

let test_async_trace_structure () =
  let t = table "kripke" in
  let space = Dataset.Table.space t in
  let objective ~attempt:_ c = Resilience.Outcome.Value (Dataset.Table.objective_fn t c) in
  let options = { Hiperbot.Tuner.default_options with n_init = 6 } in
  let budget = 18 and k = 4 in
  let sink, collected = Telemetry.Trace.memory_sink () in
  let telemetry = Telemetry.Trace.make [ sink ] in
  (match
     Hiperbot.Tuner.run_async ~telemetry ~options ~k ~rng:(Prng.Rng.create 11) ~space
       ~objective ~budget ()
   with
  | Stdlib.Ok _ -> ()
  | Stdlib.Error _ -> Alcotest.fail "campaign failed outright");
  let events = List.map snd (collected ()) in
  let count pred = List.length (List.filter pred events) in
  let submits = count (function Telemetry.Event.Submit _ -> true | _ -> false) in
  let completes = count (function Telemetry.Event.Complete _ -> true | _ -> false) in
  let evals = count (function Telemetry.Event.Eval _ -> true | _ -> false) in
  check Alcotest.int "one submit per budget unit" budget submits;
  check Alcotest.int "one complete per budget unit" budget completes;
  check Alcotest.int "one eval per budget unit" budget evals;
  let max_depth =
    List.fold_left
      (fun acc ev ->
        match ev with
        | Telemetry.Event.Submit { in_flight; _ } -> max acc in_flight
        | _ -> acc)
      0 events
  in
  check Alcotest.bool "in-flight depth reaches k" true (max_depth = k);
  let sim_times =
    List.filter_map
      (function Telemetry.Event.Complete { sim_time; _ } -> Some sim_time | _ -> None)
      events
  in
  check Alcotest.bool "completion sim-times are monotone" true
    (List.for_all2 ( <= )
       (List.filteri (fun i _ -> i < List.length sim_times - 1) sim_times)
       (List.tl sim_times));
  (* The summary aggregator sees the same structure. *)
  let summary = Telemetry.Summary.create () in
  List.iter (fun (ts, ev) -> Telemetry.Summary.observe summary ~ts ev) (collected ());
  check Alcotest.int "summary submits" budget (Telemetry.Summary.submits summary);
  check Alcotest.int "summary max in-flight" k (Telemetry.Summary.max_in_flight summary);
  check Alcotest.bool "summary makespan recorded" true
    (Telemetry.Summary.sim_makespan summary <> None);
  check Alcotest.bool "render mentions the async line" true
    (let r = Telemetry.Summary.render summary in
     let rec contains i =
       i + 5 <= String.length r && (String.sub r i 5 = "async" || contains (i + 1))
     in
     contains 0)

(* ---- early stop counts completions, not refit rounds ---- *)

let test_async_early_stop () =
  (* A constant objective never improves after the first success, so
     with early_stop = e the campaign performs exactly e guided
     completions after init — for every in-flight depth. *)
  let space = Gen.wide_space in
  let objective ~attempt:_ _ = Resilience.Outcome.Value 5.0 in
  List.iter
    (fun k ->
      let options =
        { Hiperbot.Tuner.default_options with n_init = 3; early_stop = Some 4 }
      in
      match
        Hiperbot.Tuner.run_async ~options ~k ~rng:(Prng.Rng.create 2) ~space ~objective
          ~budget:50 ()
      with
      | Stdlib.Ok r ->
          check Alcotest.bool (Printf.sprintf "k=%d: stopped early" k) true
            r.Hiperbot.Tuner.stopped_early;
          (* In-flight guided evaluations at the moment the counter
             trips still complete, so the history may overshoot by up
             to k-1. *)
          let n = Array.length r.Hiperbot.Tuner.history in
          check Alcotest.bool
            (Printf.sprintf "k=%d: stops within k-1 of the sync stopping point (got %d)" k n)
            true
            (n >= 3 + 4 && n <= 3 + 4 + (k - 1))
      | Stdlib.Error _ -> Alcotest.fail "constant campaign cannot fail")
    [ 1; 2; 4; 8 ]

let suite =
  let tc = Alcotest.test_case in
  ( "async",
    [
      tc "dataset k=1 equivalence + k>1 determinism (2 datasets x 2 seeds)" `Slow
        test_dataset_k1_equivalence;
      tc "async resume determinism" `Slow test_async_resume_determinism;
      tc "async resume: a log the clock cannot produce fails" `Quick
        test_async_resume_clock_divergence;
      tc "async trace structure" `Quick test_async_trace_structure;
      tc "async early stop counts completions" `Quick test_async_early_stop;
      QCheck_alcotest.to_alcotest prop_k1_bit_identical;
      QCheck_alcotest.to_alcotest prop_permutation_equal;
      QCheck_alcotest.to_alcotest prop_budget_never_exceeded;
      QCheck_alcotest.to_alcotest prop_resume_every_cut;
    ] )
