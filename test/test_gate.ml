(* Safeguarded-transfer gate tests: the trust state machine (EMA,
   hysteresis, drop latch, pooled fallback), the init-anchored rank
   agreement, option validation, the transparency guarantees (inert
   gate = ungated run, bit-for-bit), gate-state resume parity with
   divergence detection, async determinism, and the headline
   containment property — a harmful prior is dropped within a bounded
   number of refits and the campaign recovers no-prior recall. *)

let check = Alcotest.check
let table name = (Hpcsim.Registry.find name).Hpcsim.Registry.table ()

let source_rows ?(n = 400) ?(seed = 42) t =
  let rng = Prng.Rng.create seed in
  Array.init n (fun _ ->
      let i = Prng.Rng.int rng (Dataset.Table.size t) in
      (Dataset.Table.config t i, Dataset.Table.objective t i))

(* A prior whose good region is the target's bad region: fit on the
   target's own rows with the objective negated. Its score ranks
   anchors in exactly the wrong order, so its agreement clips to 0. *)
let adversarial_source space obs =
  ignore space;
  Array.map (fun (c, y) -> (c, -.y)) obs

let default_gate = Hiperbot.Gate.default_options

(* ---- options validation ---- *)

let test_options_validation () =
  List.iter
    (fun (label, options) ->
      Alcotest.check_raises label (Invalid_argument (Printf.sprintf "Gate: %s" label)) (fun () ->
          ignore (Hiperbot.Gate.create ~options ~n_sources:1)))
    [
      ("threshold must be in (0, 1)", { default_gate with Hiperbot.Gate.threshold = 0. });
      ("threshold must be in (0, 1)", { default_gate with Hiperbot.Gate.threshold = 1. });
      ("threshold must be in (0, 1)", { default_gate with Hiperbot.Gate.threshold = Float.nan });
      ("hysteresis must be at least 1", { default_gate with Hiperbot.Gate.hysteresis = 0 });
      ("smoothing must be in (0, 1]", { default_gate with Hiperbot.Gate.smoothing = 0. });
      ("smoothing must be in (0, 1]", { default_gate with Hiperbot.Gate.smoothing = 1.5 });
      ("min_obs must be at least 1", { default_gate with Hiperbot.Gate.min_obs = 0 });
    ];
  Alcotest.check_raises "no sources" (Invalid_argument "Gate.create: n_sources must be at least 1")
    (fun () -> ignore (Hiperbot.Gate.create ~options:default_gate ~n_sources:0));
  (* prior_of re-validates so a bad gate cannot ride into a campaign. *)
  let src = source_rows (table "kripke_src") ~n:30 in
  let space = Dataset.Table.space (table "kripke_src") in
  let surrogate = Hiperbot.Surrogate.fit space src in
  Alcotest.check_raises "prior_of validates gate options"
    (Invalid_argument "Gate: threshold must be in (0, 1)") (fun () ->
      ignore
        (Hiperbot.Tuner.prior_of
           ~gate:{ default_gate with Hiperbot.Gate.threshold = 2. }
           [ (surrogate, 1.) ]))

(* ---- rank agreement on the anchor set ---- *)

let test_agreement () =
  let trgt = table "kripke_trgt" in
  let space = Dataset.Table.space trgt in
  let obs = source_rows trgt ~n:60 ~seed:5 in
  let anchor = source_rows trgt ~n:20 ~seed:6 in
  let helpful = Hiperbot.Surrogate.fit space obs in
  let harmful = Hiperbot.Surrogate.fit space (adversarial_source space obs) in
  let a_helpful = Hiperbot.Gate.agreement helpful anchor in
  let a_harmful = Hiperbot.Gate.agreement harmful anchor in
  check Alcotest.bool
    (Printf.sprintf "self-prior agreement is high (got %.3f)" a_helpful)
    true (a_helpful > 0.5);
  check Alcotest.bool
    (Printf.sprintf "anti-correlated prior agreement clips to 0 (got %.3f)" a_harmful)
    true (a_harmful = 0.);
  check (Alcotest.float 0.) "fewer than two anchors: agreement 0" 0.
    (Hiperbot.Gate.agreement helpful [| anchor.(0) |]);
  check Alcotest.bool "agreement bounded in [0, 1]" true (a_helpful <= 1. && a_helpful >= 0.)

(* ---- the trust state machine, driven directly ---- *)

let test_state_machine () =
  let trgt = table "kripke_trgt" in
  let space = Dataset.Table.space trgt in
  let obs = source_rows trgt ~n:60 ~seed:7 in
  let anchor = source_rows trgt ~n:20 ~seed:8 in
  let harmful = Hiperbot.Surrogate.fit space (adversarial_source space obs) in
  let options =
    { Hiperbot.Gate.threshold = 0.7; hysteresis = 2; smoothing = 0.5; min_obs = 10 }
  in
  let t = Hiperbot.Gate.create ~options ~n_sources:1 in
  let priors = [ (harmful, 2.0) ] in
  (* Below min_obs, or with a tiny anchor, the gate is inert: priors
     pass through physically unchanged and no ordinal is consumed. *)
  let inert = Hiperbot.Gate.apply t ~anchor ~n_obs:9 priors in
  check Alcotest.bool "below min_obs: priors pass through unchanged" true
    (inert.Hiperbot.Gate.step_priors == priors);
  let tiny = Hiperbot.Gate.apply t ~anchor:(Array.sub anchor 0 3) ~n_obs:50 priors in
  check Alcotest.bool "tiny anchor: priors pass through unchanged" true
    (tiny.Hiperbot.Gate.step_priors == priors);
  check Alcotest.int "no updates consumed while inert" 0 (Hiperbot.Gate.n_updates t);
  (* Update 1: agreement 0, trust 1 -> 0.5, below threshold once:
     attenuated, weight scaled by trust/threshold. *)
  let s1 = Hiperbot.Gate.apply t ~anchor ~n_obs:10 priors in
  (match s1.Hiperbot.Gate.step_decisions with
  | [ d ] ->
      check Alcotest.bool "first transition is attenuate" true
        (d.Hiperbot.Gate.d_action = Hiperbot.Gate.Attenuate);
      check Alcotest.int "attenuate at refit 0" 0 d.Hiperbot.Gate.d_refit
  | l -> Alcotest.fail (Printf.sprintf "expected one decision, got %d" (List.length l)));
  (match s1.Hiperbot.Gate.step_priors with
  | [ (_, w) ] ->
      check (Alcotest.float 1e-12) "attenuated weight = w * trust/threshold" (2.0 *. (0.5 /. 0.7)) w
  | _ -> Alcotest.fail "attenuated prior must survive this refit");
  check (Alcotest.float 1e-12) "trust after one zero-agreement update" 0.5
    (Hiperbot.Gate.trust t 0);
  (* Update 2: trust 0.25, second consecutive miss: hysteresis
     exhausted, hard drop, pooled fallback (last decision). *)
  let s2 = Hiperbot.Gate.apply t ~anchor ~n_obs:11 priors in
  check Alcotest.bool "dropped source yields no surviving priors" true
    (s2.Hiperbot.Gate.step_priors = []);
  check Alcotest.bool "all sources dropped" true (Hiperbot.Gate.all_dropped t);
  (match s2.Hiperbot.Gate.step_decisions with
  | [ drop; fb ] ->
      check Alcotest.bool "drop decision" true (drop.Hiperbot.Gate.d_action = Hiperbot.Gate.Drop);
      check Alcotest.bool "fallback is last" true
        (fb.Hiperbot.Gate.d_action = Hiperbot.Gate.Fallback);
      check Alcotest.int "fallback carries the pooled source index" (-1)
        fb.Hiperbot.Gate.d_source
  | l -> Alcotest.fail (Printf.sprintf "expected drop+fallback, got %d decisions" (List.length l)));
  (* Dropped sources stay silent forever. *)
  let s3 = Hiperbot.Gate.apply t ~anchor ~n_obs:12 priors in
  check Alcotest.bool "dropped source emits nothing further" true
    (s3.Hiperbot.Gate.step_decisions = [] && s3.Hiperbot.Gate.step_snapshots = [])

let test_restore_path () =
  (* hysteresis 3 leaves room to recover: drive trust below threshold
     with a harmful prior once, then hand the gate a helpful prior
     (the state machine only sees agreements, so swapping the prior
     models a source whose agreement recovers). *)
  let trgt = table "kripke_trgt" in
  let space = Dataset.Table.space trgt in
  let obs = source_rows trgt ~n:60 ~seed:9 in
  let anchor = source_rows trgt ~n:20 ~seed:10 in
  let helpful = Hiperbot.Surrogate.fit space obs in
  let harmful = Hiperbot.Surrogate.fit space (adversarial_source space obs) in
  let options =
    { Hiperbot.Gate.threshold = 0.7; hysteresis = 3; smoothing = 1.0; min_obs = 1 }
  in
  let t = Hiperbot.Gate.create ~options ~n_sources:1 in
  let s1 = Hiperbot.Gate.apply t ~anchor ~n_obs:10 [ (harmful, 1.) ] in
  check Alcotest.int "one attenuate decision" 1 (List.length s1.Hiperbot.Gate.step_decisions);
  let s2 = Hiperbot.Gate.apply t ~anchor ~n_obs:11 [ (helpful, 1.) ] in
  (match s2.Hiperbot.Gate.step_decisions with
  | [ d ] ->
      check Alcotest.bool "recovery emits restore" true
        (d.Hiperbot.Gate.d_action = Hiperbot.Gate.Restore)
  | l -> Alcotest.fail (Printf.sprintf "expected restore, got %d decisions" (List.length l)));
  (match s2.Hiperbot.Gate.step_priors with
  | [ (_, w) ] -> check (Alcotest.float 0.) "restored source keeps its exact weight" 1. w
  | _ -> Alcotest.fail "restored prior must survive");
  check Alcotest.bool "not dropped after recovery" false (Hiperbot.Gate.dropped t 0)

(* ---- transparency: inert and disabled gates are the ungated run ---- *)

let test_gate_transparency () =
  let trgt = table "kripke_trgt" in
  let space = Dataset.Table.space trgt in
  let source = source_rows (table "kripke_src") ~n:200 in
  let objective = Dataset.Table.objective_fn trgt in
  let options = { Hiperbot.Tuner.default_options with n_init = 8 } in
  let budget = 30 and seed = 13 in
  let run gate =
    Gen.ok
      (Hiperbot.Tuner.run_async
         ~options:(Hiperbot.Transfer.options ~options ~gate ~space [ (source, 1.) ])
         ~rng:(Prng.Rng.create seed) ~space ~objective:(Gen.total objective) ~budget ())
  in
  let ungated = run None in
  let inert = run (Some { default_gate with Hiperbot.Gate.min_obs = max_int }) in
  check Alcotest.bool "min_obs = max_int gate reproduces the ungated run bit-for-bit" true
    (Gen.results_identical ungated inert);
  (* The kripke self-pair prior is helpful: the default gate never
     fires, and "never fires" must mean physically identical too. *)
  let gated = run (Some default_gate) in
  check Alcotest.bool "never-triggered default gate reproduces the ungated run bit-for-bit" true
    (Gen.results_identical ungated gated)

(* ---- the containment property, QCheck-randomized ---- *)

let prop_harmful_prior_dropped =
  let gen =
    let open QCheck2.Gen in
    let* space = Gen.space_gen ~max_params:2 ~allow_continuous:false () in
    let* obs = Gen.observations_gen ~min_n:30 ~max_n:60 space in
    let+ seed = Gen.seed_gen in
    (space, obs, seed)
  in
  QCheck2.Test.make
    ~name:"gate: anti-correlated prior is dropped within hysteresis+1 trust updates" ~count:25
    ~print:(fun (space, obs, seed) ->
      Printf.sprintf "%s obs=%d seed=%d" (Gen.space_to_string space) (Array.length obs) seed)
    gen
    (fun (space, obs, seed) ->
      (* A near-degenerate space cannot supply enough distinct
         observations to ever reach min_obs with a usable anchor. *)
      QCheck2.assume
        (match Param.Space.cardinality space with Some n -> n >= 16 | None -> true);
      (* The prior is fitted on this target's own observations with
         the objective negated: its agreement with any anchor drawn
         from the same objective clips to 0, so with smoothing 0.5 and
         threshold 0.7 trust falls 1 -> 0.5 -> 0.25 and the drop lands
         on the second update, hysteresis permitting. *)
      let source =
        Array.map (fun (c, _) -> (c, -.(Gen.hash_objective c))) obs
      in
      let options = { Hiperbot.Tuner.default_options with n_init = 6 } in
      let gate = Some { default_gate with Hiperbot.Gate.min_obs = 6 } in
      let dropped = ref None in
      let fallback = ref false in
      let result =
        Gen.ok
          (Hiperbot.Tuner.run_async
             ~options:(Hiperbot.Transfer.options ~options ~gate ~space [ (source, 1.) ])
             ~on_gate:(fun g ->
               if g.Dataset.Runlog.g_action = "drop" && !dropped = None then
                 dropped := Some g.Dataset.Runlog.g_refit;
               if g.Dataset.Runlog.g_action = "fallback" then fallback := true)
             ~rng:(Prng.Rng.create seed) ~space ~objective:(Gen.total Gen.hash_objective)
             ~budget:16 ())
      in
      let bounded =
        match !dropped with
        | Some refit -> refit <= default_gate.Hiperbot.Gate.hysteresis
        | None -> false
      in
      bounded && !fallback && Float.is_finite result.Hiperbot.Tuner.best_value)

(* ---- the headline: hypre containment at full budget ---- *)

let test_hypre_containment () =
  let trgt = table "hypre_trgt" in
  let space = Dataset.Table.space trgt in
  let source = source_rows (table "hypre_src") ~n:(Dataset.Table.size (table "hypre_src")) in
  let objective = Dataset.Table.objective_fn trgt in
  let budget = (Dataset.Table.size trgt / 100) + 100 in
  let good = Metrics.Recall.percentile_good_set trgt 0.10 in
  let dropped = ref false in
  let run ?options ?on_gate () =
    Gen.ok
      (Hiperbot.Tuner.run_async ?options ?on_gate ~rng:(Prng.Rng.create 100) ~space
         ~objective:(Gen.total objective) ~budget ())
  in
  let gated =
    run
      ~options:(Hiperbot.Transfer.options ~space [ (source, 1.) ])
      ~on_gate:(fun g -> if g.Dataset.Runlog.g_action = "drop" then dropped := true)
      ()
  in
  let noprior = run () in
  let rg = Metrics.Recall.recall good gated.Hiperbot.Tuner.history in
  let rn = Metrics.Recall.recall good noprior.Hiperbot.Tuner.history in
  check Alcotest.bool "harmful hypre prior is dropped" true !dropped;
  check Alcotest.bool
    (Printf.sprintf "gated recall %.3f within noise of no-prior %.3f" rg rn)
    true
    (rg >= rn -. 0.01)

(* ---- resume parity: gate state survives interrupt bit-for-bit ---- *)

let gated_faulty_campaign () =
  let trgt = table "hypre_trgt" in
  let space = Dataset.Table.space trgt in
  let spec = Hpcsim.Faults.standard ~seed:41 ~rate:0.1 in
  let objective = Hpcsim.Faults.inject spec (Dataset.Table.objective_fn trgt) in
  (* A deliberately harmful source so the gate actually fires inside
     the tested window. *)
  let rows = source_rows trgt ~n:300 ~seed:17 in
  let sources = [ (adversarial_source space rows, 1.5) ] in
  (space, objective, sources)

let gate_small = Some { default_gate with Hiperbot.Gate.min_obs = 10 }

let gated_options ?(gate = gate_small) ~space sources =
  Hiperbot.Transfer.options
    ~options:{ Hiperbot.Tuner.default_options with n_init = 8 }
    ~gate ~space sources

let test_gate_resume_parity () =
  let space, objective, sources = gated_faulty_campaign () in
  let options = gated_options ~space sources in
  let budget = 30 and interrupt_after = 12 and seed = 21 in
  let recorded = ref [] in
  let gates = ref [] in
  let full =
    match
      Hiperbot.Tuner.run_async ~options ~policy:Gen.policy3
        ~on_outcome:(fun i c v -> recorded := (i, c, v) :: !recorded)
        ~on_gate:(fun g -> gates := g :: !gates)
        ~rng:(Prng.Rng.create seed) ~space ~objective ~budget ()
    with
    | Stdlib.Ok r -> r
    | Stdlib.Error _ -> Alcotest.fail "uninterrupted gated campaign failed outright"
  in
  check Alcotest.bool "the gate fired during the campaign" true (!gates <> []);
  let entries =
    List.rev !recorded
    |> List.filteri (fun i _ -> i < interrupt_after)
    |> List.map (fun (i, c, v) -> Hiperbot.Campaign.entry_of_verdict i c v)
  in
  let log =
    Dataset.Runlog.create ~gates:(List.rev !gates) ~name:"hypre_trgt" ~seed ~space entries
  in
  let new_gates = ref 0 in
  let resumed =
    match
      Hiperbot.Tuner.resume_async ~options ~policy:Gen.policy3
        ~on_gate:(fun _ -> incr new_gates)
        ~log ~objective ~budget ()
    with
    | Stdlib.Ok r -> r
    | Stdlib.Error _ -> Alcotest.fail "resumed gated campaign failed outright"
  in
  check Alcotest.bool "gated resume reproduces the uninterrupted run bit-for-bit" true
    (Gen.results_identical full resumed);
  check Alcotest.int "recorded gate decisions replay silently, none re-emitted" 0 !new_gates;
  (* A tampered trust value must be caught, not silently accepted. *)
  let tampered =
    match List.rev !gates with
    | g :: rest ->
        Dataset.Runlog.create
          ~gates:({ g with Dataset.Runlog.g_trust = g.Dataset.Runlog.g_trust +. 1. } :: rest)
          ~name:"hypre_trgt" ~seed ~space entries
    | [] -> Alcotest.fail "expected at least one gate decision"
  in
  Alcotest.check_raises "diverging recorded gate decision rejected"
    (Failure
       "Campaign.of_log: recorded gate decisions diverge from the recomputed ones (were the gate \
        options or sources changed?)") (fun () ->
      ignore
        (Hiperbot.Tuner.resume_async ~options ~policy:Gen.policy3 ~log:tampered ~objective
           ~budget ()));
  (* Gating disabled recomputes no decisions at all, so the lazy
     prefix check would never see the contradiction — it must be
     rejected eagerly at resume time. *)
  Alcotest.check_raises "resume with gating disabled rejects a gated log"
    (Failure
       "Campaign.of_log: the run log records gate decisions but this campaign has gating disabled \
        (restore the original prior and gate options, or start fresh without --resume)")
    (fun () ->
      ignore
        (Hiperbot.Tuner.resume_async
           ~options:(gated_options ~gate:None ~space sources)
           ~policy:Gen.policy3 ~log ~objective ~budget ()))

(* ---- async: k=1 parity and k>1 determinism, gate active ---- *)

let same_gates a b =
  List.length a = List.length b
  && List.for_all2 (fun a b -> Dataset.Runlog.equal (Gate a) (Gate b)) a b

let test_gate_async () =
  let space, objective, sources = gated_faulty_campaign () in
  let options = gated_options ~space sources in
  let budget = 30 and seed = 23 in
  let unwrap label = function
    | Stdlib.Ok r -> r
    | Stdlib.Error _ -> Alcotest.fail (label ^ " failed outright")
  in
  let gates_of k =
    let gates = ref [] in
    let r =
      unwrap "run_async"
        (Hiperbot.Tuner.run_async ~options ~policy:Gen.policy3
           ~on_gate:(fun g -> gates := g :: !gates)
           ~k ~rng:(Prng.Rng.create seed) ~space ~objective ~budget ())
    in
    (r, List.rev !gates)
  in
  (* The k=1 reference is the independent step driver, so the check
     covers Tuner's driver from outside. *)
  let sync_gates = ref [] in
  let sync =
    unwrap "step-driven sync"
      (Gen.drive_sync
         (Hiperbot.Campaign.create ~options
            ~on_gate:(fun g -> sync_gates := g :: !sync_gates)
            ~mode:(Hiperbot.Campaign.Async 1) ~rng:(Prng.Rng.create seed) ~space ~budget ())
         (Resilience.Evaluator.evaluate ~policy:Gen.policy3 ~objective))
  in
  let async1, gates1 = gates_of 1 in
  check Alcotest.bool "gated async k=1 = sync, bit-for-bit" true
    (Gen.results_identical sync async1);
  check Alcotest.bool "gated async k=1 = sync gate decisions" true
    (same_gates (List.rev !sync_gates) gates1);
  check Alcotest.bool "gate fired under async" true (gates1 <> []);
  let async3a, gates3a = gates_of 3 in
  let async3b, gates3b = gates_of 3 in
  check Alcotest.bool "gated async k=3 is deterministic across runs" true
    (Gen.results_identical async3a async3b);
  check Alcotest.bool "gate decision stream deterministic at k=3" true
    (same_gates gates3a gates3b)

let suite =
  let tc = Alcotest.test_case in
  ( "gate",
    [
      tc "options validation" `Quick test_options_validation;
      tc "anchor rank agreement" `Quick test_agreement;
      tc "trust state machine" `Quick test_state_machine;
      tc "restore path" `Quick test_restore_path;
      tc "transparency: inert/disabled gate" `Quick test_gate_transparency;
      QCheck_alcotest.to_alcotest prop_harmful_prior_dropped;
      tc "hypre containment at full budget" `Slow test_hypre_containment;
      tc "resume parity and divergence detection" `Slow test_gate_resume_parity;
      tc "async k=1 parity and k>1 determinism" `Slow test_gate_async;
    ] )
