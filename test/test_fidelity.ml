(* Multi-fidelity successive-halving scheduler: plan validation, the
   degenerate single-rung delegation (bit-identical to run_async),
   promotion arithmetic, cost accounting, and the interrupt/resume
   bit-exactness guarantee with its loud-divergence checks. *)

open Hiperbot

(* Deterministic two-rung-correlated objective: the rung only scales
   the hash value, so low-rung rankings equal full-fidelity rankings
   (promotion decisions become predictable). *)
let scaled_objective ~rung config = Gen.hash_objective config *. (1. +. (0.01 *. float_of_int rung))

(* Perfectly-ranked objective over the 3 x 4 cat/ord space: the value
   is the configuration's enumeration rank, identical at every rung. *)
let rank_objective ~rung:_ (config : Param.Config.t) =
  float_of_int ((Param.Value.to_index config.(0) * 4) + Param.Value.to_index config.(1) + 1)

let two_rung_plan =
  {
    Fidelity.costs = [| 0.25; 1. |];
    eta = 3.;
    cohort = 9;
    brackets = 1;
    low_weight = 0.25;
    cost_budget = None;
  }

let three_rung_plan =
  {
    Fidelity.costs = [| 0.25; 0.5; 1. |];
    eta = 3.;
    cohort = 9;
    brackets = 2;
    low_weight = 0.25;
    cost_budget = None;
  }

let fid_result = function
  | Stdlib.Ok (r : Fidelity.result) -> r
  | Stdlib.Error _ -> Alcotest.fail "fidelity campaign unexpectedly failed"

let test_plan_validation () =
  let check msg plan =
    Alcotest.check_raises msg (Invalid_argument msg) (fun () ->
        Fidelity.validate_plan plan)
  in
  check "Fidelity.run: plan.costs must be non-empty" { two_rung_plan with costs = [||] };
  check "Fidelity.run: plan costs must be finite and positive"
    { two_rung_plan with costs = [| 0.; 1. |] };
  check "Fidelity.run: plan costs must be strictly increasing"
    { two_rung_plan with costs = [| 0.5; 0.5; 1. |] };
  check "Fidelity.run: the top rung's cost must be 1 (full fidelity)"
    { two_rung_plan with costs = [| 0.25; 0.5 |] };
  check "Fidelity.run: eta must be finite and greater than 1" { two_rung_plan with eta = 1. };
  check "Fidelity.run: cohort must be at least 1" { two_rung_plan with cohort = 0 };
  check "Fidelity.run: brackets must be at least 1" { two_rung_plan with brackets = 0 };
  check "Fidelity.run: low_weight must be finite and non-negative"
    { two_rung_plan with low_weight = -0.1 };
  check "Fidelity.run: cost_budget must be finite and positive"
    { two_rung_plan with cost_budget = Some 0. };
  Fidelity.validate_plan Fidelity.default_plan

(* A single-rung plan must reproduce run_async at the same k
   bit-for-bit: same rng stream, same submissions, same history. *)
let test_degenerate_matches_run_async () =
  List.iter
    (fun (seed, k) ->
      let plan = { Fidelity.default_plan with costs = [| 1. |] } in
      let fid =
        fid_result
          (Fidelity.run ~plan ~k ~rng:(Prng.Rng.create seed) ~space:Gen.wide_space
             ~objective:scaled_objective ~budget:25 ())
      in
      let asy =
        match
          Tuner.run_async ~k ~rng:(Prng.Rng.create seed) ~space:Gen.wide_space
            ~objective:(fun ~attempt:_ c ->
              Resilience.Outcome.Value (scaled_objective ~rung:0 c))
            ~budget:25 ()
        with
        | Stdlib.Ok r -> r
        | Stdlib.Error _ -> Alcotest.fail "async campaign cannot fail"
      in
      Alcotest.check Alcotest.bool
        (Printf.sprintf "seed=%d k=%d: degenerate plan is bit-identical to run_async" seed k)
        true
        (Gen.results_identical fid.Fidelity.run asy);
      Alcotest.check (Alcotest.array Alcotest.int) "one rung holds every evaluation"
        [| Array.length asy.Tuner.history |]
        fid.Fidelity.rung_evals;
      Alcotest.check (Alcotest.float 0.) "flat cost = evaluation count"
        (float_of_int (Array.length asy.Tuner.history))
        fid.Fidelity.total_cost;
      Alcotest.check Alcotest.int "no low-fidelity history" 0
        (Array.length fid.Fidelity.low_history))
    [ (11, 1); (11, 3); (42, 4) ]

let prop_degenerate_matches_async =
  QCheck2.Test.make ~name:"single-rung plan == run_async (any space, seed, k)" ~count:40
    ~print:(fun (space, seed, k, budget) ->
      Printf.sprintf "%s seed=%d k=%d budget=%d" (Gen.space_to_string space) seed k budget)
    (QCheck2.Gen.quad
       (Gen.space_gen ~allow_continuous:false ())
       Gen.seed_gen (QCheck2.Gen.int_range 1 4) (QCheck2.Gen.int_range 1 15))
    (fun (space, seed, k, budget) ->
      let plan = { Fidelity.default_plan with costs = [| 1. |] } in
      let fid =
        Fidelity.run ~plan ~k ~rng:(Prng.Rng.create seed) ~space ~objective:scaled_objective
          ~budget ()
      in
      let asy =
        Tuner.run_async ~k ~rng:(Prng.Rng.create seed) ~space
          ~objective:(fun ~attempt:_ c -> Resilience.Outcome.Value (scaled_objective ~rung:0 c))
          ~budget ()
      in
      match (fid, asy) with
      | Stdlib.Ok f, Stdlib.Ok a -> Gen.results_identical f.Fidelity.run a
      | _ -> false)

(* cohort 9 at eta 3 over the 12-configuration cat/ord space: rung 0
   evaluates the cohort, the closure keeps ceil(9/3) = 3, and with the
   rung-invariant rank objective the survivors are exactly the three
   best-ranked members of the cohort. *)
let test_promotion_math () =
  let rungs = ref [] in
  let res =
    fid_result
      (Fidelity.run ~plan:two_rung_plan ~k:3
         ~on_record:(function Rung r -> rungs := r :: !rungs | _ -> ())
         ~rng:(Prng.Rng.create 5) ~space:Gen.cat_ord_space ~objective:rank_objective ~budget:100
         ())
  in
  Alcotest.check (Alcotest.array Alcotest.int) "rung evaluation counts" [| 9; 3 |]
    res.Fidelity.rung_evals;
  Alcotest.check (Alcotest.array Alcotest.int) "promotions per rung" [| 3; 0 |]
    res.Fidelity.n_promoted;
  Alcotest.check (Alcotest.float 0.) "total cost" ((9. *. 0.25) +. 3.) res.Fidelity.total_cost;
  Alcotest.check Alcotest.int "full-fidelity history = survivors" 3
    (Array.length res.Fidelity.run.Tuner.history);
  (* The survivors are the 3 lowest-valued rung-0 results. *)
  let low = Array.map (fun (_, _, v) -> v) res.Fidelity.low_history in
  Array.sort compare low;
  let expected_best = Array.sub low 0 3 in
  let promoted =
    Array.map (fun (c, _) -> rank_objective ~rung:0 c) res.Fidelity.run.Tuner.history
  in
  Array.sort compare promoted;
  Alcotest.check (Alcotest.array (Alcotest.float 0.)) "survivors are the rung-0 top third"
    expected_best promoted;
  (match !rungs with
  | [ r ] ->
      Alcotest.check Alcotest.int "rung record: evaluated" 9 r.Dataset.Runlog.r_evaluated;
      Alcotest.check Alcotest.int "rung record: promoted" 3 r.Dataset.Runlog.r_promoted;
      Alcotest.check (Alcotest.float 0.) "rung record: best" expected_best.(0)
        r.Dataset.Runlog.r_best
  | rs -> Alcotest.failf "expected exactly one rung record, got %d" (List.length rs));
  Alcotest.check Alcotest.bool "best value came from the top rung" true
    (Float.equal res.Fidelity.run.Tuner.best_value
       (Array.fold_left
          (fun acc (_, v) -> Float.min acc v)
          Float.infinity res.Fidelity.run.Tuner.history))

(* The simulated cost budget latches no-more-submissions exactly when
   the next submission would overrun it. *)
let test_cost_budget () =
  (* 9 x 0.25 = 2.25, then one full evaluation reaches 3.25 <= 3.25;
     a second would reach 4.25 and is never submitted. *)
  let res =
    fid_result
      (Fidelity.run
         ~plan:{ two_rung_plan with cost_budget = Some 3.25 }
         ~k:4 ~rng:(Prng.Rng.create 5) ~space:Gen.cat_ord_space ~objective:rank_objective
         ~budget:100 ())
  in
  Alcotest.check Alcotest.int "one full-fidelity evaluation" 1
    (Array.length res.Fidelity.run.Tuner.history);
  Alcotest.check (Alcotest.float 0.) "cost stops at the cap" 3.25 res.Fidelity.total_cost;
  (* A cap below the cohort's own cost leaves rung 0 unclosed: no
     full-fidelity evaluation ever runs, which is the Error case. *)
  match
    Fidelity.run
      ~plan:{ two_rung_plan with cost_budget = Some 2. }
      ~k:4 ~rng:(Prng.Rng.create 5) ~space:Gen.cat_ord_space ~objective:rank_objective
      ~budget:100 ()
  with
  | Stdlib.Ok _ -> Alcotest.fail "expected Error: the cost budget admits no full evaluation"
  | Stdlib.Error e ->
      Alcotest.check Alcotest.int "low-rung evaluations still counted" 8
        e.Tuner.error_attempts;
      Alcotest.check Alcotest.int "no failures" 0 (Array.length e.Tuner.error_failures)

(* Two brackets over the 64-configuration space: bracket 1 seeds from
   the guided ranking (full-fidelity evidence + low-rung priors), and
   the configuration stream entering rung 0 never repeats. *)
let test_multi_bracket () =
  let res =
    fid_result
      (Fidelity.run ~plan:three_rung_plan ~k:3 ~rng:(Prng.Rng.create 7) ~space:Gen.wide_space
         ~objective:scaled_objective ~budget:200 ())
  in
  Alcotest.check Alcotest.int "brackets run" 2 res.Fidelity.n_brackets;
  Alcotest.check (Alcotest.array Alcotest.int) "rung evaluation counts" [| 18; 6; 2 |]
    res.Fidelity.rung_evals;
  Alcotest.check (Alcotest.array Alcotest.int) "promotions per rung" [| 6; 2; 0 |]
    res.Fidelity.n_promoted;
  Alcotest.check (Alcotest.float 1e-12) "total cost"
    ((18. *. 0.25) +. (6. *. 0.5) +. 2.)
    res.Fidelity.total_cost;
  Alcotest.check Alcotest.int "full-fidelity history" 2
    (Array.length res.Fidelity.run.Tuner.history);
  Alcotest.check Alcotest.int "n_attempts counts every rung" 26
    res.Fidelity.run.Tuner.n_attempts;
  (* Rung-0 entrants are globally deduplicated across brackets. *)
  let rung0 =
    Array.to_list res.Fidelity.low_history
    |> List.filter_map (fun (r, c, _) -> if r = 0 then Some c else None)
  in
  let table = Param.Config.Table.create 32 in
  List.iter (fun c -> Param.Config.Table.replace table c ()) rung0;
  Alcotest.check Alcotest.int "no rung-0 entrant repeats" (List.length rung0)
    (Param.Config.Table.length table);
  (* Low-rung evidence never leaks into the exact history. *)
  Array.iter
    (fun (c, v) ->
      Alcotest.check (Alcotest.float 0.) "history value is the full-fidelity measurement"
        (scaled_objective ~rung:2 c) v)
    res.Fidelity.run.Tuner.history

(* ---- interrupt / resume ---- *)

(* What a fidelity campaign persists, in emission order: entry rows
   and decision lines. *)
type recorded = E of Dataset.Runlog.entry | D of Dataset.Runlog.record

let record_run ?recorded_log ~plan ~k ~seed ~space ~objective ~budget () =
  let events = ref [] in
  let on_eval index config value =
    events :=
      E { Dataset.Runlog.index; config; status = Dataset.Runlog.Ok value; attempts = 1 }
      :: !events
  in
  let on_record r = events := D r :: !events in
  let res =
    match recorded_log with
    | None ->
        Fidelity.run ~on_eval ~on_record ~plan ~k ~rng:(Prng.Rng.create seed) ~space ~objective
          ~budget ()
    | Some log -> Fidelity.resume ~on_eval ~on_record ~plan ~k ~log ~objective ~budget ()
  in
  (fid_result res, List.rev !events)

let log_of_events ~seed ~space events =
  let entries = List.filter_map (function E e -> Some e | _ -> None) events in
  let fids = List.filter_map (function D (Fid f) -> Some f | _ -> None) events in
  let rungs = List.filter_map (function D (Rung r) -> Some r | _ -> None) events in
  Dataset.Runlog.create ~fids ~rungs ~name:"fidelity-test" ~seed ~space entries

let recorded_equal a b =
  match (a, b) with
  | E x, E y ->
      x.Dataset.Runlog.index = y.Dataset.Runlog.index
      && Param.Config.equal x.Dataset.Runlog.config y.Dataset.Runlog.config
      && (match (x.Dataset.Runlog.status, y.Dataset.Runlog.status) with
         | Dataset.Runlog.Ok u, Dataset.Runlog.Ok v -> Float.equal u v
         | _ -> false)
  | D x, D y -> Dataset.Runlog.equal x y
  | _ -> false

let fid_results_identical (a : Fidelity.result) (b : Fidelity.result) =
  Gen.results_identical a.Fidelity.run b.Fidelity.run
  && Float.equal a.Fidelity.total_cost b.Fidelity.total_cost
  && a.Fidelity.rung_evals = b.Fidelity.rung_evals
  && a.Fidelity.n_promoted = b.Fidelity.n_promoted
  && a.Fidelity.n_brackets = b.Fidelity.n_brackets
  && Array.length a.Fidelity.low_history = Array.length b.Fidelity.low_history
  && Array.for_all2
       (fun (r1, c1, v1) (r2, c2, v2) ->
         r1 = r2 && Param.Config.equal c1 c2 && Float.equal v1 v2)
       a.Fidelity.low_history b.Fidelity.low_history

(* Interrupting at any point and resuming from the persisted streams
   replays the recorded prefix and continues bit-exactly: identical
   result, and the resumed run re-records exactly the missing suffix. *)
let test_interrupt_resume_bitexact () =
  let seed = 13 and space = Gen.wide_space in
  let full, events =
    record_run ~plan:three_rung_plan ~k:3 ~seed ~space ~objective:scaled_objective ~budget:200 ()
  in
  let n = List.length events in
  Alcotest.check Alcotest.bool "campaign recorded a rich event stream" true (n >= 20);
  List.iter
    (fun cut ->
      let prefix = List.filteri (fun i _ -> i < cut) events in
      let log = log_of_events ~seed ~space prefix in
      let resumed, new_events =
        record_run ~recorded_log:log ~plan:three_rung_plan ~k:3 ~seed ~space
          ~objective:scaled_objective ~budget:200 ()
      in
      Alcotest.check Alcotest.bool
        (Printf.sprintf "cut=%d: resumed result is bit-identical" cut)
        true
        (fid_results_identical full resumed);
      Alcotest.check Alcotest.bool
        (Printf.sprintf "cut=%d: resume re-records exactly the suffix" cut)
        true
        (List.length new_events = n - cut
        && List.for_all2 recorded_equal (prefix @ new_events) events))
    [ 0; 1; 5; 12; 19; n - 1; n ]

(* Tampered or mismatched bracket state must fail loudly, never
   continue a silently different campaign. *)
let test_resume_divergence_fails () =
  let seed = 13 and space = Gen.wide_space in
  let _, events =
    record_run ~plan:three_rung_plan ~k:3 ~seed ~space ~objective:scaled_objective ~budget:200 ()
  in
  let expect_failure msg f =
    match f () with
    | _ -> Alcotest.fail (msg ^ ": expected Failure")
    | exception Failure _ -> ()
  in
  let resume_with ?(plan = three_rung_plan) events =
    Fidelity.resume ~plan ~k:3 ~log:(log_of_events ~seed ~space events)
      ~objective:scaled_objective ~budget:200 ()
  in
  (* Tampered rung record: the recomputed closure no longer matches. *)
  let tamper_rung = function
    | D (Rung r) -> D (Rung { r with r_best = r.r_best +. 1. })
    | ev -> ev
  in
  expect_failure "tampered #rung" (fun () -> resume_with (List.map tamper_rung events));
  (* Tampered low-fidelity value: promotions shift, so the recorded
     closure diverges from the recomputed one. *)
  let tampered_fid =
    List.map
      (function
        | D (Fid f) -> D (Fid { f with f_value = f.f_value *. 2. })
        | ev -> ev)
      events
  in
  expect_failure "tampered #fid values" (fun () -> resume_with tampered_fid);
  (* A different plan recomputes different closures. *)
  expect_failure "changed eta" (fun () ->
      resume_with ~plan:{ three_rung_plan with eta = 2. } events);
  (* Fewer brackets than the log records: leftover records mean the
     log belongs to a different campaign. *)
  expect_failure "shrunk bracket count" (fun () ->
      resume_with ~plan:{ three_rung_plan with brackets = 1 } events);
  (* A multi-rung log cannot resume under a single-rung plan. *)
  expect_failure "single-rung plan" (fun () ->
      resume_with ~plan:{ three_rung_plan with costs = [| 1. |] } events)

(* Guided bracket seeding ranks against an exclusion set that must
   hold the pool row of every configuration that entered rung 0
   earlier: each Rank event's [excluded] count equals the distinct
   rung-0 entrants of the brackets before it, in an uninterrupted run
   and in runs resumed from cut logs. *)
let test_exclusion_tracks_rung0 () =
  let seed = 13 and space = Gen.wide_space in
  let plan = { three_rung_plan with brackets = 3 } in
  let traced ?log () =
    let sink, collected = Telemetry.Trace.memory_sink () in
    let telemetry = Telemetry.Trace.make [ sink ] in
    let fids = ref [] in
    let on_record = function Dataset.Runlog.Fid f -> fids := f :: !fids | _ -> () in
    ignore
      (fid_result
         (match log with
         | None ->
             Fidelity.run ~telemetry ~on_record ~plan ~k:3 ~rng:(Prng.Rng.create seed) ~space
               ~objective:scaled_objective ~budget:200 ()
         | Some log ->
             Fidelity.resume ~telemetry ~on_record ~plan ~k:3 ~log ~objective:scaled_objective
               ~budget:200 ()));
    let excluded =
      List.filter_map
        (function _, Telemetry.Event.Rank { excluded; _ } -> Some excluded | _ -> None)
        (collected ())
    in
    (excluded, List.rev !fids)
  in
  let excluded, fids = traced () in
  Alcotest.check Alcotest.int "one guided ranking per later bracket" (plan.Fidelity.brackets - 1)
    (List.length excluded);
  List.iteri
    (fun i got ->
      let entrants = Param.Config.Table.create 32 in
      List.iter
        (fun (f : Dataset.Runlog.fid) ->
          if f.Dataset.Runlog.f_rung = 0 && f.Dataset.Runlog.f_bracket <= i then
            Param.Config.Table.replace entrants f.Dataset.Runlog.f_config ())
        fids;
      Alcotest.check Alcotest.int
        (Printf.sprintf "ranking %d excludes every earlier rung-0 entrant" i)
        (Param.Config.Table.length entrants) got)
    excluded;
  let _, events =
    record_run ~plan ~k:3 ~seed ~space ~objective:scaled_objective ~budget:200 ()
  in
  let n = List.length events in
  List.iter
    (fun cut ->
      let log = log_of_events ~seed ~space (List.filteri (fun i _ -> i < cut) events) in
      Alcotest.check (Alcotest.list Alcotest.int)
        (Printf.sprintf "cut=%d: resumed rankings exclude the same rows" cut)
        excluded
        (fst (traced ~log ())))
    [ 0; n / 3; 2 * n / 3; n ]

let prop_resume_bitexact =
  QCheck2.Test.make ~name:"resume from any cut point is bit-identical" ~count:25
    ~print:(fun (seed, cut) -> Printf.sprintf "seed=%d cut=%d" seed cut)
    (QCheck2.Gen.pair Gen.seed_gen (QCheck2.Gen.int_range 0 40))
    (fun (seed, cut) ->
      let space = Gen.wide_space in
      let full, events =
        record_run ~plan:three_rung_plan ~k:2 ~seed ~space ~objective:scaled_objective
          ~budget:200 ()
      in
      let cut = min cut (List.length events) in
      let prefix = List.filteri (fun i _ -> i < cut) events in
      let resumed, _ =
        record_run
          ~recorded_log:(log_of_events ~seed ~space prefix)
          ~plan:three_rung_plan ~k:2 ~seed ~space ~objective:scaled_objective ~budget:200 ()
      in
      fid_results_identical full resumed)

let suite =
  let tc = Alcotest.test_case in
  ( "fidelity",
    [
      tc "plan validation" `Quick test_plan_validation;
      tc "degenerate single-rung plan == run_async" `Quick test_degenerate_matches_run_async;
      tc "promotion arithmetic (eta=3, cohort=9)" `Quick test_promotion_math;
      tc "cost budget latch + Error case" `Quick test_cost_budget;
      tc "two brackets: guided seeding, dedup, exact history" `Quick test_multi_bracket;
      tc "interrupt/resume is bit-exact at every cut" `Slow test_interrupt_resume_bitexact;
      tc "resume fails loudly on divergence" `Quick test_resume_divergence_fails;
      tc "exclusion set tracks rung-0 entrants" `Quick test_exclusion_tracks_rung0;
      QCheck_alcotest.to_alcotest prop_degenerate_matches_async;
      QCheck_alcotest.to_alcotest prop_resume_bitexact;
    ] )
