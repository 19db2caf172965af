(* Tests for the resilient evaluation layer: retry policies, the
   evaluator's retry loop, deterministic fault injection, fault-
   injected tuning campaigns, and the interrupt-then-resume
   determinism guarantee. *)

let check = Alcotest.check

let table name = (Hpcsim.Registry.find name).Hpcsim.Registry.table ()

(* ---- Policy ---- *)

let test_policy_backoff () =
  let p = { Resilience.Policy.default with backoff_base = 2.0; backoff_factor = 3.0 } in
  check (Alcotest.float 1e-12) "no cost before the first attempt" 0.
    (Resilience.Policy.backoff p ~attempt:1);
  check (Alcotest.float 1e-12) "first retry costs the base" 2.
    (Resilience.Policy.backoff p ~attempt:2);
  check (Alcotest.float 1e-12) "second retry multiplies" 6.
    (Resilience.Policy.backoff p ~attempt:3);
  check (Alcotest.float 1e-12) "third retry multiplies again" 18.
    (Resilience.Policy.backoff p ~attempt:4);
  check (Alcotest.float 1e-12) "total over one attempt" 0.
    (Resilience.Policy.total_backoff p ~attempts:1);
  check (Alcotest.float 1e-12) "total over three attempts" 8.
    (Resilience.Policy.total_backoff p ~attempts:3)

let test_policy_validate () =
  Resilience.Policy.validate Resilience.Policy.default;
  Resilience.Policy.validate Resilience.Policy.no_retry;
  let invalid p = match Resilience.Policy.validate p with
    | () -> false
    | exception Invalid_argument _ -> true
  in
  check Alcotest.bool "zero attempts rejected" true
    (invalid { Resilience.Policy.default with max_attempts = 0 });
  check Alcotest.bool "negative backoff rejected" true
    (invalid { Resilience.Policy.default with backoff_base = -1. });
  check Alcotest.bool "non-positive timeout rejected" true
    (invalid { Resilience.Policy.default with timeout = Some 0. })

(* ---- Evaluator ---- *)

let policy3 = Gen.policy3

let test_evaluator_transient_then_success () =
  let calls = ref [] in
  let objective ~attempt () =
    calls := attempt :: !calls;
    if attempt = 1 then Resilience.Outcome.Transient "flake"
    else Resilience.Outcome.Value 7.5
  in
  let v = Resilience.Evaluator.evaluate ~policy:policy3 ~objective () in
  check Alcotest.bool "succeeded" true (v.Resilience.Evaluator.outcome = Resilience.Outcome.Value 7.5);
  check Alcotest.int "two attempts" 2 v.Resilience.Evaluator.attempts;
  check (Alcotest.float 1e-12) "one backoff charged" policy3.Resilience.Policy.backoff_base
    v.Resilience.Evaluator.retry_cost;
  check (Alcotest.list Alcotest.int) "attempt numbers are 1-based" [ 1; 2 ] (List.rev !calls)

let test_evaluator_permanent_never_retried () =
  let calls = ref 0 in
  let objective ~attempt:_ () =
    incr calls;
    Resilience.Outcome.Permanent "invalid configuration"
  in
  let v = Resilience.Evaluator.evaluate ~policy:policy3 ~objective () in
  check Alcotest.int "exactly one call" 1 !calls;
  check Alcotest.int "one attempt" 1 v.Resilience.Evaluator.attempts;
  check Alcotest.string "permanent kind" "permanent"
    (Resilience.Outcome.kind v.Resilience.Evaluator.outcome)

let test_evaluator_exhausts_retries () =
  let objective ~attempt:_ () = Resilience.Outcome.Transient "always down" in
  let v = Resilience.Evaluator.evaluate ~policy:policy3 ~objective () in
  check Alcotest.int "all attempts consumed" 3 v.Resilience.Evaluator.attempts;
  check Alcotest.string "still transient" "transient"
    (Resilience.Outcome.kind v.Resilience.Evaluator.outcome);
  check (Alcotest.float 1e-12) "full backoff schedule charged"
    (Resilience.Policy.total_backoff policy3 ~attempts:3)
    v.Resilience.Evaluator.retry_cost

let test_evaluator_timeout_classification () =
  let policy = { policy3 with timeout = Some 10. } in
  check Alcotest.bool "fast value passes" true
    (Resilience.Evaluator.classify policy (Resilience.Outcome.Value 9.9)
    = Resilience.Outcome.Value 9.9);
  check Alcotest.bool "slow value becomes timeout" true
    (Resilience.Evaluator.classify policy (Resilience.Outcome.Value 10.1)
    = Resilience.Outcome.Timeout);
  (* A straggler that times out on every attempt exhausts the retries. *)
  let objective ~attempt:_ () = Resilience.Outcome.Value 50. in
  let v = Resilience.Evaluator.evaluate ~policy ~objective () in
  check Alcotest.bool "timed out" true
    (v.Resilience.Evaluator.outcome = Resilience.Outcome.Timeout);
  check Alcotest.int "retried to the limit" 3 v.Resilience.Evaluator.attempts

let test_evaluator_contains_exceptions () =
  let objective ~attempt () =
    if attempt < 3 then failwith "segfault" else Resilience.Outcome.Value 1.0
  in
  let v = Resilience.Evaluator.evaluate ~policy:policy3 ~objective () in
  check Alcotest.bool "recovered after crashes" true
    (v.Resilience.Evaluator.outcome = Resilience.Outcome.Value 1.0);
  check Alcotest.int "crashes consumed attempts" 3 v.Resilience.Evaluator.attempts

(* ---- Fault injection ---- *)

(* the shared 8 x 8 ordinal space lives in [Gen] now *)
let small_space = Gen.wide_space

let test_faults_deterministic () =
  let spec = Hpcsim.Faults.standard ~seed:99 ~rate:0.3 in
  let f _ = 1.0 in
  Array.iter
    (fun config ->
      for attempt = 1 to 3 do
        let a = Hpcsim.Faults.inject spec f ~attempt config in
        let b = Hpcsim.Faults.inject spec f ~attempt config in
        check Alcotest.bool "same draw twice" true (a = b)
      done)
    (Param.Space.enumerate small_space)

let test_faults_rates_approximate () =
  let spec = { Hpcsim.Faults.none with seed = 5; transient = 0.15 } in
  let configs = Param.Space.enumerate small_space in
  let rng = Prng.Rng.create 17 in
  let n = 2000 in
  let transients = ref 0 in
  for i = 1 to n do
    let config = configs.(Prng.Rng.int rng (Array.length configs)) in
    match Hpcsim.Faults.inject spec (fun _ -> 1.0) ~attempt:i config with
    | Resilience.Outcome.Transient _ -> incr transients
    | _ -> ()
  done;
  let rate = float_of_int !transients /. float_of_int n in
  check Alcotest.bool "transient rate near 0.15" true (rate > 0.10 && rate < 0.20)

let test_faults_permanent_attempt_independent () =
  (* A permanent fault must fire identically on every attempt — that
     is what makes retrying it futile and the attempts=1 invariant
     testable. *)
  let spec = { Hpcsim.Faults.none with seed = 21; permanent = 0.4 } in
  let seen_permanent = ref false in
  Array.iter
    (fun config ->
      let fates =
        List.map
          (fun attempt ->
            match Hpcsim.Faults.inject spec (fun _ -> 1.0) ~attempt config with
            | Resilience.Outcome.Permanent _ -> true
            | _ -> false)
          [ 1; 2; 3; 4; 5 ]
      in
      (match fates with
      | first :: rest ->
          if first then seen_permanent := true;
          check Alcotest.bool "same fate on every attempt" true
            (List.for_all (fun f -> f = first) rest)
      | [] -> assert false))
    (Param.Space.enumerate small_space);
  check Alcotest.bool "permanent faults actually fire at rate 0.4" true !seen_permanent

let test_faults_straggler_inflates_cost () =
  let spec = { Hpcsim.Faults.none with seed = 3; straggler = 1.0; slowdown = 8. } in
  match Hpcsim.Faults.inject spec (fun _ -> 2.0) ~attempt:1 [| Param.Value.Ordinal 0; Param.Value.Ordinal 0 |] with
  | Resilience.Outcome.Value y -> check (Alcotest.float 1e-9) "slowdown applied" 16.0 y
  | other -> Alcotest.fail ("expected an inflated Value, got " ^ Resilience.Outcome.kind other)

(* ---- Fault-injected tuning campaigns ---- *)

(* Under a 15% transient / 3.75% permanent / 7.5% straggler mix, the
   resilient tuner must consume its full budget (one unit per final
   verdict), spend extra attempts on retries without double-counting,
   never retry a permanent failure, and still beat random search. *)
let check_faulty_campaign ~dataset ~seed =
  let t = table dataset in
  let space = Dataset.Table.space t in
  let objective = Dataset.Table.objective_fn t in
  let spec = Hpcsim.Faults.standard ~seed:(seed + 7919) ~rate:0.2 in
  let budget = 60 in
  let verdicts = ref [] in
  let result =
    match
      Hiperbot.Tuner.run_async
        ~options:{ Hiperbot.Tuner.default_options with n_init = 12 }
        ~policy:policy3
        ~on_outcome:(fun _ _ v -> verdicts := v :: !verdicts)
        ~rng:(Prng.Rng.create seed) ~space
        ~objective:(Hpcsim.Faults.inject spec objective)
        ~budget ()
    with
    | Stdlib.Ok r -> r
    | Stdlib.Error _ -> Alcotest.fail "faulty campaign should not fail outright"
  in
  let n_ok = Array.length result.Hiperbot.Tuner.history in
  let n_failed = Array.length result.Hiperbot.Tuner.failures in
  check Alcotest.int (dataset ^ ": full budget consumed") budget (n_ok + n_failed);
  check Alcotest.int (dataset ^ ": one verdict per budget unit") budget
    (List.length !verdicts);
  check Alcotest.bool (dataset ^ ": faults actually fired") true (n_failed > 0);
  check Alcotest.bool (dataset ^ ": retries happened") true
    (result.Hiperbot.Tuner.n_attempts > budget);
  check Alcotest.int (dataset ^ ": attempts add up")
    result.Hiperbot.Tuner.n_attempts
    (List.fold_left (fun acc v -> acc + v.Resilience.Evaluator.attempts) 0 !verdicts);
  List.iter
    (fun v ->
      match v.Resilience.Evaluator.outcome with
      | Resilience.Outcome.Permanent _ ->
          check Alcotest.int (dataset ^ ": permanent failures are never retried") 1
            v.Resilience.Evaluator.attempts
      | _ -> ())
    !verdicts;
  (* Against random search with the same clean objective and budget:
     the tuner keeps its edge even while a sixth of its evaluations
     are being sabotaged. *)
  let random =
    Baselines.Random_search.run ~rng:(Prng.Rng.create seed) ~space ~objective ~budget ()
  in
  check Alcotest.bool (dataset ^ ": beats random search despite faults") true
    (result.Hiperbot.Tuner.best_value <= random.Baselines.Outcome.best_value)

let test_faulty_campaign_kripke () = check_faulty_campaign ~dataset:"kripke" ~seed:2
let test_faulty_campaign_hypre () = check_faulty_campaign ~dataset:"hypre" ~seed:2

(* ---- Interrupt-then-resume determinism ---- *)

let results_identical = Gen.results_identical

(* Run an uninterrupted faulty campaign of [budget] evaluations while
   recording every verdict; then pretend the process died after
   [interrupt_after] entries, rebuild the log a crashed campaign would
   have left behind, resume it, and demand a bit-for-bit identical
   result. *)
let check_resume_determinism ~dataset ~seed =
  let t = table dataset in
  let space = Dataset.Table.space t in
  let spec = Hpcsim.Faults.standard ~seed:(seed * 31 + 5) ~rate:0.15 in
  let objective = Hpcsim.Faults.inject spec (Dataset.Table.objective_fn t) in
  let options = { Hiperbot.Tuner.default_options with n_init = 8 } in
  let budget = 24 and interrupt_after = 10 in
  let recorded = ref [] in
  let full =
    match
      Hiperbot.Tuner.run_async ~options ~policy:policy3
        ~on_outcome:(fun i c v -> recorded := (i, c, v) :: !recorded)
        ~rng:(Prng.Rng.create seed) ~space ~objective ~budget ()
    with
    | Stdlib.Ok r -> r
    | Stdlib.Error _ -> Alcotest.fail "uninterrupted campaign failed outright"
  in
  let entries =
    List.rev !recorded
    |> List.filteri (fun i _ -> i < interrupt_after)
    |> List.map (fun (i, c, v) -> Hiperbot.Campaign.entry_of_verdict i c v)
  in
  let log = Dataset.Runlog.create ~name:dataset ~seed ~space entries in
  let resumed =
    match
      Hiperbot.Tuner.resume_async ~options ~policy:policy3 ~log ~objective ~budget ()
    with
    | Stdlib.Ok r -> r
    | Stdlib.Error _ -> Alcotest.fail "resumed campaign failed outright"
  in
  check Alcotest.bool
    (Printf.sprintf "%s seed %d: resume reproduces the uninterrupted run bit-for-bit" dataset
       seed)
    true
    (results_identical full resumed)

let test_resume_determinism () =
  List.iter
    (fun dataset ->
      List.iter (fun seed -> check_resume_determinism ~dataset ~seed) [ 3; 14 ])
    [ "kripke"; "hypre" ]

let test_resume_end_to_end_through_file () =
  (* The whole recovery story at once: a campaign streams its log
     through the flush-per-entry writer, the process "dies" mid-write
     leaving a truncated final line, the file is recovered and the
     campaign resumed — matching the uninterrupted run. *)
  let t = table "kripke" in
  let space = Dataset.Table.space t in
  let spec = Hpcsim.Faults.standard ~seed:71 ~rate:0.15 in
  let objective = Hpcsim.Faults.inject spec (Dataset.Table.objective_fn t) in
  let options = { Hiperbot.Tuner.default_options with n_init = 8 } in
  let budget = 24 and seed = 9 in
  let full =
    match
      Hiperbot.Tuner.run_async ~options ~policy:policy3 ~rng:(Prng.Rng.create seed)
        ~space ~objective ~budget ()
    with
    | Stdlib.Ok r -> r
    | Stdlib.Error _ -> Alcotest.fail "uninterrupted campaign failed outright"
  in
  let path = Filename.temp_file "resume_e2e" ".txt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let writer = Dataset.Runlog.writer_create ~path ~name:"kripke" ~seed ~space in
      let wrote = ref 0 in
      (match
         Hiperbot.Tuner.run_async ~options ~policy:policy3
           ~on_outcome:(fun i c v ->
             if i < 12 then begin
               Dataset.Runlog.writer_record writer
                 (Hiperbot.Campaign.entry_of_verdict i c v);
               incr wrote
             end)
           ~rng:(Prng.Rng.create seed) ~space ~objective ~budget ()
       with
      | Stdlib.Ok _ -> ()
      | Stdlib.Error _ -> Alcotest.fail "logging campaign failed outright");
      Dataset.Runlog.writer_close writer;
      check Alcotest.int "twelve entries on disk" 12 !wrote;
      (* the crash leaves half a row behind *)
      let oc = open_out_gen [ Open_append ] 0o644 path in
      output_string oc "12,16,2";
      close_out oc;
      let log = Dataset.Runlog.load ~recover:true path in
      check Alcotest.int "recovery drops only the partial row" 12
        (Array.length log.Dataset.Runlog.entries);
      let resumed =
        match Hiperbot.Tuner.resume_async ~options ~policy:policy3 ~log ~objective ~budget () with
        | Stdlib.Ok r -> r
        | Stdlib.Error _ -> Alcotest.fail "resumed campaign failed outright"
      in
      check Alcotest.bool "file-mediated resume matches the uninterrupted run" true
        (results_identical full resumed))

let test_resume_rejects_divergence () =
  (* A log whose recorded configuration does not match what the seed
     would have selected must be refused, not silently absorbed. *)
  let t = table "kripke" in
  let space = Dataset.Table.space t in
  let objective ~attempt:_ c = Resilience.Outcome.Value (Dataset.Table.objective_fn t c) in
  let options = { Hiperbot.Tuner.default_options with n_init = 4 } in
  let seed = 3 in
  let genuine =
    match
      Hiperbot.Tuner.run_async ~options ~rng:(Prng.Rng.create seed) ~space ~objective
        ~budget:6 ()
    with
    | Stdlib.Ok r -> r
    | Stdlib.Error _ -> Alcotest.fail "setup run failed"
  in
  (* Corrupt the first recorded config: replace it with a different
     enumerated one. *)
  let all = Param.Space.enumerate space in
  let c0 = fst genuine.Hiperbot.Tuner.history.(0) in
  let imposter =
    match Array.find_opt (fun c -> not (Param.Config.equal c c0)) all with
    | Some c -> c
    | None -> Alcotest.fail "space has one configuration"
  in
  let log =
    Dataset.Runlog.create ~name:"kripke" ~seed ~space
      [ { Dataset.Runlog.index = 0; config = imposter; status = Dataset.Runlog.Ok 1.0; attempts = 1 } ]
  in
  match Hiperbot.Tuner.resume_async ~options ~log ~objective ~budget:6 () with
  | _ -> Alcotest.fail "divergent log must be rejected"
  | exception Failure msg ->
      check Alcotest.bool "divergence message" true
        (String.starts_with ~prefix:"Campaign.of_log" msg)

let suite =
  let tc = Alcotest.test_case in
  ( "resilience",
    [
      tc "policy: backoff schedule" `Quick test_policy_backoff;
      tc "policy: validation" `Quick test_policy_validate;
      tc "evaluator: transient then success" `Quick test_evaluator_transient_then_success;
      tc "evaluator: permanent never retried" `Quick test_evaluator_permanent_never_retried;
      tc "evaluator: exhausts retries" `Quick test_evaluator_exhausts_retries;
      tc "evaluator: timeout classification" `Quick test_evaluator_timeout_classification;
      tc "evaluator: contains exceptions" `Quick test_evaluator_contains_exceptions;
      tc "faults: deterministic" `Quick test_faults_deterministic;
      tc "faults: approximate rates" `Quick test_faults_rates_approximate;
      tc "faults: permanent is attempt-independent" `Quick test_faults_permanent_attempt_independent;
      tc "faults: straggler inflates cost" `Quick test_faults_straggler_inflates_cost;
      tc "tuning under faults: kripke" `Slow test_faulty_campaign_kripke;
      tc "tuning under faults: hypre" `Slow test_faulty_campaign_hypre;
      tc "resume determinism: 2 seeds x 2 datasets" `Slow test_resume_determinism;
      tc "resume end-to-end through a crashed file" `Slow test_resume_end_to_end_through_file;
      tc "resume rejects a divergent log" `Quick test_resume_rejects_divergence;
    ] )
