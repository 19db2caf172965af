(* Tuning your own application, including a continuous parameter.

   This example plays the role of a user bringing an external code to
   the framework: the objective shells out to "run the application" (a
   stand-in stencil-kernel cost model here), the space mixes
   categorical, ordinal, and continuous parameters, and because the
   space is not finite the Proposal selection strategy samples
   candidates from the good density instead of ranking an enumeration
   (paper SIII-D).

     dune exec examples/custom_application.exe *)

let space =
  Param.Space.make
    [
      Param.Spec.categorical "schedule" [ "static"; "dynamic"; "guided" ];
      Param.Spec.ordinal_ints "block" [ 8; 16; 32; 64; 128 ];
      (* A continuous knob: software prefetch distance in cache lines. *)
      Param.Spec.continuous "prefetch" ~lo:0. ~hi:16.;
    ]

(* Stand-in for launching the real application and reading its
   runtime: a stencil kernel whose best prefetch distance is ~6 lines,
   with block-size cache effects and schedule overhead. *)
let run_application config =
  let schedule = Param.Value.to_index config.(0) in
  let block = Param.Spec.level (Param.Space.spec space 1) (Param.Value.to_index config.(1)) in
  let prefetch = Param.Value.to_float_raw config.(2) in
  let schedule_overhead = [| 0.; 0.06; 0.02 |].(schedule) in
  let block_penalty = 0.004 *. ((log (block /. 32.) /. log 2.) ** 2.) in
  let prefetch_penalty = 0.003 *. ((prefetch -. 6.) ** 2.) in
  1.0 +. schedule_overhead +. block_penalty +. prefetch_penalty

let () =
  let options =
    {
      Hiperbot.Tuner.default_options with
      strategy = Hiperbot.Strategy.Proposal { n_candidates = 128 };
    }
  in
  let trace = ref [] in
  let on_outcome i config (v : Resilience.Evaluator.verdict) =
    match v.Resilience.Evaluator.outcome with
    | Resilience.Outcome.Value y -> trace := (i, config, y) :: !trace
    | _ -> ()
  in
  let result =
    Result.get_ok
      (Hiperbot.Tuner.run_async ~options ~on_outcome ~rng:(Prng.Rng.create 5) ~space
         ~objective:(fun ~attempt:_ c -> Resilience.Outcome.Value (run_application c))
         ~budget:80 ())
  in
  Printf.printf "best %.4f with %s\n" result.Hiperbot.Tuner.best_value
    (Param.Space.to_string space result.Hiperbot.Tuner.best_config);
  (* The guided samples should concentrate prefetch near 6. *)
  let guided = List.filter (fun (i, _, _) -> i >= 20) !trace in
  let prefetches = List.map (fun (_, c, _) -> Param.Value.to_float_raw c.(2)) guided in
  let n = float_of_int (List.length prefetches) in
  Printf.printf "mean prefetch over %d guided samples: %.2f (optimum 6.0)\n"
    (List.length prefetches)
    (List.fold_left ( +. ) 0. prefetches /. n);
  match result.Hiperbot.Tuner.final_surrogate with
  | None -> ()
  | Some s ->
      Printf.printf "importance: %s\n"
        (Hiperbot.Importance.to_string (Hiperbot.Importance.of_surrogate s))
