(* Live tuning: HiPerBOt optimizing an actual execution on this
   machine, not a recorded dataset. The objective times a blocked
   matrix multiply (lib/kernels) under each configuration of block
   sizes, loop order, and loop schedule, so the measurements are
   machine-dependent and genuinely noisy — the regime the paper
   targets.

     dune exec examples/live_tuning.exe *)

let budget = 60

let () =
  Parallel.Pool.with_pool (fun pool ->
      Printf.printf "pool: %d domain(s) on this machine\n" (Parallel.Pool.size pool);
      let space = Kernels.Live.matmul_space in
      let objective = Kernels.Live.matmul_objective ~pool ~n:96 () in
      Printf.printf "tuning %s configurations of a 96x96 blocked matmul, budget %d\n\n"
        (match Param.Space.cardinality space with Some n -> string_of_int n | None -> "?")
        budget;
      let best = ref infinity in
      let on_outcome i config (v : Resilience.Evaluator.verdict) =
        match v.Resilience.Evaluator.outcome with
        | Resilience.Outcome.Value t when t < !best ->
            best := t;
            Printf.printf "%3d  %8.2f ms  %s\n%!" i (1000. *. t)
              (Param.Space.to_string space config)
        | _ -> ()
      in
      let result =
        Result.get_ok
          (Hiperbot.Tuner.run_async ~on_outcome ~rng:(Prng.Rng.create 1) ~space
             ~objective:(fun ~attempt:_ c -> Resilience.Outcome.Value (objective c))
             ~budget ())
      in
      Printf.printf "\nbest: %.2f ms with %s\n" (1000. *. result.Hiperbot.Tuner.best_value)
        (Param.Space.to_string space result.Hiperbot.Tuner.best_config);
      match result.Hiperbot.Tuner.final_surrogate with
      | None -> ()
      | Some s ->
          Printf.printf "importance: %s\n"
            (Hiperbot.Importance.to_string (Hiperbot.Importance.of_surrogate s)))
