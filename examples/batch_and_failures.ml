(* Three extensions beyond the paper, together:

   - asynchronous tuning: four evaluations in flight at once, as you
     would run when several cluster allocations are available; the
     surrogate refits whenever one of them completes;
   - resilient tuning under a retry policy: some configurations crash
     permanently (thread counts the application rejects), others fail
     transiently and succeed on retry, and stragglers blow the
     per-evaluation cost budget — every kind is absorbed instead of
     wasting the run;
   - failure-isolating parallel evaluation: a batch is mapped over a
     domain pool where one crashing member must not abort the others.

     dune exec examples/batch_and_failures.exe *)

let space =
  Param.Space.make
    [
      Param.Spec.categorical "layout" [ "aos"; "soa"; "tiled" ];
      Param.Spec.ordinal_ints "threads" [ 1; 2; 4; 8; 16; 32 ];
      Param.Spec.ordinal_ints "chunk" [ 64; 256; 1024; 4096 ];
    ]

(* The pretend application: crashes permanently when oversubscribed
   (threads = 32) with the tiled layout (say, a known bug), flakes
   transiently on its first attempt for a hash-keyed 15% of
   configurations (a busy cluster), and otherwise returns a runtime
   with a clear optimum at soa / 16 threads / 1024 chunk. *)
let base_runtime config =
  let layout = Param.Value.to_index config.(0) in
  let threads = Param.Spec.level (Param.Space.spec space 1) (Param.Value.to_index config.(1)) in
  let chunk = Param.Spec.level (Param.Space.spec space 2) (Param.Value.to_index config.(2)) in
  let layout_factor = [| 1.25; 1.0; 1.1 |].(layout) in
  let parallel = (64. /. (threads ** 0.8)) +. (0.4 *. threads) in
  let chunk_penalty = 1. +. (0.03 *. abs_float (log (chunk /. 1024.))) in
  parallel *. layout_factor *. chunk_penalty

let run_application ~attempt config =
  let layout = Param.Value.to_index config.(0) in
  let threads = Param.Spec.level (Param.Space.spec space 1) (Param.Value.to_index config.(1)) in
  if layout = 2 && threads > 16. then Resilience.Outcome.Permanent "oversubscribed tiled layout"
  else if attempt = 1 && Param.Config.hash config mod 100 < 15 then
    Resilience.Outcome.Transient "node preempted"
  else Resilience.Outcome.Value (base_runtime config)

let () =
  let options =
    {
      Hiperbot.Tuner.default_options with
      n_init = 10;
      early_stop = Some 20; (* stop when 20 guided evaluations stop improving *)
    }
  in
  (* Up to 3 attempts per configuration; runtimes above 60 are killed
     as stragglers and recorded as timeouts. *)
  let policy = { Resilience.Policy.default with max_attempts = 3; timeout = Some 60. } in
  (* Four evaluations in flight; completion order follows a simulated
     clock (each run takes its measured runtime), so the campaign is
     reproducible from its seed. *)
  let outcome =
    Hiperbot.Tuner.run_async ~k:4 ~options ~policy
      ~on_outcome:(fun i c v ->
        match v.Resilience.Evaluator.outcome with
        | Resilience.Outcome.Value y ->
            if i mod 8 = 0 then
              Printf.printf "%3d  %8.3f    %s%s\n" i y (Param.Space.to_string space c)
                (if v.Resilience.Evaluator.attempts > 1 then
                   Printf.sprintf "  (succeeded on attempt %d)" v.Resilience.Evaluator.attempts
                 else "")
        | failure ->
            Printf.printf "%3d  %-11s %s\n" i
              (Resilience.Outcome.kind failure)
              (Param.Space.to_string space c))
      ~rng:(Prng.Rng.create 11) ~space ~objective:run_application ~budget:60 ()
  in
  (match outcome with
  | Stdlib.Error err ->
      Printf.printf "every evaluation failed (%d failures)\n"
        (Array.length err.Hiperbot.Tuner.error_failures)
  | Stdlib.Ok result ->
      Printf.printf "\nbest %.3f at %s\n" result.Hiperbot.Tuner.best_value
        (Param.Space.to_string space result.Hiperbot.Tuner.best_config);
      Printf.printf "%d successful runs, %d failures, %d attempts, early stop: %b\n"
        (Array.length result.Hiperbot.Tuner.history)
        (Array.length result.Hiperbot.Tuner.failures)
        result.Hiperbot.Tuner.n_attempts result.Hiperbot.Tuner.stopped_early);
  (* A straggler-tolerant batch on a domain pool: the crashing member
     comes back as an Error, the others still complete. *)
  let batch =
    [|
      [| Param.Value.Categorical 1; Param.Value.Ordinal 4; Param.Value.Ordinal 2 |];
      [| Param.Value.Categorical 2; Param.Value.Ordinal 5; Param.Value.Ordinal 0 |];
      [| Param.Value.Categorical 0; Param.Value.Ordinal 2; Param.Value.Ordinal 1 |];
    |]
  in
  let results =
    Parallel.Pool.with_pool ~num_domains:2 (fun pool ->
        Parallel.Pool.map_array_result pool
          (fun c ->
            let layout = Param.Value.to_index c.(0) in
            let threads =
              Param.Spec.level (Param.Space.spec space 1) (Param.Value.to_index c.(1))
            in
            if layout = 2 && threads > 16. then failwith "oversubscribed tiled layout"
            else base_runtime c)
          batch)
  in
  Printf.printf "\nparallel batch of %d (one member crashes):\n" (Array.length batch);
  Array.iteri
    (fun i r ->
      match r with
      | Stdlib.Ok y -> Printf.printf "  member %d: %.3f\n" i y
      | Stdlib.Error e -> Printf.printf "  member %d: failed (%s)\n" i (Printexc.to_string e))
    results
