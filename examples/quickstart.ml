(* Quickstart: tune a black-box function over a small mixed
   discrete space with HiPerBOt.

     dune exec examples/quickstart.exe

   The "application" is a stand-in for anything expensive: a compiled
   binary, an MPI job, a simulation. HiPerBOt only needs a function
   from configuration to a smaller-is-better score. *)

let () =
  (* 1. Declare the tunable parameters. *)
  let space =
    Param.Space.make
      [
        Param.Spec.categorical "compiler" [ "gcc"; "clang"; "icx" ];
        Param.Spec.ordinal_ints "threads" [ 1; 2; 4; 8; 16 ];
        Param.Spec.ordinal_ints "tile" [ 16; 32; 64; 128 ];
      ]
  in
  (* 2. The expensive objective (here: a synthetic runtime model). *)
  let runtime config =
    let compiler = Param.Value.to_index config.(0) in
    let threads = Param.Spec.level (Param.Space.spec space 1) (Param.Value.to_index config.(1)) in
    let tile = Param.Spec.level (Param.Space.spec space 2) (Param.Value.to_index config.(2)) in
    let compiler_factor = [| 1.0; 0.95; 0.90 |].(compiler) in
    let parallel = 100. /. (threads ** 0.85) in
    let cache_penalty = 1. +. (0.002 *. ((tile -. 64.) ** 2.) /. 64.) in
    parallel *. compiler_factor *. cache_penalty
  in
  (* 3. Run the tuner: 20 random samples, then 20 guided ones. The
     tuner takes objectives that may fail (crashed builds, timeouts);
     this one always yields a value, so the run cannot end in [Error]
     (every evaluation failed). *)
  let rng = Prng.Rng.create 2024 in
  let objective ~attempt:_ config = Resilience.Outcome.Value (runtime config) in
  let result =
    Result.get_ok (Hiperbot.Tuner.run_async ~rng ~space ~objective ~budget:40 ())
  in
  Printf.printf "best runtime %.2f with %s\n" result.Hiperbot.Tuner.best_value
    (Param.Space.to_string space result.Hiperbot.Tuner.best_config);
  (* 4. Which parameters mattered? *)
  match result.Hiperbot.Tuner.final_surrogate with
  | None -> ()
  | Some surrogate ->
      Array.iter
        (fun (name, score) -> Printf.printf "importance %-10s %.3f\n" name score)
        (Hiperbot.Importance.of_surrogate surrogate)
