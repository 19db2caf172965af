(* Microbenchmarks (Bechamel) for the framework's own cost, plus the
   wall-clock check of the paper's §VII claim that a full LULESH
   selection takes ~600 ms of tuner time. *)

open Bechamel
open Toolkit

let kripke_observations n =
  let table = (Hpcsim.Registry.find "kripke").Hpcsim.Registry.table () in
  let rng = Prng.Rng.create 99 in
  let idx = Prng.Rng.sample_without_replacement rng n (Dataset.Table.size table) in
  Array.map (fun i -> (Dataset.Table.config table i, Dataset.Table.objective table i)) idx

let tests () =
  let table = (Hpcsim.Registry.find "kripke").Hpcsim.Registry.table () in
  let space = Dataset.Table.space table in
  let obs = kripke_observations 100 in
  let surrogate = Hiperbot.Surrogate.fit space obs in
  let pool = Param.Space.enumerate space in
  let encoded = Hiperbot.Surrogate.Pool.encode space pool in
  let compiled = Hiperbot.Surrogate.compile surrogate encoded in
  let graph = Graphlib.Lattice.build space in
  let labels =
    {
      Graphlib.Camlp.optimal = Array.init 20 (fun i -> i * 3);
      non_optimal = Array.init 80 (fun i -> 200 + (i * 7));
    }
  in
  [
    Test.make ~name:"surrogate_fit_100obs" (Staged.stage (fun () -> Hiperbot.Surrogate.fit space obs));
    Test.make ~name:"ei_score_one_config" (Staged.stage (fun () -> Hiperbot.Surrogate.score surrogate pool.(42)));
    Test.make ~name:"ei_rank_full_space_1620"
      (Staged.stage (fun () ->
           let best = ref neg_infinity in
           Array.iter (fun c -> best := Float.max !best (Hiperbot.Surrogate.score surrogate c)) pool;
           !best));
    Test.make ~name:"ei_rank_compiled_1620"
      (Staged.stage (fun () ->
           (* per-refit cost: compile against the pre-encoded pool, then scan *)
           let compiled = Hiperbot.Surrogate.compile surrogate encoded in
           let best = ref neg_infinity in
           for i = 0 to Array.length pool - 1 do
             best := Float.max !best (Hiperbot.Surrogate.Compiled.log_ratio compiled i)
           done;
           !best));
    Test.make ~name:"ei_rank_compiled_scan_1620"
      (Staged.stage (fun () ->
           let best = ref neg_infinity in
           for i = 0 to Array.length pool - 1 do
             best := Float.max !best (Hiperbot.Surrogate.Compiled.log_ratio compiled i)
           done;
           !best));
    Test.make ~name:"pool_encode_1620"
      (Staged.stage (fun () -> Hiperbot.Surrogate.Pool.encode space pool));
    Test.make ~name:"camlp_propagate_kripke_graph"
      (Staged.stage (fun () -> Graphlib.Camlp.propagate graph labels));
    Test.make ~name:"space_enumerate_1620" (Staged.stage (fun () -> Param.Space.enumerate space));
    Test.make ~name:"importance_ranking" (Staged.stage (fun () -> Hiperbot.Importance.of_surrogate surrogate));
    Test.make ~name:"sweep_makespan_8x8x128"
      (Staged.stage (fun () ->
           Simulate.Sweep.makespan ~px:8 ~py:8 ~work_units:128 ~t_chunk:1e-3 ~t_msg:1e-4));
  ]

let run_bechamel () =
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~stabilize:true () in
  let instances = Instance.[ monotonic_clock ] in
  let raw = Benchmark.all cfg instances (Test.make_grouped ~name:"micro" ~fmt:"%s %s" (tests ())) in
  let ols = Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |] in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows =
    Hashtbl.fold
      (fun name ols_result acc ->
        let ns =
          match Analyze.OLS.estimates ols_result with Some [ est ] -> est | Some _ | None -> nan
        in
        (name, ns) :: acc)
      results []
  in
  List.iter
    (fun (name, ns) ->
      if Float.is_nan ns then Printf.printf "%-42s %15s\n" name "(no estimate)"
      else Printf.printf "%-42s %12.0f ns/run\n" name ns)
    (List.sort compare rows)

let lulesh_timing () =
  Harness.subsection "Full LULESH selection run (paper SVII: ~600 ms)";
  let table = (Hpcsim.Registry.find "lulesh").Hpcsim.Registry.table () in
  let space = Dataset.Table.space table in
  let objective = Dataset.Table.objective_fn table in
  let rng = Prng.Rng.create 11 in
  let t0 = Sys.time () in
  let result = Harness.tune ~rng ~space ~objective ~budget:150 () in
  let dt = Sys.time () -. t0 in
  Printf.printf "budget=150 evaluations: %.0f ms tuner time, best %.3f s (exhaustive %.3f s)\n%!"
    (1000. *. dt) result.Hiperbot.Tuner.best_value (Dataset.Table.best_value table)

let run ~reps:_ () =
  Harness.section "Microbenchmarks";
  run_bechamel ();
  lulesh_timing ()
