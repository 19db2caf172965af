(* Multi-objective tuning on the Kripke time+energy surface (the
   paper's energy space: exec_time_capped and per-node package energy
   over the 17 820-configuration PKG_LIMIT space).

   Four methods get the same total evaluation budget and are scored
   by the hypervolume of the solution set each one actually returns,
   against one shared reference point (the per-objective medians of
   the full table — the tail of the distribution runs to ~450x the
   best time, so a reference at the maxima would saturate every
   method at ~99% of the achievable volume):

   - moo:     scalarised HiPerBOt (weighted-Chebyshev Moo campaigns),
              the budget split across a fan of fixed weight rays;
              deliverable: the pooled Pareto archive
   - random:  uniform random configurations; deliverable: every draw
              (random search has no model to distill)
   - so-time: single-objective HiPerBOt on execution time alone;
              deliverable: the one best configuration it returns
   - so-nrg:  the same on energy alone

   A single-objective tuner's answer is a point, so the volume it
   encloses is structurally partial however well it tunes — that is
   the multi-objective claim. For transparency the JSON also reports
   the hypervolume of the single-objective tuners' entire visited
   histories (hv_single_*_visited_mean): on this surface time and
   energy correlate enough that a 278-evaluation search trail covers
   most of the front incidentally, which is an artifact of scoring
   the trail rather than the answer, and carries no assertion.

   Two claims are asserted under the full protocol: the mean moo
   hypervolume must be at least the random-search mean and at least
   each single-objective mean. HIPERBOT_MOO_BUDGET overrides the
   total budget for CI smoke runs; the hypervolume assertions are
   skipped then (a handful of evaluations is pure noise) but the
   report, the front sanity checks (non-empty, mutually
   non-dominated), and the JSON field contract still hold. *)

let output_path = "BENCH_moo.json"
let n_rays = 5

let budget_override =
  match Sys.getenv_opt "HIPERBOT_MOO_BUDGET" with
  | None -> None
  | Some s -> (
      match int_of_string_opt s with
      | Some n when n >= n_rays -> Some n
      | _ ->
          failwith
            (Printf.sprintf "HIPERBOT_MOO_BUDGET must be an integer >= %d (one per ray)"
               n_rays))

let vector_of config = [| Hpcsim.Kripke.exec_time_capped config; Hpcsim.Kripke.energy config |]

let front_of_configs configs =
  let f = Hiperbot.Pareto.create ~arity:2 in
  List.iter (fun c -> ignore (Hiperbot.Pareto.add f (vector_of c))) configs;
  f

let assert_sane ~label front =
  let pts = Hiperbot.Pareto.points front in
  if Array.length pts = 0 then
    failwith (Printf.sprintf "BENCH moo: %s produced an empty front" label);
  Array.iter
    (fun p ->
      Array.iter
        (fun q ->
          if Hiperbot.Pareto.dominates p q then
            failwith (Printf.sprintf "BENCH moo: %s front is not mutually non-dominated" label))
        pts)
    pts

(* Median of an objective column — the shared reference coordinate. *)
let median values =
  let v = Array.copy values in
  Array.sort compare v;
  v.(Array.length v / 2)

let run ~reps () =
  Harness.section "Multi-objective tuning: Pareto hypervolume on Kripke time+energy";
  let space = Hpcsim.Kripke.energy_space in
  let pool = Param.Space.enumerate space in
  let n = Array.length pool in
  let budget =
    match budget_override with Some b -> b | None -> (n / 100) + 100
  in
  let per_ray = budget / n_rays in
  let total_budget = per_ray * n_rays in
  let vectors = Array.map vector_of pool in
  let times = Array.map (fun v -> v.(0)) vectors in
  let energies = Array.map (fun v -> v.(1)) vectors in
  let min_of = Array.fold_left Float.min infinity in
  let max_of = Array.fold_left Float.max neg_infinity in
  let t_min = min_of times and t_max = max_of times in
  let e_min = min_of energies and e_max = max_of energies in
  let reference = [| median times; median energies |] in
  let hv front = Hiperbot.Pareto.hypervolume ~reference front in
  (* The achievable total: the front of the whole table. *)
  let ideal_front = front_of_configs (Array.to_list pool) in
  let ideal_hv = hv ideal_front in
  (* Chebyshev weight rays, normalized by the objective ranges so a
     ray's balance point is meaningful in both units. *)
  let rays =
    List.init n_rays (fun i ->
        let lambda = (float_of_int i +. 1.) /. (float_of_int n_rays +. 1.) in
        [| lambda /. (t_max -. t_min); (1. -. lambda) /. (e_max -. e_min) |])
  in
  let moo_hv = Stats.Running.create () in
  let random_hv = Stats.Running.create () in
  let so_time_hv = Stats.Running.create () in
  let so_energy_hv = Stats.Running.create () in
  let so_time_visited_hv = Stats.Running.create () in
  let so_energy_visited_hv = Stats.Running.create () in
  let moo_front_size = Stats.Running.create () in
  for rep = 0 to reps - 1 do
    let seed = 100 + rep in
    (* moo: one scalarised campaign per weight ray, archives pooled. *)
    let moo_configs = ref [] in
    List.iteri
      (fun ray_idx weights ->
        let moo =
          { Hiperbot.Moo.scalarisation = Hiperbot.Moo.Chebyshev; weights; reference }
        in
        let t =
          Hiperbot.Moo.run ~moo
            ~rng:(Prng.Rng.create ((seed * n_rays) + ray_idx))
            ~space ~budget:per_ray
            ~objective:(fun c -> Hiperbot.Moo.Vector (vector_of c))
            ()
        in
        match Hiperbot.Moo.result t with
        | Error _ -> failwith "BENCH moo: scalarised campaign failed"
        | Ok r ->
            Array.iter
              (fun (c, _) -> moo_configs := c :: !moo_configs)
              r.Hiperbot.Campaign.history)
      rays;
    let moo_front = front_of_configs !moo_configs in
    assert_sane ~label:"moo" moo_front;
    Stats.Running.add moo_hv (hv moo_front);
    Stats.Running.add moo_front_size
      (float_of_int (Array.length (Hiperbot.Pareto.points moo_front)));
    (* random: the same total budget of uniform draws. *)
    let rng = Prng.Rng.create seed in
    let random_configs =
      List.init total_budget (fun _ -> Param.Space.random_config space rng)
    in
    let random_front = front_of_configs random_configs in
    assert_sane ~label:"random" random_front;
    Stats.Running.add random_hv (hv random_front);
    (* single-objective: the full budget on one axis each; scored on
       the best configuration returned, with the visited-history
       front as the informational column. *)
    let single objective =
      let r =
        Harness.tune ~rng:(Prng.Rng.create seed) ~space ~objective ~budget:total_budget ()
      in
      let returned = front_of_configs [ r.Hiperbot.Tuner.best_config ] in
      let visited =
        front_of_configs (Array.to_list (Array.map fst r.Hiperbot.Tuner.history))
      in
      (returned, visited)
    in
    let so_time, so_time_visited = single (fun c -> Hpcsim.Kripke.exec_time_capped c) in
    let so_energy, so_energy_visited = single (fun c -> Hpcsim.Kripke.energy c) in
    assert_sane ~label:"so-time" so_time;
    assert_sane ~label:"so-energy" so_energy;
    Stats.Running.add so_time_hv (hv so_time);
    Stats.Running.add so_energy_hv (hv so_energy);
    Stats.Running.add so_time_visited_hv (hv so_time_visited);
    Stats.Running.add so_energy_visited_hv (hv so_energy_visited)
  done;
  let pct s = 100. *. Stats.Running.mean s /. ideal_hv in
  Printf.printf "space: %d configurations, budget %d (%d rays x %d), reps %d\n" n total_budget
    n_rays per_ray reps;
  Printf.printf "objective ranges: time [%.3g, %.3g] s, energy [%.3g, %.3g] J\n" t_min t_max
    e_min e_max;
  Printf.printf "reference (per-objective medians): (%.4g s, %.5g J)\n" reference.(0)
    reference.(1);
  Printf.printf "table-wide front: %d points, hypervolume %.6g (achievable total)\n"
    (Array.length (Hiperbot.Pareto.points ideal_front))
    ideal_hv;
  Printf.printf "%-10s %18s %10s\n" "method" "hv (mean+-std)" "% of ideal";
  let line name s =
    Printf.printf "%-10s %10.4g+-%-7.2g %9.1f%%\n" name (Stats.Running.mean s)
      (Stats.Running.stddev s) (pct s)
  in
  line "moo" moo_hv;
  line "random" random_hv;
  line "so-time" so_time_hv;
  line "so-nrg" so_energy_hv;
  Printf.printf "moo front size: %.1f points (mean)\n" (Stats.Running.mean moo_front_size);
  Printf.printf
    "single-objective visited-history fronts (informational): time %.4g, energy %.4g\n"
    (Stats.Running.mean so_time_visited_hv)
    (Stats.Running.mean so_energy_visited_hv);
  let buf = Buffer.create 1024 in
  Printf.bprintf buf "{\n";
  Printf.bprintf buf "  \"benchmark\": \"moo\",\n";
  Harness.stamp buf;
  Printf.bprintf buf "  \"dataset\": \"kripke_energy\",\n";
  Printf.bprintf buf "  \"objectives\": [\"exec_time_capped\", \"energy\"],\n";
  Printf.bprintf buf "  \"pool_size\": %d,\n" n;
  Printf.bprintf buf "  \"budget\": %d,\n" total_budget;
  Printf.bprintf buf "  \"rays\": %d,\n" n_rays;
  Printf.bprintf buf "  \"reps\": %d,\n" reps;
  Printf.bprintf buf "  \"reference\": [%.6g, %.6g],\n" reference.(0) reference.(1);
  Printf.bprintf buf "  \"ideal_hypervolume\": %.6g,\n" ideal_hv;
  Printf.bprintf buf "  \"hv_moo_mean\": %.6g,\n" (Stats.Running.mean moo_hv);
  Printf.bprintf buf "  \"hv_moo_std\": %.6g,\n" (Stats.Running.stddev moo_hv);
  Printf.bprintf buf "  \"hv_random_mean\": %.6g,\n" (Stats.Running.mean random_hv);
  Printf.bprintf buf "  \"hv_single_time_mean\": %.6g,\n" (Stats.Running.mean so_time_hv);
  Printf.bprintf buf "  \"hv_single_energy_mean\": %.6g,\n" (Stats.Running.mean so_energy_hv);
  Printf.bprintf buf "  \"hv_single_time_visited_mean\": %.6g,\n"
    (Stats.Running.mean so_time_visited_hv);
  Printf.bprintf buf "  \"hv_single_energy_visited_mean\": %.6g,\n"
    (Stats.Running.mean so_energy_visited_hv);
  Printf.bprintf buf "  \"moo_front_size_mean\": %.1f\n" (Stats.Running.mean moo_front_size);
  Printf.bprintf buf "}\n";
  let oc = open_out output_path in
  output_string oc (Buffer.contents buf);
  close_out oc;
  Printf.printf "wrote %s\n%!" output_path;
  match budget_override with
  | Some _ -> print_endline "budget override set: skipping the hypervolume assertions"
  | None ->
      let moo = Stats.Running.mean moo_hv in
      let check_floor name other =
        if moo < other then
          failwith
            (Printf.sprintf "BENCH moo: moo hypervolume %.6g below %s %.6g" moo name other)
      in
      check_floor "random search" (Stats.Running.mean random_hv);
      check_floor "single-objective time" (Stats.Running.mean so_time_hv);
      check_floor "single-objective energy" (Stats.Running.mean so_energy_hv)
