(* sync-paper: the paper's own protocol (§V). Tuner.run_with_policy on
   the five selection datasets at the paper's largest sample size,
   n_init 20, fault-free, one thread, no run log. Tuner time goes to
   Surrogate.Refit and to sequential rank scans of 1.6k-17.8k-row
   pools, all below Strategy.default_parallel_threshold; Runlog, Serve,
   retries and parallel ranking are bypassed. *)

open Bench

(* Tables are built from the simulators directly (the registry
   memoizes them) so every set-up repetition pays the real cost. *)
let datasets =
  [
    ("kripke", Hpcsim.Kripke.exec_table, 192);
    ("kripke_energy", Hpcsim.Kripke.energy_table, 439);
    ("hypre", Hpcsim.Hypre.table, 441);
    ("lulesh", Hpcsim.Lulesh.table, 446);
    ("openatom", Hpcsim.Openatom.table, 439);
  ]

type dataset = {
  name : string;
  space : Param.Space.t;
  objective : attempt:int -> Param.Config.t -> Resilience.Outcome.t;
  budget : int;
  good : Metrics.Recall.good_set;
  exhaustive_best : float;
}

let options = { Hiperbot.Tuner.default_options with n_init = 20 }

let setup ctx () =
  Array.of_list
    (List.map
       (fun (name, build, budget) ->
         let table = build () in
         let lookup = Dataset.Table.objective_fn table in
         {
           name;
           space = Dataset.Table.space table;
           objective = (fun ~attempt:_ c -> Resilience.Outcome.Value (lookup c));
           budget = (if ctx.smoke then 30 else budget);
           good = Metrics.Recall.percentile_good_set table 0.05;
           exhaustive_best = Dataset.Table.best_value table;
         })
       datasets)

let campaign ?telemetry ds ~seed ~objective =
  Hiperbot.Tuner.run_with_policy ?telemetry ~options ~rng:(Prng.Rng.create seed) ~space:ds.space
    ~objective ~budget:ds.budget ()

(* The reference set: seeds 1..4 on every dataset. *)
let reference ctx dss spans =
  List.concat_map
    (fun seed ->
      List.map
        (fun ds ->
          ( ds,
            Spans.traced_call spans ~campaign:seed ~layer:"tuner" "Tuner.run_with_policy"
              ~observe:ignore (fun telemetry ->
                campaign ~telemetry ds ~seed ~objective:ds.objective) ))
        (Array.to_list dss))
    (List.init (if ctx.smoke then 1 else 4) (fun i -> i + 1))

let run ctx =
  let dss, setup = timed_setup ctx (setup ctx) in
  let n_ds = Array.length dss in
  let next_seed = seed_stream ctx in
  let spans = Spans.create ~on:ctx.traced ~domain:0 in
  let layers = Layers.create () in
  let waits = Waits.create () in
  let campaign_s = Samples.create () in
  let units = ref 0 and timed_s = ref 0. in
  let attempted = ref 0 and failed = ref 0 in
  let full_budget = ref true in
  let lulesh_select = Layers.select_observer layers in
  load ctx ~setup ~per_second:16. (fun i ->
      let ds = dss.(i mod n_ds) in
      let seed = next_seed () in
      let objective = instrument ~waits ~spans ~campaign:i ds.objective in
      let observe ev =
        Layers.observe layers ev;
        if ds.name = "lulesh" then lulesh_select ev
      in
      Waits.campaign_start waits;
      let t0 = now () in
      let r =
        Spans.traced_call spans ~campaign:i ~layer:"tuner" "Tuner.run_with_policy" ~observe
          (fun telemetry -> campaign ~telemetry ds ~seed ~objective)
      in
      let dt = now () -. t0 in
      Samples.add campaign_s dt;
      timed_s := !timed_s +. dt;
      incr attempted;
      match r with
      | Ok r ->
          units := !units + Array.length r.history;
          layers.Layers.suggests <- !units;
          if Array.length r.history <> ds.budget then begin
            full_budget := false;
            incr failed
          end
      | Error _ -> incr failed);
  let runs, traced_matches, overhead_pct =
    reference_pass ctx (reference ctx dss) ~same:(fun (_, a) (_, b) -> same_outcome a b)
  in
  let quality = Quality.create () in
  List.iter
    (fun (ds, r) ->
      incr attempted;
      match r with
      | Ok (r : Hiperbot.Tuner.result) ->
          if Array.length r.history <> ds.budget then begin
            full_budget := false;
            incr failed
          end;
          Quality.add quality ~good:ds.good ~exhaustive_best:ds.exhaustive_best r.history
      | Error _ -> incr failed)
    runs;
  layers.Layers.overhead_pct <- overhead_pct;
  let checks =
    ("full_budget", !full_budget)
    :: (if ctx.traced then [ ("traced_matches_untraced", traced_matches) ] else [])
  in
  {
    attempted = !attempted;
    failed = !failed;
    checks;
    e2e =
      e2e ~setup_s:(setup_s setup) ~units:!units ~timed_s:!timed_s ~campaign_s
        ~tuner_ms:waits.samples ~quality;
    layers = (if ctx.traced then Layers.metrics layers ~spans:[ spans ] ~timed_s:!timed_s else []);
    trace = (if ctx.traced then [ spans ] else []);
  }
