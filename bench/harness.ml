(* Shared machinery for the experiment regenerators: method wrappers
   with a common signature, table printers, and the selection-
   experiment runner used by Figures 2-6. *)

type tuner = {
  label : string;
  run : rng:Prng.Rng.t -> budget:int -> Baselines.Outcome.t;
}

(* Tune a total objective with the synchronous driver. *)
let tune ?options ~rng ~space ~objective ~budget () =
  match
    Hiperbot.Tuner.run_with_policy ?options ~rng ~space
      ~objective:(fun ~attempt:_ c -> Resilience.Outcome.Value (objective c))
      ~budget ()
  with
  | Ok r -> r
  | Error _ -> failwith "every evaluation failed"

let hiperbot_tuner ?(options = Hiperbot.Tuner.default_options) ?(label = "HiPerBOt") table =
  let space = Dataset.Table.space table in
  let objective = Dataset.Table.objective_fn table in
  {
    label;
    run =
      (fun ~rng ~budget ->
        Baselines.Outcome.of_tuner_result (tune ~options ~rng ~space ~objective ~budget ()));
  }

let random_tuner table =
  let space = Dataset.Table.space table in
  let objective = Dataset.Table.objective_fn table in
  { label = "Random"; run = (fun ~rng ~budget -> Baselines.Random_search.run ~rng ~space ~objective ~budget ()) }

let geist_tuner ?(options = Baselines.Geist.default_options) table =
  let space = Dataset.Table.space table in
  let objective = Dataset.Table.objective_fn table in
  (* The lattice graph depends only on the space: build it once and
     share it across repetitions and sample sizes. *)
  let graph = lazy (Graphlib.Lattice.build space) in
  {
    label = "GEIST";
    run =
      (fun ~rng ~budget ->
        Baselines.Geist.run ~options ~graph:(Lazy.force graph) ~rng ~space ~objective ~budget ());
  }

let gbt_tuner ?(options = Baselines.Gbt_tuner.default_options) table =
  let space = Dataset.Table.space table in
  let objective = Dataset.Table.objective_fn table in
  { label = "GBT"; run = (fun ~rng ~budget -> Baselines.Gbt_tuner.run ~options ~rng ~space ~objective ~budget ()) }

let gp_tuner ?(options = Baselines.Gp_tuner.default_options) table =
  let space = Dataset.Table.space table in
  let objective = Dataset.Table.objective_fn table in
  { label = "GP-EI"; run = (fun ~rng ~budget -> Baselines.Gp_tuner.run ~options ~rng ~space ~objective ~budget ()) }

(* ---- BENCH_*.json provenance ---- *)

let cores = Domain.recommended_domain_count ()

(* Short hash of the checked-out commit, suffixed "-dirty" when the
   working tree has uncommitted changes (so a file generated before a
   commit does not claim to come from its parent), or "unknown" when
   git or the repository is absent. *)
let commit =
  lazy
    (match Unix.open_process_in "git describe --always --dirty 2>/dev/null" with
    | exception Unix.Unix_error _ -> "unknown"
    | ic -> (
        let line = In_channel.input_line ic in
        match (Unix.close_process_in ic, line) with
        | Unix.WEXITED 0, Some c when c <> "" -> c
        | _ -> "unknown"))

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | ('"' | '\\') as c -> Printf.bprintf b "\\%c" c
      | c when Char.code c < 0x20 -> Printf.bprintf b "\\u%04x" (Char.code c)
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

(* Every HIPERBOT_*_BUDGET variable set in the environment, sorted by
   name: an empty list means the bench ran its full protocol. *)
let budget_overrides () =
  Array.to_list (Unix.environment ())
  |> List.filter_map (fun kv ->
         match String.index_opt kv '=' with
         | None -> None
         | Some i ->
             let name = String.sub kv 0 i in
             if String.starts_with ~prefix:"HIPERBOT_" name && String.ends_with ~suffix:"_BUDGET" name
             then Some (name, String.sub kv (i + 1) (String.length kv - i - 1))
             else None)
  |> List.sort compare

(* The provenance fields every BENCH_*.json writer emits right after
   its "benchmark" key: core count, commit, and budget overrides. *)
let stamp buf =
  Printf.bprintf buf "  \"cores\": %d,\n" cores;
  Printf.bprintf buf "  \"commit\": %s,\n" (json_string (Lazy.force commit));
  Printf.bprintf buf "  \"budget_overrides\": {%s},\n"
    (String.concat ", "
       (List.map
          (fun (name, value) -> json_string name ^ ": " ^ json_string value)
          (budget_overrides ())))

let section title =
  Printf.printf "\n=== %s ===\n%!" title

let subsection title = Printf.printf "\n--- %s ---\n%!" title

let percent_of_space table n = 100. *. float_of_int n /. float_of_int (Dataset.Table.size table)

(* Figures 2-6: for one dataset, sweep sample sizes for every method
   and print the best-configuration and Recall series (mean +/- std
   over repetitions), plus the exhaustive-best reference line. *)
let selection_experiment ~reps ~ell ~sizes table tuners =
  let good = Metrics.Recall.percentile_good_set table ell in
  let exhaustive = Dataset.Table.best_value table in
  Printf.printf "dataset=%s size=%d exhaustive_best=%.4g good(l=%.0f%%)=%d reps=%d\n%!"
    (Dataset.Table.name table) (Dataset.Table.size table) exhaustive (100. *. ell)
    good.Metrics.Recall.count reps;
  let detailed =
    List.map
      (fun tuner ->
        let d =
          Metrics.Runner.sweep_detailed ~reps ~base_seed:1000 ~sample_sizes:sizes ~good
            ~run:tuner.run
        in
        (tuner.label, d))
      tuners
  in
  let results = List.map (fun (label, d) -> (label, d.Metrics.Runner.points)) detailed in
  subsection "Best configuration found (mean+-std)";
  Printf.printf "%-18s" "samples (%space)";
  List.iter (fun (label, _) -> Printf.printf " %22s" label) results;
  Printf.printf " %12s\n" "Exhaustive";
  Array.iteri
    (fun i size ->
      Printf.printf "%6d (%5.1f%%)   " size (percent_of_space table size);
      List.iter
        (fun (_, points) ->
          let p = points.(i) in
          Printf.printf " %12.4g +-%7.2g" p.Metrics.Runner.best_mean p.Metrics.Runner.best_std)
        results;
      Printf.printf " %12.4g\n" exhaustive)
    sizes;
  subsection "Recall (mean+-std)";
  Printf.printf "%-18s" "samples (%space)";
  List.iter (fun (label, _) -> Printf.printf " %22s" label) results;
  Printf.printf "\n";
  Array.iteri
    (fun i size ->
      Printf.printf "%6d (%5.1f%%)   " size (percent_of_space table size);
      List.iter
        (fun (_, points) ->
          let p = points.(i) in
          Printf.printf " %12.3f +-%7.3f" p.Metrics.Runner.recall_mean p.Metrics.Runner.recall_std)
        results;
      Printf.printf "\n")
    sizes;
  (* Paired significance of each method against the last one (the
     repository's HiPerBOt by convention) at the largest sample
     size: repetitions share seeds, so differences pair by seed. *)
  (match List.rev detailed with
  | (ref_label, ref_d) :: others when reps >= 3 ->
      subsection
        (Printf.sprintf "Paired bootstrap (95%%) vs %s at %d samples" ref_label
           sizes.(Array.length sizes - 1));
      let rng = Prng.Rng.create 424242 in
      List.iter
        (fun (label, d) ->
          let report metric a b =
            let ci = Stats.Bootstrap.paired_diff_ci ~rng a b in
            Printf.printf "  %s - %s (%s): %+.4g [%+.4g, %+.4g]%s\n" label ref_label metric
              ci.Stats.Bootstrap.point ci.Stats.Bootstrap.lo ci.Stats.Bootstrap.hi
              (if Stats.Bootstrap.significant ci then " *" else "")
          in
          report "best" d.Metrics.Runner.final_bests ref_d.Metrics.Runner.final_bests;
          report "recall" d.Metrics.Runner.final_recalls ref_d.Metrics.Runner.final_recalls)
        (List.rev others)
  | _ -> ());
  results
