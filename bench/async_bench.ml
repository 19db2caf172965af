(* Sync vs async campaign engine on kripke: best-found, recall of the
   top-5% set, and simulated wall-clock (makespan) for k in {1,2,4,8}
   in-flight evaluations, seeded repetitions each. Results go to
   stdout for humans and BENCH_async.json for tooling.

   Two invariants are asserted, not just reported:
   - k=1 reproduces a plain suggest/evaluate/report step loop over
     the campaign bit-for-bit, every rep;
   - for k in {2,4,8} the async recall stays within noise of sync
     (pending-aware selection trades per-step information for
     parallelism, but must not collapse quality).

   The makespan comes from the engine's own Complete telemetry (the
   simulated clock under the default duration model: one cost unit per
   objective value plus retry backoff), so speedup numbers measure the
   schedule the engine actually produced, not host timing jitter. *)

let output_path = "BENCH_async.json"
let ks = [ 1; 2; 4; 8 ]
let budget = 64
let n_init = 10

type row = {
  k : int;
  best : Stats.Running.t;
  recall : Stats.Running.t;
  makespan : Stats.Running.t;
  host_ms : Stats.Running.t;
}

let results_identical (a : Hiperbot.Tuner.result) (b : Hiperbot.Tuner.result) =
  Array.length a.Hiperbot.Tuner.history = Array.length b.Hiperbot.Tuner.history
  && Array.for_all2
       (fun (c1, y1) (c2, y2) -> Param.Config.equal c1 c2 && Float.equal y1 y2)
       a.Hiperbot.Tuner.history b.Hiperbot.Tuner.history
  && Float.equal a.Hiperbot.Tuner.best_value b.Hiperbot.Tuner.best_value
  && a.Hiperbot.Tuner.n_attempts = b.Hiperbot.Tuner.n_attempts
  && Float.equal a.Hiperbot.Tuner.retry_cost b.Hiperbot.Tuner.retry_cost
  && Array.length a.Hiperbot.Tuner.failures = Array.length b.Hiperbot.Tuner.failures

(* The paper's sequential loop written on the step API alone: suggest,
   evaluate, report, until the campaign finishes. The k=1 row runs
   [Tuner.drive], so comparing the two checks the driver from outside. *)
let step_loop campaign ~objective =
  let rec loop () =
    match Hiperbot.Campaign.suggest campaign with
    | Hiperbot.Campaign.Finished -> Hiperbot.Campaign.result campaign
    | Hiperbot.Campaign.Wait -> failwith "BENCH async: the step loop was told to wait"
    | Hiperbot.Campaign.Suggest s ->
        Hiperbot.Campaign.report campaign ~id:s.Hiperbot.Campaign.id
          (Resilience.Evaluator.evaluate ~policy:Resilience.Policy.default ~objective
             s.Hiperbot.Campaign.config);
        loop ()
  in
  loop ()

let run ~reps () =
  Harness.section "Async campaign engine: sync vs k in-flight evaluations";
  let table = (Hpcsim.Registry.find "kripke").Hpcsim.Registry.table () in
  let space = Dataset.Table.space table in
  let objective ~attempt:_ c = Resilience.Outcome.Value (Dataset.Table.objective_fn table c) in
  let good = Metrics.Recall.percentile_good_set table 0.05 in
  let options = { Hiperbot.Tuner.default_options with n_init } in
  let sync_row =
    {
      k = 0;
      best = Stats.Running.create ();
      recall = Stats.Running.create ();
      makespan = Stats.Running.create ();
      host_ms = Stats.Running.create ();
    }
  in
  let rows =
    List.map
      (fun k ->
        {
          k;
          best = Stats.Running.create ();
          recall = Stats.Running.create ();
          makespan = Stats.Running.create ();
          host_ms = Stats.Running.create ();
        })
      ks
  in
  let k1_matches = ref true in
  for rep = 0 to reps - 1 do
    let seed = 100 + rep in
    let unwrap = function
      | Stdlib.Ok r -> r
      | Stdlib.Error _ -> failwith "BENCH async: fault-free campaign failed outright"
    in
    let t0 = Unix.gettimeofday () in
    let sync =
      unwrap
        (step_loop ~objective
           (Hiperbot.Campaign.create ~options ~mode:(Hiperbot.Campaign.Async 1)
              ~rng:(Prng.Rng.create seed) ~space ~budget ()))
    in
    let sync_ms = (Unix.gettimeofday () -. t0) *. 1e3 in
    Stats.Running.add sync_row.best sync.Hiperbot.Tuner.best_value;
    Stats.Running.add sync_row.recall (Metrics.Recall.recall good sync.Hiperbot.Tuner.history);
    Stats.Running.add sync_row.host_ms sync_ms;
    List.iter
      (fun row ->
        let sink, collected = Telemetry.Trace.memory_sink () in
        let telemetry = Telemetry.Trace.make [ sink ] in
        let t0 = Unix.gettimeofday () in
        let result =
          unwrap
            (Hiperbot.Tuner.run_async ~telemetry ~options ~k:row.k ~rng:(Prng.Rng.create seed)
               ~space ~objective ~budget ())
        in
        let host = (Unix.gettimeofday () -. t0) *. 1e3 in
        Telemetry.Trace.close telemetry;
        let makespan =
          List.fold_left
            (fun acc (_, ev) ->
              match ev with
              | Telemetry.Event.Complete { sim_time; _ } -> Float.max acc sim_time
              | _ -> acc)
            0. (collected ())
        in
        if row.k = 1 && not (results_identical sync result) then k1_matches := false;
        Stats.Running.add row.best result.Hiperbot.Tuner.best_value;
        Stats.Running.add row.recall (Metrics.Recall.recall good result.Hiperbot.Tuner.history);
        Stats.Running.add row.makespan makespan;
        Stats.Running.add row.host_ms host)
      rows
  done;
  (* The serial makespan is k=1's: same evaluations, one at a time. *)
  let serial_makespan = Stats.Running.mean (List.hd rows).makespan in
  Printf.printf "kripke, budget=%d, n_init=%d, reps=%d, good set=%d configs (top 5%%)\n" budget
    n_init reps good.Metrics.Recall.count;
  Printf.printf "%-8s %18s %18s %16s %10s\n" "engine" "best (mean+-std)" "recall (mean+-std)"
    "sim makespan" "speedup";
  Printf.printf "%-8s %10.4g+-%-7.2g %10.3f+-%-7.3f %16s %10s\n" "sync"
    (Stats.Running.mean sync_row.best) (Stats.Running.stddev sync_row.best)
    (Stats.Running.mean sync_row.recall) (Stats.Running.stddev sync_row.recall) "-" "-";
  List.iter
    (fun row ->
      Printf.printf "%-8s %10.4g+-%-7.2g %10.3f+-%-7.3f %16.6g %9.2fx\n"
        (Printf.sprintf "async-%d" row.k) (Stats.Running.mean row.best)
        (Stats.Running.stddev row.best) (Stats.Running.mean row.recall)
        (Stats.Running.stddev row.recall) (Stats.Running.mean row.makespan)
        (serial_makespan /. Stats.Running.mean row.makespan))
    rows;
  Printf.printf "async k=1 = sync bit-for-bit: %b\n" !k1_matches;
  let buf = Buffer.create 1024 in
  Printf.bprintf buf "{\n";
  Printf.bprintf buf "  \"benchmark\": \"async\",\n";
  Harness.stamp buf;
  Printf.bprintf buf "  \"dataset\": \"kripke\",\n";
  Printf.bprintf buf "  \"budget\": %d,\n" budget;
  Printf.bprintf buf "  \"n_init\": %d,\n" n_init;
  Printf.bprintf buf "  \"reps\": %d,\n" reps;
  Printf.bprintf buf "  \"good_set\": %d,\n" good.Metrics.Recall.count;
  Printf.bprintf buf "  \"k1_matches_sync\": %b,\n" !k1_matches;
  Printf.bprintf buf "  \"sync\": { \"best_mean\": %.6g, \"best_std\": %.6g, \"recall_mean\": %.4f, \"recall_std\": %.4f, \"host_ms_mean\": %.3f },\n"
    (Stats.Running.mean sync_row.best) (Stats.Running.stddev sync_row.best)
    (Stats.Running.mean sync_row.recall) (Stats.Running.stddev sync_row.recall)
    (Stats.Running.mean sync_row.host_ms);
  Printf.bprintf buf "  \"async\": [\n";
  List.iteri
    (fun i row ->
      Printf.bprintf buf
        "    { \"k\": %d, \"best_mean\": %.6g, \"best_std\": %.6g, \"recall_mean\": %.4f, \
         \"recall_std\": %.4f, \"sim_makespan_mean\": %.6g, \"speedup\": %.3f, \
         \"host_ms_mean\": %.3f }%s\n"
        row.k (Stats.Running.mean row.best) (Stats.Running.stddev row.best)
        (Stats.Running.mean row.recall) (Stats.Running.stddev row.recall)
        (Stats.Running.mean row.makespan)
        (serial_makespan /. Stats.Running.mean row.makespan)
        (Stats.Running.mean row.host_ms)
        (if i = List.length rows - 1 then "" else ","))
    rows;
  Printf.bprintf buf "  ]\n";
  Printf.bprintf buf "}\n";
  let oc = open_out output_path in
  output_string oc (Buffer.contents buf);
  close_out oc;
  Printf.printf "wrote %s\n%!" output_path;
  if not !k1_matches then failwith "BENCH async: k=1 diverged from the synchronous engine";
  (* Recall tolerance: async trades per-submission information for
     parallelism; it must stay within rep-to-rep noise of sync. *)
  let sync_mean = Stats.Running.mean sync_row.recall in
  let sync_std = Stats.Running.stddev sync_row.recall in
  List.iter
    (fun row ->
      if row.k > 1 then begin
        let mean = Stats.Running.mean row.recall in
        let noise = Float.max 0.15 (2. *. (sync_std +. Stats.Running.stddev row.recall)) in
        if mean < sync_mean -. noise then
          failwith
            (Printf.sprintf "BENCH async: k=%d recall %.3f below sync %.3f - %.3f" row.k mean
               sync_mean noise)
      end)
    rows
