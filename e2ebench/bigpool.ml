(* bigpool: Tuner.run_with_policy over a synthetic 10^7-configuration
   virtual space (7 ordinal parameters x 10 levels), budget 200, ranked
   on one domain. The objective is a hash of the configuration's
   enumeration rank: it has no structure for the surrogate to learn, so
   the branch-and-bound scan prunes little and Rank dominates the wall
   time. This is the workload a Strategy change moves and sync-paper
   does not. No second domain exists during the load: an idle one
   slowed it 2.7x, since every collection then stops both and the
   ranking allocates a 10 MB exclusion mask per step. Parallel ranking
   is measured by [probe], after the load. *)

open Bench

let n_params = 7
let levels = 10

let space =
  Param.Space.make
    (List.init n_params (fun i ->
         Param.Spec.ordinal_ints (Printf.sprintf "p%d" i) (List.init levels (fun j -> j + 1))))

let value_of_rank r = (Hashtbl.hash r land 0xFFFF) + 1
let objective c = float_of_int (value_of_rank (Param.Space.config_rank space c))

type exhaustive = {
  good : Metrics.Recall.good_set;
  best : float;
}

(* The exhaustive reference over all 10^7 rows, from a histogram of the
   objective's 65536 integer values: the best value, and the top-5%
   set at the type-7 quantile Dataset.Table.good_set_percentile uses. *)
let exhaustive () =
  let size = Option.get (Param.Space.cardinality space) in
  let hist = Array.make 65537 0 in
  for r = 0 to size - 1 do
    let y = value_of_rank r in
    hist.(y) <- hist.(y) + 1
  done;
  let order_stat k =
    (* the k-th smallest value, 0-based *)
    let rec go y seen = if seen + hist.(y) > k then y else go (y + 1) (seen + hist.(y)) in
    go 1 0
  in
  let h = float_of_int (size - 1) *. 0.05 in
  let lo = int_of_float h in
  let x_lo = float_of_int (order_stat lo) and x_hi = float_of_int (order_stat (lo + 1)) in
  let threshold = x_lo +. ((h -. float_of_int lo) *. (x_hi -. x_lo)) in
  let count = ref 0 in
  Array.iteri (fun y c -> if float_of_int y <= threshold then count := !count + c) hist;
  {
    good = { Metrics.Recall.test = (fun c -> objective c <= threshold); count = !count };
    best = float_of_int (order_stat 0);
  }

type env = {
  encoded : Hiperbot.Surrogate.Pool.t;  (* the probe's pool; campaigns build their own *)
  exhaustive : exhaustive;
}

let setup () = { encoded = Hiperbot.Surrogate.Pool.of_space space; exhaustive = exhaustive () }

let budget ctx = if ctx.smoke then 30 else 200

let campaign ?telemetry ctx ~seed ~objective =
  Hiperbot.Tuner.run_with_policy ?telemetry ~rng:(Prng.Rng.create seed) ~space ~objective
    ~budget:(budget ctx) ()

(* The reference set: seeds 1 and 2. *)
let reference ctx spans =
  List.init (if ctx.smoke then 1 else 2) (fun i ->
      Spans.traced_call spans ~campaign:(i + 1) ~layer:"tuner" "Tuner.run_with_policy"
        ~observe:ignore (fun telemetry ->
          campaign ~telemetry ctx ~seed:(i + 1) ~objective:(fun ~attempt:_ c ->
              Resilience.Outcome.Value (objective c))))

(* The single-threaded baseline: every 20th history prefix of a
   campaign replayed through Surrogate.Refit.update and
   Strategy.select_many_encoded, with and without the worker domain.
   The selected scores must match bit for bit. The selected
   configurations should too, but the parallel branch-and-bound scan
   can today return a different row of exactly the same score (a
   larger index than the sequential scan's): those tie flips are
   counted, not failed. Returns whether every score matched. *)
let probe env ~workers spans layers ~campaign history =
  let engine = Hiperbot.Surrogate.Refit.create env.encoded in
  let matches = ref true in
  let n = Array.length history in
  let prefix = ref 20 in
  while !prefix <= n do
    let obs = Array.sub history 0 !prefix in
    let evaluated = Param.Config.Table.create !prefix in
    Array.iter (fun (c, _) -> Param.Config.Table.replace evaluated c ()) obs;
    let surrogate, compiled =
      Spans.span spans ~campaign ~layer:"surrogate" "Surrogate.Refit.update" (fun () ->
          Hiperbot.Surrogate.Refit.update engine obs)
    in
    let select ?workers samples =
      let t0 = now () in
      let sel =
        Spans.span spans ~campaign ~layer:"strategy" "Strategy.select_many_encoded" (fun () ->
            Hiperbot.Strategy.select_many_encoded ?workers ~compiled ~k:1
              ~rng:(Prng.Rng.create 0) ~surrogate ~encoded:env.encoded ~evaluated ())
      in
      Samples.add samples ((now () -. t0) *. 1e3);
      sel
    in
    let seq = select layers.Layers.probe_seq_ms in
    let par = select ~workers layers.Layers.probe_par_ms in
    let score c =
      Hiperbot.Surrogate.Compiled.log_ratio compiled (Param.Space.config_rank space c)
    in
    layers.Layers.probes <- layers.Layers.probes + 1;
    if not (List.equal Param.Config.equal seq par) then begin
      layers.Layers.probe_mismatches <- layers.Layers.probe_mismatches + 1;
      if List.equal (fun a b -> Float.equal (score a) (score b)) seq par then
        layers.Layers.probe_tie_flips <- layers.Layers.probe_tie_flips + 1
      else matches := false
    end;
    prefix := !prefix + 20
  done;
  !matches

let run ctx =
  let env, setup = timed_setup ctx setup in
  let next_seed = seed_stream ctx in
  let spans = Spans.create ~on:ctx.traced ~domain:0 in
  let layers = Layers.create () in
  let waits = Waits.create () in
  let campaign_s = Samples.create () in
  let units = ref 0 and timed_s = ref 0. in
  let attempted = ref 0 and failed = ref 0 in
  let full_budget = ref true in
  load ctx ~setup ~per_second:9. (fun i ->
      let seed = next_seed () in
      let objective =
        instrument ~waits ~spans ~campaign:i (fun ~attempt:_ c ->
            Resilience.Outcome.Value (objective c))
      in
      Waits.campaign_start waits;
      let t0 = now () in
      let r =
        Spans.traced_call spans ~campaign:i ~layer:"tuner" "Tuner.run_with_policy"
          ~observe:(Layers.observe layers) (fun telemetry ->
            campaign ~telemetry ctx ~seed ~objective)
      in
      let dt = now () -. t0 in
      Samples.add campaign_s dt;
      timed_s := !timed_s +. dt;
      incr attempted;
      match r with
      | Ok r ->
          units := !units + Array.length r.history;
          layers.Layers.suggests <- !units;
          if Array.length r.history <> budget ctx then begin
            full_budget := false;
            incr failed
          end
      | Error _ -> incr failed);
  (* The reference campaigns score quality and feed the probe. *)
  let runs, traced_matches, overhead_pct =
    reference_pass ctx (reference ctx) ~same:same_outcome
  in
  layers.Layers.overhead_pct <- overhead_pct;
  let quality = Quality.create () in
  let scores_match = ref true and probe_s = ref 0. in
  Parallel.Pool.with_pool ~num_domains:1 (fun workers ->
      List.iteri
        (fun i r ->
          incr attempted;
          match r with
          | Ok (r : Hiperbot.Tuner.result) ->
              Quality.add quality ~good:env.exhaustive.good ~exhaustive_best:env.exhaustive.best
                r.history;
              let t0 = now () in
              if not (probe env ~workers spans layers ~campaign:(-1 - i) r.history) then
                scores_match := false;
              probe_s := !probe_s +. (now () -. t0)
          | Error _ -> incr failed)
        runs);
  {
    attempted = !attempted;
    failed = !failed;
    checks =
      [ ("full_budget", !full_budget); ("probe_scores_match", !scores_match) ]
      @ if ctx.traced then [ ("traced_matches_untraced", traced_matches) ] else [];
    e2e =
      e2e ~setup_s:(setup_s setup) ~units:!units ~timed_s:!timed_s ~campaign_s
        ~tuner_ms:waits.samples ~quality;
    layers =
      (if ctx.traced then Layers.metrics layers ~spans:[ spans ] ~timed_s:(!timed_s +. !probe_s)
       else []);
    trace = (if ctx.traced then [ spans ] else []);
  }
