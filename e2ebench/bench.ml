(* Shared machinery of the end-to-end benchmark: the clock, sample
   buffers, the run context, seeds, the sized load, and the metric
   records every workload returns. *)

let now = Unix.gettimeofday

(* A growable buffer of float samples with type-7 quantiles (the
   estimator Stats.Quantile implements). *)
module Samples = struct
  type t = { mutable data : float array; mutable n : int }

  let create () = { data = Array.make 256 0.; n = 0 }

  let add t x =
    if t.n = Array.length t.data then begin
      let bigger = Array.make (2 * t.n) 0. in
      Array.blit t.data 0 bigger 0 t.n;
      t.data <- bigger
    end;
    t.data.(t.n) <- x;
    t.n <- t.n + 1

  let count t = t.n
  let to_array t = Array.sub t.data 0 t.n
  let sum t = Array.fold_left ( +. ) 0. (to_array t)
  let mean t = if t.n = 0 then 0. else sum t /. float_of_int t.n

  (* 0 for an empty buffer: a layer the workload never reached. *)
  let quantile t q = if t.n = 0 then 0. else Stats.Quantile.quantile (to_array t) q

  let append_into ~dst src = Array.iter (add dst) (to_array src)
end

type ctx = {
  seed : int;
  seconds : float;  (* size of the measured load, in seconds on the reference machine *)
  traced : bool;
  smoke : bool;  (* the ~1/100-scale self-test: tiny budgets, one setup, every check *)
  work_dir : string;  (* run logs and server state, removed when the run ends *)
}

type metric = { name : string; value : float; unit_ : string }

let metric name unit_ value = { name; value; unit_ }

type result = {
  attempted : int;  (* operations the workload issued: evaluations, requests, checks *)
  failed : int;
      (* errors, rejected requests, exceptions and failed checks; injected faults excluded *)
  checks : (string * bool) list;
  e2e : metric list;
  layers : metric list;  (* empty unless traced *)
  trace : Spans.t list;  (* one recorder per client domain; empty unless traced *)
}

(* Set-up time: how long the program takes to build what a run needs
   before its first campaign. It is measured 5 times before the load
   and once more every 3 s of it, and reported as the median, so a burst
   of host noise at start-up (set-up times came out bimodal, 40-60%
   apart, from one process to the next) moves only a few samples. The
   run uses the first set-up; the later ones are only timed. *)
type setup = { times : Samples.t; rerun : unit -> unit }

let timed_setup ctx f =
  let times = Samples.create () in
  let timed () =
    let t0 = now () in
    let v = f () in
    Samples.add times (now () -. t0);
    v
  in
  let first = timed () in
  let rerun () = if not ctx.smoke then ignore (timed ()) in
  for _ = 2 to 5 do
    rerun ()
  done;
  (first, { times; rerun })

let setup_s setup = Samples.quantile setup.times 0.5

(* Every campaign seed of the load derives from the CLI seed, drawn in
   campaign order. *)
let seed_stream ctx =
  let rng = Prng.Rng.create ctx.seed in
  fun () -> Prng.Rng.int rng 1_000_000_000

(* The measured load: [per_second] steps a second on the reference
   machine (2 vCPUs of a Xeon at 2.1 GHz), for [ctx.seconds], so the
   same seed runs the same campaigns on any machine. A run stops early
   only past 1.5 times its seconds, so a slow host cannot stretch it
   without bound. Between steps, every 3 s, the set-up is timed again. *)
let load ctx ~setup ~per_second step =
  let n = max 1 (int_of_float (Float.ceil (ctx.seconds *. per_second))) in
  let t0 = now () in
  let last_setup = ref t0 in
  let rec go i =
    if i < n && (i = 0 || now () -. t0 < 1.5 *. ctx.seconds) then begin
      if now () -. !last_setup >= 3. then begin
        setup.rerun ();
        last_setup := now ()
      end;
      step i;
      go (i + 1)
    end
  in
  go 0

(* How long the application waits on the tuner: the wall-clock gap
   between one evaluation returning and the next one starting, within a
   campaign. Retries of one evaluation are the evaluator's, not a new
   evaluation, so only first attempts open a gap. *)
module Waits = struct
  type t = { samples : Samples.t; mutable last_end : float }

  let create () = { samples = Samples.create (); last_end = Float.nan }
  let campaign_start t = t.last_end <- Float.nan

  let call_start t ~first =
    let t0 = now () in
    if first && not (Float.is_nan t.last_end) then
      Samples.add t.samples ((t0 -. t.last_end) *. 1e3);
    t0

  let call_end t =
    let t1 = now () in
    t.last_end <- t1;
    t1
end

(* Application time: [f] wrapped so each call feeds the tuner-wait
   samples and, when tracing, becomes an Hpcsim span under whatever
   bench span is open. *)
let instrument ~waits ~spans ~campaign f ~attempt config =
  let t0 = Waits.call_start waits ~first:(attempt = 1) in
  let y = f ~attempt config in
  let t1 = Waits.call_end waits in
  Spans.leaf spans ~campaign ~layer:"hpcsim" "Hpcsim.eval" t0 t1;
  y

let same_history a b =
  Array.length a = Array.length b
  && Array.for_all2 (fun (c1, y1) (c2, y2) -> Param.Config.equal c1 c2 && Float.equal y1 y2) a b

(* Bit-for-bit equality of two campaign results, failures included. *)
let same_result (a : Hiperbot.Tuner.result) (b : Hiperbot.Tuner.result) =
  same_history a.history b.history
  && Array.length a.failures = Array.length b.failures
  && Array.for_all2
       (fun (c1, o1) (c2, o2) ->
         Param.Config.equal c1 c2
         && Resilience.Outcome.kind o1 = Resilience.Outcome.kind o2)
       a.failures b.failures
  && Array.for_all2 Float.equal a.trajectory b.trajectory
  && Float.equal a.best_value b.best_value
  && a.n_attempts = b.n_attempts
  && Float.equal a.retry_cost b.retry_cost

(* Quality of a set of campaigns against their exhaustive tables: mean
   top-5% recall and mean best-found / exhaustive-best. *)
module Quality = struct
  type t = { recall : Samples.t; ratio : Samples.t }

  let create () = { recall = Samples.create (); ratio = Samples.create () }

  let add t ~good ~exhaustive_best history =
    Samples.add t.recall (Metrics.Recall.recall good history);
    let best = Array.fold_left (fun acc (_, y) -> Float.min acc y) infinity history in
    Samples.add t.ratio (best /. exhaustive_best)

  let metrics t =
    [
      metric "recall" "ratio" (Samples.mean t.recall);
      metric "best_ratio" "ratio" (Samples.mean t.ratio);
    ]
end

(* The fixed reference set of a workload — the campaigns its quality
   metrics are scored on, with seeds that do not depend on --seed — run
   untraced and, on a traced run, again under a throwaway recorder. The
   traced copy must match the untraced one item for item ([same]). On a
   traced run a second pair in the opposite order evens out warm-up and
   GC drift; the extra wall time of the faster traced pass over the
   faster untraced one is the tracing overhead, in percent. *)
let reference_pass ctx ~same run =
  let timed spans =
    let t0 = now () in
    let r = run spans in
    (r, now () -. t0)
  in
  let throwaway () = Spans.create ~on:true ~domain:0 in
  let plain, plain_s = timed Spans.disabled in
  if not ctx.traced then (plain, true, 0.)
  else
    let traced, traced_s = timed (throwaway ()) in
    let _, traced_s' = timed (throwaway ()) in
    let _, plain_s' = timed Spans.disabled in
    let p = Float.min plain_s plain_s' and t = Float.min traced_s traced_s' in
    (plain, List.equal same plain traced, 100. *. (t -. p) /. p)

let same_outcome a b =
  match (a, b) with Ok a, Ok b -> same_result a b | _ -> false

let mb_of_words w = float_of_int w *. float_of_int (Sys.word_size / 8) /. 1048576.

(* The end-to-end metrics every workload reports, in BENCHMARK.json
   order. The heap is what stays live after a full major collection at
   the end of the run: deterministic for a given load, where the peak
   heap depends on when collections land across domains (bigpool's
   peaks split between 59, 68 and 78 MB from run to run). *)
let e2e ~setup_s ~units ~timed_s ~campaign_s ~tuner_ms ~quality =
  Gc.full_major ();
  let gc = Gc.quick_stat () in
  [
    metric "setup_s" "s" setup_s;
    metric "evals_per_s" "1/s" (float_of_int units /. timed_s);
    metric "campaign_s_p50" "s" (Samples.quantile campaign_s 0.5);
    metric "tuner_ms_p50" "ms" (Samples.quantile tuner_ms 0.5);
    metric "tuner_ms_p99" "ms" (Samples.quantile tuner_ms 0.99);
  ]
  @ Quality.metrics quality
  @ [ metric "live_heap_mb" "MB" (mb_of_words gc.Gc.live_words) ]
