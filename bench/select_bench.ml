(* Before/after benchmark of the candidate-ranking path, in two parts.

   Part 1 (kripke, 1620 configurations): the naive per-configuration
   Surrogate.score scan (the pre-compiled-scorer implementation)
   against Surrogate.compile + table lookups.

   Part 2 (synthetic pools, 10^5 / 10^6 / 10^7 rows): the full
   per-refit cost of a growing campaign through the PR 2 production
   path (full Surrogate.fit + full compile + per-row Topk scan over a
   materialized, index-encoded pool) against the new path (virtual
   Surrogate.Pool.of_space, Surrogate.Refit update,
   streaming bounded-heap select), with a peak-memory column. The two
   paths must select identically at every refit; at 10^7 the PR 2 path
   is skipped (materializing the pool alone needs ~1.7 GB). Each pool
   also times one select that must skip 200 evaluated rows
   (select_ms_excluded), a campaign's steady state, and, up to 10^6,
   the linear chunked scan over the materialized pool
   (boxed_seq_select_ns).

   The production path is timed through the telemetry spans the code
   itself emits rather than an external stopwatch where spans exist;
   reconstructed legacy paths keep the ad-hoc timer.

   HIPERBOT_SELECT_BUDGET (positive integer) caps the largest pool
   exercised — pools above the cap are skipped together with their
   performance assertions, which keeps the CI smoke run fast while the
   full protocol stays the default. *)

let output_path = "BENCH_select.json"
let k = 10

(* The naive reference scans' accumulator: the list-based top-k the
   library ranked with before the streaming scan, kept here unchanged
   so the timed reference paths (and the BENCH_select.json ratios
   against them) mean what they always meant.

   Keep the k best (value, score) triples seen so far under the total
   order "higher score first, equal scores resolved toward the smaller
   index". The index is the caller's pool position (Ranking) or an
   insertion counter (Proposal), so ties are explicit and
   deterministic: the same multiset of offers yields the same top-k
   whatever the offer order. Entries are kept worst-first in a sorted
   association list; fine for the small k of batch selection. *)
module Topk = struct
  type 'a entry = { value : 'a; score : float; index : int }

  type 'a t = {
    k : int;
    mutable entries : 'a entry list;  (* sorted worst-first *)
    mutable size : int;
    mutable next_index : int;
  }

  let create k =
    if k < 1 then invalid_arg "Topk.create: k must be at least 1";
    { k; entries = []; size = 0; next_index = 0 }

  (* [beats a b]: a ranks strictly better than b. *)
  let beats a b = a.score > b.score || (a.score = b.score && a.index < b.index)

  let offer_indexed t value score index =
    let e = { value; score; index } in
    let admit =
      t.size < t.k || (match t.entries with worst :: _ -> beats e worst | [] -> true)
    in
    if admit then begin
      let rec insert = function
        | [] -> [ e ]
        | x :: rest -> if beats e x then x :: insert rest else e :: x :: rest
      in
      t.entries <- insert t.entries;
      if t.size = t.k then t.entries <- List.tl t.entries else t.size <- t.size + 1
    end

  let offer t value score =
    offer_indexed t value score t.next_index;
    t.next_index <- t.next_index + 1

  let to_list_desc t = List.rev_map (fun e -> e.value) t.entries
end

let budget_override =
  match Sys.getenv_opt "HIPERBOT_SELECT_BUDGET" with
  | None -> None
  | Some s -> (
      match int_of_string_opt s with
      | Some n when n > 0 -> Some n
      | _ -> failwith "HIPERBOT_SELECT_BUDGET must be a positive integer")

(* ns per call, best of [reps] timed batches. The batch size doubles
   until one batch takes at least 20 ms so timer granularity never
   dominates a measurement. Used only for the uninstrumented legacy
   paths and the (span-free) pool encode. *)
let time_ns ~reps f =
  ignore (f ());
  let min_batch_s = 0.02 in
  let rec calibrate iters =
    let t0 = Unix.gettimeofday () in
    for _ = 1 to iters do
      ignore (f ())
    done;
    let dt = Unix.gettimeofday () -. t0 in
    if dt >= min_batch_s then (iters, dt) else calibrate (iters * 2)
  in
  let iters, _ = calibrate 1 in
  let best = ref infinity in
  for _ = 1 to reps do
    let t0 = Unix.gettimeofday () in
    for _ = 1 to iters do
      ignore (f ())
    done;
    let dt = Unix.gettimeofday () -. t0 in
    if dt < !best then best := dt
  done;
  !best /. float_of_int iters *. 1e9

(* Wall-clock seconds of one run of [f], best of [reps]. For the
   large-pool campaign sequences, where one pass is tens of
   milliseconds and per-call batching is unnecessary. *)
let time_best_s ~reps f =
  let best = ref infinity in
  for _ = 1 to reps do
    let t0 = Unix.gettimeofday () in
    ignore (f ());
    let dt = Unix.gettimeofday () -. t0 in
    if dt < !best then best := dt
  done;
  !best

(* Per-call timings of an instrumented selection, read back from its
   own telemetry: run [f telemetry] enough times to cover at least
   20 ms x [reps], then take the minimum per-call Compile, Rank, and
   Compile+Rank span durations. Returns (total, compile, rank) in
   ns. *)
let span_ns ~reps f =
  let sink, collected = Telemetry.Trace.memory_sink () in
  let telemetry = Telemetry.Trace.make [ sink ] in
  ignore (f telemetry);
  let min_total_s = 0.02 *. float_of_int reps in
  let t0 = Unix.gettimeofday () in
  let calls = ref 0 in
  while !calls < reps || Unix.gettimeofday () -. t0 < min_total_s do
    ignore (f telemetry);
    incr calls
  done;
  let compile = ref [] and rank = ref [] in
  List.iter
    (fun (_, ev) ->
      match ev with
      | Telemetry.Event.Compile { dur_ms; _ } -> compile := dur_ms :: !compile
      | Telemetry.Event.Rank { dur_ms; _ } -> rank := dur_ms :: !rank
      | _ -> ())
    (collected ());
  if List.length !compile <> List.length !rank then
    failwith "BENCH select: unpaired Compile/Rank spans";
  (* The lists are call-ordered (both reversed), so map2 pairs each
     call's compile span with its rank span. *)
  let totals = List.map2 ( +. ) !compile !rank in
  let min_ns ms = List.fold_left Stdlib.min infinity ms *. 1e6 in
  (min_ns totals, min_ns !compile, min_ns !rank)

let same_selection a b =
  List.length a = List.length b && List.for_all2 Param.Config.equal a b

(* ---- part 2: million-config pools ---- *)

(* n_params decimal parameters of 10 choices each: pool size is
   exactly 10^n_params, and the widest slot count (10) keeps the
   encoded codes in the int16 kind. *)
let synthetic_space n_params =
  Param.Space.make
    (List.init n_params (fun i ->
         Param.Spec.ordinal_ints (Printf.sprintf "p%d" i) (List.init 10 (fun j -> j + 1))))

let synthetic_objective c = float_of_int ((Param.Config.hash c land 0xFFFF) + 1)

(* A growing campaign history: [n_refits] snapshots, each [per_refit]
   observations longer than the last, so successive Refit.update calls
   refit the way a live campaign does (the alpha-quantile boundary
   moves as the history grows). *)
let observation_steps ~space ~n_base ~n_refits ~per_refit =
  let rng = Prng.Rng.create 4242 in
  let all =
    Array.init
      (n_base + (n_refits * per_refit))
      (fun _ ->
        let c = Param.Space.random_config space rng in
        (c, synthetic_objective c))
  in
  Array.init n_refits (fun r -> Array.sub all 0 (n_base + ((r + 1) * per_refit)))

type large_row = {
  lp_size : int;
  lp_params : int;
  lp_reference_ns : float option;  (* None: PR 2 path skipped *)
  lp_incremental_ns : float;
  lp_excluded_ms : float;  (* one streaming select excluding [n_excluded] evaluated rows *)
  lp_excluded_ok : bool;  (* k rows selected, none of them excluded *)
  lp_boxed_seq_ns : float option;  (* linear chunked scan over the materialized pool *)
  lp_heap_bytes : int;  (* new path, Gc heap after the campaign *)
  lp_live_bytes : int;  (* new path, live words after full major *)
  lp_table_bytes : int;
  lp_codes_bytes : int;
  lp_reference_heap_bytes : int option;  (* with the materialized pool *)
  lp_matches_reference : bool option;
}

(* Evaluated rows excluded by the [select_ms_excluded] rows: about a
   campaign's budget. *)
let n_excluded = 200

let ulp_equal a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let large_pool_row ~reps n_params =
  let n = int_of_float (10. ** float_of_int n_params) in
  let space = synthetic_space n_params in
  let virt = Hiperbot.Surrogate.Pool.of_space space in
  assert (Hiperbot.Surrogate.Pool.length virt = n);
  let n_refits = if n >= 10_000_000 then 4 else 6 in
  let reps = if n >= 10_000_000 then Stdlib.min reps 2 else Stdlib.min reps 3 in
  let obs_steps = observation_steps ~space ~n_base:40 ~n_refits ~per_refit:2 in
  let options = Hiperbot.Surrogate.default_options in
  (* One full campaign sequence through the new path: fresh engine,
     one Refit.update + one streaming select per snapshot. *)
  let incremental_campaign ?(on_step = fun _ ~surrogate:_ ~compiled:_ -> ()) () =
    let engine = Hiperbot.Surrogate.Refit.create ~options virt in
    Array.mapi
      (fun step obs ->
        let surrogate, compiled = Hiperbot.Surrogate.Refit.update engine obs in
        on_step step ~surrogate ~compiled;
        Hiperbot.Strategy.rank ~compiled ~k ~surrogate ~encoded:virt
          ~excluded:(Hiperbot.Strategy.Exclusion.create ()) ())
      obs_steps
  in
  (* Verification pass: engine-compiled tables must equal a fresh
     from-scratch compile bit-for-bit at every snapshot (spot-checked
     on three rows — the test suite covers every row on small pools),
     and the selections are recorded for the cross-path check. The
     check runs inside the step loop because the engine's Compiled.t
     aliases one table buffer that the next update overwrites. *)
  let check_against_full step ~surrogate ~compiled =
    let fresh = Hiperbot.Surrogate.compile surrogate virt in
    List.iter
      (fun i ->
        if
          not
            (ulp_equal
               (Hiperbot.Surrogate.Compiled.log_ratio compiled i)
               (Hiperbot.Surrogate.Compiled.log_ratio fresh i))
        then
          failwith
            (Printf.sprintf
               "BENCH select: Refit table diverges from a fresh compile (pool %d, refit %d, \
                row %d)"
               n step i))
      [ 0; n / 2; n - 1 ]
  in
  let new_selections = incremental_campaign ~on_step:check_against_full () in
  let incremental_ns =
    time_best_s ~reps (fun () -> incremental_campaign ())
    /. float_of_int n_refits *. 1e9
  in
  (* A campaign's steady state: one select that must skip
     [n_excluded] evaluated rows. The exclusion set is built from the
     evaluated side, so the cost must not grow with the pool beyond the
     scan itself. *)
  let excluded_ms, excluded_ok =
    let engine = Hiperbot.Surrogate.Refit.create ~options virt in
    let surrogate, compiled =
      Hiperbot.Surrogate.Refit.update engine obs_steps.(n_refits - 1)
    in
    let evaluated = Param.Config.Table.create n_excluded in
    let draw = Prng.Rng.create 99 in
    while Param.Config.Table.length evaluated < n_excluded do
      Param.Config.Table.replace evaluated (Param.Space.random_config space draw) ()
    done;
    let select () =
      let excluded = Hiperbot.Strategy.Exclusion.create () in
      Param.Config.Table.iter
        (fun c () -> Hiperbot.Strategy.Exclusion.add_config excluded virt c)
        evaluated;
      Hiperbot.Strategy.rank ~compiled ~k ~surrogate ~encoded:virt ~excluded ()
    in
    let selected = select () in
    let ok =
      List.length selected = k
      && List.for_all (fun c -> not (Param.Config.Table.mem evaluated c)) selected
    in
    (time_ns ~reps (fun () -> select ()) /. 1e6, ok)
  in
  (* Memory of the new path, captured before the PR 2 pool is ever
     materialized: the virtual pool plus score tables must stay tiny
     however large the space is. *)
  Gc.full_major ();
  let st = Gc.stat () in
  let word = Sys.word_size / 8 in
  let heap_bytes = st.Gc.heap_words * word in
  let live_bytes = st.Gc.live_words * word in
  let table_bytes =
    let engine = Hiperbot.Surrogate.Refit.create ~options virt in
    let _, compiled = Hiperbot.Surrogate.Refit.update engine obs_steps.(0) in
    Hiperbot.Surrogate.Compiled.table_bytes compiled
  in
  let codes_bytes = Hiperbot.Surrogate.Pool.codes_bytes virt in
  (* PR 2 reference path: materialize + encode the pool (charged once
     per campaign, excluded from the per-refit time like the encode in
     part 1), then per refit a full fit + full compile + per-row Topk
     scan. Skipped at 10^7 rows, where materialization alone is
     ~1.7 GB. *)
  let reference_ns, matches_reference, reference_heap_bytes, boxed_seq_ns =
    if n > 1_000_000 then begin
      Printf.printf
        "  10^%d: PR 2 path skipped (materializing %d configurations needs GBs)\n" n_params n;
      (None, None, None, None)
    end
    else begin
      let pool = Param.Space.enumerate space in
      let encoded = Hiperbot.Surrogate.Pool.encode space pool in
      let reference_campaign () =
        Array.map
          (fun obs ->
            let surrogate = Hiperbot.Surrogate.fit ~options space obs in
            let compiled = Hiperbot.Surrogate.compile surrogate encoded in
            let top = Topk.create k in
            for i = 0 to n - 1 do
              Topk.offer_indexed top pool.(i)
                (Hiperbot.Surrogate.Compiled.log_ratio compiled i)
                i
            done;
            Topk.to_list_desc top)
          obs_steps
      in
      let reference_selections = reference_campaign () in
      let matches =
        Array.for_all2
          (fun sel expected -> same_selection sel expected)
          reference_selections new_selections
      in
      let ns =
        time_best_s ~reps (fun () -> reference_campaign ())
        /. float_of_int n_refits *. 1e9
      in
      (* The LINEAR scan: a materialized pool has no digit tree to
         prune, so its chunked scan is O(n) work — the contrast to the
         virtual pool's sublinear branch-and-bound scan above. *)
      let surrogate = Hiperbot.Surrogate.fit ~options space obs_steps.(n_refits - 1) in
      let compiled_boxed = Hiperbot.Surrogate.compile surrogate encoded in
      let seq_ns =
        time_ns ~reps (fun () ->
            Hiperbot.Strategy.rank ~compiled:compiled_boxed ~k ~surrogate ~encoded
              ~excluded:(Hiperbot.Strategy.Exclusion.create ()) ())
      in
      Gc.full_major ();
      let st_ref = Gc.stat () in
      (Some ns, Some matches, Some (st_ref.Gc.live_words * word), Some seq_ns)
    end
  in
  {
    lp_size = n;
    lp_params = n_params;
    lp_reference_ns = reference_ns;
    lp_incremental_ns = incremental_ns;
    lp_excluded_ms = excluded_ms;
    lp_excluded_ok = excluded_ok;
    lp_boxed_seq_ns = boxed_seq_ns;
    lp_heap_bytes = heap_bytes;
    lp_live_bytes = live_bytes;
    lp_table_bytes = table_bytes;
    lp_codes_bytes = codes_bytes;
    lp_reference_heap_bytes = reference_heap_bytes;
    lp_matches_reference = matches_reference;
  }

let mb bytes = float_of_int bytes /. 1048576.

let print_large_row r =
  let fmt_opt = function Some ns -> Printf.sprintf "%12.0f" ns | None -> "           -" in
  Printf.printf "10^%d rows: PR2 %s ns/refit  new %12.0f ns/refit  (%sx)\n" r.lp_params
    (fmt_opt r.lp_reference_ns) r.lp_incremental_ns
    (match r.lp_reference_ns with
    | Some ref_ns -> Printf.sprintf "%.1f" (ref_ns /. r.lp_incremental_ns)
    | None -> "-");
  Printf.printf
    "          mem live %.1f MB (heap %.1f MB, tables %.1f KB, codes %.1f KB%s)\n"
    (mb r.lp_live_bytes) (mb r.lp_heap_bytes)
    (float_of_int r.lp_table_bytes /. 1024.)
    (float_of_int r.lp_codes_bytes /. 1024.)
    (match r.lp_reference_heap_bytes with
    | Some b -> Printf.sprintf "; PR2 live %.1f MB" (mb b)
    | None -> "");
  Printf.printf "          select excluding %d evaluated rows: %.4f ms\n" n_excluded
    r.lp_excluded_ms;
  match r.lp_boxed_seq_ns with
  | Some seq -> Printf.printf "          linear (materialized) scan: %12.0f ns\n" seq
  | None -> ()

(* ---- driver ---- *)

let run ~reps () =
  Harness.section "Candidate ranking: naive scan vs compiled scorer";
  let reps = Stdlib.max 3 reps in
  let table = (Hpcsim.Registry.find "kripke").Hpcsim.Registry.table () in
  let space = Dataset.Table.space table in
  let rng = Prng.Rng.create 99 in
  let obs =
    let idx = Prng.Rng.sample_without_replacement rng 100 (Dataset.Table.size table) in
    Array.map (fun i -> (Dataset.Table.config table i, Dataset.Table.objective table i)) idx
  in
  let surrogate = Hiperbot.Surrogate.fit space obs in
  let pool = Param.Space.enumerate space in
  let n = Array.length pool in
  let encoded = Hiperbot.Surrogate.Pool.encode space pool in
  let evaluated = Param.Config.Table.create 16 in
  (* The pre-PR selection: one Surrogate.score (two density
     evaluations and two logs per parameter) per candidate. *)
  let naive_select () =
    let top = Topk.create k in
    Array.iteri
      (fun i c ->
        if not (Param.Config.Table.mem evaluated c) then
          Topk.offer_indexed top c (Hiperbot.Surrogate.score surrogate c) i)
      pool;
    Topk.to_list_desc top
  in
  (* The production path: compile against the pre-encoded pool, then
     rank — what one surrogate refit pays. *)
  let compiled_select telemetry =
    Hiperbot.Strategy.rank ~telemetry ~k ~surrogate ~encoded
      ~excluded:(Hiperbot.Strategy.Exclusion.create ()) ()
  in
  let compiled = Hiperbot.Surrogate.compile surrogate encoded in
  (* The micro-benchmark shape of ei_rank_full_space_1620: a pure
     max-score scan, before and after. *)
  let naive_scan () =
    let best = ref neg_infinity in
    Array.iter (fun c -> best := Stdlib.max !best (Hiperbot.Surrogate.score surrogate c)) pool;
    !best
  in
  let compiled_scan () =
    let best = ref neg_infinity in
    for i = 0 to n - 1 do
      best := Stdlib.max !best (Hiperbot.Surrogate.Compiled.log_ratio compiled i)
    done;
    !best
  in
  let sequential = compiled_select Telemetry.Trace.disabled in
  let naive_matches = same_selection (naive_select ()) sequential in
  (* Tracing must not change the selection (the determinism guarantee
     the telemetry layer makes). *)
  let traced_matches =
    let sink, _ = Telemetry.Trace.memory_sink () in
    same_selection (compiled_select (Telemetry.Trace.make [ sink ])) sequential
  in
  let naive_select_ns = time_ns ~reps naive_select in
  let compiled_select_ns, compile_ns, rank_ns = span_ns ~reps compiled_select in
  let naive_scan_ns = time_ns ~reps naive_scan in
  let compiled_scan_ns = time_ns ~reps compiled_scan in
  let encode_ns = time_ns ~reps (fun () -> Hiperbot.Surrogate.Pool.encode space pool) in
  let select_speedup = naive_select_ns /. compiled_select_ns in
  let scan_speedup = naive_scan_ns /. compiled_scan_ns in
  Printf.printf "pool: %d configurations, k=%d, %d observations\n" n k (Array.length obs);
  Printf.printf "%-34s %12.0f ns\n" "naive select (per refit)" naive_select_ns;
  Printf.printf "%-34s %12.0f ns  (%.1fx)\n" "compiled select (per refit)" compiled_select_ns
    select_speedup;
  Printf.printf "%-34s %12.0f ns\n" "naive max-score scan" naive_scan_ns;
  Printf.printf "%-34s %12.0f ns  (%.1fx)\n" "compiled max-score scan" compiled_scan_ns
    scan_speedup;
  Printf.printf "%-34s %12.0f ns  (once per campaign)\n" "pool index-encode" encode_ns;
  Printf.printf "%-34s %12.0f ns  (once per refit, from Compile span)\n" "surrogate compile"
    compile_ns;
  Printf.printf "%-34s %12.0f ns  (from Rank span)\n" "ranking scan" rank_ns;
  Printf.printf "naive selection matches compiled: %b\n" naive_matches;
  Printf.printf "traced selection matches untraced: %b\n" traced_matches;
  (* ---- large pools ---- *)
  Harness.section "Million-config pools: refit engine + streaming top-k";
  let exponents =
    List.filter
      (fun e ->
        match budget_override with
        | None -> true
        | Some cap -> int_of_float (10. ** float_of_int e) <= cap)
      [ 5; 6; 7 ]
  in
  if exponents = [] then
    Printf.printf "all large pools above HIPERBOT_SELECT_BUDGET; skipping\n";
  let large_rows = List.map (large_pool_row ~reps) exponents in
  List.iter print_large_row large_rows;
  (* ---- JSON ---- *)
  let buf = Buffer.create 4096 in
  Printf.bprintf buf "{\n";
  Printf.bprintf buf "  \"benchmark\": \"select\",\n";
  Harness.stamp buf;
  Printf.bprintf buf "  \"dataset\": \"kripke\",\n";
  Printf.bprintf buf "  \"timing_source\": \"telemetry-spans\",\n";
  Printf.bprintf buf "  \"pool_size\": %d,\n" n;
  Printf.bprintf buf "  \"k\": %d,\n" k;
  Printf.bprintf buf "  \"n_observations\": %d,\n" (Array.length obs);
  Printf.bprintf buf "  \"reps\": %d,\n" reps;
  Printf.bprintf buf "  \"n_excluded\": %d,\n" n_excluded;
  Printf.bprintf buf "  \"naive_select_ns\": %.1f,\n" naive_select_ns;
  Printf.bprintf buf "  \"compiled_select_ns\": %.1f,\n" compiled_select_ns;
  Printf.bprintf buf "  \"select_speedup\": %.2f,\n" select_speedup;
  Printf.bprintf buf "  \"naive_rank_scan_ns\": %.1f,\n" naive_scan_ns;
  Printf.bprintf buf "  \"compiled_rank_scan_ns\": %.1f,\n" compiled_scan_ns;
  Printf.bprintf buf "  \"rank_scan_speedup\": %.2f,\n" scan_speedup;
  Printf.bprintf buf "  \"encode_pool_ns\": %.1f,\n" encode_ns;
  Printf.bprintf buf "  \"compile_ns\": %.1f,\n" compile_ns;
  Printf.bprintf buf "  \"rank_span_ns\": %.1f,\n" rank_ns;
  Printf.bprintf buf "  \"naive_matches_compiled\": %b,\n" naive_matches;
  Printf.bprintf buf "  \"traced_matches_untraced\": %b,\n" traced_matches;
  Printf.bprintf buf "  \"large_pools\": [\n";
  let opt_f = function Some v -> Printf.sprintf "%.1f" v | None -> "null" in
  let opt_i = function Some v -> string_of_int v | None -> "null" in
  let opt_b = function Some v -> string_of_bool v | None -> "null" in
  List.iteri
    (fun i r ->
      Printf.bprintf buf
        "    { \"pool_size\": %d, \"n_params\": %d, \"virtual\": true, \
         \"reference_refit_ns\": %s, \"incremental_refit_ns\": %.1f, \"refit_speedup\": %s, \
         \"select_ms_excluded\": %.4f, \"boxed_seq_select_ns\": %s, \"heap_bytes\": %d, \
         \"live_bytes\": %d, \"table_bytes\": %d, \"codes_bytes\": %d, \"reference_heap_bytes\": %s, \
         \"matches_reference\": %s }%s\n"
        r.lp_size r.lp_params (opt_f r.lp_reference_ns) r.lp_incremental_ns
        (opt_f
           (Option.map (fun ref_ns -> ref_ns /. r.lp_incremental_ns) r.lp_reference_ns))
        r.lp_excluded_ms (opt_f r.lp_boxed_seq_ns) r.lp_heap_bytes r.lp_live_bytes
        r.lp_table_bytes r.lp_codes_bytes
        (opt_i r.lp_reference_heap_bytes)
        (opt_b r.lp_matches_reference)
        (if i = List.length large_rows - 1 then "" else ","))
    large_rows;
  Printf.bprintf buf "  ]\n";
  Printf.bprintf buf "}\n";
  let oc = open_out output_path in
  output_string oc (Buffer.contents buf);
  close_out oc;
  Printf.printf "wrote %s\n%!" output_path;
  (* ---- assertions ---- *)
  if not naive_matches then failwith "BENCH select: naive and compiled selections diverged";
  if not traced_matches then failwith "BENCH select: tracing changed the selection";
  List.iter
    (fun r ->
      (match r.lp_matches_reference with
      | Some false ->
          failwith
            (Printf.sprintf "BENCH select: new path diverges from PR 2 path at pool %d"
               r.lp_size)
      | Some true | None -> ());
      if not r.lp_excluded_ok then
        failwith
          (Printf.sprintf
             "BENCH select: selection excluding evaluated rows is wrong at pool %d" r.lp_size))
    large_rows;
  (* Performance floors only run under the full protocol — a budget
     override means a smoke run on unknown hardware. *)
  if budget_override = None then
    List.iter
      (fun r ->
        if r.lp_size = 1_000_000 then begin
          (match r.lp_reference_ns with
          | Some ref_ns when ref_ns /. r.lp_incremental_ns < 5. ->
              failwith
                (Printf.sprintf
                   "BENCH select: refit speedup %.2fx at 10^6 is below the 5x floor"
                   (ref_ns /. r.lp_incremental_ns))
          | _ -> ());
          let new_path_bytes = r.lp_live_bytes + r.lp_table_bytes + r.lp_codes_bytes in
          if new_path_bytes > 100 * 1048576 then
            failwith
              (Printf.sprintf "BENCH select: new path uses %.1f MB at 10^6 (floor: 100 MB)"
                 (mb new_path_bytes))
        end)
      large_rows
