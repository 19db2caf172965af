type t = Ranking | Proposal of { n_candidates : int }

let default = Ranking
let max_duplicate_redraws = 20

(* Keep the k best (value, score) triples seen so far under the total
   order "higher score first, equal scores resolved toward the smaller
   index". The index is the caller's pool position (Ranking) or an
   insertion counter (Proposal), so ties are explicit and
   deterministic: the same multiset of offers yields the same top-k
   whatever the offer order — which is what makes per-worker
   accumulators mergeable into a schedule-independent result. Entries
   are kept worst-first in a sorted association list; fine for the
   small k of batch selection. *)
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

(* Streaming bounded top-k over (score, pool index) pairs: a min-heap
   of at most k entries keyed lexicographically by (score, -index),
   so the root is always the WORST kept entry under Topk's total
   order (score descending, ties toward the smaller index) and each
   offer is one comparison against it. Unlike {!Topk} it never holds
   candidate values, only indices — the ranking scan materializes
   configurations for the final k survivors alone, which is what lets
   a 10^7-row virtual pool rank without allocating per candidate. The
   kept set is the exact top-k under a total order (indices are
   distinct), so the result is offer-order independent and equal to
   {!Topk}'s, tie order included. *)
module Topk_stream = struct
  (* [full]/[worst_score]/[worst_tie] mirror the heap root once k
     entries are held, so the hot-loop admission check is two compares
     against plain fields — no option/tuple from a peek, no boxed
     float crossing a call boundary. They are refreshed on every heap
     mutation, which happens O(k log n) times per scan, not per
     offer. *)
  type t = {
    k : int;
    heap : int Simulate.Heap.t;
    mutable full : bool;
    mutable worst_score : float;
    mutable worst_tie : int;
  }

  let create k =
    if k < 1 then invalid_arg "Topk_stream.create: k must be at least 1";
    { k; heap = Simulate.Heap.create (); full = false; worst_score = neg_infinity; worst_tie = 0 }

  let refresh_worst t =
    match Simulate.Heap.peek_tie t.heap with
    | Some (score, tie, _) ->
        t.worst_score <- score;
        t.worst_tie <- tie
    | None -> assert false

  let offer t score index =
    if not t.full then begin
      Simulate.Heap.push_tie t.heap score (-index) index;
      if Simulate.Heap.length t.heap = t.k then begin
        t.full <- true;
        refresh_worst t
      end
    end
    else if score > t.worst_score || (score = t.worst_score && -index > t.worst_tie) then begin
      ignore (Simulate.Heap.pop_tie t.heap);
      Simulate.Heap.push_tie t.heap score (-index) index;
      refresh_worst t
    end

  let to_desc t =
    let rec drain acc =
      match Simulate.Heap.pop_tie t.heap with
      | None -> acc
      | Some (score, _, index) -> drain ((score, index) :: acc)
    in
    let result = drain [] in
    t.full <- false;
    t.worst_score <- neg_infinity;
    t.worst_tie <- 0;
    result
end

(* Immutable best-first entry lists for the parallel reduction: the
   merge of two k-truncated lists is the k-truncation of their union,
   so the fold is associative with [] as identity and the reduction is
   schedule- and domain-count-independent. *)
let rec take k = function [] -> [] | x :: rest -> if k = 0 then [] else x :: take (k - 1) rest

let rec merge_desc k a b =
  if k = 0 then []
  else
    match (a, b) with
    | [], rest | rest, [] -> take k rest
    | x :: xs, y :: ys ->
        if Topk.beats y x then y :: merge_desc (k - 1) a ys else x :: merge_desc (k - 1) xs b

let ranking_encoded ~surrogate ~pool ~encoded =
  match encoded with
  | Some e ->
      if not (Surrogate.Pool.configs e == pool) then
        invalid_arg "Strategy.select_many: encoded pool does not wrap the candidate pool";
      e
  | None -> Surrogate.Pool.encode (Surrogate.space surrogate) pool

(* Below this pool size the scoring scan is cheaper than the fixed
   cost of fanning tasks out to a domain pool (~tens of µs), so
   [?workers] is ignored and the scan runs sequentially — BENCH_select
   showed every parallel configuration 4-5x SLOWER than sequential at
   pool 1620. The crossover sits well under 10^5 rows on commodity
   cores; 32768 leaves margin on the sequential side. Tests override
   it with [?parallel_threshold:0] to force the parallel path on
   small pools. *)
let default_parallel_threshold = 32768

(* Fixed scan granule: chunk boundaries depend only on the pool size,
   never on the worker count or schedule, so per-chunk top-k partials
   merge to the same result for every parallel configuration — and
   the sequential path reuses the same granule, making parallel
   bit-identity a matter of merge associativity alone. 4096 rows *
   8 bytes keeps the score buffer inside L1/L2. *)
let scan_chunk = 4096

let schedule_label workers schedule =
  match workers with
  | None -> "seq"
  | Some _ -> (
      match schedule with
      | None | Some Parallel.Pool.Static -> "static"
      | Some (Parallel.Pool.Dynamic c) -> Printf.sprintf "dynamic:%d" c
      | Some Parallel.Pool.Guided -> "guided")

(* The set of pool rows guided ranking must skip, in pool-index
   space. Campaigns own one and add each configuration's row indices
   once, when it joins their seen set, so no ranking step rebuilds it
   or allocates anything proportional to the pool. The scans consult
   it only for rows that already pass the top-k admission test, which
   almost no row does. *)
module Exclusion = struct
  type t = (int, unit) Hashtbl.t

  let create () : t = Hashtbl.create 64
  let add t i = Hashtbl.replace t i ()
  let mem t i = Hashtbl.mem t i
  let cardinal = Hashtbl.length
  let add_config t pool c = List.iter (add t) (Surrogate.Pool.indices_of pool c)

  let of_table pool table =
    let t = create () in
    Param.Config.Table.iter (fun c () -> add_config t pool c) table;
    t

  let elements t = List.sort Int.compare (Hashtbl.fold (fun i () acc -> i :: acc) t [])
end

(* Score rows [lo, hi) through the compiled table into [buf] and fold
   the unexcluded ones into [top]. The admission pre-check repeats
   {!Topk_stream.offer}'s comparison inline against plain record
   fields so the overwhelming majority of rows — everything that
   cannot enter the top-k — never crosses a (float-boxing) call
   boundary or touches the exclusion set; the scan allocates nothing
   per row. Checking exclusion after admission selects exactly what
   checking it first would: admission depends only on [top], which
   only kept rows change. *)
let scan_range compiled excluded buf top visited ~lo ~hi =
  Surrogate.Compiled.scores_into compiled ~lo ~hi buf;
  visited := !visited + (hi - lo);
  for j = 0 to hi - lo - 1 do
    let i = lo + j in
    let s = Array.unsafe_get buf j in
    if
      ((not top.Topk_stream.full)
      || s > top.Topk_stream.worst_score
      || (s = top.Topk_stream.worst_score && -i > top.Topk_stream.worst_tie))
      && not (Exclusion.mem excluded i)
    then Topk_stream.offer top s i
  done

(* Exact branch-and-bound scan of a virtual pool's digit tree. A
   node at depth p fixes digits 0..p; its subtree's scores are all
   bounded by the node's left-to-right prefix sum [v] plus each
   remaining parameter's table maximum, added one at a time left to
   right — the order {!Surrogate.Compiled.log_ratio} adds a row's
   entries in. Round-to-nearest addition is monotone, so this bound
   dominates every row of the subtree in floating point too (a bound
   summed in any other order can fall an ulp below a row's score).
   Any subtree whose bound is STRICTLY below the worst kept score is
   skipped without visiting a row. Strict comparison keeps the scan
   exact under the (score desc, index asc) total order: a row tying
   the final k-th score is never pruned, and every skipped row scores
   strictly below the k-th — pruning changes which rows are offered,
   never which k survive, so the result is bit-identical to the full
   scan. Both comparisons fail on NaN bounds/thresholds, so poisoned
   table entries disable pruning rather than mis-pruning. Excluded
   rows are never offered, so the threshold only ever comes from kept
   rows.

   [shared] is the parallel scan's cross-chunk threshold: each chunk
   publishes its local worst (a lower bound on the final k-th score,
   since a chunk's k-th is at most the global k-th) and prunes
   against the best bound any chunk has published. The shared value
   evolves racily, but every pruned row still scores strictly below
   the final k-th, so the merged result is exact — identical to the
   sequential scan — for every domain count, schedule, and timing.

   The walk allocates nothing per node: prefix sums live in a float
   array indexed by depth and the threshold in a one-cell float
   array, so no float crosses a call boundary. [visited] counts the
   leaf rows reached, one addition per leaf group. *)
let scan_radix compiled excluded top visited ?shared ~radices ~lo ~hi () =
  let table = Surrogate.Compiled.table compiled in
  let off = Surrogate.Compiled.offsets compiled in
  let np = Array.length radices in
  if np = 0 then begin
    if lo <= 0 && hi > 0 then begin
      incr visited;
      if not (Exclusion.mem excluded 0) then Topk_stream.offer top 0. 0
    end
  end
  else begin
    let strides = Array.make np 1 in
    for p = np - 2 downto 0 do
      strides.(p) <- strides.(p + 1) * radices.(p + 1)
    done;
    let table_max =
      Array.init np (fun p ->
          let m = ref neg_infinity in
          for d = 0 to radices.(p) - 1 do
            let v = Bigarray.Array1.unsafe_get table (off.(p) + d) in
            if v > !m then m := v
          done;
          !m)
    in
    (* prefix.(p): the current path's left-to-right sum over digits
       0..p. *)
    let prefix = Array.make np 0. in
    let thr = [| neg_infinity |] in
    let refresh_threshold () =
      Array.unsafe_set thr 0
        (if top.Topk_stream.full then top.Topk_stream.worst_score else neg_infinity);
      match shared with
      | None -> ()
      | Some a ->
          let g = Atomic.get a in
          if g > Array.unsafe_get thr 0 then Array.unsafe_set thr 0 g
    in
    let publish () =
      match shared with
      | None -> ()
      | Some a ->
          if top.Topk_stream.full then begin
            let w = top.Topk_stream.worst_score in
            let rec bump () =
              let cur = Atomic.get a in
              if w > cur && not (Atomic.compare_and_set a cur w) then bump ()
            in
            bump ()
          end
    in
    let rec go p base =
      let acc = if p = 0 then 0. else Array.unsafe_get prefix (p - 1) in
      let toff = Array.unsafe_get off p in
      if p = np - 1 then begin
        let d_lo = Stdlib.max 0 (lo - base) in
        let d_hi = Stdlib.min radices.(p) (hi - base) in
        visited := !visited + (d_hi - d_lo);
        (* A stale (lower) threshold only admits extra offers, which
           re-check; exactness is unaffected. *)
        refresh_threshold ();
        for d = d_lo to d_hi - 1 do
          let s = acc +. Bigarray.Array1.unsafe_get table (toff + d) in
          if
            ((not top.Topk_stream.full) || s >= Array.unsafe_get thr 0)
            && not (Exclusion.mem excluded (base + d))
          then begin
            Topk_stream.offer top s (base + d);
            publish ()
          end
        done
      end
      else begin
        let stride = Array.unsafe_get strides p in
        for d = 0 to radices.(p) - 1 do
          let b = base + (d * stride) in
          if b < hi && b + stride > lo then begin
            let v = acc +. Bigarray.Array1.unsafe_get table (toff + d) in
            let bound = ref v in
            for q = p + 1 to np - 1 do
              bound := !bound +. Array.unsafe_get table_max q
            done;
            refresh_threshold ();
            if not (!bound < Array.unsafe_get thr 0) then begin
              Array.unsafe_set prefix p v;
              go (p + 1) b
            end
          end
        done
      end
    in
    go 0 0
  end

let scan_indices compiled excluded top visited ?shared ~n ~lo ~hi buf =
  match Surrogate.Pool.radices (Surrogate.Compiled.pool compiled) with
  | Some radices -> scan_radix compiled excluded top visited ?shared ~radices ~lo ~hi ()
  | None ->
      let buf =
        match buf with Some b -> b | None -> Array.make (Stdlib.min n scan_chunk) 0.
      in
      let at = ref lo in
      while !at < hi do
        let chunk_hi = Stdlib.min hi (!at + scan_chunk) in
        scan_range compiled excluded buf top visited ~lo:!at ~hi:chunk_hi;
        at := chunk_hi
      done

(* Both return the ranked (score, index) pairs and the leaf rows the
   scan reached. *)
let select_indices_seq compiled excluded ~k ~n =
  let top = Topk_stream.create k in
  let visited = ref 0 in
  scan_indices compiled excluded top visited ~n ~lo:0 ~hi:n None;
  (Topk_stream.to_desc top, !visited)

let select_indices_par compiled excluded ~k ~n ~workers ?schedule () =
  let n_chunks = (n + scan_chunk - 1) / scan_chunk in
  let shared =
    match Surrogate.Pool.radices (Surrogate.Compiled.pool compiled) with
    | Some _ -> Some (Atomic.make neg_infinity)
    | None -> None
  in
  let total_visited = Atomic.make 0 in
  let best =
    Parallel.Pool.parallel_for_reduce workers ?schedule ~lo:0 ~hi:n_chunks ~init:[]
      ~combine:(fun a b -> merge_desc k a b)
      (fun ci ->
        let lo = ci * scan_chunk in
        let hi = Stdlib.min n (lo + scan_chunk) in
        let top = Topk_stream.create k in
        let visited = ref 0 in
        scan_indices compiled excluded top visited ?shared ~n ~lo ~hi None;
        ignore (Atomic.fetch_and_add total_visited !visited);
        List.map
          (fun (score, index) -> { Topk.value = index; score; index })
          (Topk_stream.to_desc top))
  in
  (List.map (fun e -> (e.Topk.score, e.Topk.index)) best, Atomic.get total_visited)

(* Exhaustive ranking over an encoded pool: stream every row's
   compiled score through a bounded heap, never materializing a
   per-candidate score array, and skip the rows in [excluded]. The
   set is only read during the scan, so the parallel loop shares no
   mutable state but the pruning threshold and the visited count. *)
let select_many_excluding ?(telemetry = Telemetry.Trace.disabled) ?workers ?schedule
    ?(parallel_threshold = default_parallel_threshold) ?compiled ~k ~surrogate ~encoded ~excluded
    () =
  if k < 1 then invalid_arg "Strategy.select_many: k must be at least 1";
  if parallel_threshold < 0 then
    invalid_arg "Strategy.select_many: negative parallel_threshold";
  let compiled =
    match compiled with
    | Some c ->
        if not (Surrogate.Compiled.pool c == encoded) then
          invalid_arg "Strategy.select_many: compiled scorer does not wrap the encoded pool";
        c
    | None -> Surrogate.compile ~telemetry surrogate encoded
  in
  let t0 = Telemetry.Trace.now telemetry in
  let n = Surrogate.Pool.length encoded in
  let workers = match workers with Some w when n >= parallel_threshold -> Some w | _ -> None in
  let ranked, visited =
    match workers with
    | None -> select_indices_seq compiled excluded ~k ~n
    | Some w -> select_indices_par compiled excluded ~k ~n ~workers:w ?schedule ()
  in
  let selected = List.map (fun (_, i) -> Surrogate.Pool.config encoded i) ranked in
  if Telemetry.Trace.enabled telemetry then
    Telemetry.Trace.emit telemetry
      (Telemetry.Event.Rank
         {
           pool_size = n;
           k;
           selected = List.length selected;
           workers = (match workers with None -> 1 | Some w -> Parallel.Pool.size w);
           schedule = schedule_label workers schedule;
           excluded = Exclusion.cardinal excluded;
           visited;
           dur_ms = (Telemetry.Trace.now telemetry -. t0) *. 1000.;
         });
  selected

(* [rng] is unused (ranking draws nothing); it stays so existing callers compile. *)
let select_many_encoded ?telemetry ?workers ?schedule ?parallel_threshold ?compiled ~k ~rng:_
    ~surrogate ~encoded ~evaluated () =
  select_many_excluding ?telemetry ?workers ?schedule ?parallel_threshold ?compiled ~k ~surrogate
    ~encoded ~excluded:(Exclusion.of_table encoded evaluated) ()

let select_many_proposal ~k ~rng ~surrogate ~evaluated ~n_candidates =
  let chosen = Param.Config.Table.create k in
  let draw () =
    let rec fresh attempts =
      let c = Surrogate.sample_good surrogate rng in
      if attempts >= max_duplicate_redraws
         || not (Param.Config.Table.mem evaluated c || Param.Config.Table.mem chosen c)
      then c
      else fresh (attempts + 1)
    in
    fresh 0
  in
  let rec pick acc remaining =
    if remaining = 0 then List.rev acc
    else begin
      let top = Topk.create 1 in
      for _ = 1 to n_candidates do
        let c = draw () in
        Topk.offer top c (Surrogate.score surrogate c)
      done;
      match Topk.to_list_desc top with
      | [] -> List.rev acc
      | best :: _ ->
          Param.Config.Table.replace chosen best ();
          pick (best :: acc) (remaining - 1)
    end
  in
  pick [] k

let select_many ?telemetry ?workers ?schedule ?parallel_threshold ?encoded t ~k ~rng ~surrogate
    ~pool ~evaluated =
  if k < 1 then invalid_arg "Strategy.select_many: k must be at least 1";
  match t with
  | Ranking ->
      let encoded = ranking_encoded ~surrogate ~pool ~encoded in
      select_many_encoded ?telemetry ?workers ?schedule ?parallel_threshold ~k ~rng ~surrogate
        ~encoded ~evaluated ()
  | Proposal { n_candidates } ->
      if n_candidates <= 0 then invalid_arg "Strategy.select: non-positive candidate count";
      select_many_proposal ~k ~rng ~surrogate ~evaluated ~n_candidates

let select ?telemetry ?workers ?schedule ?parallel_threshold ?encoded t ~rng ~surrogate ~pool
    ~evaluated =
  match
    select_many ?telemetry ?workers ?schedule ?parallel_threshold ?encoded t ~k:1 ~rng
      ~surrogate ~pool ~evaluated
  with
  | [] -> None
  | best :: _ -> Some best
