type options = { alpha : float; density : Density.options }

let default_options = { alpha = 0.2; density = Density.default_options }

type t = {
  space : Param.Space.t;
  options : options;
  threshold : float;
  good : Density.t array;
  bad : Density.t array;
  n_good : int;
  n_bad : int;
}

let fit ?(telemetry = Telemetry.Trace.disabled) ?(options = default_options) ?(priors = [])
    ?(extra_bad = [||]) space observations =
  let t0 = Telemetry.Trace.now telemetry in
  if Array.length observations = 0 then invalid_arg "Surrogate.fit: no observations";
  Array.iter
    (fun c ->
      if not (Param.Space.validate space c) then invalid_arg "Surrogate.fit: invalid configuration")
    extra_bad;
  if not (options.alpha > 0. && options.alpha < 1.) then
    invalid_arg "Surrogate.fit: alpha outside (0, 1)";
  Array.iter
    (fun (c, y) ->
      if not (Param.Space.validate space c) then invalid_arg "Surrogate.fit: invalid configuration";
      if not (Float.is_finite y) then invalid_arg "Surrogate.fit: non-finite objective value")
    observations;
  List.iter
    (fun (p, w) ->
      if not (Param.Space.equal p.space space) then
        invalid_arg "Surrogate.fit: prior fitted on a different space";
      (* [w < 0.] alone waves NaN through (every comparison with NaN
         is false) and accepts infinity, which later poisons the
         merged densities. *)
      if not (Float.is_finite w) || w < 0. then
        invalid_arg "Surrogate.fit: prior weight must be finite and non-negative")
    priors;
  let ys = Array.map snd observations in
  let threshold, good_idx, bad_idx = Stats.Quantile.split_at_quantile ys options.alpha in
  let n_params = Param.Space.n_params space in
  let values_of idx i = Array.map (fun j -> (fst observations.(j)).(i)) idx in
  let fit_side values side i =
    let spec = Param.Space.spec space i in
    let d = Density.fit ~options:options.density spec values in
    List.fold_left (fun d (p, w) -> Density.merge_prior ~prior:(side p).(i) ~w d) d priors
  in
  let bad_values i =
    Array.append (values_of bad_idx i) (Array.map (fun c -> c.(i)) extra_bad)
  in
  let t =
    {
      space;
      options;
      threshold;
      good = Array.init n_params (fun i -> fit_side (values_of good_idx i) (fun p -> p.good) i);
      bad = Array.init n_params (fun i -> fit_side (bad_values i) (fun p -> p.bad) i);
      n_good = Array.length good_idx;
      n_bad = Array.length bad_idx + Array.length extra_bad;
    }
  in
  if Telemetry.Trace.enabled telemetry then
    Telemetry.Trace.emit telemetry
      (Telemetry.Event.Refit
         {
           n_obs = Array.length observations;
           n_good = t.n_good;
           n_bad = Array.length bad_idx;
           n_extra_bad = Array.length extra_bad;
           alpha = options.alpha;
           threshold;
           n_priors = List.length priors;
           prior_weight = List.fold_left (fun acc (_, w) -> acc +. w) 0. priors;
           dur_ms = (Telemetry.Trace.now telemetry -. t0) *. 1000.;
         });
  t

let space t = t.space
let alpha t = t.options.alpha
let threshold t = t.threshold
let n_good t = t.n_good
let n_bad t = t.n_bad

let check_param t i =
  if i < 0 || i >= Array.length t.good then invalid_arg "Surrogate: parameter index out of range"

let good_density t i =
  check_param t i;
  t.good.(i)

let factorized densities config =
  let acc = ref 1. in
  Array.iteri (fun i d -> acc := !acc *. Density.pdf d config.(i)) densities;
  !acc

let check_config t config =
  if not (Param.Space.validate t.space config) then invalid_arg "Surrogate: invalid configuration"

let good_pdf t config =
  check_config t config;
  factorized t.good config

let bad_pdf t config =
  check_config t config;
  factorized t.bad config

(* Computed in log space: with many parameters the factorized
   densities underflow well before the ratio does. The per-parameter
   grouping (log pg - log pb added as one term) matches the compiled
   scorer's per-slot table entries bit-for-bit. *)
let log_ratio t config =
  let acc = ref 0. in
  Array.iteri
    (fun i d ->
      acc := !acc +. (log (Density.pdf d config.(i)) -. log (Density.pdf t.bad.(i) config.(i))))
    t.good;
  !acc

let score t config =
  check_config t config;
  exp (log_ratio t config)

let expected_improvement t config =
  let ratio = score t config in
  (* Eq. 5 with pb/pg = 1/ratio. *)
  1. /. (t.options.alpha +. ((1. -. t.options.alpha) /. ratio))

let sample_good t rng = Array.map (fun d -> Density.sample d rng) t.good

(* ---- Compiled scoring path ----

   Ranking rescans the full candidate pool on every surrogate refit.
   The naive path re-validates each configuration, re-validates every
   value inside Density.pdf, recomputes the histogram normalization
   per lookup, takes 2 x n_params logs per candidate, and pays
   O(n_samples) per KDE evaluation. The compiled path does all of that
   once per refit: an index-encoded pool (built once per campaign,
   the per-parameter slot tables are surrogate-independent) plus a
   per-refit [log pg - log pb] table per parameter turns scoring into
   n_params reads and adds.

   Storage is sized for million-config pools: codes live in a flat
   off-heap [Bigarray] (uint16 when every slot count fits, native int
   otherwise — 2 bytes/parameter for every real space), and a finite
   all-discrete space can skip materialization entirely with a
   [Radix] (virtual) pool whose row [i] IS [Space.config_of_rank i];
   a 10^7-config virtual pool costs a handful of words. *)

module Pool = struct
  type slots =
    | Choices of int  (** discrete parameter: slot = choice index *)
    | Grid of float array
        (** continuous parameter: sorted distinct values present in
            the pool; slot = position in this grid *)

  let slot_count = function Choices n -> n | Grid g -> Array.length g

  type codes =
    | C16 of (int, Bigarray.int16_unsigned_elt, Bigarray.c_layout) Bigarray.Array1.t
    | CNat of (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t

  type backing =
    | Boxed of {
        configs : Param.Config.t array;
        codes : codes;  (* row-major: (i * n_params) + p *)
        index : int Param.Config.Table.t;  (* config -> every pool position *)
      }
    | Radix of { radices : int array }
        (* virtual pool over a finite all-discrete space: row [i] is
           [Param.Space.config_of_rank space i], i.e. exactly
           [Space.enumerate] order, never materialized *)

  type t = {
    space : Param.Space.t;
    slots : slots array;
    n_params : int;
    n : int;
    backing : backing;
  }

  (* Position of [x] in the sorted distinct-value grid. Every encoded
     value is present by construction, so plain lower-bound search. *)
  let find_slot grid x =
    let lo = ref 0 and hi = ref (Array.length grid - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if grid.(mid) < x then lo := mid + 1 else hi := mid
    done;
    !lo

  let sorted_distinct xs =
    let sorted = Array.copy xs in
    Array.sort Float.compare sorted;
    let n = Array.length sorted in
    if n = 0 then [||]
    else begin
      let out = ref [ sorted.(0) ] and count = ref 1 in
      for i = 1 to n - 1 do
        if sorted.(i) <> sorted.(i - 1) then begin
          out := sorted.(i) :: !out;
          incr count
        end
      done;
      let grid = Array.make !count 0. in
      List.iteri (fun i x -> grid.(!count - 1 - i) <- x) !out;
      grid
    end

  let make_codes slots len =
    (* uint16 covers slot codes 0..65535; the rare wider parameter
       falls back to native ints (never int32, whose Bigarray reads
       would box). *)
    let widest = Array.fold_left (fun m s -> Stdlib.max m (slot_count s)) 0 slots in
    if widest <= 65536 then
      C16 (Bigarray.Array1.create Bigarray.int16_unsigned Bigarray.c_layout len)
    else CNat (Bigarray.Array1.create Bigarray.int Bigarray.c_layout len)

  let codes_set codes i v =
    match codes with
    | C16 a -> Bigarray.Array1.unsafe_set a i v
    | CNat a -> Bigarray.Array1.unsafe_set a i v

  let encode space configs =
    Array.iter
      (fun c ->
        if not (Param.Space.validate space c) then
          invalid_arg "Surrogate.Pool.encode: invalid configuration")
      configs;
    let n_params = Param.Space.n_params space in
    let all_discrete =
      Array.for_all (fun spec -> Param.Spec.is_discrete spec) (Param.Space.specs space)
    in
    let slots =
      Array.init n_params (fun p ->
          match Param.Spec.n_choices (Param.Space.spec space p) with
          | Some n -> Choices n
          | None ->
              Grid (sorted_distinct (Array.map (fun c -> Param.Value.to_float_raw c.(p)) configs)))
    in
    let codes = make_codes slots (Array.length configs * n_params) in
    Array.iteri
      (fun i c ->
        let base = i * n_params in
        if all_discrete then
          Array.iteri (fun p v -> codes_set codes (base + p) v) (Param.Space.index_encode space c)
        else
          for p = 0 to n_params - 1 do
            codes_set codes (base + p)
              (match slots.(p) with
              | Choices _ -> Param.Value.to_index c.(p)
              | Grid grid -> find_slot grid (Param.Value.to_float_raw c.(p)))
          done)
      configs;
    let index = Param.Config.Table.create (Array.length configs) in
    Array.iteri (fun i c -> Param.Config.Table.add index c i) configs;
    {
      space;
      slots;
      n_params;
      n = Array.length configs;
      backing = Boxed { configs; codes; index };
    }

  let of_space space =
    match Param.Space.cardinality space with
    | None -> invalid_arg "Surrogate.Pool.of_space: space is not finite"
    | Some total ->
        let radices =
          Array.map
            (fun spec ->
              match Param.Spec.n_choices spec with Some n -> n | None -> assert false)
            (Param.Space.specs space)
        in
        {
          space;
          slots = Array.map (fun n -> Choices n) radices;
          n_params = Param.Space.n_params space;
          n = total;
          backing = Radix { radices };
        }

  let length t = t.n
  let is_virtual t = match t.backing with Radix _ -> true | Boxed _ -> false

  let config t i =
    match t.backing with
    | Boxed { configs; _ } -> configs.(i)
    | Radix _ ->
        if i < 0 || i >= t.n then invalid_arg "Surrogate.Pool.config: index out of range";
        Param.Space.config_of_rank t.space i

  let configs t =
    match t.backing with
    | Boxed { configs; _ } -> configs
    | Radix _ ->
        invalid_arg "Surrogate.Pool.configs: virtual pool has no materialized configuration array"

  let space t = t.space

  let indices_of t c =
    match t.backing with
    | Boxed { index; _ } -> Param.Config.Table.find_all index c
    | Radix _ ->
        (* A virtual pool holds every valid configuration exactly
           once, at its enumeration rank. *)
        if Param.Space.validate t.space c then [ Param.Space.config_rank t.space c ] else []

  let codes_bytes t =
    match t.backing with
    | Boxed { codes = C16 a; _ } -> 2 * Bigarray.Array1.dim a
    | Boxed { codes = CNat a; _ } -> (Sys.word_size / 8) * Bigarray.Array1.dim a
    | Radix _ -> 0

  let radices t = match t.backing with Radix { radices } -> Some radices | Boxed _ -> None
end

module Compiled = struct
  type table = (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t

  type t = {
    pool : Pool.t;
    table : table;  (* concatenated per-parameter [log pg - log pb] slot tables *)
    offsets : int array;  (* offsets.(p) = start of parameter p's slots in [table] *)
    n_params : int;
  }

  let pool t = t.pool
  let length t = t.pool.Pool.n
  let config t i = Pool.config t.pool i
  let table_bytes t = 8 * Bigarray.Array1.dim t.table
  let table t = t.table
  let offsets t = t.offsets

  (* Decode a virtual row's digits (most-significant parameter first,
     matching Space.config_rank). *)
  let decode_digits radices digits rank =
    let rem = ref rank in
    for p = Array.length radices - 1 downto 0 do
      digits.(p) <- !rem mod radices.(p);
      rem := !rem / radices.(p)
    done

  let log_ratio t i =
    let off = t.offsets in
    let acc = ref 0. in
    (match t.pool.Pool.backing with
    | Pool.Boxed { codes = Pool.C16 a; _ } ->
        let base = i * t.n_params in
        for p = 0 to t.n_params - 1 do
          acc :=
            !acc
            +. Bigarray.Array1.unsafe_get t.table
                 (Array.unsafe_get off p + Bigarray.Array1.unsafe_get a (base + p))
        done
    | Pool.Boxed { codes = Pool.CNat a; _ } ->
        let base = i * t.n_params in
        for p = 0 to t.n_params - 1 do
          acc :=
            !acc
            +. Bigarray.Array1.unsafe_get t.table
                 (Array.unsafe_get off p + Bigarray.Array1.unsafe_get a (base + p))
        done
    | Pool.Radix { radices } ->
        let digits = Array.make t.n_params 0 in
        decode_digits radices digits i;
        for p = 0 to t.n_params - 1 do
          acc :=
            !acc
            +. Bigarray.Array1.unsafe_get t.table (Array.unsafe_get off p + digits.(p))
        done);
    !acc

  let score t i = exp (log_ratio t i)

  (* Batched scoring of rows [lo, hi) into [out.(0 .. hi-lo-1)] — the
     streaming ranker's inner kernel. Every row's score is the same
     left-to-right per-parameter sum [log_ratio] computes, so the two
     entry points agree bit-for-bit. The virtual path runs the
     mixed-radix odometer: incrementing a row only changes digits from
     some position [p] onward, so only the left-to-right prefix sums
     from [p] are recomputed — identical float operations, amortized
     O(1) adds per row instead of [n_params] divisions and adds. *)
  let scores_into t ~lo ~hi (out : float array) =
    if lo < 0 || hi < lo || hi > t.pool.Pool.n then
      invalid_arg "Surrogate.Compiled.scores_into: range out of bounds";
    if Array.length out < hi - lo then
      invalid_arg "Surrogate.Compiled.scores_into: output buffer too small";
    let np = t.n_params in
    let off = t.offsets in
    match t.pool.Pool.backing with
    | Pool.Boxed { codes = Pool.C16 a; _ } ->
        for i = lo to hi - 1 do
          let base = i * np in
          let acc = ref 0. in
          for p = 0 to np - 1 do
            acc :=
              !acc
              +. Bigarray.Array1.unsafe_get t.table
                   (Array.unsafe_get off p + Bigarray.Array1.unsafe_get a (base + p))
          done;
          Array.unsafe_set out (i - lo) !acc
        done
    | Pool.Boxed { codes = Pool.CNat a; _ } ->
        for i = lo to hi - 1 do
          let base = i * np in
          let acc = ref 0. in
          for p = 0 to np - 1 do
            acc :=
              !acc
              +. Bigarray.Array1.unsafe_get t.table
                   (Array.unsafe_get off p + Bigarray.Array1.unsafe_get a (base + p))
          done;
          Array.unsafe_set out (i - lo) !acc
        done
    | Pool.Radix { radices } ->
        if hi > lo then
          if np = 0 then Array.fill out 0 (hi - lo) 0.
          else begin
            let digits = Array.make np 0 in
            decode_digits radices digits lo;
            let prefix = Array.make np 0. in
            let recompute from =
              for q = from to np - 1 do
                let e =
                  Bigarray.Array1.unsafe_get t.table (Array.unsafe_get off q + digits.(q))
                in
                prefix.(q) <- (if q = 0 then e else prefix.(q - 1) +. e)
              done
            in
            recompute 0;
            out.(0) <- prefix.(np - 1);
            for i = 1 to hi - lo - 1 do
              let p = ref (np - 1) in
              while digits.(!p) = radices.(!p) - 1 do
                digits.(!p) <- 0;
                decr p
              done;
              digits.(!p) <- digits.(!p) + 1;
              recompute !p;
              Array.unsafe_set out i prefix.(np - 1)
            done
          end
end

let check_pool_space t pool =
  if not (Param.Space.equal pool.Pool.space t.space) then
    invalid_arg "Surrogate.compile: pool encoded over a different space"

(* Per parameter, the values its table slots stand for. *)
let slot_grids space slots =
  Array.mapi
    (fun p -> function
      | Pool.Choices n -> Array.init n (fun j -> Param.Spec.value_of_index (Param.Space.spec space p) j)
      | Pool.Grid grid -> Array.map (fun x -> Param.Value.Continuous x) grid)
    slots

let table_offsets slots =
  let n_params = Array.length slots in
  let offsets = Array.make n_params 0 in
  let total = ref 0 in
  for p = 0 to n_params - 1 do
    offsets.(p) <- !total;
    total := !total + Pool.slot_count slots.(p)
  done;
  (offsets, !total)

(* The one table fill [compile] and [Refit.update] share: parameter
   [p]'s slice at [offsets.(p)] gets [log pg - log pb] for each of its
   slot values. *)
let fill_table t grids (table : Compiled.table) offsets =
  Array.iteri
    (fun p values ->
      let lg = Density.log_pdf_table t.good.(p) values in
      let lb = Density.log_pdf_table t.bad.(p) values in
      let off = offsets.(p) in
      for j = 0 to Array.length values - 1 do
        table.{off + j} <- lg.(j) -. lb.(j)
      done)
    grids

let emit_compile telemetry t0 pool n_params =
  if Telemetry.Trace.enabled telemetry then
    Telemetry.Trace.emit telemetry
      (Telemetry.Event.Compile
         {
           pool_size = Pool.length pool;
           n_params;
           dur_ms = (Telemetry.Trace.now telemetry -. t0) *. 1000.;
         })

let compile ?(telemetry = Telemetry.Trace.disabled) t pool =
  let t0 = Telemetry.Trace.now telemetry in
  check_pool_space t pool;
  let n_params = Param.Space.n_params t.space in
  let offsets, total = table_offsets pool.Pool.slots in
  let table = Bigarray.Array1.create Bigarray.float64 Bigarray.c_layout total in
  fill_table t (slot_grids t.space pool.Pool.slots) table offsets;
  emit_compile telemetry t0 pool n_params;
  { Compiled.pool; table; offsets; n_params }

(* ---- Refit engine ----

   A campaign refits once per step over the same pool. The engine
   builds the per-parameter slot-value grids and the score table once,
   then each update is a plain [fit] plus one [fill_table] into that
   reused buffer — the same float operations [compile] performs, so
   the scorer is bit-identical to [compile (fit ...) pool]. *)
module Refit = struct
  type surrogate = t

  type nonrec t = {
    pool : Pool.t;
    options : options;
    grids : Param.Value.t array array;  (* per-parameter slot values *)
    table : Compiled.table;
    offsets : int array;
  }

  let create ?(options = default_options) pool =
    let offsets, total = table_offsets pool.Pool.slots in
    {
      pool;
      options;
      grids = slot_grids pool.Pool.space pool.Pool.slots;
      table = Bigarray.Array1.create Bigarray.float64 Bigarray.c_layout total;
      offsets;
    }

  let update ?(telemetry = Telemetry.Trace.disabled) ?priors ?extra_bad t observations =
    let s = fit ~telemetry ~options:t.options ?priors ?extra_bad t.pool.Pool.space observations in
    let t0 = Telemetry.Trace.now telemetry in
    fill_table s t.grids t.table t.offsets;
    let n_params = t.pool.Pool.n_params in
    emit_compile telemetry t0 t.pool n_params;
    (s, { Compiled.pool = t.pool; table = t.table; offsets = t.offsets; n_params })
end

let param_js_divergence t i =
  check_param t i;
  Density.js_divergence (Param.Space.spec t.space i) t.good.(i) t.bad.(i)
