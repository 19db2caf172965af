type weighting = Constant_weights | Js_guided

type schedule =
  | Constant
  | Exponential of { half_life : float }
  | Reciprocal of { n0 : float }
  | Custom of (int -> float)

let decay_of_schedule = function
  | Constant -> Tuner.constant_decay
  | Exponential { half_life } ->
      if not (Float.is_finite half_life) || half_life <= 0. then
        invalid_arg "Transfer: half_life must be finite and positive";
      fun n -> 0.5 ** (float_of_int n /. half_life)
  | Reciprocal { n0 } ->
      if not (Float.is_finite n0) || n0 <= 0. then
        invalid_arg "Transfer: n0 must be finite and positive";
      fun n -> n0 /. (n0 +. float_of_int n)
  | Custom f -> f

let check_sources sources =
  if sources = [] then invalid_arg "Transfer.options: empty source list";
  List.iter
    (fun (data, weight) ->
      (* [weight < 0.] alone lets NaN through (NaN comparisons are all
         false) and accepts infinity — both would silently poison the
         merged densities instead of failing here with a clear
         message. *)
      if not (Float.is_finite weight) || weight < 0. then
        invalid_arg "Transfer.options: prior weight must be finite and non-negative";
      if Array.length data = 0 then invalid_arg "Transfer.options: empty source data")
    sources

let ln2 = log 2.

(* Per-source agreement with the pooled-source consensus: one minus
   the mean per-parameter JS divergence (normalized by its ln 2 upper
   bound) between the source's good density and the good density of a
   surrogate fitted on all sources pooled. A source whose good region
   matches the consensus keeps its full weight; a contrarian source is
   attenuated. With a single source the pooled fit sees exactly the
   same data, every JS term is exactly 0., and the multiplier is
   exactly 1. — Js_guided on one source is bit-identical to
   Constant_weights. *)
let js_agreement space pooled s =
  let n_params = Param.Space.n_params space in
  let total = ref 0. in
  for i = 0 to n_params - 1 do
    total :=
      !total
      +. Density.js_divergence (Param.Space.spec space i) (Surrogate.good_density s i)
           (Surrogate.good_density pooled i)
  done;
  Stdlib.max 0. (1. -. (!total /. float_of_int n_params /. ln2))

let prior_of_sources ?options ?(weighting = Constant_weights) space sources =
  check_sources sources;
  let fitted = List.map (fun (data, w) -> (Surrogate.fit ?options space data, w)) sources in
  match weighting with
  | Constant_weights -> fitted
  | Js_guided ->
      let pooled = Surrogate.fit ?options space (Array.concat (List.map fst sources)) in
      List.map (fun (s, w) -> (s, w *. js_agreement space pooled s)) fitted

(* Fit the source surrogates once and install them (with the decay
   schedule and the safety gate) as the campaign prior. The surrogate
   fit on each source uses the same alpha/density options as the
   target surrogate. *)
let options ?(options = Tuner.default_options) ?weighting ?(schedule = Constant)
    ?(gate = Some Gate.default_options) ~space sources =
  let priors = prior_of_sources ~options:options.Tuner.surrogate ?weighting space sources in
  {
    options with
    Tuner.prior = Some (Tuner.prior_of ~decay:(decay_of_schedule schedule) ?gate priors);
  }
