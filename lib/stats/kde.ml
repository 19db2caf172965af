type t = { centers : float array; weights : float array; total_weight : float; bandwidth : float }

let min_bandwidth = 1e-6
let inv_sqrt_2pi = 0.3989422804014327

(* Shared density floor: every density lookup in the tuner (naive
   Density.pdf and the compiled scorer's tables alike) clamps at this
   value, so log-space scores never see -inf and the two scoring paths
   agree bit-for-bit on zero-density points. *)
let min_density = 1e-300
let log_min_density = log min_density

let default_bandwidth xs =
  (* Fixed-fraction-of-range bandwidth, per the paper's "fixed
     bandwidth" choice; the floor keeps point-mass data usable. *)
  let lo = Descriptive.min xs and hi = Descriptive.max xs in
  Stdlib.max min_bandwidth (0.1 *. (hi -. lo))

let create_weighted ?bandwidth pairs =
  if Array.length pairs = 0 then invalid_arg "Kde.create_weighted: empty data";
  let centers = Array.map fst pairs in
  let weights = Array.map snd pairs in
  (* [w < 0.] alone lets NaN through (NaN comparisons are all false);
     a single NaN weight would poison every density lookup. *)
  Array.iter
    (fun w ->
      if not (Float.is_finite w) || w < 0. then
        invalid_arg "Kde.create_weighted: weight must be finite and non-negative")
    weights;
  let total_weight = Array.fold_left ( +. ) 0. weights in
  if total_weight <= 0. then invalid_arg "Kde.create_weighted: weights sum to zero";
  let bandwidth =
    match bandwidth with
    | Some b ->
        if not (Float.is_finite b) || b <= 0. then
          invalid_arg "Kde.create_weighted: bandwidth must be finite and positive";
        b
    | None -> default_bandwidth centers
  in
  { centers; weights; total_weight; bandwidth }

let create ?bandwidth xs = create_weighted ?bandwidth (Array.map (fun x -> (x, 1.0)) xs)
let n_samples t = Array.length t.centers

let pdf t x =
  let h = t.bandwidth in
  let acc = ref 0. in
  for i = 0 to Array.length t.centers - 1 do
    let z = (x -. t.centers.(i)) /. h in
    acc := !acc +. (t.weights.(i) *. exp (-0.5 *. z *. z))
  done;
  !acc *. inv_sqrt_2pi /. (t.bandwidth *. t.total_weight)

let log_pdf t x =
  let p = pdf t x in
  if p >= min_density then log p else log_min_density

let pdf_grid t xs = Array.map (fun x -> pdf t x) xs

let sample t rng =
  let i = Prng.Rng.categorical rng t.weights in
  Prng.Rng.gaussian rng ~mu:t.centers.(i) ~sigma:t.bandwidth

(* The merged estimate deliberately evaluates the prior's centers with
   the TARGET's bandwidth (see the .mli): both domains share one
   fixed-bandwidth estimator, per the paper's bandwidth choice, and
   the target's data decides it. *)
let merge_weighted ~prior ~w t =
  if not (Float.is_finite w) || w < 0. then
    invalid_arg "Kde.merge_weighted: weight must be finite and non-negative";
  let scaled_prior = Array.map2 (fun c wt -> (c, w *. wt)) prior.centers prior.weights in
  let target = Array.map2 (fun c wt -> (c, wt)) t.centers t.weights in
  create_weighted ~bandwidth:t.bandwidth (Array.append scaled_prior target)
