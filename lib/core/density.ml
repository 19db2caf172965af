type options = { smoothing : float; bandwidth_fraction : float }

let default_options = { smoothing = 1.0; bandwidth_fraction = 0.1 }

type t =
  | Discrete of { spec : Param.Spec.t; hist : Stats.Histogram.t }
  | Continuous of { spec : Param.Spec.t; kde : Stats.Kde.t; lo : float; hi : float }
  | Uniform of Param.Spec.t
  | Blend of { base : t; parts : (t * float) list }
      (* pdf = (pdf base + sum_i w_i * pdf part_i) / (1 + sum_i w_i):
         the probability-space prior mix used when one side of a
         merge carries no observations (Uniform), where the
         count-space merge is undefined. The base always carries unit
         mass, so w = 0 parts vanish exactly. *)

let uniform spec = Uniform spec

let rec spec_of = function
  | Discrete { spec; _ } | Continuous { spec; _ } | Uniform spec -> spec
  | Blend { base; _ } -> spec_of base

let continuous_range spec =
  match Param.Spec.domain spec with
  | Param.Spec.Continuous { lo; hi } -> (lo, hi)
  | Param.Spec.Categorical _ | Param.Spec.Ordinal _ | Param.Spec.Permutation _ ->
      invalid_arg "Density: expected a continuous spec"

let fit ?(options = default_options) spec values =
  Array.iter
    (fun v -> if not (Param.Spec.validate spec v) then invalid_arg "Density.fit: value does not match spec")
    values;
  if Array.length values = 0 then Uniform spec
  else begin
    match Param.Spec.n_choices spec with
    | Some n ->
        let hist = Stats.Histogram.create ~smoothing:options.smoothing ~n_categories:n () in
        Array.iter (fun v -> Stats.Histogram.observe hist (Param.Value.to_index v)) values;
        Discrete { spec; hist }
    | None ->
        let lo, hi = continuous_range spec in
        let xs = Array.map Param.Value.to_float_raw values in
        let f = options.bandwidth_fraction in
        if not (Float.is_finite f) || f < 0. then
          invalid_arg "Density.fit: bandwidth fraction must be finite and non-negative";
        (* Same floor as every other KDE constructor (Kde.min_bandwidth)
           so degenerate ranges behave identically whichever path built
           the estimate. *)
        let bandwidth = Stdlib.max Stats.Kde.min_bandwidth (f *. (hi -. lo)) in
        Continuous { spec; kde = Stats.Kde.create ~bandwidth xs; lo; hi }
  end

(* Both estimated paths clamp at the shared floor: the continuous KDE
   underflows far from its centers, and a discrete histogram with
   smoothing = 0 gives a zero-count category probability 0 — either
   would put -inf into log-space scores. *)
let rec pdf t v =
  match t with
  | Discrete { spec; hist } ->
      if not (Param.Spec.validate spec v) then invalid_arg "Density.pdf: value does not match spec";
      Stdlib.max Stats.Kde.min_density (Stats.Histogram.prob hist (Param.Value.to_index v))
  | Continuous { spec; kde; _ } ->
      if not (Param.Spec.validate spec v) then invalid_arg "Density.pdf: value does not match spec";
      Stdlib.max Stats.Kde.min_density (Stats.Kde.pdf kde (Param.Value.to_float_raw v))
  | Uniform spec -> begin
      if not (Param.Spec.validate spec v) then invalid_arg "Density.pdf: value does not match spec";
      match Param.Spec.n_choices spec with
      | Some n -> 1. /. float_of_int n
      | None ->
          let lo, hi = continuous_range spec in
          1. /. (hi -. lo)
    end
  | Blend { base; parts } ->
      let acc =
        List.fold_left (fun acc (d, w) -> acc +. (w *. pdf d v)) (pdf base v) parts
      in
      let mass = List.fold_left (fun acc (_, w) -> acc +. w) 1. parts in
      Stdlib.max Stats.Kde.min_density (acc /. mass)

(* One batched pass per table: the histogram normalization is folded
   in once per category and the KDE is evaluated once per distinct
   grid value instead of once per candidate. Entries must equal
   [log (pdf t v)] bit-for-bit — the compiled scorer's equivalence
   with the naive one depends on it, so both paths clamp with the
   same [max min_density] expression before the log. *)
let log_pdf_table t values =
  match t with
  | Discrete { spec; hist } ->
      let lp =
        Array.map
          (fun p -> log (Stdlib.max Stats.Kde.min_density p))
          (Stats.Histogram.probs hist)
      in
      Array.map
        (fun v ->
          if not (Param.Spec.validate spec v) then
            invalid_arg "Density.log_pdf_table: value does not match spec";
          lp.(Param.Value.to_index v))
        values
  | Continuous { spec; kde; _ } ->
      let xs =
        Array.map
          (fun v ->
            if not (Param.Spec.validate spec v) then
              invalid_arg "Density.log_pdf_table: value does not match spec";
            Param.Value.to_float_raw v)
          values
      in
      Array.map (fun p -> log (Stdlib.max Stats.Kde.min_density p)) (Stats.Kde.pdf_grid kde xs)
  | Uniform _ | Blend _ -> Array.map (fun v -> log (pdf t v)) values

let rec sample t rng =
  match t with
  | Discrete { spec; hist } ->
      let idx = Prng.Rng.categorical rng (Stats.Histogram.probs hist) in
      Param.Spec.value_of_index spec idx
  | Continuous { kde; lo; hi; _ } ->
      let x = Stats.Kde.sample kde rng in
      Param.Value.Continuous (Float.min hi (Float.max lo x))
  | Uniform spec -> Param.Spec.random_value spec rng
  | Blend { base; parts } ->
      (* Component weights 1 :: w_i, matching the pdf mixture. *)
      let weights = Array.of_list (1. :: List.map snd parts) in
      let i = Prng.Rng.categorical rng weights in
      if i = 0 then sample base rng else sample (fst (List.nth parts (i - 1))) rng

(* Discrete and continuous densities of the same parameter never mix;
   Uniform and Blend take their kind from the spec they carry. *)
let same_kind a b =
  match (Param.Spec.n_choices (spec_of a), Param.Spec.n_choices (spec_of b)) with
  | Some n, Some m -> n = m
  | None, None -> true
  | Some _, None | None, Some _ -> false

let merge_prior ~prior ~w t =
  if not (Float.is_finite w) || w < 0. then
    invalid_arg "Density.merge_prior: weight must be finite and non-negative";
  if not (same_kind prior t) then invalid_arg "Density.merge_prior: mismatched density kinds";
  (* w = 0 is exactly "no prior": return the target itself so a
     zero-weight transfer run is bit-identical to a prior-free one. *)
  if w = 0. then t
  else
    match (prior, t) with
    | Discrete p, Discrete d ->
        Discrete { d with hist = Stats.Histogram.merge_weighted ~prior:p.hist ~w d.hist }
    | Continuous p, Continuous c ->
        Continuous { c with kde = Stats.Kde.merge_weighted ~prior:p.kde ~w c.kde }
    | Uniform _, Uniform _ -> t
    (* A Uniform side has no observation counts to merge, so the mix
       happens in probability space instead: the target keeps unit
       mass and the prior enters at mass w, exactly eqs. 9-10 read as
       a density mixture. w = 0 recovers the target (handled above)
       and w -> infinity recovers the prior. *)
    | _, Blend b -> Blend { b with parts = b.parts @ [ (prior, w) ] }
    | _, (Uniform _ | Discrete _ | Continuous _) -> Blend { base = t; parts = [ (prior, w) ] }

let js_divergence spec a b =
  match Param.Spec.n_choices spec with
  | Some n ->
      let probs d = Array.init n (fun i -> pdf d (Param.Spec.value_of_index spec i)) in
      Stats.Divergence.js (probs a) (probs b)
  | None ->
      let lo, hi = continuous_range spec in
      Stats.Divergence.js_of_pdfs ~lo ~hi ~n:256
        (fun x -> pdf a (Param.Value.Continuous x))
        (fun x -> pdf b (Param.Value.Continuous x))
