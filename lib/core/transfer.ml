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

(* Fit the source surrogates once and install them (with the safety
   gate) as the campaign prior. The surrogate fit on each source uses
   the same alpha/density options as the target surrogate. *)
let options ?(options = Tuner.default_options) ?(gate = Some Gate.default_options) ~space
    sources =
  check_sources sources;
  let fit (data, w) = (Surrogate.fit ~options:options.Tuner.surrogate space data, w) in
  { options with Tuner.prior = Some (Tuner.prior_of ?gate (List.map fit sources)) }
