type t = { smoothing : float; counts : float array; mutable total : float }

(* [x < 0.] alone lets NaN through (every comparison with NaN is
   false) and accepts infinity; both would silently poison every
   probability computed downstream instead of failing here. *)
let check_finite_nonneg what x =
  if not (Float.is_finite x) || x < 0. then
    invalid_arg (what ^ " must be finite and non-negative")

let create ?(smoothing = 1.0) ~n_categories () =
  if n_categories <= 0 then invalid_arg "Histogram.create: need at least one category";
  check_finite_nonneg "Histogram.create: smoothing" smoothing;
  { smoothing; counts = Array.make n_categories 0.; total = 0. }


let check_category t c =
  if c < 0 || c >= Array.length t.counts then invalid_arg "Histogram: category out of range"

let observe_weighted t c w =
  check_category t c;
  check_finite_nonneg "Histogram.observe_weighted: weight" w;
  t.counts.(c) <- t.counts.(c) +. w;
  t.total <- t.total +. w

let observe t c = observe_weighted t c 1.0

let count t c =
  check_category t c;
  t.counts.(c)

let total t = t.total

let prob t c =
  check_category t c;
  let k = float_of_int (Array.length t.counts) in
  (t.counts.(c) +. t.smoothing) /. (t.total +. (t.smoothing *. k))

let probs t = Array.init (Array.length t.counts) (prob t)

let merge_weighted ~prior ~w t =
  if Array.length prior.counts <> Array.length t.counts then
    invalid_arg "Histogram.merge_weighted: category count mismatch";
  check_finite_nonneg "Histogram.merge_weighted: weight" w;
  let counts = Array.mapi (fun i c -> (w *. prior.counts.(i)) +. c) t.counts in
  { smoothing = t.smoothing; counts; total = (w *. prior.total) +. t.total }

