let check_finite name xs =
  Array.iter
    (fun x ->
      if not (Float.is_finite x) then
        invalid_arg (Printf.sprintf "Quantile.%s: non-finite entry" name))
    xs

let quantile_sorted xs q =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Quantile.quantile_sorted: empty data";
  check_finite "quantile_sorted" xs;
  if q < 0. || q > 1. then invalid_arg "Quantile.quantile_sorted: q outside [0, 1]";
  if n = 1 then xs.(0)
  else begin
    (* Hyndman–Fan type 7: h = (n-1) q, interpolate between floor and
       ceil order statistics. *)
    let h = float_of_int (n - 1) *. q in
    (* [h] lies in [0, n-1] for q in [0, 1] (rounding can land the
       product exactly on n-1 but never past it), so [lo] is already
       in range; the clamp makes the invariant local instead of a
       proof about float rounding. *)
    let lo = Stdlib.min (n - 1) (Stdlib.max 0 (int_of_float (Float.floor h))) in
    let hi = Stdlib.min (lo + 1) (n - 1) in
    let frac = h -. float_of_int lo in
    xs.(lo) +. (frac *. (xs.(hi) -. xs.(lo)))
  end

let quantile xs q =
  if Array.length xs = 0 then invalid_arg "Quantile.quantile: empty data";
  check_finite "quantile" xs;
  let sorted = Array.copy xs in
  (* Float.compare, not the polymorphic compare: the latter orders NaN
     inconsistently and would silently corrupt the order statistics. *)
  Array.sort Float.compare sorted;
  quantile_sorted sorted q

let percentile_rank xs v =
  if Array.length xs = 0 then invalid_arg "Quantile.percentile_rank: empty data";
  check_finite "percentile_rank" xs;
  if not (Float.is_finite v) then invalid_arg "Quantile.percentile_rank: non-finite value";
  let below = Array.fold_left (fun acc x -> if x < v then acc + 1 else acc) 0 xs in
  float_of_int below /. float_of_int (Array.length xs)

let split_at_quantile ys alpha =
  let n = Array.length ys in
  if n = 0 then invalid_arg "Quantile.split_at_quantile: empty data";
  let threshold = quantile ys alpha in
  let good = ref [] and bad = ref [] in
  for i = n - 1 downto 0 do
    if ys.(i) < threshold then good := i :: !good else bad := i :: !bad
  done;
  let good, bad =
    if !good <> [] then (!good, !bad)
    else begin
      (* Degenerate split (e.g. many ties at the minimum): promote the
         minima so the good density is always defined. *)
      let m = Descriptive.min ys in
      let good = ref [] and bad = ref [] in
      for i = n - 1 downto 0 do
        if ys.(i) = m then good := i :: !good else bad := i :: !bad
      done;
      (!good, !bad)
    end
  in
  (threshold, Array.of_list good, Array.of_list bad)
