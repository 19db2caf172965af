let require_nonempty name xs =
  if Array.length xs = 0 then invalid_arg ("Descriptive." ^ name ^ ": empty data")

let sum xs = Array.fold_left ( +. ) 0. xs

let mean xs =
  require_nonempty "mean" xs;
  sum xs /. float_of_int (Array.length xs)

let variance xs =
  require_nonempty "variance" xs;
  let n = Array.length xs in
  if n = 1 then 0.
  else begin
    let m = mean xs in
    let acc = ref 0. in
    Array.iter
      (fun x ->
        let d = x -. m in
        acc := !acc +. (d *. d))
      xs;
    !acc /. float_of_int (n - 1)
  end

let stddev xs = sqrt (variance xs)

let min xs =
  require_nonempty "min" xs;
  Array.fold_left Stdlib.min xs.(0) xs

let max xs =
  require_nonempty "max" xs;
  Array.fold_left Stdlib.max xs.(0) xs

let median xs =
  require_nonempty "median" xs;
  let sorted = Array.copy xs in
  Array.sort Float.compare sorted;
  let n = Array.length sorted in
  if n mod 2 = 1 then sorted.(n / 2) else (sorted.((n / 2) - 1) +. sorted.(n / 2)) /. 2.

let geometric_mean xs =
  require_nonempty "geometric_mean" xs;
  let acc = ref 0. in
  Array.iter
    (fun x ->
      if x <= 0. then invalid_arg "Descriptive.geometric_mean: non-positive entry";
      acc := !acc +. log x)
    xs;
  exp (!acc /. float_of_int (Array.length xs))

let normalize xs =
  let total = sum xs in
  if total <= 0. then invalid_arg "Descriptive.normalize: non-positive sum";
  Array.map (fun x -> x /. total) xs

let standardize xs =
  let mu = mean xs in
  let sigma = stddev xs in
  let sigma = if sigma = 0. then 1. else sigma in
  (Array.map (fun x -> (x -. mu) /. sigma) xs, mu, sigma)
