module Mat = Linalg.Mat
module Vec = Linalg.Vec

type t = {
  kernel : Kernel.t;
  inputs : float array array;
  chol : Mat.t;  (** lower Cholesky factor of K + noise I *)
  alpha : float array;  (** (K + noise I)^-1 y, standardized targets *)
  y_std : float array;
  mu : float;
  sigma : float;
}

let fit ?kernel ?(noise = 1e-4) ~inputs ~targets () =
  let n = Array.length inputs in
  if n = 0 then invalid_arg "Gpr.fit: empty data";
  if n <> Array.length targets then invalid_arg "Gpr.fit: input/target length mismatch";
  if noise < 0. then invalid_arg "Gpr.fit: negative noise";
  let d = Array.length inputs.(0) in
  let kernel =
    match kernel with
    | Some k -> k
    | None -> Kernel.rbf ~lengthscale:(Stdlib.max 1e-3 (sqrt (float_of_int d) /. 2.)) ()
  in
  let y_std, mu, sigma =
    let mu = Array.fold_left ( +. ) 0. targets /. float_of_int n in
    let var = Array.fold_left (fun acc y -> acc +. ((y -. mu) ** 2.)) 0. targets /. float_of_int n in
    let sigma = if var > 0. then sqrt var else 1. in
    (Array.map (fun y -> (y -. mu) /. sigma) targets, mu, sigma)
  in
  let gram = Kernel.gram kernel inputs in
  for i = 0 to n - 1 do
    Mat.set gram i i (Mat.get gram i i +. noise +. 1e-10)
  done;
  let chol = Mat.cholesky gram in
  let alpha = Mat.cholesky_solve chol y_std in
  { kernel; inputs; chol; alpha; y_std; mu; sigma }

let n_train t = Array.length t.inputs

let predict t x =
  let k_star = Kernel.cross t.kernel t.inputs x in
  let mean_std = Vec.dot k_star t.alpha in
  let v = Mat.solve_lower t.chol k_star in
  let variance_std = Kernel.eval t.kernel x x -. Vec.dot v v in
  let variance_std = Stdlib.max 0. variance_std in
  (t.mu +. (t.sigma *. mean_std), t.sigma *. t.sigma *. variance_std)

let standard_normal_pdf z = exp (-0.5 *. z *. z) /. sqrt (2. *. Float.pi)

(* Abramowitz-Stegun style CDF via erf-free rational approximation is
   overkill here; erf is not in stdlib, so use the Zelen-Severo
   approximation through the complementary error function expansion. *)
let standard_normal_cdf z =
  (* Hart's algorithm via tanh-based approximation is not accurate
     enough in the tails; use the A&S 26.2.17 polynomial instead,
     which is within 7.5e-8 everywhere. *)
  let sign = if z < 0. then -1. else 1. in
  let x = Float.abs z /. sqrt 2. in
  let t = 1. /. (1. +. (0.3275911 *. x)) in
  let poly =
    t *. (0.254829592 +. (t *. (-0.284496736 +. (t *. (1.421413741 +. (t *. (-1.453152027 +. (t *. 1.061405429))))))))
  in
  let erf = 1. -. (poly *. exp (-.x *. x)) in
  0.5 *. (1. +. (sign *. erf))

let expected_improvement t ~best x =
  let mean, variance = predict t x in
  let sd = sqrt variance in
  if sd <= 0. then Stdlib.max 0. (best -. mean)
  else begin
    let z = (best -. mean) /. sd in
    ((best -. mean) *. standard_normal_cdf z) +. (sd *. standard_normal_pdf z)
  end

let log_marginal_likelihood t =
  let n = float_of_int (n_train t) in
  let data_fit = -0.5 *. Vec.dot t.y_std t.alpha in
  let complexity = -0.5 *. Mat.log_det_from_cholesky t.chol in
  data_fit +. complexity -. (0.5 *. n *. log (2. *. Float.pi))
