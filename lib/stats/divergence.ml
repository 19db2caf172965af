let check_pair name p q =
  if Array.length p <> Array.length q then invalid_arg ("Divergence." ^ name ^ ": length mismatch");
  if Array.length p = 0 then invalid_arg ("Divergence." ^ name ^ ": empty distributions")

let kl p q =
  check_pair "kl" p q;
  let acc = ref 0. in
  for i = 0 to Array.length p - 1 do
    if p.(i) > 0. then
      if q.(i) > 0. then acc := !acc +. (p.(i) *. log (p.(i) /. q.(i))) else acc := infinity
  done;
  !acc

let js p q =
  check_pair "js" p q;
  let m = Array.init (Array.length p) (fun i -> 0.5 *. (p.(i) +. q.(i))) in
  (* m dominates both p and q, so both KL terms are finite. *)
  (0.5 *. kl p m) +. (0.5 *. kl q m)

let js_of_pdfs ~lo ~hi ~n f g =
  if n <= 0 then invalid_arg "Divergence.js_of_pdfs: non-positive grid size";
  if not (lo < hi) then invalid_arg "Divergence.js_of_pdfs: empty interval";
  let width = (hi -. lo) /. float_of_int n in
  let cell h = Array.init n (fun i -> Stdlib.max 0. (h (lo +. ((float_of_int i +. 0.5) *. width)))) in
  let p = cell f and q = cell g in
  let total xs = Array.fold_left ( +. ) 0. xs in
  let tp = total p and tq = total q in
  if tp <= 0. || tq <= 0. then 0.
  else js (Array.map (fun x -> x /. tp) p) (Array.map (fun x -> x /. tq) q)
