type t = { mutable s0 : int64; mutable s1 : int64; mutable s2 : int64; mutable s3 : int64 }

(* SplitMix64 step, used only to expand a seed into xoshiro state and
   to derive child seeds in [split]. *)
let splitmix64_next state =
  let open Int64 in
  state := add !state 0x9E3779B97F4A7C15L;
  let z = !state in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  logxor z (shift_right_logical z 31)

let create seed =
  let state = ref (Int64.of_int seed) in
  let s0 = splitmix64_next state in
  let s1 = splitmix64_next state in
  let s2 = splitmix64_next state in
  let s3 = splitmix64_next state in
  { s0; s1; s2; s3 }

let copy t = { s0 = t.s0; s1 = t.s1; s2 = t.s2; s3 = t.s3 }

let rotl x k = Int64.logor (Int64.shift_left x k) (Int64.shift_right_logical x (64 - k))

let bits64 t =
  let open Int64 in
  let result = mul (rotl (mul t.s1 5L) 7) 9L in
  let tmp = shift_left t.s1 17 in
  t.s2 <- logxor t.s2 t.s0;
  t.s3 <- logxor t.s3 t.s1;
  t.s1 <- logxor t.s1 t.s2;
  t.s0 <- logxor t.s0 t.s3;
  t.s2 <- logxor t.s2 tmp;
  t.s3 <- rotl t.s3 45;
  result

let split t =
  let state = ref (bits64 t) in
  let s0 = splitmix64_next state in
  let s1 = splitmix64_next state in
  let s2 = splitmix64_next state in
  let s3 = splitmix64_next state in
  { s0; s1; s2; s3 }

let float t =
  (* Use the top 53 bits for a uniform double in [0, 1). *)
  let bits = Int64.shift_right_logical (bits64 t) 11 in
  Int64.to_float bits *. 0x1.0p-53

let float_range t lo hi =
  assert (lo < hi);
  lo +. ((hi -. lo) *. float t)

let int t n =
  assert (n > 0);
  (* Rejection sampling to avoid modulo bias. *)
  let n64 = Int64.of_int n in
  let rec draw () =
    let raw = Int64.shift_right_logical (bits64 t) 1 in
    let v = Int64.rem raw n64 in
    if Int64.sub raw v > Int64.sub (Int64.sub Int64.max_int n64) 1L then draw ()
    else Int64.to_int v
  in
  draw ()


let normal t =
  (* Box–Muller; we discard the second deviate for simplicity. *)
  let rec nonzero () =
    let u = float t in
    if u > 0. then u else nonzero ()
  in
  let u1 = nonzero () in
  let u2 = float t in
  sqrt (-2. *. log u1) *. cos (2. *. Float.pi *. u2)

let gaussian t ~mu ~sigma = mu +. (sigma *. normal t)

let exponential t ~rate =
  assert (rate > 0.);
  let rec nonzero () =
    let u = float t in
    if u > 0. then u else nonzero ()
  in
  -.log (nonzero ()) /. rate

let categorical t weights =
  let total = Array.fold_left ( +. ) 0. weights in
  assert (total > 0.);
  let target = float t *. total in
  let n = Array.length weights in
  let rec scan i acc =
    if i = n - 1 then i
    else
      let acc = acc +. weights.(i) in
      if target < acc then i else scan (i + 1) acc
  in
  scan 0 0.

let shuffle_in_place t arr =
  for i = Array.length arr - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done

let sample_without_replacement t k n =
  assert (0 <= k && k <= n);
  (* Partial Fisher–Yates over [0, n). *)
  let pool = Array.init n (fun i -> i) in
  for i = 0 to k - 1 do
    let j = i + int t (n - i) in
    let tmp = pool.(i) in
    pool.(i) <- pool.(j);
    pool.(j) <- tmp
  done;
  Array.sub pool 0 k

let choose t arr =
  assert (Array.length arr > 0);
  arr.(int t (Array.length arr))
