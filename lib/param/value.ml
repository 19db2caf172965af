type t =
  | Categorical of int
  | Ordinal of int
  | Continuous of float
  | Permutation of int array

let equal a b =
  match (a, b) with
  | Categorical x, Categorical y -> x = y
  | Ordinal x, Ordinal y -> x = y
  | Continuous x, Continuous y -> Float.equal x y
  | Permutation x, Permutation y ->
      Array.length x = Array.length y && Array.for_all2 ( = ) x y
  | (Categorical _ | Ordinal _ | Continuous _ | Permutation _), _ -> false

let compare a b =
  match (a, b) with
  | Categorical x, Categorical y -> Int.compare x y
  | Ordinal x, Ordinal y -> Int.compare x y
  | Continuous x, Continuous y -> Float.compare x y
  | Permutation x, Permutation y -> Stdlib.compare x y
  | Categorical _, (Ordinal _ | Continuous _ | Permutation _) -> -1
  | Ordinal _, Categorical _ -> 1
  | Ordinal _, (Continuous _ | Permutation _) -> -1
  | Continuous _, (Categorical _ | Ordinal _) -> 1
  | Continuous _, Permutation _ -> -1
  | Permutation _, (Categorical _ | Ordinal _ | Continuous _) -> 1

let hash = function
  | Categorical i -> Hashtbl.hash (0, i)
  | Ordinal i -> Hashtbl.hash (1, i)
  | Continuous f -> Hashtbl.hash (2, f)
  | Permutation p -> Hashtbl.hash (3, Array.to_list p)

(* Lehmer rank: digit i counts the later entries smaller than p.(i),
   accumulated in the factorial number system. The rank is a pure
   function of the array — no spec required — which is what lets the
   index-encoded machinery (pools, compiled scorers, mixed-radix
   space ranks) treat a permutation like any other discrete value. *)
let permutation_rank p =
  let n = Array.length p in
  let rank = ref 0 in
  for i = 0 to n - 1 do
    let smaller = ref 0 in
    for j = i + 1 to n - 1 do
      if p.(j) < p.(i) then incr smaller
    done;
    rank := (!rank * (n - i)) + !smaller
  done;
  !rank

let to_index = function
  | Categorical i | Ordinal i -> i
  | Permutation p -> permutation_rank p
  | Continuous _ -> invalid_arg "Value.to_index: continuous value"

let to_float_raw = function
  | Continuous f -> f
  | Categorical _ | Ordinal _ | Permutation _ ->
      invalid_arg "Value.to_float_raw: discrete value"
