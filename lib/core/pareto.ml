(* Multi-objective primitives: dominance, an incremental
   non-dominated archive, and an exact hypervolume indicator. All
   objectives minimize, matching the rest of the library. *)

let validate_point ~what ~arity p =
  if Array.length p <> arity then
    invalid_arg (Printf.sprintf "Pareto: %s has arity %d, expected %d" what (Array.length p) arity);
  Array.iter
    (fun v ->
      if Float.is_nan v then invalid_arg (Printf.sprintf "Pareto: %s contains NaN" what))
    p

let dominates a b =
  let n = Array.length a in
  if n = 0 then invalid_arg "Pareto.dominates: empty objective vector";
  validate_point ~what:"point" ~arity:n a;
  validate_point ~what:"point" ~arity:n b;
  let le = ref true and lt = ref false in
  for i = 0 to n - 1 do
    if a.(i) > b.(i) then le := false;
    if a.(i) < b.(i) then lt := true
  done;
  !le && !lt

let point_equal a b = Array.length a = Array.length b && Array.for_all2 Float.equal a b

type front = { arity : int; mutable pts : float array list; mutable n : int }

let create ~arity =
  if arity < 1 then invalid_arg "Pareto.create: arity must be at least 1";
  { arity; pts = []; n = 0 }

let size f = f.n

(* Insert [p]: rejected (returning [false], front untouched) when some
   archived point dominates or equals it; otherwise points it
   dominates are evicted and it joins the front. Duplicates collapse
   to a single copy, so the final archive is a pure function of the
   *set* of points offered, whatever the insertion order. *)
let add f p =
  validate_point ~what:"point" ~arity:f.arity p;
  let p = Array.copy p in
  if List.exists (fun q -> point_equal q p || dominates q p) f.pts then false
  else begin
    f.pts <- p :: List.filter (fun q -> not (dominates p q)) f.pts;
    f.n <- List.length f.pts;
    true
  end

(* Lexicographic order makes the rendering deterministic regardless of
   insertion history. *)
let points f =
  let arr = Array.of_list (List.map Array.copy f.pts) in
  Array.sort compare arr;
  arr

let of_points ~arity pts =
  let f = create ~arity in
  List.iter (fun p -> ignore (add f p)) pts;
  f

(* Exact hypervolume by slicing the first objective (the classic HSO
   recursion): sweep the distinct first-objective values; each slab
   [x_i, x_{i+1})'s volume is its width times the (d-1)-dimensional
   hypervolume of the points already active, projected onto the
   remaining objectives. Exponential in dimension in the worst case,
   which is fine at the 2-3 objectives the simulators expose. *)
let hypervolume ~reference f =
  validate_point ~what:"reference point" ~arity:f.arity reference;
  Array.iter
    (fun v ->
      if not (Float.is_finite v) then invalid_arg "Pareto.hypervolume: reference must be finite")
    reference;
  let clip pts ref_pt =
    (* Only points strictly better than the reference in every
       objective enclose positive volume. *)
    List.filter
      (fun p ->
        let ok = ref true in
        Array.iteri (fun i v -> if v >= ref_pt.(i) then ok := false) p;
        !ok)
      pts
  in
  let rec hv pts ref_pt =
    match clip pts ref_pt with
    | [] -> 0.
    | pts when Array.length ref_pt = 1 ->
        ref_pt.(0) -. List.fold_left (fun acc p -> Float.min acc p.(0)) Float.infinity pts
    | pts ->
        let xs =
          List.sort_uniq compare (List.map (fun p -> p.(0)) pts) @ [ ref_pt.(0) ]
        in
        let tail p = Array.sub p 1 (Array.length p - 1) in
        let ref_tail = tail ref_pt in
        let rec slabs acc = function
          | x :: (x' :: _ as rest) ->
              let active = List.filter (fun p -> p.(0) <= x) pts in
              slabs (acc +. ((x' -. x) *. hv (List.map tail active) ref_tail)) rest
          | [ _ ] | [] -> acc
        in
        slabs 0. xs
  in
  hv f.pts reference
