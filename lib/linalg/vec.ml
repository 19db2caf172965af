type t = float array

let check_dims name a b =
  if Array.length a <> Array.length b then
    invalid_arg (Printf.sprintf "Vec.%s: dimension mismatch (%d vs %d)" name (Array.length a) (Array.length b))

let add a b =
  check_dims "add" a b;
  Array.mapi (fun i x -> x +. b.(i)) a

let sub a b =
  check_dims "sub" a b;
  Array.mapi (fun i x -> x -. b.(i)) a

let mul a b =
  check_dims "mul" a b;
  Array.mapi (fun i x -> x *. b.(i)) a

let axpy a x y =
  check_dims "axpy" x y;
  for i = 0 to Array.length x - 1 do
    y.(i) <- y.(i) +. (a *. x.(i))
  done

let dot a b =
  check_dims "dot" a b;
  let acc = ref 0. in
  for i = 0 to Array.length a - 1 do
    acc := !acc +. (a.(i) *. b.(i))
  done;
  !acc

let norm2 a = sqrt (dot a a)
let sum a = Array.fold_left ( +. ) 0. a

let mean a =
  if Array.length a = 0 then invalid_arg "Vec.mean: empty vector";
  sum a /. float_of_int (Array.length a)

let extremum name cmp a =
  if Array.length a = 0 then invalid_arg ("Vec." ^ name ^ ": empty vector");
  Array.fold_left (fun acc x -> if cmp x acc then x else acc) a.(0) a

let max a = extremum "max" ( > ) a
let min a = extremum "min" ( < ) a

let arg_extremum name cmp a =
  if Array.length a = 0 then invalid_arg ("Vec." ^ name ^ ": empty vector");
  let best = ref 0 in
  for i = 1 to Array.length a - 1 do
    if cmp a.(i) a.(!best) then best := i
  done;
  !best

let argmax a = arg_extremum "argmax" ( > ) a
let argmin a = arg_extremum "argmin" ( < ) a

let sq_dist a b =
  check_dims "sq_dist" a b;
  let acc = ref 0. in
  for i = 0 to Array.length a - 1 do
    let d = a.(i) -. b.(i) in
    acc := !acc +. (d *. d)
  done;
  !acc
