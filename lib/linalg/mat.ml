type t = { rows : int; cols : int; data : float array }

let create rows cols x =
  if rows < 0 || cols < 0 then invalid_arg "Mat.create: negative dimension";
  { rows; cols; data = Array.make (rows * cols) x }

let init rows cols f =
  if rows < 0 || cols < 0 then invalid_arg "Mat.init: negative dimension";
  { rows; cols; data = Array.init (rows * cols) (fun k -> f (k / cols) (k mod cols)) }

let identity n = init n n (fun i j -> if i = j then 1. else 0.)
let rows m = m.rows
let cols m = m.cols

let get m i j =
  if i < 0 || i >= m.rows || j < 0 || j >= m.cols then invalid_arg "Mat.get: out of bounds";
  m.data.((i * m.cols) + j)

let set m i j x =
  if i < 0 || i >= m.rows || j < 0 || j >= m.cols then invalid_arg "Mat.set: out of bounds";
  m.data.((i * m.cols) + j) <- x

let copy m = { m with data = Array.copy m.data }

let of_arrays arrs =
  let rows = Array.length arrs in
  if rows = 0 then { rows = 0; cols = 0; data = [||] }
  else begin
    let cols = Array.length arrs.(0) in
    Array.iter (fun r -> if Array.length r <> cols then invalid_arg "Mat.of_arrays: ragged rows") arrs;
    init rows cols (fun i j -> arrs.(i).(j))
  end

let row m i = Array.sub m.data (i * m.cols) m.cols
let col m j = Array.init m.rows (fun i -> get m i j)
let transpose m = init m.cols m.rows (fun i j -> get m j i)

let matmul a b =
  if a.cols <> b.rows then
    invalid_arg (Printf.sprintf "Mat.matmul: inner dimension mismatch (%d vs %d)" a.cols b.rows);
  let out = create a.rows b.cols 0. in
  (* i-k-j loop order keeps the inner loop contiguous in both [b] and
     [out], which matters for the nn training inner loops. *)
  for i = 0 to a.rows - 1 do
    for k = 0 to a.cols - 1 do
      let aik = a.data.((i * a.cols) + k) in
      if aik <> 0. then
        for j = 0 to b.cols - 1 do
          out.data.((i * out.cols) + j) <-
            out.data.((i * out.cols) + j) +. (aik *. b.data.((k * b.cols) + j))
        done
    done
  done;
  out

let mat_vec m v =
  if m.cols <> Array.length v then invalid_arg "Mat.mat_vec: dimension mismatch";
  Array.init m.rows (fun i ->
      let acc = ref 0. in
      for j = 0 to m.cols - 1 do
        acc := !acc +. (m.data.((i * m.cols) + j) *. v.(j))
      done;
      !acc)

let vec_mat v m =
  if m.rows <> Array.length v then invalid_arg "Mat.vec_mat: dimension mismatch";
  Array.init m.cols (fun j ->
      let acc = ref 0. in
      for i = 0 to m.rows - 1 do
        acc := !acc +. (v.(i) *. m.data.((i * m.cols) + j))
      done;
      !acc)

let outer a b = init (Array.length a) (Array.length b) (fun i j -> a.(i) *. b.(j))

let trace m =
  let n = min m.rows m.cols in
  let acc = ref 0. in
  for i = 0 to n - 1 do
    acc := !acc +. get m i i
  done;
  !acc

let cholesky a =
  if a.rows <> a.cols then invalid_arg "Mat.cholesky: not square";
  let n = a.rows in
  let l = create n n 0. in
  for i = 0 to n - 1 do
    for j = 0 to i do
      let s = ref (get a i j) in
      for k = 0 to j - 1 do
        s := !s -. (get l i k *. get l j k)
      done;
      if i = j then begin
        if !s <= 0. then failwith "Mat.cholesky: matrix not positive definite";
        set l i i (sqrt !s)
      end
      else set l i j (!s /. get l j j)
    done
  done;
  l

let solve_lower l b =
  if l.rows <> l.cols || l.rows <> Array.length b then invalid_arg "Mat.solve_lower: dimension mismatch";
  let n = l.rows in
  let x = Array.make n 0. in
  for i = 0 to n - 1 do
    let s = ref b.(i) in
    for j = 0 to i - 1 do
      s := !s -. (get l i j *. x.(j))
    done;
    x.(i) <- !s /. get l i i
  done;
  x

let solve_upper u b =
  if u.rows <> u.cols || u.rows <> Array.length b then invalid_arg "Mat.solve_upper: dimension mismatch";
  let n = u.rows in
  let x = Array.make n 0. in
  for i = n - 1 downto 0 do
    let s = ref b.(i) in
    for j = i + 1 to n - 1 do
      s := !s -. (get u i j *. x.(j))
    done;
    x.(i) <- !s /. get u i i
  done;
  x

let cholesky_solve l b = solve_upper (transpose l) (solve_lower l b)

let log_det_from_cholesky l =
  let acc = ref 0. in
  for i = 0 to l.rows - 1 do
    acc := !acc +. log (get l i i)
  done;
  2. *. !acc
