let schedule_labels = [ "static"; "dynamic16"; "dynamic64"; "guided" ]

let schedule_of_label = function
  | "static" -> Parallel.Pool.Static
  | "dynamic16" -> Parallel.Pool.Dynamic 16
  | "dynamic64" -> Parallel.Pool.Dynamic 64
  | "guided" -> Parallel.Pool.Guided
  | label -> invalid_arg (Printf.sprintf "Live.schedule_of_label: unknown schedule %S" label)

let time f =
  let t0 = Unix.gettimeofday () in
  let _ = f () in
  Unix.gettimeofday () -. t0

let level space config name =
  Param.Spec.level
    (Param.Space.spec space (Param.Space.index_of_name space name))
    (Param.Value.to_index config.(Param.Space.index_of_name space name))

let label space config name =
  let i = Param.Space.index_of_name space name in
  Param.Spec.value_to_string (Param.Space.spec space i) config.(i)

(* ---- stencil ---- *)

let stencil_space =
  Param.Space.make
    [
      Param.Spec.ordinal_ints "tile_rows" [ 4; 8; 16; 32; 64; 128 ];
      Param.Spec.ordinal_ints "tile_cols" [ 4; 8; 16; 32; 64; 128 ];
      Param.Spec.categorical "schedule" schedule_labels;
    ]

let stencil_objective ~pool ?(rows = 256) ?(cols = 256) ?(iters = 8) () =
  let grid =
    Stencil.create_grid ~rows ~cols (fun r c ->
        if r = 0 then 1.0 else if r = rows - 1 then -1.0 else 0.01 *. float_of_int (c mod 7))
  in
  fun config ->
    let tile_rows = int_of_float (level stencil_space config "tile_rows") in
    let tile_cols = int_of_float (level stencil_space config "tile_cols") in
    let schedule = schedule_of_label (label stencil_space config "schedule") in
    time (fun () -> Stencil.run ~pool ~schedule ~tile_rows ~tile_cols ~iters grid)

(* ---- matmul ---- *)

let matmul_space =
  Param.Space.make
    [
      Param.Spec.ordinal_ints "block_i" [ 8; 16; 32; 64 ];
      Param.Spec.ordinal_ints "block_j" [ 8; 16; 32; 64 ];
      Param.Spec.ordinal_ints "block_k" [ 8; 16; 32; 64 ];
      Param.Spec.categorical "order" (List.map Matmul.order_label Matmul.all_orders);
      Param.Spec.categorical "schedule" schedule_labels;
    ]

let matmul_objective ~pool ?(n = 128) () =
  let rng = Prng.Rng.create 12345 in
  let a = Array.init (n * n) (fun _ -> Prng.Rng.float rng -. 0.5) in
  let b = Array.init (n * n) (fun _ -> Prng.Rng.float rng -. 0.5) in
  fun config ->
    let block name = int_of_float (level matmul_space config name) in
    let order =
      let l = label matmul_space config "order" in
      List.find (fun o -> Matmul.order_label o = l) Matmul.all_orders
    in
    let schedule = schedule_of_label (label matmul_space config "schedule") in
    time (fun () ->
        Matmul.multiply ~pool ~schedule ~order ~block_i:(block "block_i") ~block_j:(block "block_j")
          ~block_k:(block "block_k") ~a ~b n)
