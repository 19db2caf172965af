module Mat = Linalg.Mat

type layer = {
  w : Mat.t;
  b : float array;
  act : Activation.t;
  (* Adam first/second moments, reset by fine_tune. *)
  mutable mw : Mat.t;
  mutable vw : Mat.t;
  mutable mb : float array;
  mutable vb : float array;
}

type t = { layers : layer array; mutable step : int }

type training = { epochs : int; batch_size : int; learning_rate : float; weight_decay : float }

let default_training = { epochs = 200; batch_size = 32; learning_rate = 1e-3; weight_decay = 0. }

let make_layer ~rng ~fan_in ~fan_out ~act =
  let scale = sqrt (2. /. float_of_int fan_in) in
  {
    w = Mat.init fan_out fan_in (fun _ _ -> scale *. Prng.Rng.normal rng);
    b = Array.make fan_out 0.;
    act;
    mw = Mat.create fan_out fan_in 0.;
    vw = Mat.create fan_out fan_in 0.;
    mb = Array.make fan_out 0.;
    vb = Array.make fan_out 0.;
  }

let create ~rng ~layer_sizes ?(hidden = Activation.Relu) () =
  let sizes = Array.of_list layer_sizes in
  let n = Array.length sizes in
  if n < 2 then invalid_arg "Mlp.create: need at least input and output sizes";
  if sizes.(n - 1) <> 1 then invalid_arg "Mlp.create: output size must be 1";
  Array.iter (fun s -> if s <= 0 then invalid_arg "Mlp.create: non-positive layer size") sizes;
  let layers =
    Array.init (n - 1) (fun i ->
        let act = if i = n - 2 then Activation.Identity else hidden in
        make_layer ~rng ~fan_in:sizes.(i) ~fan_out:sizes.(i + 1) ~act)
  in
  { layers; step = 0 }

let copy t =
  {
    layers =
      Array.map
        (fun l ->
          {
            w = Mat.copy l.w;
            b = Array.copy l.b;
            act = l.act;
            mw = Mat.copy l.mw;
            vw = Mat.copy l.vw;
            mb = Array.copy l.mb;
            vb = Array.copy l.vb;
          })
        t.layers;
    step = t.step;
  }

let n_parameters t =
  Array.fold_left
    (fun acc l -> acc + (Mat.rows l.w * Mat.cols l.w) + Array.length l.b)
    0 t.layers

let forward t x =
  Array.fold_left
    (fun input l ->
      let z = Mat.mat_vec l.w input in
      Array.mapi (fun i zi -> Activation.apply l.act (zi +. l.b.(i))) z)
    x t.layers

let predict t x =
  let out = forward t x in
  out.(0)

(* One forward pass retaining per-layer inputs and pre-activations,
   then backprop; gradients are accumulated into [gw]/[gb]. Returns
   the sample's squared error. *)
let backprop t ~gw ~gb x y =
  let n = Array.length t.layers in
  let inputs = Array.make n [||] in
  let preacts = Array.make n [||] in
  let out = ref x in
  for i = 0 to n - 1 do
    let l = t.layers.(i) in
    inputs.(i) <- !out;
    let z = Mat.mat_vec l.w !out in
    Array.iteri (fun j zj -> z.(j) <- zj +. l.b.(j)) z;
    preacts.(i) <- z;
    out := Array.map (Activation.apply l.act) z
  done;
  let prediction = !out.(0) in
  let err = prediction -. y in
  (* dL/d(activation) for the output layer of the 0.5*err^2 loss. *)
  let upstream = ref [| err |] in
  for i = n - 1 downto 0 do
    let l = t.layers.(i) in
    let delta = Array.mapi (fun j u -> u *. Activation.derivative l.act preacts.(i).(j)) !upstream in
    let input = inputs.(i) in
    for r = 0 to Array.length delta - 1 do
      gb.(i).(r) <- gb.(i).(r) +. delta.(r);
      for c = 0 to Array.length input - 1 do
        Mat.set gw.(i) r c (Mat.get gw.(i) r c +. (delta.(r) *. input.(c)))
      done
    done;
    if i > 0 then upstream := Mat.vec_mat delta l.w
  done;
  err *. err

let adam_beta1 = 0.9
let adam_beta2 = 0.999
let adam_eps = 1e-8

let adam_update t ~lr ~weight_decay ~batch ~gw ~gb =
  t.step <- t.step + 1;
  let bc1 = 1. -. (adam_beta1 ** float_of_int t.step) in
  let bc2 = 1. -. (adam_beta2 ** float_of_int t.step) in
  let inv_batch = 1. /. float_of_int batch in
  Array.iteri
    (fun i l ->
      for r = 0 to Mat.rows l.w - 1 do
        for c = 0 to Mat.cols l.w - 1 do
          let g = (Mat.get gw.(i) r c *. inv_batch) +. (weight_decay *. Mat.get l.w r c) in
          let m = (adam_beta1 *. Mat.get l.mw r c) +. ((1. -. adam_beta1) *. g) in
          let v = (adam_beta2 *. Mat.get l.vw r c) +. ((1. -. adam_beta2) *. g *. g) in
          Mat.set l.mw r c m;
          Mat.set l.vw r c v;
          let update = lr *. (m /. bc1) /. (sqrt (v /. bc2) +. adam_eps) in
          Mat.set l.w r c (Mat.get l.w r c -. update);
          Mat.set gw.(i) r c 0.
        done;
        let g = gb.(i).(r) *. inv_batch in
        let m = (adam_beta1 *. l.mb.(r)) +. ((1. -. adam_beta1) *. g) in
        let v = (adam_beta2 *. l.vb.(r)) +. ((1. -. adam_beta2) *. g *. g) in
        l.mb.(r) <- m;
        l.vb.(r) <- v;
        l.b.(r) <- l.b.(r) -. (lr *. (m /. bc1) /. (sqrt (v /. bc2) +. adam_eps));
        gb.(i).(r) <- 0.
      done)
    t.layers

let train t ~rng ?(config = default_training) ~inputs ~targets () =
  let n = Array.length inputs in
  if n = 0 then invalid_arg "Mlp.train: empty data";
  if n <> Array.length targets then invalid_arg "Mlp.train: input/target length mismatch";
  if config.batch_size <= 0 then invalid_arg "Mlp.train: non-positive batch size";
  let gw = Array.map (fun l -> Mat.create (Mat.rows l.w) (Mat.cols l.w) 0.) t.layers in
  let gb = Array.map (fun l -> Array.make (Array.length l.b) 0.) t.layers in
  let order = Array.init n (fun i -> i) in
  let last_epoch_loss = ref 0. in
  for _epoch = 1 to config.epochs do
    Prng.Rng.shuffle_in_place rng order;
    let epoch_loss = ref 0. in
    let pos = ref 0 in
    while !pos < n do
      let batch = min config.batch_size (n - !pos) in
      for k = 0 to batch - 1 do
        let idx = order.(!pos + k) in
        epoch_loss := !epoch_loss +. backprop t ~gw ~gb inputs.(idx) targets.(idx)
      done;
      adam_update t ~lr:config.learning_rate ~weight_decay:config.weight_decay ~batch ~gw ~gb;
      pos := !pos + batch
    done;
    last_epoch_loss := !epoch_loss /. float_of_int n
  done;
  !last_epoch_loss

let fine_tune t ~rng ?config ~inputs ~targets () =
  Array.iter
    (fun l ->
      l.mw <- Mat.create (Mat.rows l.w) (Mat.cols l.w) 0.;
      l.vw <- Mat.create (Mat.rows l.w) (Mat.cols l.w) 0.;
      l.mb <- Array.make (Array.length l.b) 0.;
      l.vb <- Array.make (Array.length l.b) 0.)
    t.layers;
  t.step <- 0;
  train t ~rng ?config ~inputs ~targets ()

let mse t ~inputs ~targets =
  let n = Array.length inputs in
  if n = 0 then invalid_arg "Mlp.mse: empty data";
  if n <> Array.length targets then invalid_arg "Mlp.mse: input/target length mismatch";
  let acc = ref 0. in
  Array.iteri
    (fun i x ->
      let d = predict t x -. targets.(i) in
      acc := !acc +. (d *. d))
    inputs;
  !acc /. float_of_int n
