type t = Relu | Tanh | Identity

let apply t x =
  match t with Relu -> if x > 0. then x else 0. | Tanh -> tanh x | Identity -> x

let derivative t x =
  match t with
  | Relu -> if x > 0. then 1. else 0.
  | Tanh ->
      let th = tanh x in
      1. -. (th *. th)
  | Identity -> 1.
