type t =
  | Value of float
  | Transient of string
  | Permanent of string
  | Timeout
  | Infeasible of string

let value = function
  | Value v -> Some v
  | Transient _ | Permanent _ | Timeout | Infeasible _ -> None

let kind = function
  | Value _ -> "ok"
  | Transient _ -> "transient"
  | Permanent _ -> "permanent"
  | Timeout -> "timeout"
  | Infeasible _ -> "infeasible"

let of_option = function Some v -> Value v | None -> Permanent "evaluation returned no value"
