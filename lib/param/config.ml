type t = Value.t array

let equal a b = Array.length a = Array.length b && Array.for_all2 Value.equal a b

let compare a b =
  let c = Int.compare (Array.length a) (Array.length b) in
  if c <> 0 then c
  else begin
    let n = Array.length a in
    let rec scan i =
      if i = n then 0
      else
        let c = Value.compare a.(i) b.(i) in
        if c <> 0 then c else scan (i + 1)
    in
    scan 0
  end

let hash t = Array.fold_left (fun acc v -> (acc * 31) + Value.hash v) 17 t

module Table = Hashtbl.Make (struct
  type nonrec t = t

  let equal = equal
  let hash = hash
end)
