type t = { specs : Spec.t array }

let make spec_list =
  let specs = Array.of_list spec_list in
  let names = Array.map Spec.name specs in
  let sorted = Array.copy names in
  Array.sort compare sorted;
  for i = 1 to Array.length sorted - 1 do
    if sorted.(i) = sorted.(i - 1) then
      invalid_arg (Printf.sprintf "Space.make: duplicate parameter name %S" sorted.(i))
  done;
  { specs }

let specs t = t.specs
let equal a b = a == b || a.specs = b.specs
let n_params t = Array.length t.specs

let spec t i =
  if i < 0 || i >= Array.length t.specs then invalid_arg "Space.spec: index out of range";
  t.specs.(i)

let index_of_name t name =
  let n = Array.length t.specs in
  let rec scan i =
    if i = n then raise Not_found
    else if Spec.name t.specs.(i) = name then i
    else scan (i + 1)
  in
  scan 0

let cardinality t =
  Array.fold_left
    (fun acc spec ->
      match (acc, Spec.n_choices spec) with
      | Some a, Some n -> Some (a * n)
      | None, _ | _, None -> None)
    (Some 1) t.specs

let is_finite t = cardinality t <> None

let validate t config =
  Array.length config = Array.length t.specs
  && Array.for_all2 (fun spec v -> Spec.validate spec v) t.specs config

let choice_counts t =
  Array.map
    (fun spec ->
      match Spec.n_choices spec with
      | Some n -> n
      | None -> invalid_arg "Space: continuous parameter in a finite-space operation")
    t.specs

let enumerate t =
  let counts = choice_counts t in
  let total = Array.fold_left ( * ) 1 counts in
  let n = Array.length t.specs in
  let current = Array.make n 0 in
  let out =
    Array.init total (fun _ ->
        let config = Array.init n (fun i -> Spec.value_of_index t.specs.(i) current.(i)) in
        (* Odometer increment, least-significant digit last so the
           order is lexicographic in parameter position. *)
        let rec bump i =
          if i >= 0 then begin
            current.(i) <- current.(i) + 1;
            if current.(i) = counts.(i) then begin
              current.(i) <- 0;
              bump (i - 1)
            end
          end
        in
        bump (n - 1);
        config)
  in
  out

let config_rank t config =
  if not (validate t config) then invalid_arg "Space.config_rank: invalid configuration";
  let counts = choice_counts t in
  let rank = ref 0 in
  for i = 0 to Array.length counts - 1 do
    rank := (!rank * counts.(i)) + Value.to_index config.(i)
  done;
  !rank

let config_of_rank t rank =
  let counts = choice_counts t in
  let total = Array.fold_left ( * ) 1 counts in
  if rank < 0 || rank >= total then invalid_arg "Space.config_of_rank: rank out of range";
  let n = Array.length counts in
  let indices = Array.make n 0 in
  let rest = ref rank in
  for i = n - 1 downto 0 do
    indices.(i) <- !rest mod counts.(i);
    rest := !rest / counts.(i)
  done;
  Array.init n (fun i -> Spec.value_of_index t.specs.(i) indices.(i))

let index_encode t config =
  if not (validate t config) then invalid_arg "Space.index_encode: invalid configuration";
  Array.map Value.to_index config

let index_decode t indices =
  if Array.length indices <> Array.length t.specs then
    invalid_arg "Space.index_decode: wrong arity";
  Array.init (Array.length indices) (fun i -> Spec.value_of_index t.specs.(i) indices.(i))

let random_config t rng = Array.map (fun spec -> Spec.random_value spec rng) t.specs

let distance t a b =
  if not (validate t a && validate t b) then invalid_arg "Space.distance: invalid configuration";
  let n = Array.length t.specs in
  if n = 0 then 0.
  else begin
    let acc = ref 0. in
    for i = 0 to n - 1 do
      let spec = t.specs.(i) in
      let d =
        match (Spec.domain spec, a.(i), b.(i)) with
        | Spec.Categorical _, Value.Categorical x, Value.Categorical y -> if x = y then 0. else 1.
        | Spec.Permutation _, Value.Permutation x, Value.Permutation y ->
            (* Normalized Kendall tau: the fraction of element pairs
               ordered differently by the two arrangements — 0 for
               equal permutations, 1 for reversals. *)
            let n = Array.length x in
            let posa = Array.make n 0 and posb = Array.make n 0 in
            Array.iteri (fun pos e -> posa.(e) <- pos) x;
            Array.iteri (fun pos e -> posb.(e) <- pos) y;
            let discordant = ref 0 in
            for e1 = 0 to n - 1 do
              for e2 = e1 + 1 to n - 1 do
                if posa.(e1) < posa.(e2) <> (posb.(e1) < posb.(e2)) then incr discordant
              done
            done;
            float_of_int !discordant /. float_of_int (n * (n - 1) / 2)
        | Spec.Ordinal _, _, _ | Spec.Continuous _, _, _ ->
            Float.abs (Spec.numeric_encoding spec a.(i) -. Spec.numeric_encoding spec b.(i))
        | (Spec.Categorical _ | Spec.Permutation _), _, _ -> assert false
      in
      acc := !acc +. d
    done;
    !acc /. float_of_int n
  end

let encode_width t = Array.fold_left (fun acc spec -> acc + Spec.one_hot_width spec) 0 t.specs

let encode t config =
  if not (validate t config) then invalid_arg "Space.encode: invalid configuration";
  let out = Array.make (encode_width t) 0. in
  let pos = ref 0 in
  Array.iteri
    (fun i spec ->
      (match (Spec.domain spec, config.(i)) with
      | Spec.Categorical _, Value.Categorical c -> out.(!pos + c) <- 1.
      | Spec.Permutation n, Value.Permutation p ->
          (* Normalized arrangement vector: slot j holds the element
             placed at position j, scaled to [0, 1] — a smooth
             embedding for the numeric baselines (GP/PerfNet/GBT). *)
          Array.iteri (fun j e -> out.(!pos + j) <- float_of_int e /. float_of_int (n - 1)) p
      | Spec.Ordinal _, _ | Spec.Continuous _, _ -> out.(!pos) <- Spec.numeric_encoding spec config.(i)
      | (Spec.Categorical _ | Spec.Permutation _), _ -> assert false);
      pos := !pos + Spec.one_hot_width spec)
    t.specs;
  out

let to_string t config =
  if not (validate t config) then invalid_arg "Space.to_string: invalid configuration";
  String.concat " "
    (Array.to_list
       (Array.mapi (fun i spec -> Printf.sprintf "%s=%s" (Spec.name spec) (Spec.value_to_string spec config.(i))) t.specs))
