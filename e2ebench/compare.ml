(* --compare BASE NEW: for each workload x end-to-end metric, whether
   the runs in NEW are better, the same, worse or unresolved against
   the runs in BASE, by the bounds in BENCHMARK.json.

   Both files hold run records, one JSON object per line (what --out
   appends). Only untraced runs count. A metric whose run-to-run spread
   (interquartile range over median, on either side) exceeds its bound
   is unresolved unless every NEW run beats every BASE run. *)

type metric_spec = { name : string; higher_better : bool; bound : float }

type benchmark = {
  workloads : string list;
  end_to_end : metric_spec list;
  per_layer : string list;
}

let load_benchmark path =
  let json = Json.parse (Json.read_file path) in
  let names key =
    List.map (fun m -> Json.to_string (Json.get "name" m)) (Json.to_list (Json.get key json))
  in
  {
    workloads = names "workloads";
    end_to_end =
      List.map
        (fun m ->
          {
            name = Json.to_string (Json.get "name" m);
            higher_better = Json.to_string (Json.get "better" m) = "higher";
            bound = Json.to_float (Json.get "bound" m);
          })
        (Json.to_list (Json.get "end_to_end" json));
    per_layer = names "per_layer";
  }

let records path =
  Json.read_file path |> String.split_on_char '\n'
  |> List.filter (fun l -> String.trim l <> "")
  |> List.map Json.parse

(* Quartiles as Python's statistics.quantiles(values, n=4) computes
   them (the default "exclusive" method). *)
let quartiles values =
  let x = Array.of_list values in
  Array.sort Float.compare x;
  let len = Array.length x in
  if len = 1 then (x.(0), x.(0), x.(0))
  else
    let q i =
      let m = len + 1 in
      let j = max 1 (min (len - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((x.(j - 1) *. float_of_int (4 - delta)) +. (x.(j) *. float_of_int delta)) /. 4.
    in
    (q 1, q 2, q 3)

type verdict = Better | Same | Worse | Unresolved

let verdict_name = function
  | Better -> "better"
  | Same -> "same"
  | Worse -> "worse"
  | Unresolved -> "unresolved"

(* [worse_by] is the relative change in the bad direction. *)
let classify spec ~base ~next =
  let q1b, medb, q3b = quartiles base and q1n, medn, q3n = quartiles next in
  let rel a b = if b = 0. then (if a = 0. then 0. else infinity) else a /. b in
  let spread = Float.max (rel (q3b -. q1b) medb) (rel (q3n -. q1n) medn) in
  let worse_by = rel (if spec.higher_better then medb -. medn else medn -. medb) (Float.abs medb) in
  let beats a b = if spec.higher_better then a > b else a < b in
  let verdict =
    if spread > spec.bound then
      if List.for_all (fun n -> List.for_all (fun b -> beats n b) base) next then Better
      else Unresolved
    else if worse_by > spec.bound then Worse
    else if worse_by < -.spec.bound then Better
    else Same
  in
  (verdict, medb, medn, worse_by, spread)

let values records ~workload ~metric =
  List.filter_map
    (fun r ->
      if
        Json.to_string (Json.get "workload" r) = workload
        && Json.to_float (Json.get "trace" r) = 0.
      then
        Option.map
          (fun m -> Json.to_float (Json.get "value" m))
          (Json.member metric (Json.get "metrics" r))
      else None)
    records

let run ~benchmark ~base ~next =
  let spec = load_benchmark benchmark in
  let base = records base and next = records next in
  Printf.printf "%-13s %-15s %14s %14s %9s %8s %7s  %s\n" "workload" "metric" "base median"
    "new median" "worse by" "spread" "bound" "verdict";
  let counts = Hashtbl.create 4 in
  List.iter
    (fun workload ->
      List.iter
        (fun m ->
          match (values base ~workload ~metric:m.name, values next ~workload ~metric:m.name) with
          | [], _ | _, [] -> ()
          | b, n ->
              let verdict, medb, medn, worse_by, spread = classify m ~base:b ~next:n in
              Hashtbl.replace counts verdict
                (1 + Option.value (Hashtbl.find_opt counts verdict) ~default:0);
              Printf.printf "%-13s %-15s %14.6g %14.6g %8.2f%% %7.2f%% %6.1f%%  %s (%d vs %d runs)\n"
                workload m.name medb medn (100. *. worse_by) (100. *. spread) (100. *. m.bound)
                (verdict_name verdict) (List.length b) (List.length n))
        spec.end_to_end)
    spec.workloads;
  let count v = Option.value (Hashtbl.find_opt counts v) ~default:0 in
  Printf.printf "better %d, same %d, worse %d, unresolved %d\n" (count Better) (count Same)
    (count Worse) (count Unresolved);
  count Worse = 0
