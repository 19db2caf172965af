(* Shared test fixtures, comparators, and QCheck2 generators for the
   property suites. The generators build spaces, configurations,
   observation histories, and fault plans from shrinkable integer and
   float ranges, so a failing property reports a minimal space (fewer
   parameters, fewer choices) rather than an opaque seed. *)

(* ---- fixed fixtures shared across suites ---- *)

(* 8 x 8 ordinal space: large enough that random draws rarely collide. *)
let wide_space =
  Param.Space.make
    [
      Param.Spec.ordinal_ints "a" [ 1; 2; 4; 8; 16; 32; 64; 128 ];
      Param.Spec.ordinal_ints "b" [ 1; 2; 3; 4; 5; 6; 7; 8 ];
    ]

(* 3 x 4 mixed space: small enough to enumerate and exhaust. *)
let cat_ord_space =
  Param.Space.make
    [ Param.Spec.categorical "c" [ "a"; "b"; "x" ]; Param.Spec.ordinal_ints "o" [ 1; 2; 3; 4 ] ]

(* c=a fast, others slow; o breaks ties. *)
let cat_ord_objective (c : Param.Config.t) =
  let base = if Param.Value.to_index c.(0) = 0 then 1. else 10. in
  base +. (0.1 *. float_of_int (Param.Value.to_index c.(1)))

(* Deterministic pure objective usable from any domain. *)
let hash_objective c = float_of_int ((Param.Config.hash c land 0xFFFF) + 1)

let policy3 = { Resilience.Policy.default with max_attempts = 3 }

(* A total objective in the outcome taxonomy the tuner drivers take. *)
let total f ~attempt:_ c = Resilience.Outcome.Value (f c)

(* The result of a run that cannot fail. *)
let ok = function
  | Stdlib.Ok r -> r
  | Stdlib.Error _ -> Alcotest.fail "every evaluation failed"

let contains_substring haystack needle =
  let n = String.length needle and h = String.length haystack in
  let rec go i = i + n <= h && (String.sub haystack i n = needle || go (i + 1)) in
  go 0

(* Bit-for-bit comparison of two tuner results, failure lists and
   retry accounting included. *)
let results_identical (a : Hiperbot.Tuner.result) (b : Hiperbot.Tuner.result) =
  let history_eq (c1, y1) (c2, y2) = Param.Config.equal c1 c2 && Float.equal y1 y2 in
  let failure_eq (c1, o1) (c2, o2) =
    Param.Config.equal c1 c2 && Resilience.Outcome.kind o1 = Resilience.Outcome.kind o2
  in
  Array.length a.Hiperbot.Tuner.history = Array.length b.Hiperbot.Tuner.history
  && Array.for_all2 history_eq a.Hiperbot.Tuner.history b.Hiperbot.Tuner.history
  && a.Hiperbot.Tuner.trajectory = b.Hiperbot.Tuner.trajectory
  && Param.Config.equal a.Hiperbot.Tuner.best_config b.Hiperbot.Tuner.best_config
  && Float.equal a.Hiperbot.Tuner.best_value b.Hiperbot.Tuner.best_value
  && Array.length a.Hiperbot.Tuner.failures = Array.length b.Hiperbot.Tuner.failures
  && Array.for_all2 failure_eq a.Hiperbot.Tuner.failures b.Hiperbot.Tuner.failures
  && a.Hiperbot.Tuner.n_attempts = b.Hiperbot.Tuner.n_attempts
  && Float.equal a.Hiperbot.Tuner.retry_cost b.Hiperbot.Tuner.retry_cost

(* Compare the two possible outcomes of a resilient run. *)
let run_outcomes_identical a b =
  match (a, b) with
  | Stdlib.Ok a, Stdlib.Ok b -> results_identical a b
  | Stdlib.Error a, Stdlib.Error b ->
      let failure_eq (c1, o1) (c2, o2) =
        Param.Config.equal c1 c2 && Resilience.Outcome.kind o1 = Resilience.Outcome.kind o2
      in
      a.Hiperbot.Tuner.error_attempts = b.Hiperbot.Tuner.error_attempts
      && Array.length a.Hiperbot.Tuner.error_failures
         = Array.length b.Hiperbot.Tuner.error_failures
      && Array.for_all2 failure_eq a.Hiperbot.Tuner.error_failures
           b.Hiperbot.Tuner.error_failures
  | _ -> false

(* ---- step drivers (independent re-implementations of the engines'
   driving discipline, so parity is checked against the machine's
   public API rather than against Tuner's own plumbing) ---- *)

(* Synchronous: evaluate and report each suggestion immediately. *)
let drive_sync campaign eval =
  let rec loop () =
    match Hiperbot.Campaign.suggest campaign with
    | Hiperbot.Campaign.Finished -> Hiperbot.Campaign.result campaign
    | Hiperbot.Campaign.Wait ->
        Alcotest.fail "sync campaign returned Wait with nothing pending"
    | Hiperbot.Campaign.Suggest s ->
        Hiperbot.Campaign.report campaign ~id:s.Hiperbot.Campaign.id
          (eval s.Hiperbot.Campaign.config);
        loop ()
  in
  loop ()

(* Asynchronous: keep the in-flight set full and complete suggestions
   in simulated-clock order (earliest completion first, ties to the
   lower submission id) — the same discipline [Tuner.run_async]
   implements, rebuilt from scratch on the step API. *)
let drive_async campaign ~eval ~duration =
  let in_flight = ref [] and sim_time = ref 0. in
  let fill at =
    let filling = ref true in
    while !filling do
      match Hiperbot.Campaign.suggest ~at campaign with
      | Hiperbot.Campaign.Suggest s ->
          in_flight := (s, at, eval s.Hiperbot.Campaign.config) :: !in_flight
      | Hiperbot.Campaign.Wait | Hiperbot.Campaign.Finished -> filling := false
    done
  in
  fill !sim_time;
  while !in_flight <> [] do
    let timed =
      List.rev_map
        (fun ((s, submitted, v) as slot) ->
          (slot, submitted +. duration s.Hiperbot.Campaign.config v))
        !in_flight
    in
    let (s, _, v), at =
      List.fold_left
        (fun (((bs, _, _), bt) as acc) (((cs, _, _), ct) as cand) ->
          if
            ct < bt
            || (ct = bt && cs.Hiperbot.Campaign.id < bs.Hiperbot.Campaign.id)
          then cand
          else acc)
        (List.hd timed) (List.tl timed)
    in
    in_flight :=
      List.filter
        (fun (s', _, _) -> s'.Hiperbot.Campaign.id <> s.Hiperbot.Campaign.id)
        !in_flight;
    sim_time := at;
    Hiperbot.Campaign.report ~at campaign ~id:s.Hiperbot.Campaign.id v;
    fill !sim_time
  done;
  Hiperbot.Campaign.result campaign

(* A deterministic async duration that scrambles completion order per
   salt (and charges retry cost, like the engine's default). *)
let salted_duration salt config (v : Resilience.Evaluator.verdict) =
  float_of_int ((Param.Config.hash config lxor salt) land 0xFF)
  +. v.Resilience.Evaluator.retry_cost

(* The ranking reference: rows [0, n) not skipped, sorted by score
   descending with ties toward the smaller index, first [k] kept (as
   indices). *)
let top_k ~k ~n ?(skip = fun _ -> false) score =
  List.init n Fun.id
  |> List.filter (fun i -> not (skip i))
  |> List.stable_sort (fun i j -> Float.compare (score j) (score i))
  |> List.filteri (fun r _ -> r < k)

(* ---- printers (what a failing property reports) ---- *)

let spec_to_string spec =
  match Param.Spec.domain spec with
  | Param.Spec.Categorical labels ->
      Printf.sprintf "%s:cat[%s]" (Param.Spec.name spec)
        (String.concat "," (Array.to_list labels))
  | Param.Spec.Ordinal levels ->
      Printf.sprintf "%s:ord[%s]" (Param.Spec.name spec)
        (String.concat "," (Array.to_list (Array.map (Printf.sprintf "%g") levels)))
  | Param.Spec.Continuous { lo; hi } ->
      Printf.sprintf "%s:cont[%g,%g]" (Param.Spec.name spec) lo hi
  | Param.Spec.Permutation n -> Printf.sprintf "%s:perm[%d]" (Param.Spec.name spec) n

let space_to_string space =
  Printf.sprintf "space{%s}"
    (String.concat "; " (Array.to_list (Array.map spec_to_string (Param.Space.specs space))))

let config_to_string space config = Param.Space.to_string space config

let fault_spec_to_string (s : Hpcsim.Faults.spec) =
  Printf.sprintf "faults{seed=%d transient=%.3f permanent=%.3f straggler=%.3f slowdown=%.2f}"
    s.Hpcsim.Faults.seed s.Hpcsim.Faults.transient s.Hpcsim.Faults.permanent
    s.Hpcsim.Faults.straggler s.Hpcsim.Faults.slowdown

(* ---- QCheck2 generators ---- *)

let spec_gen ?(allow_continuous = true) i =
  let open QCheck2.Gen in
  let categorical =
    let+ n = int_range 1 4 in
    Param.Spec.categorical
      (Printf.sprintf "c%d" i)
      (List.init n (fun j -> String.make 1 (Char.chr (Char.code 'a' + j))))
  in
  let ordinal =
    let+ n = int_range 1 5 in
    Param.Spec.ordinal_ints (Printf.sprintf "o%d" i) (List.init n (fun j -> 1 lsl j))
  in
  let continuous =
    let+ hi = float_range 1. 10. in
    Param.Spec.continuous (Printf.sprintf "r%d" i) ~lo:0. ~hi
  in
  if allow_continuous then oneof [ categorical; ordinal; continuous ]
  else oneof [ categorical; ordinal ]

(* Random space of 1..max_params parameters; shrinks toward fewer
   parameters and fewer choices per parameter. [allow_continuous]
   false keeps the space finite (enumerable), as the Ranking strategy
   requires. *)
let space_gen ?(max_params = 3) ?(allow_continuous = true) () =
  let open QCheck2.Gen in
  let* n = int_range 1 max_params in
  let+ specs = flatten_l (List.init n (fun i -> spec_gen ~allow_continuous i)) in
  Param.Space.make specs

let value_gen spec =
  let open QCheck2.Gen in
  match Param.Spec.n_choices spec with
  | Some n ->
      let+ i = int_range 0 (n - 1) in
      Param.Spec.value_of_index spec i
  | None -> (
      match Param.Spec.domain spec with
      | Param.Spec.Continuous { lo; hi } ->
          let+ x = float_range lo hi in
          Param.Value.Continuous x
      | _ -> assert false)

let config_gen space =
  QCheck2.Gen.flatten_a (Array.map value_gen (Param.Space.specs space))

(* Observation history over [space] with finite positive objective
   values (the surrogate rejects non-finite objectives). *)
let observations_gen ?(min_n = 4) ?(max_n = 20) space =
  let open QCheck2.Gen in
  let* n = int_range min_n max_n in
  let+ l = flatten_l (List.init n (fun _ -> pair (config_gen space) (float_range 0.1 100.))) in
  Array.of_list l

let configs_gen ?(min_n = 1) ?(max_n = 40) space =
  let open QCheck2.Gen in
  let* n = int_range min_n max_n in
  let+ l = flatten_l (List.init n (fun _ -> config_gen space)) in
  Array.of_list l

(* Deterministic fault plan; rates shrink toward fault-free. *)
let fault_spec_gen =
  let open QCheck2.Gen in
  let* seed = int_range 0 1_000_000 in
  let* transient = float_range 0. 0.3 in
  let* permanent = float_range 0. 0.15 in
  let* straggler = float_range 0. 0.2 in
  let+ slowdown = float_range 1.5 8. in
  { Hpcsim.Faults.seed; transient; permanent; straggler; slowdown }

let seed_gen = QCheck2.Gen.int_range 0 100_000
