(* Tests for the multi-objective subsystem: Pareto dominance/front/
   hypervolume (unit + QCheck2 properties), scalarised moo campaigns
   over the tensor simulator's permutation space, Infeasible outcome
   containment (never in pg), runlog #obj persistence with bit-exact
   resume, and compiled-scorer parity on a permutation space. *)

let check = Alcotest.check
let feq = Alcotest.float 1e-9

(* ---- Pareto: unit ---- *)

let test_dominates () =
  check Alcotest.bool "strict dominance" true (Hiperbot.Pareto.dominates [| 1.; 2. |] [| 2.; 3. |]);
  check Alcotest.bool "dominance with one tie" true
    (Hiperbot.Pareto.dominates [| 1.; 2. |] [| 1.; 3. |]);
  check Alcotest.bool "equal points do not dominate" false
    (Hiperbot.Pareto.dominates [| 1.; 2. |] [| 1.; 2. |]);
  check Alcotest.bool "incomparable" false (Hiperbot.Pareto.dominates [| 1.; 3. |] [| 2.; 1. |]);
  (match Hiperbot.Pareto.dominates [| 1. |] [| 1.; 2. |] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "arity mismatch must raise");
  match Hiperbot.Pareto.dominates [| Float.nan; 1. |] [| 1.; 2. |] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "NaN must raise"

let test_front_incremental () =
  let f = Hiperbot.Pareto.create ~arity:2 in
  check Alcotest.bool "first point enters" true (Hiperbot.Pareto.add f [| 2.; 2. |]);
  check Alcotest.bool "dominated point rejected" false (Hiperbot.Pareto.add f [| 3.; 3. |]);
  check Alcotest.bool "incomparable point enters" true (Hiperbot.Pareto.add f [| 1.; 3. |]);
  check Alcotest.int "two points" 2 (Hiperbot.Pareto.size f);
  (* A dominating point evicts both. *)
  check Alcotest.bool "dominating point enters" true (Hiperbot.Pareto.add f [| 0.5; 0.5 |]);
  check Alcotest.int "front collapsed" 1 (Hiperbot.Pareto.size f);
  (* Duplicates are deterministic no-ops. *)
  check Alcotest.bool "duplicate rejected" false (Hiperbot.Pareto.add f [| 0.5; 0.5 |]);
  check Alcotest.int "duplicate did not grow the front" 1 (Hiperbot.Pareto.size f);
  match Hiperbot.Pareto.add f [| Float.nan; 0. |] with
  | exception Invalid_argument _ -> check Alcotest.int "NaN left front intact" 1 (Hiperbot.Pareto.size f)
  | _ -> Alcotest.fail "NaN point must raise"

let test_hypervolume_known () =
  let f =
    Hiperbot.Pareto.of_points ~arity:2 [ [| 1.; 3. |]; [| 2.; 2. |]; [| 3.; 1. |] ]
  in
  check feq "staircase hypervolume" 6. (Hiperbot.Pareto.hypervolume ~reference:[| 4.; 4. |] f);
  (* Points at or beyond the reference contribute nothing. *)
  let g = Hiperbot.Pareto.of_points ~arity:2 [ [| 5.; 5. |] ] in
  check feq "point beyond reference" 0. (Hiperbot.Pareto.hypervolume ~reference:[| 4.; 4. |] g);
  (* 3-objective sanity: unit cube corner. *)
  let h = Hiperbot.Pareto.of_points ~arity:3 [ [| 0.; 0.; 0. |] ] in
  check feq "3d box" 8. (Hiperbot.Pareto.hypervolume ~reference:[| 2.; 2.; 2. |] h);
  match Hiperbot.Pareto.hypervolume ~reference:[| Float.infinity; 4. |] f with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "non-finite reference must raise"

(* ---- Pareto: QCheck2 properties ---- *)

(* Integer-grid coordinates make ties and dominance common, which is
   where front/dominance bugs live. *)
let point_gen dims = QCheck2.Gen.(array_size (pure dims) (float_range (-3.) 3.))

let grid_point_gen dims =
  QCheck2.Gen.(array_size (pure dims) (map float_of_int (-3 -- 3)))

let print_points pts =
  String.concat ";"
    (List.map (fun p -> "[" ^ String.concat "," (List.map string_of_float (Array.to_list p)) ^ "]") pts)

let prop_dominance_strict_partial_order =
  QCheck2.Test.make ~name:"pareto: dominance is a strict partial order" ~count:300
    ~print:(fun (a, b) -> print_points [ a; b ])
    QCheck2.Gen.(
      let* dims = 1 -- 3 in
      pair (grid_point_gen dims) (grid_point_gen dims))
    (fun (a, b) ->
      let irreflexive = (not (Hiperbot.Pareto.dominates a a)) && not (Hiperbot.Pareto.dominates b b) in
      let asymmetric =
        (not (Hiperbot.Pareto.dominates a b)) || not (Hiperbot.Pareto.dominates b a)
      in
      irreflexive && asymmetric)

(* Transitivity, constructively: b is a degradation of a, c of b. *)
let prop_dominance_transitive =
  QCheck2.Test.make ~name:"pareto: dominance is transitive" ~count:300
    ~print:(fun (a, d1, d2) -> print_points [ a; d1; d2 ])
    QCheck2.Gen.(
      let* dims = 1 -- 3 in
      let delta = array_size (pure dims) (map float_of_int (0 -- 2)) in
      triple (grid_point_gen dims) delta delta)
    (fun (a, d1, d2) ->
      let add x d = Array.mapi (fun i v -> v +. d.(i)) x in
      let b = add a d1 and nonzero d = Array.exists (fun v -> v > 0.) d in
      let c = add b d2 in
      QCheck2.assume (nonzero d1 && nonzero d2);
      Hiperbot.Pareto.dominates a b && Hiperbot.Pareto.dominates b c
      && Hiperbot.Pareto.dominates a c)

(* A cheap deterministic shuffle so the property owns its permutation
   (no reliance on generator shuffle combinators). *)
let shuffle seed l =
  let arr = Array.of_list l in
  let state = ref (seed land 0x3FFFFFFF) in
  let next bound =
    state := ((!state * 1103515245) + 12345) land 0x3FFFFFFF;
    !state mod bound
  in
  for i = Array.length arr - 1 downto 1 do
    let j = next (i + 1) in
    let t = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- t
  done;
  Array.to_list arr

let fronts_equal a b =
  Array.length a = Array.length b && Array.for_all2 Hiperbot.Pareto.point_equal a b

let prop_incremental_equals_batch =
  QCheck2.Test.make ~name:"pareto: incremental front = batch front for any insertion order"
    ~count:200
    ~print:(fun (pts, seed) -> Printf.sprintf "%s seed=%d" (print_points pts) seed)
    QCheck2.Gen.(
      let* dims = 1 -- 3 in
      pair (list_size (1 -- 25) (grid_point_gen dims)) (int_range 0 10_000))
    (fun (pts, seed) ->
      let dims = Array.length (List.hd pts) in
      let a = Hiperbot.Pareto.points (Hiperbot.Pareto.of_points ~arity:dims pts) in
      let b = Hiperbot.Pareto.points (Hiperbot.Pareto.of_points ~arity:dims (shuffle seed pts)) in
      fronts_equal a b)

let prop_hypervolume_monotone =
  QCheck2.Test.make ~name:"pareto: hypervolume monotone under accepted insertions" ~count:200
    ~print:(fun (pts, p) -> print_points (pts @ [ p ]))
    QCheck2.Gen.(
      let* dims = 1 -- 3 in
      pair (list_size (1 -- 15) (point_gen dims)) (point_gen dims))
    (fun (pts, p) ->
      let dims = Array.length p in
      let reference = Array.make dims 4. in
      let f = Hiperbot.Pareto.of_points ~arity:dims pts in
      let before = Hiperbot.Pareto.hypervolume ~reference f in
      let accepted = Hiperbot.Pareto.add f p in
      let after = Hiperbot.Pareto.hypervolume ~reference f in
      if accepted then after +. 1e-9 >= before
      else Float.abs (after -. before) <= 1e-9)

(* ---- Moo scalarisation ---- *)

let moo_opts =
  {
    Hiperbot.Moo.scalarisation = Hiperbot.Moo.Linear;
    weights = [| 1.; 0.5 |];
    reference = [| 10.; 10. |];
  }

let test_scalarise () =
  check feq "linear" 4. (Hiperbot.Moo.scalarise moo_opts [| 2.; 4. |]);
  let cheb = { moo_opts with Hiperbot.Moo.scalarisation = Hiperbot.Moo.Chebyshev } in
  check feq "chebyshev" 2.5 (Hiperbot.Moo.scalarise cheb [| 2.; 5. |]);
  check feq "chebyshev other arm" 3. (Hiperbot.Moo.scalarise cheb [| 3.; 4. |]);
  let reject name o =
    match Hiperbot.Moo.validate_options o with
    | exception Invalid_argument _ -> ()
    | () -> Alcotest.failf "%s: expected Invalid_argument" name
  in
  reject "single objective" { moo_opts with Hiperbot.Moo.weights = [| 1. |]; reference = [| 1. |] };
  reject "zero weight" { moo_opts with Hiperbot.Moo.weights = [| 1.; 0. |] };
  reject "NaN weight" { moo_opts with Hiperbot.Moo.weights = [| 1.; Float.nan |] };
  reject "reference arity" { moo_opts with Hiperbot.Moo.reference = [| 1. |] };
  reject "non-finite reference" { moo_opts with Hiperbot.Moo.reference = [| 1.; Float.infinity |] };
  match Hiperbot.Moo.scalarise moo_opts [| 1. |] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "vector arity mismatch must raise"

(* ---- Moo campaigns on the tensor simulator (permutation space,
   hard constraint) ---- *)

let tensor_space = Hpcsim.Tensor.space

(* Bi-objective surface: execution time against a simple energy
   proxy (more threads: faster but hungrier), with the register
   constraint reported as Infeasible. *)
let tensor_watts config =
  let threads_idx =
    Param.Value.to_index config.(Param.Space.index_of_name tensor_space "Threads")
  in
  30. +. (9. *. float_of_int (List.nth [ 1; 2; 4; 8 ] threads_idx))

let tensor_measure config =
  match Hpcsim.Tensor.outcome config with
  | Resilience.Outcome.Value t -> Hiperbot.Moo.Vector [| t; t *. tensor_watts config |]
  | o -> Hiperbot.Moo.Failure o

let tensor_moo =
  {
    Hiperbot.Moo.scalarisation = Hiperbot.Moo.Chebyshev;
    weights = [| 1.; 0.01 |];
    reference = [| 40.; 4000. |];
  }

let test_moo_campaign_on_tensor () =
  let t =
    Hiperbot.Moo.run ~moo:tensor_moo ~rng:(Prng.Rng.create 42) ~space:tensor_space ~budget:40
      ~objective:tensor_measure ()
  in
  check Alcotest.bool "finished" true (Hiperbot.Moo.is_finished t);
  let result = match Hiperbot.Moo.result t with Ok r -> r | Error _ -> Alcotest.fail "run failed" in
  (* Budget is consumed by successes and infeasibles together. *)
  check Alcotest.int "budget consumed" 40
    (Array.length result.Hiperbot.Campaign.history + Array.length result.Hiperbot.Campaign.failures);
  (* pg containment: the history (the only input to the good density)
     holds feasible configurations exclusively, and every recorded
     scalar is the scalarisation the wrapper computed. *)
  Array.iter
    (fun (c, y) ->
      if not (Hpcsim.Tensor.feasible c) then Alcotest.fail "infeasible config entered pg history";
      match tensor_measure c with
      | Hiperbot.Moo.Vector v -> check feq "scalar matches vector" (Hiperbot.Moo.scalarise tensor_moo v) y
      | Hiperbot.Moo.Failure _ -> Alcotest.fail "feasible config measured as failure")
    result.Hiperbot.Campaign.history;
  Array.iter
    (fun (c, o) ->
      check Alcotest.string "failures are infeasibilities" "infeasible" (Resilience.Outcome.kind o);
      if Hpcsim.Tensor.feasible c then Alcotest.fail "feasible config recorded infeasible")
    result.Hiperbot.Campaign.failures;
  (* The front is mutually non-dominated, all from feasible configs,
     and encloses positive hypervolume. *)
  let front = Hiperbot.Moo.front t in
  check Alcotest.bool "non-empty front" true (Array.length front > 0);
  Array.iter
    (fun p ->
      Array.iter
        (fun q -> if Hiperbot.Pareto.dominates p q then Alcotest.fail "front not mutually non-dominated")
        front)
    front;
  List.iter
    (fun (c, v) ->
      if not (Hpcsim.Tensor.feasible c) then Alcotest.fail "infeasible config on the front";
      match tensor_measure c with
      | Hiperbot.Moo.Vector w -> check Alcotest.bool "front vector faithful" true (Hiperbot.Pareto.point_equal v w)
      | Hiperbot.Moo.Failure _ -> Alcotest.fail "front config infeasible")
    (Hiperbot.Moo.front_configs t);
  check Alcotest.bool "positive hypervolume" true (Hiperbot.Moo.hypervolume t > 0.)

(* ---- runlog persistence + resume ---- *)

let drive_moo ?stop_after t objective =
  let stop = match stop_after with Some n -> n | None -> max_int in
  let rec loop () =
    if Hiperbot.Campaign.n_evaluated (Hiperbot.Moo.campaign t) >= stop then ()
    else
      match Hiperbot.Moo.suggest t with
      | Hiperbot.Campaign.Finished -> ()
      | Hiperbot.Campaign.Wait -> Alcotest.fail "sync moo driver should never wait"
      | Hiperbot.Campaign.Suggest s ->
          Hiperbot.Moo.report t ~id:s.Hiperbot.Campaign.id (objective s.Hiperbot.Campaign.config);
          loop ()
  in
  loop ()

let moo_with_writer ~path ~seed ~budget ~stop_after =
  let w = Dataset.Runlog.writer_create ~path ~name:"moo-tensor" ~seed ~space:tensor_space in
  let on_outcome idx config verdict =
    Dataset.Runlog.writer_record w
      (Hiperbot.Campaign.entry_of_verdict idx config verdict)
  in
  let on_vector idx v =
    Dataset.Runlog.writer_append w (Obj { o_index = idx; o_values = v })
  in
  let t =
    Hiperbot.Moo.create ~on_outcome ~on_vector ~moo:tensor_moo ~mode:(Hiperbot.Campaign.Async 1)
      ~rng:(Prng.Rng.create seed) ~space:tensor_space ~budget ()
  in
  drive_moo ?stop_after:(Some stop_after) t tensor_measure;
  Dataset.Runlog.writer_close w;
  t

let test_moo_resume_bit_identical () =
  let budget = 24 and seed = 63 in
  (* Reference: one uninterrupted run. *)
  let straight =
    Hiperbot.Moo.run ~moo:tensor_moo ~rng:(Prng.Rng.create seed) ~space:tensor_space ~budget
      ~objective:tensor_measure ()
  in
  let path = Filename.temp_file "moo" ".csv" in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () ->
      (* Interrupted run: 12 evaluations hit the log, then the process
         "dies". *)
      ignore (moo_with_writer ~path ~seed ~budget ~stop_after:12);
      let log = Dataset.Runlog.load path in
      check Alcotest.int "12 recorded entries" 12 (Array.length log.Dataset.Runlog.entries);
      check Alcotest.bool "vectors recorded for every success" true
        (Array.length log.Dataset.Runlog.objs
        = Array.length (Dataset.Runlog.history log));
      (* Resume and finish live. *)
      let resumed =
        Hiperbot.Moo.of_log ~moo:tensor_moo ~mode:(Hiperbot.Campaign.Async 1) ~log ~budget ()
      in
      drive_moo resumed tensor_measure;
      let r_straight =
        match Hiperbot.Moo.result straight with Ok r -> r | Error _ -> Alcotest.fail "straight failed"
      in
      let r_resumed =
        match Hiperbot.Moo.result resumed with Ok r -> r | Error _ -> Alcotest.fail "resumed failed"
      in
      check Alcotest.int "same history length"
        (Array.length r_straight.Hiperbot.Campaign.history)
        (Array.length r_resumed.Hiperbot.Campaign.history);
      Array.iteri
        (fun i (c, y) ->
          let c', y' = r_resumed.Hiperbot.Campaign.history.(i) in
          if not (Param.Config.equal c c' && Float.equal y y') then
            Alcotest.failf "history diverged at %d" i)
        r_straight.Hiperbot.Campaign.history;
      check Alcotest.bool "same front" true
        (fronts_equal (Hiperbot.Moo.front straight) (Hiperbot.Moo.front resumed));
      check feq "same hypervolume" (Hiperbot.Moo.hypervolume straight)
        (Hiperbot.Moo.hypervolume resumed))

let test_moo_resume_verifies_scalarisation () =
  let path = Filename.temp_file "moo" ".csv" in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () ->
      ignore (moo_with_writer ~path ~seed:63 ~budget:24 ~stop_after:12);
      let log = Dataset.Runlog.load path in
      (* A tampered scalar no longer matches its recorded vector. *)
      let tampered_entries =
        Array.to_list log.Dataset.Runlog.entries
        |> List.map (fun (e : Dataset.Runlog.entry) ->
               match e.Dataset.Runlog.status with
               | Dataset.Runlog.Ok y -> { e with Dataset.Runlog.status = Dataset.Runlog.Ok (y +. 1.) }
               | _ -> e)
      in
      let tampered =
        Dataset.Runlog.create
          ~objs:(Array.to_list log.Dataset.Runlog.objs)
          ~name:log.Dataset.Runlog.name ~seed:log.Dataset.Runlog.seed
          ~space:log.Dataset.Runlog.space tampered_entries
      in
      (match
         Hiperbot.Moo.of_log ~moo:tensor_moo ~mode:(Hiperbot.Campaign.Async 1) ~log:tampered ~budget:24 ()
       with
      | exception Failure _ -> ()
      | _ -> Alcotest.fail "tampered scalar must fail resume");
      (* A missing vector for a successful entry is rejected too. *)
      let missing =
        Dataset.Runlog.create ~objs:[] ~name:log.Dataset.Runlog.name ~seed:log.Dataset.Runlog.seed
          ~space:log.Dataset.Runlog.space
          (Array.to_list log.Dataset.Runlog.entries)
      in
      match
        Hiperbot.Moo.of_log ~moo:tensor_moo ~mode:(Hiperbot.Campaign.Async 1) ~log:missing ~budget:24 ()
      with
      | exception Failure _ -> ()
      | _ -> Alcotest.fail "missing vectors must fail resume")

(* ---- compiled scoring parity on a permutation space ---- *)

let test_tensor_compiled_parity () =
  let pool = Param.Space.enumerate tensor_space in
  let rng = Prng.Rng.create 17 in
  let obs =
    Array.init 48 (fun _ ->
        let c = Param.Space.random_config tensor_space rng in
        (c, Hpcsim.Tensor.exec_time c))
  in
  let surrogate = Hiperbot.Surrogate.fit tensor_space obs in
  let encoded = Hiperbot.Surrogate.Pool.encode tensor_space pool in
  let compiled = Hiperbot.Surrogate.compile surrogate encoded in
  Array.iteri
    (fun i c ->
      if
        not
          (Float.equal
             (Hiperbot.Surrogate.Compiled.log_ratio compiled i)
             (Hiperbot.Surrogate.log_ratio surrogate c))
      then Alcotest.failf "compiled scorer diverges from naive at row %d" i)
    pool;
  (* The virtual pool decodes Lehmer ranks on the fly; it must agree
     with the materialized pool row for row. *)
  let virt = Hiperbot.Surrogate.Pool.of_space tensor_space in
  check Alcotest.int "virtual pool size" (Array.length pool) (Hiperbot.Surrogate.Pool.length virt);
  let compiled_v = Hiperbot.Surrogate.compile surrogate virt in
  for i = 0 to Hiperbot.Surrogate.Pool.length virt - 1 do
    if
      not
        (Float.equal
           (Hiperbot.Surrogate.Compiled.log_ratio compiled_v i)
           (Hiperbot.Surrogate.log_ratio surrogate (Hiperbot.Surrogate.Pool.config virt i)))
    then Alcotest.failf "virtual compiled scorer diverges at row %d" i
  done;
  (* Selection through the compiled path equals a naive top-k scan. *)
  let evaluated = Param.Config.Table.create 16 in
  Array.iter (fun (c, _) -> Param.Config.Table.replace evaluated c ()) obs;
  let excluded = Hiperbot.Strategy.Exclusion.create () in
  Array.iter (fun (c, _) -> Hiperbot.Strategy.Exclusion.add_config excluded encoded c) obs;
  let selected = Hiperbot.Strategy.rank ~k:1 ~surrogate ~encoded ~excluded () in
  let naive =
    Gen.top_k ~k:1 ~n:(Array.length pool)
      ~skip:(fun i -> Param.Config.Table.mem evaluated pool.(i))
      (fun i -> Hiperbot.Surrogate.score surrogate pool.(i))
  in
  match (selected, naive) with
  | [ got ], [ expect ] ->
      check Alcotest.bool "selection matches naive scan" true
        (Param.Config.equal got pool.(expect))
  | _ -> Alcotest.fail "selection returned nothing on an unexhausted pool"

(* [run] drives the campaign through the evaluator, which turns an
   objective's exception into a failed verdict; an invalid measurement
   or the objective's own exception must still leave [run] unchanged. *)
let test_moo_run_raises () =
  let run objective =
    Hiperbot.Moo.run ~moo:tensor_moo ~rng:(Prng.Rng.create 3) ~space:tensor_space ~budget:8
      ~objective ()
  in
  Alcotest.check_raises "wrong arity"
    (Invalid_argument "Moo: objective vector has arity 1, expected 2") (fun () ->
      ignore (run (fun _ -> Hiperbot.Moo.Vector [| 1. |])));
  Alcotest.check_raises "value outside a vector"
    (Invalid_argument "Moo.report: a successful measurement must be a Vector") (fun () ->
      ignore (run (fun _ -> Hiperbot.Moo.Failure (Resilience.Outcome.Value 1.))));
  Alcotest.check_raises "objective exception" (Failure "probe") (fun () ->
      ignore (run (fun _ -> failwith "probe")))

let suite =
  ( "moo",
    [
      Alcotest.test_case "pareto: dominance" `Quick test_dominates;
      Alcotest.test_case "pareto: incremental front" `Quick test_front_incremental;
      Alcotest.test_case "pareto: hypervolume" `Quick test_hypervolume_known;
      QCheck_alcotest.to_alcotest prop_dominance_strict_partial_order;
      QCheck_alcotest.to_alcotest prop_dominance_transitive;
      QCheck_alcotest.to_alcotest prop_incremental_equals_batch;
      QCheck_alcotest.to_alcotest prop_hypervolume_monotone;
      Alcotest.test_case "moo: scalarisation" `Quick test_scalarise;
      Alcotest.test_case "moo: constrained campaign on tensor" `Quick test_moo_campaign_on_tensor;
      Alcotest.test_case "moo: resume bit-identical" `Quick test_moo_resume_bit_identical;
      Alcotest.test_case "moo: run raises on a bad measurement" `Quick test_moo_run_raises;
      Alcotest.test_case "moo: resume verifies scalarisation" `Quick test_moo_resume_verifies_scalarisation;
      Alcotest.test_case "tensor: compiled scoring parity" `Quick test_tensor_compiled_parity;
    ] )
