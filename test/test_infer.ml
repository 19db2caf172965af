(* Tests for CSV space inference and candidate-restricted tuning. *)

let check = Alcotest.check

let csv =
  "compiler,threads,flag,time\n\
   gcc,1,on,10.0\n\
   gcc,2,off,6.0\n\
   clang,4,on,3.5\n\
   clang,1,off,12.0\n\
   icx,2,on,5.0\n\
   icx,4,off,2.5\n"

let test_space_inference () =
  let space = Dataset.Infer.space_of_csv csv in
  check Alcotest.int "three parameters" 3 (Param.Space.n_params space);
  (match Param.Spec.domain (Param.Space.spec space 0) with
  | Param.Spec.Categorical labels ->
      check Alcotest.(array string) "labels in first-appearance order" [| "gcc"; "clang"; "icx" |] labels
  | _ -> Alcotest.fail "compiler should be categorical");
  (match Param.Spec.domain (Param.Space.spec space 1) with
  | Param.Spec.Ordinal levels ->
      check Alcotest.(array (float 0.)) "numeric column becomes sorted levels" [| 1.; 2.; 4. |] levels
  | _ -> Alcotest.fail "threads should be ordinal");
  check Alcotest.string "spec names from header" "flag" (Param.Spec.name (Param.Space.spec space 2))

let test_table_loading () =
  let table = Dataset.Infer.table_of_csv ~name:"study" csv in
  check Alcotest.int "six rows" 6 (Dataset.Table.size table);
  check (Alcotest.float 1e-9) "best row" 2.5 (Dataset.Table.best_value table)

let test_duplicates_keep_first () =
  let dup = csv ^ "gcc,1,on,99.0\n" in
  let table = Dataset.Infer.table_of_csv ~name:"dup" dup in
  check Alcotest.int "duplicate dropped" 6 (Dataset.Table.size table);
  let space = Dataset.Table.space table in
  let first = Dataset.Table.configs table in
  (* find the gcc,1,on row and check it kept the first measurement *)
  let target =
    Array.to_list first
    |> List.find (fun c -> Param.Space.to_string space c = "compiler=gcc threads=1 flag=on")
  in
  check (Alcotest.float 1e-9) "first measurement kept" 10.0 (Dataset.Table.lookup table target)

let test_malformed_rejected () =
  Alcotest.check_raises "ragged row" (Failure "Infer: row has 2 fields, expected 4: \"a,b\"")
    (fun () -> ignore (Dataset.Infer.space_of_csv "compiler,threads,flag,time\na,b\n"));
  Alcotest.check_raises "empty" (Failure "Infer: empty input") (fun () ->
      ignore (Dataset.Infer.space_of_csv ""));
  Alcotest.check_raises "duplicate header" (Failure "Infer: duplicate column \"x\"") (fun () ->
      ignore (Dataset.Infer.space_of_csv "x,x,y\n1,2,3\n"))

let test_non_numeric_objective_rejected () =
  Alcotest.check_raises "bad objective" (Failure "Infer: non-numeric objective \"fast\"")
    (fun () -> ignore (Dataset.Infer.table_of_csv ~name:"bad" "a,obj\nx,fast\n"))

let test_candidate_restricted_tuning () =
  let table = Dataset.Infer.table_of_csv ~name:"study" csv in
  let space = Dataset.Table.space table in
  let candidates = Dataset.Table.configs table in
  let options = { Hiperbot.Tuner.default_options with n_init = 3 } in
  let result =
    Gen.ok
      (Hiperbot.Tuner.run_async ~options ~candidates ~rng:(Prng.Rng.create 9) ~space
         ~objective:(Gen.total (Dataset.Table.objective_fn table)) ~budget:6 ())
  in
  (* Every evaluation must be one of the measured rows; exhausting
     the candidate set must find the file's best. *)
  Array.iter
    (fun (c, _) ->
      check Alcotest.bool "evaluated a measured row" true (Dataset.Table.mem table c))
    result.Hiperbot.Tuner.history;
  check (Alcotest.float 1e-9) "finds best measured row" 2.5 result.Hiperbot.Tuner.best_value

let test_candidates_validation () =
  let table = Dataset.Infer.table_of_csv ~name:"study" csv in
  let space = Dataset.Table.space table in
  Alcotest.check_raises "empty candidates" (Invalid_argument "Campaign.create: empty candidate set")
    (fun () ->
      ignore
        (Hiperbot.Tuner.run_async ~candidates:[||] ~rng:(Prng.Rng.create 1) ~space
           ~objective:(Gen.total (fun _ -> 0.)) ~budget:3 ()));
  let options =
    { Hiperbot.Tuner.default_options with strategy = Hiperbot.Strategy.Proposal { n_candidates = 8 } }
  in
  Alcotest.check_raises "proposal incompatible"
    (Invalid_argument "Campaign.create: candidates require the Ranking strategy") (fun () ->
      ignore
        (Hiperbot.Tuner.run_async ~options
           ~candidates:(Dataset.Table.configs table)
           ~rng:(Prng.Rng.create 1) ~space ~objective:(Gen.total (fun _ -> 0.)) ~budget:3 ()))

let suite =
  let tc = Alcotest.test_case in
  ( "infer",
    [
      tc "space inference" `Quick test_space_inference;
      tc "table loading" `Quick test_table_loading;
      tc "duplicates keep first" `Quick test_duplicates_keep_first;
      tc "malformed input rejected" `Quick test_malformed_rejected;
      tc "non-numeric objective rejected" `Quick test_non_numeric_objective_rejected;
      tc "candidate-restricted tuning" `Quick test_candidate_restricted_tuning;
      tc "candidates validation" `Quick test_candidates_validation;
    ] )
