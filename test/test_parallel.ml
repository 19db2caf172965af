(* Tests for the domain pool and parallel loops. These run with small
   worker counts so they are meaningful even on single-core CI. *)

let check = Alcotest.check

let schedules = [ ("static", Parallel.Pool.Static); ("dynamic4", Parallel.Pool.Dynamic 4); ("guided", Parallel.Pool.Guided) ]

let test_each_index_exactly_once () =
  Parallel.Pool.with_pool ~num_domains:2 (fun pool ->
      List.iter
        (fun (name, schedule) ->
          let n = 1000 in
          let hits = Array.init n (fun _ -> Atomic.make 0) in
          Parallel.Pool.parallel_for pool ~schedule ~lo:0 ~hi:n (fun i ->
              Atomic.incr hits.(i));
          Array.iteri
            (fun i a ->
              if Atomic.get a <> 1 then
                Alcotest.failf "%s: index %d executed %d times" name i (Atomic.get a))
            hits)
        schedules)

let test_offset_range () =
  Parallel.Pool.with_pool ~num_domains:1 (fun pool ->
      let sum = ref 0 in
      let mu = Mutex.create () in
      Parallel.Pool.parallel_for pool ~schedule:(Parallel.Pool.Dynamic 3) ~lo:10 ~hi:20 (fun i ->
          Mutex.lock mu;
          sum := !sum + i;
          Mutex.unlock mu);
      check Alcotest.int "sum of 10..19" 145 !sum)

let test_empty_range () =
  Parallel.Pool.with_pool ~num_domains:1 (fun pool ->
      let ran = ref false in
      Parallel.Pool.parallel_for pool ~lo:5 ~hi:5 (fun _ -> ran := true);
      Parallel.Pool.parallel_for pool ~lo:5 ~hi:3 (fun _ -> ran := true);
      check Alcotest.bool "empty ranges run nothing" false !ran)

let test_zero_workers_sequential () =
  Parallel.Pool.with_pool ~num_domains:0 (fun pool ->
      check Alcotest.int "size with zero workers" 1 (Parallel.Pool.size pool);
      let order = ref [] in
      Parallel.Pool.parallel_for pool ~lo:0 ~hi:5 (fun i -> order := i :: !order);
      check Alcotest.(list int) "sequential order preserved" [ 0; 1; 2; 3; 4 ] (List.rev !order))

let test_map_array_result_isolates_failures () =
  (* One crashing element must not poison the rest of the batch — the
     straggler/failure-tolerant evaluation path relies on this. *)
  Parallel.Pool.with_pool ~num_domains:2 (fun pool ->
      let xs = Array.init 64 (fun i -> i) in
      let ys =
        Parallel.Pool.map_array_result pool
          (fun x -> if x mod 10 = 7 then failwith (string_of_int x) else x * 2)
          xs
      in
      Array.iteri
        (fun i r ->
          match r with
          | Stdlib.Ok y ->
              if i mod 10 = 7 then Alcotest.failf "element %d should have failed" i;
              if y <> i * 2 then Alcotest.failf "wrong value at %d" i
          | Stdlib.Error (Failure m) ->
              if i mod 10 <> 7 then Alcotest.failf "element %d should have succeeded" i;
              if m <> string_of_int i then Alcotest.failf "wrong diagnostic at %d" i
          | Stdlib.Error _ -> Alcotest.failf "unexpected exception at %d" i)
        ys;
      (* all-ok and empty batches degrade to plain map *)
      let ok = Parallel.Pool.map_array_result pool (fun x -> x + 1) [| 1; 2; 3 |] in
      check Alcotest.bool "all ok" true
        (ok = [| Stdlib.Ok 2; Stdlib.Ok 3; Stdlib.Ok 4 |]);
      check Alcotest.int "empty" 0
        (Array.length (Parallel.Pool.map_array_result pool (fun x -> x) ([||] : int array))))

let test_pool_reuse () =
  Parallel.Pool.with_pool ~num_domains:2 (fun pool ->
      for round = 1 to 20 do
        let acc = Atomic.make 0 in
        Parallel.Pool.parallel_for pool ~schedule:(Parallel.Pool.Dynamic 7) ~lo:0 ~hi:100
          (fun _ -> Atomic.incr acc);
        if Atomic.get acc <> 100 then Alcotest.failf "round %d lost iterations" round
      done)

let test_exception_propagates () =
  Parallel.Pool.with_pool ~num_domains:2 (fun pool ->
      let raised =
        try
          Parallel.Pool.parallel_for pool ~lo:0 ~hi:100 (fun i ->
              if i = 37 then failwith "boom");
          false
        with Failure m -> m = "boom"
      in
      check Alcotest.bool "exception reaches the caller" true raised;
      (* The pool must still be usable afterwards. *)
      let acc = Atomic.make 0 in
      Parallel.Pool.parallel_for pool ~lo:0 ~hi:10 (fun _ -> Atomic.incr acc);
      check Alcotest.int "pool survives" 10 (Atomic.get acc))

let test_shutdown_idempotent () =
  let pool = Parallel.Pool.create ~num_domains:1 () in
  Parallel.Pool.shutdown pool;
  Parallel.Pool.shutdown pool

let test_bad_arguments () =
  Alcotest.check_raises "negative domains" (Invalid_argument "Pool.create: negative domain count")
    (fun () -> ignore (Parallel.Pool.create ~num_domains:(-1) ()));
  Parallel.Pool.with_pool ~num_domains:0 (fun pool ->
      Alcotest.check_raises "bad dynamic chunk"
        (Invalid_argument "Pool: Dynamic chunk must be at least 1") (fun () ->
          Parallel.Pool.parallel_for pool ~schedule:(Parallel.Pool.Dynamic 0) ~lo:0 ~hi:10
            (fun _ -> ())))

let suite =
  let tc = Alcotest.test_case in
  ( "parallel",
    [
      tc "each index exactly once" `Quick test_each_index_exactly_once;
      tc "offset range" `Quick test_offset_range;
      tc "empty range" `Quick test_empty_range;
      tc "zero workers is sequential" `Quick test_zero_workers_sequential;
      tc "map_array_result isolates failures" `Quick test_map_array_result_isolates_failures;
      tc "pool reuse" `Quick test_pool_reuse;
      tc "exception propagates" `Quick test_exception_propagates;
      tc "shutdown idempotent" `Quick test_shutdown_idempotent;
      tc "bad arguments" `Quick test_bad_arguments;
    ] )
