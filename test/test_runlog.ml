(* Tests for run-log recording and persistence: the v2 format with
   failure kinds and attempt counts, v1 backward compatibility,
   property-style round trips, crash-truncation recovery, and the
   flush-per-entry writer. *)

let check = Alcotest.check

let space =
  Param.Space.make
    [ Param.Spec.categorical "c" [ "a"; "b" ]; Param.Spec.ordinal_ints "o" [ 1; 2; 4 ] ]

let config c o = [| Param.Value.Categorical c; Param.Value.Ordinal o |]

let read_bytes path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let sample_log () =
  Dataset.Runlog.create ~name:"demo" ~seed:42 ~space
    [
      { Dataset.Runlog.index = 0; config = config 0 0; status = Dataset.Runlog.Ok 5.5; attempts = 1 };
      { index = 2; config = config 1 2; status = Dataset.Runlog.Ok 3.25; attempts = 3 };
      { index = 1; config = config 0 1; status = Dataset.Runlog.Failed Dataset.Runlog.Transient; attempts = 2 };
      { index = 3; config = config 1 0; status = Dataset.Runlog.Failed Dataset.Runlog.Timeout; attempts = 2 };
      { index = 4; config = config 0 2; status = Dataset.Runlog.Failed Dataset.Runlog.Permanent; attempts = 1 };
    ]

let entries_equal (a : Dataset.Runlog.entry) (b : Dataset.Runlog.entry) =
  a.Dataset.Runlog.index = b.Dataset.Runlog.index
  && Param.Config.equal a.config b.config
  && a.attempts = b.attempts
  &&
  match (a.status, b.status) with
  | Dataset.Runlog.Ok x, Dataset.Runlog.Ok y -> Float.equal x y
  | Dataset.Runlog.Failed x, Dataset.Runlog.Failed y -> x = y
  | _ -> false

(* One decision stream against another, record by record, through
   the codec's own equality. *)
let stream_equal wrap a b =
  Array.length a = Array.length b
  && Array.for_all2 (fun x y -> Dataset.Runlog.equal (wrap x) (wrap y)) a b

let gates_equal = stream_equal (fun g -> Dataset.Runlog.Gate g)
let fids_equal = stream_equal (fun f -> Dataset.Runlog.Fid f)
let rungs_equal = stream_equal (fun r -> Dataset.Runlog.Rung r)
let objs_equal = stream_equal (fun o -> Dataset.Runlog.Obj o)

let logs_equal (a : Dataset.Runlog.t) (b : Dataset.Runlog.t) =
  a.Dataset.Runlog.name = b.Dataset.Runlog.name
  && a.Dataset.Runlog.seed = b.Dataset.Runlog.seed
  && Param.Space.specs a.Dataset.Runlog.space = Param.Space.specs b.Dataset.Runlog.space
  && Array.length a.Dataset.Runlog.entries = Array.length b.Dataset.Runlog.entries
  && Array.for_all2 entries_equal a.Dataset.Runlog.entries b.Dataset.Runlog.entries
  && gates_equal a.Dataset.Runlog.gates b.Dataset.Runlog.gates
  && fids_equal a.Dataset.Runlog.fids b.Dataset.Runlog.fids
  && rungs_equal a.Dataset.Runlog.rungs b.Dataset.Runlog.rungs
  && objs_equal a.Dataset.Runlog.objs b.Dataset.Runlog.objs

let test_create_sorts_and_validates () =
  let log = sample_log () in
  check Alcotest.int "five entries" 5 (Array.length log.Dataset.Runlog.entries);
  check Alcotest.int "sorted by index" 1 log.Dataset.Runlog.entries.(1).Dataset.Runlog.index;
  Alcotest.check_raises "duplicate index" (Invalid_argument "Runlog.create: duplicate index")
    (fun () ->
      ignore
        (Dataset.Runlog.create ~name:"x" ~seed:0 ~space
           [
             { Dataset.Runlog.index = 0; config = config 0 0; status = Dataset.Runlog.Ok 1.; attempts = 1 };
             { index = 0; config = config 1 1; status = Dataset.Runlog.Ok 2.; attempts = 1 };
           ]));
  Alcotest.check_raises "zero attempts" (Invalid_argument "Runlog.create: attempts must be at least 1")
    (fun () ->
      ignore
        (Dataset.Runlog.create ~name:"x" ~seed:0 ~space
           [ { Dataset.Runlog.index = 0; config = config 0 0; status = Dataset.Runlog.Ok 1.; attempts = 0 } ]))

let test_history_and_best () =
  let log = sample_log () in
  let h = Dataset.Runlog.history log in
  check Alcotest.int "history excludes failures" 2 (Array.length h);
  check Alcotest.int "transient count" 1 (Dataset.Runlog.count_kind log Dataset.Runlog.Transient);
  check Alcotest.int "timeout count" 1 (Dataset.Runlog.count_kind log Dataset.Runlog.Timeout);
  check Alcotest.int "crash count" 0 (Dataset.Runlog.count_kind log Dataset.Runlog.Crash);
  match Dataset.Runlog.best log with
  | Some (c, y) ->
      check (Alcotest.float 1e-12) "best value" 3.25 y;
      check Alcotest.bool "best config" true (Param.Config.equal c (config 1 2))
  | None -> Alcotest.fail "expected a best entry"

let test_roundtrip () =
  let log = sample_log () in
  let text = Dataset.Runlog.to_string log in
  check Alcotest.bool "v2 magic" true (String.length text > 10 && String.sub text 0 10 = "#runlog v2");
  let parsed = Dataset.Runlog.of_string text in
  check Alcotest.bool "v2 round trip preserves everything" true (logs_equal log parsed)

let test_v1_parses () =
  (* A v1 file (no attempts column) parses with Crash failures and
     attempts defaulted to 1. *)
  let v1_text =
    "#runlog v1\n#name old\n#seed 9\n#spec c=cat:a,b\n#spec o=ord:1,2,4\n\
     index,c,o,objective,status\n0,a,1,5.5,ok\n1,b,4,,failed\n"
  in
  let parsed = Dataset.Runlog.of_string v1_text in
  check Alcotest.int "two entries" 2 (Array.length parsed.Dataset.Runlog.entries);
  check Alcotest.int "attempts default to 1" 1
    parsed.Dataset.Runlog.entries.(1).Dataset.Runlog.attempts;
  check Alcotest.bool "v1 failed maps to Crash" true
    (parsed.Dataset.Runlog.entries.(1).Dataset.Runlog.status
    = Dataset.Runlog.Failed Dataset.Runlog.Crash)

let test_file_roundtrip () =
  let log = sample_log () in
  let path = Filename.temp_file "runlog" ".txt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Dataset.Runlog.save log path;
      let loaded = Dataset.Runlog.load path in
      check Alcotest.bool "entries survive the file" true (logs_equal log loaded))

let test_recorder_with_tuner () =
  (* Record a resilient tuning run's outcomes into a log and check it
     captures every evaluation and failure. *)
  let entries = ref [] in
  let objective c = if Param.Value.to_index c.(1) = 2 then None else Some 1.5 in
  let on_outcome i c v = entries := Hiperbot.Campaign.entry_of_verdict i c v :: !entries in
  let result =
    Gen.ok
      (Hiperbot.Tuner.run_async
         ~options:{ Hiperbot.Tuner.default_options with n_init = 2 }
         ~on_outcome ~rng:(Prng.Rng.create 31) ~space
         ~objective:(fun ~attempt:_ c -> Resilience.Outcome.of_option (objective c))
         ~budget:6 ())
  in
  let log = Dataset.Runlog.create ~name:"wired" ~seed:7 ~space !entries in
  check Alcotest.int "log captures every attempt"
    (Array.length result.Hiperbot.Tuner.history + Array.length result.Hiperbot.Tuner.failures)
    (Array.length log.Dataset.Runlog.entries);
  check Alcotest.int "log history matches tuner history"
    (Array.length result.Hiperbot.Tuner.history)
    (Array.length (Dataset.Runlog.history log))

let test_malformed_rejected () =
  Alcotest.check_raises "bad magic" (Failure "Runlog: missing '#runlog v1' magic") (fun () ->
      ignore (Dataset.Runlog.of_string "hello\n"));
  Alcotest.check_raises "unknown status" (Failure "Runlog: unknown status \"meh\"") (fun () ->
      ignore
        (Dataset.Runlog.of_string
           "#runlog v1\n#name x\n#seed 1\n#spec c=cat:a,b\nindex,c,objective,status\n0,a,1.0,meh\n"));
  Alcotest.check_raises "bad attempts" (Failure "Runlog: malformed attempts") (fun () ->
      ignore
        (Dataset.Runlog.of_string
           "#runlog v2\n#name x\n#seed 1\n#spec c=cat:a,b\nindex,c,objective,status,attempts\n0,a,1.0,ok,zero\n"))

let test_continuous_unsupported () =
  let cont_space = Param.Space.make [ Param.Spec.continuous "x" ~lo:0. ~hi:1. ] in
  let log =
    Dataset.Runlog.create ~name:"c" ~seed:0 ~space:cont_space
      [ { Dataset.Runlog.index = 0; config = [| Param.Value.Continuous 0.5 |]; status = Dataset.Runlog.Ok 1.; attempts = 1 } ]
  in
  Alcotest.check_raises "continuous serialization rejected"
    (Invalid_argument "Runlog: continuous parameters are not supported") (fun () ->
      ignore (Dataset.Runlog.to_string log))

(* ---- Property-style round trips ---- *)

(* Random logs over the fixed test space: random configs, interleaved
   failure kinds, single-digit attempt counts (so a truncated final
   field can never silently reparse as a valid smaller number). *)
let gen_entry =
  QCheck2.Gen.(
    map
      (fun (index, (c, o), status_pick, value, attempts) ->
        let status =
          match status_pick with
          | 0 -> Dataset.Runlog.Ok value
          | 1 -> Dataset.Runlog.Failed Dataset.Runlog.Crash
          | 2 -> Dataset.Runlog.Failed Dataset.Runlog.Transient
          | 3 -> Dataset.Runlog.Failed Dataset.Runlog.Permanent
          | 4 -> Dataset.Runlog.Failed Dataset.Runlog.Timeout
          | _ -> Dataset.Runlog.Failed Dataset.Runlog.Infeasible
        in
        { Dataset.Runlog.index; config = config c o; status; attempts })
      (tup5 (int_range 0 10000)
         (tup2 (int_range 0 1) (int_range 0 2))
         (int_range 0 5)
         (map (fun x -> float_of_int x /. 16.) (int_range (-1000) 1000))
         (int_range 1 9)))

(* Decision streams carry arbitrary finite floats: their hex
   rendering must round-trip every bit, not just dyadic values. *)
let gen_value = QCheck2.Gen.float_range (-1e6) 1e6

let gen_gate =
  QCheck2.Gen.(
    map
      (fun (g_refit, g_source, g_action, g_trust, g_below) ->
        { Dataset.Runlog.g_refit; g_source; g_action; g_trust; g_below })
      (tup5 (int_range 0 50) (int_range (-1) 3)
         (oneofl [ "attenuate"; "restore"; "drop"; "fallback" ])
         gen_value (int_range 0 5)))

let gen_fid =
  QCheck2.Gen.(
    map
      (fun (f_bracket, f_rung, f_value, (c, o)) ->
        { Dataset.Runlog.f_bracket; f_rung; f_value; f_config = config c o })
      (tup4 (int_range 0 5) (int_range 0 3) gen_value
         (tup2 (int_range 0 1) (int_range 0 2))))

let gen_rung =
  QCheck2.Gen.(
    map
      (fun (r_bracket, r_rung, (r_evaluated, r_promoted), r_best) ->
        { Dataset.Runlog.r_bracket; r_rung; r_evaluated; r_promoted; r_best })
      (tup4 (int_range 0 5) (int_range 0 3)
         (int_range 1 20 >>= fun n -> map (fun p -> (n, p)) (int_range 0 n))
         gen_value))

(* Objective vectors share one arity per log and have distinct
   indices; [Runlog.create] sorts them by index. *)
let gen_objs =
  QCheck2.Gen.(
    int_range 1 3 >>= fun arity ->
    map
      (fun rows ->
        let seen = Hashtbl.create 8 in
        List.filter_map
          (fun (o_index, o_values) ->
            if Hashtbl.mem seen o_index then None
            else begin
              Hashtbl.add seen o_index ();
              Some { Dataset.Runlog.o_index; o_values }
            end)
          rows)
      (list_size (int_range 0 5)
         (pair (int_range 0 30) (array_size (return arity) gen_value))))

let distinct_indices entries =
  let seen = Hashtbl.create 16 in
  List.filter
    (fun (e : Dataset.Runlog.entry) ->
      if Hashtbl.mem seen e.Dataset.Runlog.index then false
      else begin
        Hashtbl.add seen e.Dataset.Runlog.index ();
        true
      end)
    entries

(* Entries of every status plus random streams of all four decision
   kinds. *)
let gen_log =
  QCheck2.Gen.(
    map
      (fun ((name_tag, seed, entries), (gates, fids, rungs, objs)) ->
        Dataset.Runlog.create ~gates ~fids ~rungs ~objs
          ~name:(Printf.sprintf "prop-%d" name_tag)
          ~seed ~space (distinct_indices entries))
      (pair
         (tup3 (int_range 0 99) (int_range 0 10000) (list_size (int_range 0 25) gen_entry))
         (tup4
            (list_size (int_range 0 5) gen_gate)
            (list_size (int_range 0 5) gen_fid)
            (list_size (int_range 0 5) gen_rung)
            gen_objs)))

(* The same logs without decision lines, so the final line of the
   rendering is always an entry row (the truncation properties chop
   it). *)
let gen_entry_log =
  QCheck2.Gen.map
    (fun (log : Dataset.Runlog.t) ->
      Dataset.Runlog.create ~name:log.Dataset.Runlog.name ~seed:log.Dataset.Runlog.seed ~space
        (Array.to_list log.Dataset.Runlog.entries))
    gen_log

let prop_v2_roundtrip =
  QCheck2.Test.make
    ~name:"runlog: of_string (to_string t) = t (v2, all failure kinds and decision kinds)"
    ~count:100 gen_log (fun log ->
      logs_equal log (Dataset.Runlog.of_string (Dataset.Runlog.to_string log)))

let prop_v1_roundtrip =
  (* v1 can only express Crash failures and single attempts; logs
     restricted to that subset round-trip exactly through the v1
     serializer. *)
  let restrict (log : Dataset.Runlog.t) =
    Dataset.Runlog.create ~name:log.Dataset.Runlog.name ~seed:log.Dataset.Runlog.seed ~space
      (List.map
         (fun (e : Dataset.Runlog.entry) ->
           let status =
             match e.Dataset.Runlog.status with
             | Dataset.Runlog.Ok y -> Dataset.Runlog.Ok y
             | Dataset.Runlog.Failed _ -> Dataset.Runlog.Failed Dataset.Runlog.Crash
           in
           { e with Dataset.Runlog.status; attempts = 1 })
         (Array.to_list log.Dataset.Runlog.entries))
  in
  QCheck2.Test.make ~name:"runlog: of_string (to_string ~version:1 t) = t (v1 subset)" ~count:100
    gen_log (fun log ->
      let log = restrict log in
      logs_equal log (Dataset.Runlog.of_string (Dataset.Runlog.to_string ~version:1 log)))

let prop_truncation_recovery =
  (* Chopping the tail of a serialized log (a crash mid-write) must
     still parse with ~recover:true, yielding a prefix of the
     entries; without recovery a mid-row chop must raise. *)
  QCheck2.Test.make ~name:"runlog: truncated final line parses up to the last complete entry"
    ~count:100
    QCheck2.Gen.(tup2 gen_entry_log (int_range 1 30))
    (fun (log, chop) ->
      QCheck2.assume (Array.length log.Dataset.Runlog.entries > 0);
      let text = Dataset.Runlog.to_string log in
      let last_row_start =
        (* start of the final entry's line *)
        String.rindex (String.sub text 0 (String.length text - 1)) '\n' + 1
      in
      let chop = min chop (String.length text - last_row_start) in
      let truncated = String.sub text 0 (String.length text - chop) in
      let parsed = Dataset.Runlog.of_string ~recover:true truncated in
      let n = Array.length log.Dataset.Runlog.entries in
      let n_parsed = Array.length parsed.Dataset.Runlog.entries in
      (* chopping exactly the trailing newline leaves the final row
         complete; anything deeper drops exactly that row *)
      (if chop = 1 then n_parsed = n else n_parsed = n - 1)
      && Array.for_all2 entries_equal parsed.Dataset.Runlog.entries
           (Array.sub log.Dataset.Runlog.entries 0 n_parsed))

let prop_truncation_strict_raises =
  QCheck2.Test.make ~name:"runlog: truncated final line raises without ~recover" ~count:50
    QCheck2.Gen.(tup2 gen_entry_log (int_range 2 30))
    (fun (log, chop) ->
      QCheck2.assume (Array.length log.Dataset.Runlog.entries > 0);
      let text = Dataset.Runlog.to_string log in
      let last_row_start =
        String.rindex (String.sub text 0 (String.length text - 1)) '\n' + 1
      in
      (* chop = 1 leaves the row complete (only the newline goes) and
         chopping the whole row leaves a valid shorter file, so only
         mid-row chops are expected to raise *)
      QCheck2.assume (chop < String.length text - last_row_start);
      let truncated = String.sub text 0 (String.length text - chop) in
      match Dataset.Runlog.of_string truncated with
      | _ -> false
      | exception Failure _ -> true)

let test_only_failures_roundtrip () =
  let log =
    Dataset.Runlog.create ~name:"grim" ~seed:3 ~space
      [
        { Dataset.Runlog.index = 0; config = config 0 0; status = Dataset.Runlog.Failed Dataset.Runlog.Permanent; attempts = 1 };
        { index = 1; config = config 1 1; status = Dataset.Runlog.Failed Dataset.Runlog.Transient; attempts = 4 };
        { index = 2; config = config 0 2; status = Dataset.Runlog.Failed Dataset.Runlog.Timeout; attempts = 2 };
      ]
  in
  let parsed = Dataset.Runlog.of_string (Dataset.Runlog.to_string log) in
  check Alcotest.bool "all-failure log round trips" true (logs_equal log parsed);
  check Alcotest.bool "no best" true (Dataset.Runlog.best parsed = None);
  check Alcotest.int "empty history" 0 (Array.length (Dataset.Runlog.history parsed))

(* ---- Incremental writer ---- *)

let test_writer_flush_per_entry () =
  let path = Filename.temp_file "runlog_writer" ".txt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let w = Dataset.Runlog.writer_create ~path ~name:"live" ~seed:5 ~space in
      (* Before closing the writer, the file must already hold every
         recorded entry — that is the crash-safety property. *)
      Dataset.Runlog.writer_record w
        { Dataset.Runlog.index = 0; config = config 0 0; status = Dataset.Runlog.Ok 2.0; attempts = 1 };
      Dataset.Runlog.writer_record w
        { Dataset.Runlog.index = 1; config = config 1 1; status = Dataset.Runlog.Failed Dataset.Runlog.Transient; attempts = 3 };
      let mid = Dataset.Runlog.load path in
      check Alcotest.int "both entries visible before close" 2
        (Array.length mid.Dataset.Runlog.entries);
      Dataset.Runlog.writer_close w;
      Dataset.Runlog.writer_close w;
      (* idempotent *)
      let final = Dataset.Runlog.load path in
      check Alcotest.int "entries after close" 2 (Array.length final.Dataset.Runlog.entries);
      check Alcotest.bool "failure kind survives" true
        (final.Dataset.Runlog.entries.(1).Dataset.Runlog.status
        = Dataset.Runlog.Failed Dataset.Runlog.Transient);
      check Alcotest.int "attempts survive" 3
        final.Dataset.Runlog.entries.(1).Dataset.Runlog.attempts)

let test_writer_resume_truncates_partial_tail () =
  let path = Filename.temp_file "runlog_resume" ".txt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let w = Dataset.Runlog.writer_create ~path ~name:"crashy" ~seed:6 ~space in
      Dataset.Runlog.writer_record w
        { Dataset.Runlog.index = 0; config = config 0 1; status = Dataset.Runlog.Ok 1.5; attempts = 1 };
      Dataset.Runlog.writer_close w;
      (* Simulate a crash mid-write: append half a row. *)
      let oc = open_out_gen [ Open_append ] 0o644 path in
      output_string oc "1,b,2";
      close_out oc;
      Alcotest.check_raises "strict load rejects the partial tail"
        (Failure "Runlog: row has 3 fields, expected 6") (fun () ->
          ignore (Dataset.Runlog.load path));
      let recovered = Dataset.Runlog.load ~recover:true path in
      check Alcotest.int "recovered up to the last complete entry" 1
        (Array.length recovered.Dataset.Runlog.entries);
      (* Resuming rewrites a clean file and appends. *)
      let w2 = Dataset.Runlog.writer_resume ~path recovered in
      Dataset.Runlog.writer_record w2
        { Dataset.Runlog.index = 1; config = config 1 2; status = Dataset.Runlog.Ok 0.5; attempts = 2 };
      Dataset.Runlog.writer_close w2;
      let final = Dataset.Runlog.load path in
      check Alcotest.int "clean file with both entries" 2
        (Array.length final.Dataset.Runlog.entries);
      check Alcotest.int "appended entry attempts" 2
        final.Dataset.Runlog.entries.(1).Dataset.Runlog.attempts)

(* ---- Gate decision lines ---- *)

let sample_gates =
  [
    (* 0.1 is not dyadic — it exercises the hex-float (%h) serializer's
       bit-exactness, which "%.3f"-style rendering would destroy. *)
    { Dataset.Runlog.g_refit = 0; g_source = 1; g_action = "attenuate"; g_trust = 0.1; g_below = 1 };
    { Dataset.Runlog.g_refit = 2; g_source = 1; g_action = "drop"; g_trust = 0.55; g_below = 2 };
    { Dataset.Runlog.g_refit = 2; g_source = -1; g_action = "fallback"; g_trust = 0.; g_below = 0 };
  ]

let test_gate_roundtrip () =
  let base = sample_log () in
  let log =
    Dataset.Runlog.create ~gates:sample_gates ~name:base.Dataset.Runlog.name
      ~seed:base.Dataset.Runlog.seed ~space
      (Array.to_list base.Dataset.Runlog.entries)
  in
  let parsed = Dataset.Runlog.of_string (Dataset.Runlog.to_string log) in
  check Alcotest.bool "entries survive alongside gates" true (logs_equal log parsed);
  check Alcotest.bool "gates round-trip bit-exactly, in order" true
    (gates_equal log.Dataset.Runlog.gates parsed.Dataset.Runlog.gates);
  (* A v2 log without gate lines (every pre-gating trace) decodes with
     an empty gates array, and a v1 rendering drops the gate stream. *)
  let plain = Dataset.Runlog.of_string (Dataset.Runlog.to_string base) in
  check Alcotest.int "gate-free v2 text decodes to no gates" 0
    (Array.length plain.Dataset.Runlog.gates);
  let v1 = Dataset.Runlog.of_string (Dataset.Runlog.to_string ~version:1 log) in
  check Alcotest.int "v1 rendering drops gates" 0 (Array.length v1.Dataset.Runlog.gates);
  Alcotest.check_raises "unknown action rejected"
    (Invalid_argument "Runlog: unknown gate action \"explode\"") (fun () ->
      ignore
        (Dataset.Runlog.create
           ~gates:[ { Dataset.Runlog.g_refit = 0; g_source = 0; g_action = "explode"; g_trust = 0.; g_below = 0 } ]
           ~name:"x" ~seed:0 ~space []))

let test_gate_truncation_recover () =
  let base = sample_log () in
  let log =
    Dataset.Runlog.create ~gates:sample_gates ~name:"chopped" ~seed:8 ~space
      (Array.to_list base.Dataset.Runlog.entries)
  in
  (* to_string puts the gate stream last, so a crash mid-gate-write is a
     truncated final #gate line. *)
  let text = Dataset.Runlog.to_string log in
  let truncated = String.sub text 0 (String.length text - 12) in
  (match Dataset.Runlog.of_string truncated with
  | _ -> Alcotest.fail "strict parse must reject a truncated #gate line"
  | exception Failure _ -> ());
  let recovered = Dataset.Runlog.of_string ~recover:true truncated in
  check Alcotest.int "recovery drops only the torn gate line" 2
    (Array.length recovered.Dataset.Runlog.gates);
  check Alcotest.bool "surviving gates intact" true
    (gates_equal
       (Array.sub log.Dataset.Runlog.gates 0 2)
       recovered.Dataset.Runlog.gates);
  check Alcotest.int "entries untouched by gate recovery" 5
    (Array.length recovered.Dataset.Runlog.entries)

let test_writer_gates () =
  let path = Filename.temp_file "runlog_gates" ".txt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let w = Dataset.Runlog.writer_create ~path ~name:"gated" ~seed:9 ~space in
      let g0, g1, g2 =
        match sample_gates with [ a; b; c ] -> (a, b, c) | _ -> assert false
      in
      Dataset.Runlog.writer_record w
        { Dataset.Runlog.index = 0; config = config 0 0; status = Dataset.Runlog.Ok 2.0; attempts = 1 };
      Dataset.Runlog.writer_append w (Gate g0);
      Dataset.Runlog.writer_record w
        { Dataset.Runlog.index = 1; config = config 1 1; status = Dataset.Runlog.Ok 1.0; attempts = 1 };
      Dataset.Runlog.writer_append w (Gate g1);
      (* Flush-per-record covers gate lines too: both streams must be on
         disk before the writer closes. *)
      let mid = Dataset.Runlog.load path in
      check Alcotest.int "gates visible before close" 2 (Array.length mid.Dataset.Runlog.gates);
      Dataset.Runlog.writer_close w;
      let final = Dataset.Runlog.load path in
      check Alcotest.bool "interleaved writes keep gate order" true
        (gates_equal [| g0; g1 |] final.Dataset.Runlog.gates);
      (* Resuming rewrites the clean file with the gate stream intact and
         keeps appending to it. *)
      let w2 = Dataset.Runlog.writer_resume ~path final in
      Dataset.Runlog.writer_append w2 (Gate g2);
      Dataset.Runlog.writer_close w2;
      let resumed = Dataset.Runlog.load path in
      check Alcotest.bool "resume preserves and extends gates" true
        (gates_equal [| g0; g1; g2 |] resumed.Dataset.Runlog.gates);
      check Alcotest.int "entries preserved across resume" 2
        (Array.length resumed.Dataset.Runlog.entries);
      (* Closing canonicalizes: however the lines were interleaved or
         appended while live, a closed file's bytes are exactly the
         canonical rendering — the invariant that keeps a resumed
         campaign's completed log byte-identical to an uninterrupted
         one. *)
      check Alcotest.bool "closed file is canonical bytes" true
        (String.equal (read_bytes path) (Dataset.Runlog.to_string resumed)))

let suite =
  let tc = Alcotest.test_case in
  ( "runlog",
    [
      tc "create sorts and validates" `Quick test_create_sorts_and_validates;
      tc "history and best" `Quick test_history_and_best;
      tc "string roundtrip" `Quick test_roundtrip;
      tc "v1 files still parse" `Quick test_v1_parses;
      tc "file roundtrip" `Quick test_file_roundtrip;
      tc "recorder wired into tuner" `Quick test_recorder_with_tuner;
      tc "malformed rejected" `Quick test_malformed_rejected;
      tc "continuous unsupported" `Quick test_continuous_unsupported;
      tc "only-failures log roundtrip" `Quick test_only_failures_roundtrip;
      tc "writer flushes per entry" `Quick test_writer_flush_per_entry;
      tc "writer resume truncates partial tail" `Quick test_writer_resume_truncates_partial_tail;
      tc "gate lines roundtrip" `Quick test_gate_roundtrip;
      tc "torn gate line recovers" `Quick test_gate_truncation_recover;
      tc "writer records and resumes gates" `Quick test_writer_gates;
      QCheck_alcotest.to_alcotest prop_v2_roundtrip;
      QCheck_alcotest.to_alcotest prop_v1_roundtrip;
      QCheck_alcotest.to_alcotest prop_truncation_recovery;
      QCheck_alcotest.to_alcotest prop_truncation_strict_raises;
    ] )

(* ---- Fidelity streams (#fid / #rung) ---- *)

let sample_fids =
  [
    { Dataset.Runlog.f_bracket = 0; f_rung = 0; f_value = 0x1.8p1; f_config = config 0 0 };
    { Dataset.Runlog.f_bracket = 0; f_rung = 0; f_value = 2.75; f_config = config 1 2 };
    { Dataset.Runlog.f_bracket = 1; f_rung = 1; f_value = 1.0625; f_config = config 0 1 };
  ]

let sample_rungs =
  [
    { Dataset.Runlog.r_bracket = 0; r_rung = 0; r_evaluated = 4; r_promoted = 2; r_best = 2.75 };
    { Dataset.Runlog.r_bracket = 1; r_rung = 0; r_evaluated = 3; r_promoted = 1; r_best = 1.0625 };
  ]

let test_fid_rung_roundtrip () =
  let base = sample_log () in
  let log =
    Dataset.Runlog.create ~gates:sample_gates ~fids:sample_fids ~rungs:sample_rungs
      ~name:base.Dataset.Runlog.name ~seed:base.Dataset.Runlog.seed ~space
      (Array.to_list base.Dataset.Runlog.entries)
  in
  let parsed = Dataset.Runlog.of_string (Dataset.Runlog.to_string log) in
  check Alcotest.bool "entries survive alongside fidelity streams" true (logs_equal log parsed);
  check Alcotest.bool "fids round-trip bit-exactly, in order" true
    (fids_equal log.Dataset.Runlog.fids parsed.Dataset.Runlog.fids);
  check Alcotest.bool "rungs round-trip bit-exactly, in order" true
    (rungs_equal log.Dataset.Runlog.rungs parsed.Dataset.Runlog.rungs);
  let plain = Dataset.Runlog.of_string (Dataset.Runlog.to_string base) in
  check Alcotest.int "fid-free v2 text decodes to no fids" 0
    (Array.length plain.Dataset.Runlog.fids);
  let v1 = Dataset.Runlog.of_string (Dataset.Runlog.to_string ~version:1 log) in
  check Alcotest.int "v1 rendering drops fids" 0 (Array.length v1.Dataset.Runlog.fids);
  check Alcotest.int "v1 rendering drops rungs" 0 (Array.length v1.Dataset.Runlog.rungs);
  Alcotest.check_raises "over-promotion rejected"
    (Invalid_argument "Runlog: rung promoted-count must lie in [0, evaluated]") (fun () ->
      ignore
        (Dataset.Runlog.create
           ~rungs:[ { Dataset.Runlog.r_bracket = 0; r_rung = 0; r_evaluated = 2; r_promoted = 3; r_best = 1. } ]
           ~name:"x" ~seed:0 ~space []));
  Alcotest.check_raises "non-finite fid value rejected"
    (Invalid_argument "Runlog: fid value must be finite") (fun () ->
      ignore
        (Dataset.Runlog.create
           ~fids:[ { Dataset.Runlog.f_bracket = 0; f_rung = 0; f_value = Float.nan; f_config = config 0 0 } ]
           ~name:"x" ~seed:0 ~space []))

let test_fid_truncation_recover () =
  let base = sample_log () in
  let log =
    Dataset.Runlog.create ~fids:sample_fids ~rungs:sample_rungs ~name:"chopped" ~seed:8 ~space
      (Array.to_list base.Dataset.Runlog.entries)
  in
  (* to_string puts the rung stream last: a crash mid-write leaves a
     torn final #rung line. *)
  let text = Dataset.Runlog.to_string log in
  let truncated = String.sub text 0 (String.length text - 9) in
  (match Dataset.Runlog.of_string truncated with
  | _ -> Alcotest.fail "strict parse must reject a truncated #rung line"
  | exception Failure _ -> ());
  let recovered = Dataset.Runlog.of_string ~recover:true truncated in
  check Alcotest.int "recovery drops only the torn rung line" 1
    (Array.length recovered.Dataset.Runlog.rungs);
  check Alcotest.bool "surviving fids intact" true
    (fids_equal log.Dataset.Runlog.fids recovered.Dataset.Runlog.fids);
  check Alcotest.int "entries untouched by rung recovery" 5
    (Array.length recovered.Dataset.Runlog.entries)

let test_writer_fid_rung () =
  let path = Filename.temp_file "runlog_fid" ".txt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let f0, f1, f2 =
        match sample_fids with [ a; b; c ] -> (a, b, c) | _ -> assert false
      in
      let r0, r1 = match sample_rungs with [ a; b ] -> (a, b) | _ -> assert false in
      let w = Dataset.Runlog.writer_create ~path ~name:"sh" ~seed:9 ~space in
      Dataset.Runlog.writer_append w (Fid f0);
      Dataset.Runlog.writer_append w (Fid f1);
      Dataset.Runlog.writer_append w (Rung r0);
      Dataset.Runlog.writer_record w
        { Dataset.Runlog.index = 0; config = config 1 1; status = Dataset.Runlog.Ok 1.5; attempts = 1 };
      let mid = Dataset.Runlog.load path in
      check Alcotest.int "fids visible before close" 2 (Array.length mid.Dataset.Runlog.fids);
      check Alcotest.int "rungs visible before close" 1 (Array.length mid.Dataset.Runlog.rungs);
      Dataset.Runlog.writer_close w;
      let final = Dataset.Runlog.load path in
      let w2 = Dataset.Runlog.writer_resume ~path final in
      Dataset.Runlog.writer_append w2 (Fid f2);
      Dataset.Runlog.writer_append w2 (Rung r1);
      Dataset.Runlog.writer_close w2;
      let resumed = Dataset.Runlog.load path in
      check Alcotest.bool "resume preserves and extends fids" true
        (fids_equal [| f0; f1; f2 |] resumed.Dataset.Runlog.fids);
      check Alcotest.bool "resume preserves and extends rungs" true
        (rungs_equal [| r0; r1 |] resumed.Dataset.Runlog.rungs);
      check Alcotest.bool "closed file is canonical bytes" true
        (String.equal (read_bytes path) (Dataset.Runlog.to_string resumed)))

let suite =
  let name, cases = suite in
  ( name,
    cases
    @ [
        Alcotest.test_case "fid/rung lines roundtrip" `Quick test_fid_rung_roundtrip;
        Alcotest.test_case "torn rung line recovers" `Quick test_fid_truncation_recover;
        Alcotest.test_case "writer records and resumes fids/rungs" `Quick test_writer_fid_rung;
      ] )

(* ---- Objective-vector stream (#obj) and the Infeasible kind ---- *)

let sample_objs =
  [
    { Dataset.Runlog.o_index = 0; o_values = [| 5.5; 120.25 |] };
    { Dataset.Runlog.o_index = 2; o_values = [| 3.25; 0x1.91p7 |] };
  ]

let test_obj_roundtrip () =
  let log =
    Dataset.Runlog.create ~name:"moo" ~seed:7 ~space ~objs:sample_objs
      [
        { Dataset.Runlog.index = 0; config = config 0 0; status = Dataset.Runlog.Ok 5.5; attempts = 1 };
        { index = 1; config = config 0 1; status = Dataset.Runlog.Failed Dataset.Runlog.Infeasible; attempts = 1 };
        { index = 2; config = config 1 2; status = Dataset.Runlog.Ok 3.25; attempts = 1 };
      ]
  in
  let round = Dataset.Runlog.of_string (Dataset.Runlog.to_string log) in
  check Alcotest.bool "entries roundtrip" true (logs_equal log round);
  check Alcotest.bool "objs roundtrip" true
    (objs_equal log.Dataset.Runlog.objs round.Dataset.Runlog.objs);
  check Alcotest.int "infeasible kind counted" 1
    (Dataset.Runlog.count_kind round Dataset.Runlog.Infeasible);
  (* Vectors are hex floats: the round trip is bit-exact. *)
  check Alcotest.bool "bit-exact vector" true
    (Float.equal round.Dataset.Runlog.objs.(1).Dataset.Runlog.o_values.(1) 0x1.91p7)

let test_obj_validation () =
  let mk objs = Dataset.Runlog.create ~name:"x" ~seed:0 ~space ~objs [] in
  let reject name objs =
    match mk objs with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.failf "%s: expected Invalid_argument" name
  in
  reject "negative index" [ { Dataset.Runlog.o_index = -1; o_values = [| 1. |] } ];
  reject "empty vector" [ { Dataset.Runlog.o_index = 0; o_values = [||] } ];
  reject "NaN value" [ { Dataset.Runlog.o_index = 0; o_values = [| Float.nan |] } ];
  reject "duplicate index"
    [
      { Dataset.Runlog.o_index = 0; o_values = [| 1. |] };
      { Dataset.Runlog.o_index = 0; o_values = [| 2. |] };
    ];
  reject "inconsistent arity"
    [
      { Dataset.Runlog.o_index = 0; o_values = [| 1.; 2. |] };
      { Dataset.Runlog.o_index = 1; o_values = [| 1. |] };
    ];
  (* Out-of-order rows are sorted by index, not rejected. *)
  let log =
    mk
      [
        { Dataset.Runlog.o_index = 3; o_values = [| 1. |] };
        { Dataset.Runlog.o_index = 1; o_values = [| 2. |] };
      ]
  in
  check Alcotest.int "sorted by index" 1 log.Dataset.Runlog.objs.(0).Dataset.Runlog.o_index

let test_writer_objs () =
  let path = Filename.temp_file "runlog" ".csv" in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () ->
      let w = Dataset.Runlog.writer_create ~path ~name:"moo" ~seed:9 ~space in
      Dataset.Runlog.writer_record w
        { Dataset.Runlog.index = 0; config = config 0 0; status = Dataset.Runlog.Ok 2.5; attempts = 1 };
      Dataset.Runlog.writer_append w (Obj { o_index = 0; o_values = [| 2.5; 40. |] });
      Dataset.Runlog.writer_record w
        { Dataset.Runlog.index = 1; config = config 1 1;
          status = Dataset.Runlog.Failed Dataset.Runlog.Infeasible; attempts = 1 };
      Dataset.Runlog.writer_close w;
      let log = Dataset.Runlog.load path in
      check Alcotest.int "one obj row" 1 (Array.length log.Dataset.Runlog.objs);
      check Alcotest.bool "vector persisted" true
        (Dataset.Runlog.equal (Obj log.Dataset.Runlog.objs.(0))
           (Obj { o_index = 0; o_values = [| 2.5; 40. |] }));
      check Alcotest.int "infeasible persisted" 1
        (Dataset.Runlog.count_kind log Dataset.Runlog.Infeasible);
      (* Canonical close is idempotent across a save/load cycle. *)
      let again = Dataset.Runlog.to_string log in
      check Alcotest.string "canonical form stable" again
        (Dataset.Runlog.to_string (Dataset.Runlog.of_string again)))

let test_obj_truncation_recover () =
  let log =
    Dataset.Runlog.create ~name:"moo" ~seed:7 ~space ~objs:sample_objs
      [
        { Dataset.Runlog.index = 0; config = config 0 0; status = Dataset.Runlog.Ok 5.5; attempts = 1 };
        { index = 2; config = config 1 2; status = Dataset.Runlog.Ok 3.25; attempts = 1 };
      ]
  in
  let text = Dataset.Runlog.to_string log in
  (* Tear the final #obj line mid-write. *)
  let torn = String.sub text 0 (String.length text - 8) in
  (match Dataset.Runlog.of_string torn with
  | _ -> Alcotest.fail "torn obj line must not parse strictly"
  | exception Failure _ -> ());
  let recovered = Dataset.Runlog.of_string ~recover:true torn in
  check Alcotest.int "recovery drops only the torn obj row" 1
    (Array.length recovered.Dataset.Runlog.objs)

let suite =
  let name, cases = suite in
  ( name,
    cases
    @ [
        Alcotest.test_case "obj lines roundtrip" `Quick test_obj_roundtrip;
        Alcotest.test_case "obj validation" `Quick test_obj_validation;
        Alcotest.test_case "writer records objs" `Quick test_writer_objs;
        Alcotest.test_case "torn obj line recovers" `Quick test_obj_truncation_recover;
      ] )

(* ---- Golden fixture: every entry status and every decision kind ---- *)

let golden =
  lazy
    (read_bytes
       (Filename.concat
          (Filename.dirname Sys.executable_name)
          (Filename.concat "fixtures" "all_kinds.runlog")))

let check_golden what text =
  if text <> Lazy.force golden then
    Alcotest.failf "%s drifted from fixtures/all_kinds.runlog:\n--- expected ---\n%s--- actual ---\n%s---"
      what (Lazy.force golden) text

let test_golden_roundtrip () =
  let log = Dataset.Runlog.of_string (Lazy.force golden) in
  List.iter
    (fun kind ->
      check Alcotest.bool
        (Dataset.Runlog.failure_kind_to_string kind ^ " entry present")
        true
        (Dataset.Runlog.count_kind log kind > 0))
    Dataset.Runlog.[ Crash; Transient; Permanent; Timeout; Infeasible ];
  check Alcotest.bool "one line of each decision kind at least" true
    (Array.length log.Dataset.Runlog.gates > 0
    && Array.length log.Dataset.Runlog.fids > 0
    && Array.length log.Dataset.Runlog.rungs > 0
    && Array.length log.Dataset.Runlog.objs > 0);
  check_golden "to_string (of_string fixture)" (Dataset.Runlog.to_string log)

(* A writer fed the fixture's records in a scrambled interleaving —
   entries newest first, decision kinds in reverse order, objective
   vectors out of index order — closes to the fixture's bytes. *)
let test_golden_writer () =
  let log = Dataset.Runlog.of_string (Lazy.force golden) in
  let path = Filename.temp_file "runlog_golden" ".txt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let w =
        Dataset.Runlog.writer_create ~path ~name:log.Dataset.Runlog.name
          ~seed:log.Dataset.Runlog.seed ~space:log.Dataset.Runlog.space
      in
      let records =
        List.concat
          [
            List.rev_map (fun o -> Dataset.Runlog.Obj o) (Array.to_list log.Dataset.Runlog.objs);
            List.map (fun r -> Dataset.Runlog.Rung r) (Array.to_list log.Dataset.Runlog.rungs);
            List.map (fun f -> Dataset.Runlog.Fid f) (Array.to_list log.Dataset.Runlog.fids);
            List.map (fun g -> Dataset.Runlog.Gate g) (Array.to_list log.Dataset.Runlog.gates);
          ]
      in
      let rec interleave entries records =
        match (entries, records) with
        | [], rs -> List.iter (Dataset.Runlog.writer_append w) rs
        | es, [] -> List.iter (Dataset.Runlog.writer_record w) es
        | e :: es, r :: rs ->
            Dataset.Runlog.writer_record w e;
            Dataset.Runlog.writer_append w r;
            interleave es rs
      in
      interleave (List.rev (Array.to_list log.Dataset.Runlog.entries)) records;
      Dataset.Runlog.writer_close w;
      check_golden "closed writer" (read_bytes path))

let test_writer_append_rejects () =
  let path = Filename.temp_file "runlog_reject" ".txt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let w = Dataset.Runlog.writer_create ~path ~name:"reject" ~seed:1 ~space in
      let header = read_bytes path in
      Alcotest.check_raises "invalid record"
        (Invalid_argument "Runlog: rung promoted-count must lie in [0, evaluated]") (fun () ->
          Dataset.Runlog.writer_append w
            (Rung { r_bracket = 0; r_rung = 0; r_evaluated = 1; r_promoted = 2; r_best = 0. }));
      check Alcotest.string "a rejected record writes nothing" header (read_bytes path);
      Dataset.Runlog.writer_close w;
      Alcotest.check_raises "closed writer" (Invalid_argument "Runlog: record on a closed writer")
        (fun () ->
          Dataset.Runlog.writer_append w
            (Gate { g_refit = 0; g_source = 0; g_action = "drop"; g_trust = 0.; g_below = 0 })))

let suite =
  let name, cases = suite in
  ( name,
    cases
    @ [
        Alcotest.test_case "golden fixture roundtrips byte-exactly" `Quick test_golden_roundtrip;
        Alcotest.test_case "interleaved writer closes to the golden bytes" `Quick
          test_golden_writer;
        Alcotest.test_case "writer_append rejects invalid records" `Quick
          test_writer_append_rejects;
      ] )
