(* Tests for the multi-tenant tuning server: golden protocol lines,
   malformed requests that must come back as [err] without killing the
   loop, deterministic two-client interleaving (a served session equals
   the same campaign driven directly), shared-pool accounting across
   sessions, and crash-then-recover from the per-session run log. *)

let check = Alcotest.check

let wide_wire = "a=ord:1,2,4,8,16,32,64,128;b=ord:1,2,3,4,5,6,7,8"

let open_line ?(name = "s1") ?(seed = 42) ?(budget = 12) ?(k = 1) ?(n_init = 4) () =
  Printf.sprintf "open %s seed=%d budget=%d k=%d n_init=%d space=%s" name seed budget k
    n_init wide_wire

(* Parse "ok suggest <name> <id> <cells>" into (id, config). *)
let parse_suggest space line =
  match String.split_on_char ' ' line with
  | [ "ok"; "suggest"; _; id; cells ] ->
      let specs = Param.Space.specs space in
      let config =
        String.split_on_char ',' cells
        |> List.mapi (fun i cell -> Dataset.Runlog.value_of_string specs.(i) cell)
        |> Array.of_list
      in
      (int_of_string id, config)
  | _ -> Alcotest.fail ("expected a suggestion, got: " ^ line)

let wide_space = Gen.wide_space

let has_prefix p line =
  String.length line >= String.length p && String.sub line 0 (String.length p) = p

let report_ok server name id y =
  let reply = Hiperbot.Serve.handle server (Printf.sprintf "report %s %d ok:%.17g" name id y) in
  if not (has_prefix "ok" reply) then Alcotest.fail ("report rejected: " ^ reply)

(* Drive a served session to completion against [objective]: keep
   asking until the server says wait (in-flight set full), then report
   the oldest outstanding suggestion — the same discipline for every
   k, so the exact request sequence is reproducible across servers.
   [initial] seeds suggestions already delivered outside the driver
   (the re-delivered in-flight of a recovered session). *)
let drive_session ?(initial = []) server name objective =
  let q = Queue.create () in
  List.iter (fun s -> Queue.push s q) initial;
  let rec loop () =
    let line = Hiperbot.Serve.handle server ("suggest " ^ name) in
    if has_prefix "ok finished" line then line
    else if has_prefix "ok wait" line then begin
      let id, config = Queue.pop q in
      report_ok server name id (objective config);
      loop ()
    end
    else begin
      Queue.push (parse_suggest wide_space line) q;
      loop ()
    end
  in
  loop ()

(* The same discipline, stopped after [n] reports: what a client that
   dies mid-campaign leaves behind (the still-outstanding suggestions
   are returned, oldest first). *)
let drive_n_reports server name objective n =
  let q = Queue.create () in
  let reported = ref 0 in
  while !reported < n do
    let line = Hiperbot.Serve.handle server ("suggest " ^ name) in
    if has_prefix "ok wait" line then begin
      let id, config = Queue.pop q in
      report_ok server name id (objective config);
      incr reported
    end
    else Queue.push (parse_suggest wide_space line) q
  done;
  List.rev (Queue.fold (fun acc s -> s :: acc) [] q)

(* ---- golden protocol lines ---- *)

let test_protocol_golden () =
  let server = Hiperbot.Serve.create () in
  check Alcotest.string "ping" "ok pong" (Hiperbot.Serve.handle server "ping");
  check Alcotest.string "open"
    "ok open g1 evaluated=0 pending=0"
    (Hiperbot.Serve.handle server
       "open g1 seed=7 budget=4 k=2 n_init=2 space=level=cat:O0,O1,O2;unroll=ord:1,2,4");
  let s = Hiperbot.Serve.handle server "suggest g1" in
  check Alcotest.bool "suggest shape" true
    (String.length s > 13 && String.sub s 0 13 = "ok suggest g1");
  let s2 = Hiperbot.Serve.handle server "suggest g1" in
  check Alcotest.bool "second suggest (k=2)" true
    (String.length s2 > 13 && String.sub s2 0 13 = "ok suggest g1");
  check Alcotest.string "in-flight set full" "ok wait g1"
    (Hiperbot.Serve.handle server "suggest g1");
  check Alcotest.string "report" "ok reported g1 0 evaluated=1"
    (Hiperbot.Serve.handle server "report g1 0 ok:3.5");
  check Alcotest.string "status"
    "ok status g1 state=running evaluated=1 pending=1 best=3.5"
    (Hiperbot.Serve.handle server "status g1");
  check Alcotest.string "failure report" "ok reported g1 1 evaluated=2"
    (Hiperbot.Serve.handle server "report g1 1 fail:transient attempts=3");
  check Alcotest.string "close" "ok closed g1" (Hiperbot.Serve.handle server "close g1");
  check Alcotest.int "registry empty after close" 0 (Hiperbot.Serve.n_sessions server)

(* ---- malformed input never kills the loop, and never corrupts an
   open session ---- *)

let test_malformed_input () =
  let server = Hiperbot.Serve.create () in
  let opened = Hiperbot.Serve.handle server (open_line ()) in
  check Alcotest.string "session opens" "ok open s1 evaluated=0 pending=0" opened;
  let _id, _config = parse_suggest wide_space (Hiperbot.Serve.handle server "suggest s1") in
  let err line =
    let reply = Hiperbot.Serve.handle server line in
    check Alcotest.bool
      (Printf.sprintf "%S -> err (got %S)" line reply)
      true
      (String.length reply >= 3 && String.sub reply 0 3 = "err");
    check Alcotest.bool
      (Printf.sprintf "%S -> single line" line)
      false
      (String.contains reply '\n')
  in
  err "";
  err "   ";
  err "frobnicate s1";
  err "open";
  err "open bad/name seed=1 budget=2 space=a=cat:x";
  err "open s1 seed=1 budget=2 space=a=cat:x";  (* duplicate name *)
  err "open s2 seed=1 space=a=cat:x";           (* missing budget *)
  err "open s2 seed=one budget=2 space=a=cat:x";
  err "open s2 seed=1 budget=2 space=a=weird:x";
  err "open s2 seed=1 budget=2 space=";
  err "suggest";
  err "suggest nosuch";
  err "status nosuch";
  err "close nosuch";
  err "report s1";
  err "report s1 0";
  err "report s1 zero ok:1.0";
  err "report s1 0 ok:notafloat";
  err "report s1 0 ok:nan";
  err "report s1 0 fail:weird";
  err "report s1 0 ok:1.0 attempts=0";
  err "report s1 99 ok:1.0";
  (* Unknown options and bare words are refused by name rather than
     silently dropped; [batch] is unknown too, since a served session
     is asynchronous and only synchronous campaigns batch. *)
  let err_naming line token =
    err line;
    let reply = Hiperbot.Serve.handle server line in
    check Alcotest.bool
      (Printf.sprintf "%S names %S (got %S)" line token reply)
      true
      (Gen.contains_substring reply (Printf.sprintf "%S" token))
  in
  err_naming "open s2 seed=1 budget=5 space=a=cat:x,y,z bogus=3" "bogus=3";
  err_naming "open s2 seed=1 budget=5 space=a=cat:x,y,z junk" "junk";
  err_naming "open s2 seed=1 budget=5 space=a=cat:x,y,z batch=2" "batch=2";
  err_naming "report s1 0 ok:1.0 junk" "junk";
  err_naming "report s1 0 ok:1.0 tries=2" "tries=2";
  (* An in-flight bound below 1 is refused where the campaign
     validates its mode, under that entry point's name. *)
  List.iter
    (fun k ->
      let line = Printf.sprintf "open s2 seed=1 budget=10 k=%d space=a=cat:x,y" k in
      err line;
      check Alcotest.string line "err Campaign.create: k must be at least 1"
        (Hiperbot.Serve.handle server line))
    [ 0; -3 ];
  (* The session is still alive and consistent after all of that. *)
  check Alcotest.string "session survived the abuse"
    "ok status s1 state=running evaluated=0 pending=1 best=none"
    (Hiperbot.Serve.handle server "status s1")

(* ---- a served session equals the same campaign driven directly,
   and two interleaved clients cannot disturb each other ---- *)

let direct_result seed =
  let eval c =
    {
      Resilience.Evaluator.outcome = Resilience.Outcome.Value (Gen.hash_objective c);
      attempts = 1;
      retry_cost = 0.;
    }
  in
  let campaign =
    Hiperbot.Campaign.create
      ~options:{ Hiperbot.Tuner.default_options with n_init = 4 }
      ~mode:(Hiperbot.Campaign.Async 1) ~rng:(Prng.Rng.create seed) ~space:wide_space
      ~budget:12 ()
  in
  let rec loop () =
    match Hiperbot.Campaign.suggest campaign with
    | Hiperbot.Campaign.Finished -> Hiperbot.Campaign.result campaign
    | Hiperbot.Campaign.Wait -> Alcotest.fail "unexpected Wait at depth 1"
    | Hiperbot.Campaign.Suggest s ->
        Hiperbot.Campaign.report campaign ~id:s.Hiperbot.Campaign.id
          (eval s.Hiperbot.Campaign.config);
        loop ()
  in
  loop ()

let finished_best line =
  (* "ok finished <name> evaluated=<n> best=<v>" *)
  match String.split_on_char ' ' line with
  | [ "ok"; "finished"; _; _; best ] ->
      float_of_string (String.sub best 5 (String.length best - 5))
  | _ -> Alcotest.fail ("expected a finished line, got: " ^ line)

let test_two_client_interleaving () =
  let server = Hiperbot.Serve.create () in
  ignore (Hiperbot.Serve.handle server (open_line ~name:"c1" ~seed:5 ()));
  ignore (Hiperbot.Serve.handle server (open_line ~name:"c2" ~seed:6 ()));
  check Alcotest.int "two sessions, one space, one pool" 1 (Hiperbot.Serve.n_pools server);
  (* Strict alternation: each step of client 1 is followed by a step
     of client 2; the protocol responses must match the isolated
     direct drives exactly. *)
  let step name =
    let line = Hiperbot.Serve.handle server ("suggest " ^ name) in
    if String.length line >= 11 && String.sub line 0 11 = "ok finished" then Some line
    else begin
      let id, config = parse_suggest wide_space line in
      ignore
        (Hiperbot.Serve.handle server
           (Printf.sprintf "report %s %d ok:%.17g" name id (Gen.hash_objective config)));
      None
    end
  in
  let fin1 = ref None and fin2 = ref None in
  while !fin1 = None || !fin2 = None do
    (if !fin1 = None then match step "c1" with Some l -> fin1 := Some l | None -> ());
    if !fin2 = None then match step "c2" with Some l -> fin2 := Some l | None -> ()
  done;
  let expect seed fin =
    match direct_result seed with
    | Stdlib.Ok r ->
        check (Alcotest.float 0.) "served best = direct best" r.Hiperbot.Tuner.best_value
          (finished_best (Option.get fin))
    | Stdlib.Error _ -> Alcotest.fail "direct drive failed"
  in
  expect 5 !fin1;
  expect 6 !fin2

(* ---- crash-then-recover from the per-session run log ---- *)

let test_crash_recovery () =
  let dir = Filename.temp_file "serve_test" "" in
  Sys.remove dir;
  (* First server: evaluate 5, leave 1 in flight, then "crash" (drop
     the server without closing the session). *)
  let server1 = Hiperbot.Serve.create ~dir () in
  ignore (Hiperbot.Serve.handle server1 (open_line ~k:2 ()));
  let lost = List.map snd (drive_n_reports server1 "s1" Gen.hash_objective 5) in
  check Alcotest.bool "something was in flight at the crash" true (lost <> []);
  (* Second server: re-open the same session from its log. *)
  let server2 = Hiperbot.Serve.create ~dir () in
  check Alcotest.string "recovered with history and refilled in-flight"
    "ok open s1 evaluated=5 pending=1"
    (Hiperbot.Serve.handle server2 (open_line ~k:2 ()));
  (* The refilled suggestion is exactly the one the dead server had
     handed out. *)
  let refilled_id, refilled =
    parse_suggest wide_space (Hiperbot.Serve.handle server2 "suggest s1")
  in
  check Alcotest.bool "refilled in-flight config matches the lost one" true
    (List.exists (Param.Config.equal refilled) lost);
  (* Drive to completion; the result must equal the uninterrupted
     direct session with the same seed/budget/k. *)
  let fin =
    drive_session ~initial:[ (refilled_id, refilled) ] server2 "s1" Gen.hash_objective
  in
  let server3 = Hiperbot.Serve.create () in
  ignore (Hiperbot.Serve.handle server3 (open_line ~k:2 ()));
  let fin_direct = drive_session server3 "s1" Gen.hash_objective in
  check (Alcotest.float 0.) "recovered session best = uninterrupted best"
    (finished_best fin_direct) (finished_best fin);
  (* Wrong seed on recovery is refused before touching the log. *)
  let server4 = Hiperbot.Serve.create ~dir () in
  let reply = Hiperbot.Serve.handle server4 (open_line ~seed:43 ~k:2 ()) in
  check Alcotest.bool "seed mismatch refused" true
    (String.length reply >= 3 && String.sub reply 0 3 = "err");
  Hiperbot.Serve.close_all server2;
  Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
  Sys.rmdir dir

(* A reopened session whose log was reordered is refused, and the
   refusal names the module that raised it: the campaign's replay, not
   a driver the client never called. *)
let test_diverged_reopen () =
  let dir = Filename.temp_file "serve_test" "" in
  Sys.remove dir;
  let server1 = Hiperbot.Serve.create ~dir () in
  ignore (Hiperbot.Serve.handle server1 (open_line ()));
  ignore (drive_n_reports server1 "s1" Gen.hash_objective 8);
  Hiperbot.Serve.close_all server1;
  (* Rows 5 and 6 are guided (n_init = 4): swap their configurations. *)
  let path = Filename.concat dir "s1.runlog" in
  let log = Dataset.Runlog.load path in
  let entries = Array.copy log.Dataset.Runlog.entries in
  let row i j = { entries.(i) with Dataset.Runlog.config = log.Dataset.Runlog.entries.(j).config } in
  entries.(5) <- row 5 6;
  entries.(6) <- row 6 5;
  Dataset.Runlog.save { log with Dataset.Runlog.entries } path;
  let server2 = Hiperbot.Serve.create ~dir () in
  let reply = Hiperbot.Serve.handle server2 (open_line ()) in
  check Alcotest.bool ("diverged reopen names Campaign: " ^ reply) true
    (has_prefix "err Campaign.of_log: run log diverges" reply);
  Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
  Sys.rmdir dir

(* A refused reopen leaves the session's log byte-identical: the
   recovered log is rewritten only once its replay is accepted. *)
let test_refused_reopen_untouched () =
  let dir = Filename.temp_file "serve_test" "" in
  Sys.remove dir;
  let path = Filename.concat dir "s1.runlog" in
  let read () = In_channel.with_open_bin path In_channel.input_all in
  let server1 = Hiperbot.Serve.create ~dir () in
  ignore (Hiperbot.Serve.handle server1 (open_line ~k:2 ()));
  ignore (drive_n_reports server1 "s1" Gen.hash_objective 8);
  (* The server dies with the session open: its log is the crash state. *)
  let refused what ~log line expect =
    Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc log);
    let reply = Hiperbot.Serve.handle (Hiperbot.Serve.create ~dir ()) line in
    check Alcotest.bool (what ^ ": " ^ reply) true (has_prefix expect reply);
    check Alcotest.bool (what ^ ": log byte-identical") true (String.equal log (read ()))
  in
  let crashed = read () in
  let seed_err = "err Serve: session \"s1\" resumes with seed 42, not 43" in
  let other_space seed =
    Printf.sprintf "open s1 seed=%d budget=12 k=2 n_init=4 space=a=ord:1,2" seed
  in
  refused "seed mismatch" ~log:crashed (open_line ~seed:43 ~k:2 ()) seed_err;
  refused "space mismatch" ~log:crashed (other_space 42)
    "err Serve: session \"s1\"'s recorded space does not match the request";
  refused "seed and space mismatch" ~log:crashed (other_space 43) seed_err;
  (* Entry 5 (guided, n_init = 4) takes entry 6's configuration, and
     a torn final line follows. *)
  let log = Dataset.Runlog.load ~recover:true path in
  let entries = Array.copy log.Dataset.Runlog.entries in
  entries.(5) <- { entries.(5) with Dataset.Runlog.config = entries.(6).Dataset.Runlog.config };
  let diverged = Dataset.Runlog.to_string { log with Dataset.Runlog.entries } ^ "11,ZG" in
  refused "divergent cut with a torn tail" ~log:diverged (open_line ~k:2 ())
    "err Campaign.of_log: run log diverges";
  (* An accepted reopen still resumes the crashed log. *)
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc crashed);
  let server2 = Hiperbot.Serve.create ~dir () in
  check Alcotest.string "reopened" "ok open s1 evaluated=8 pending=1"
    (Hiperbot.Serve.handle server2 (open_line ~k:2 ()));
  Hiperbot.Serve.close_all server2;
  Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
  Sys.rmdir dir

(* ---- shared pool accounting ---- *)

let test_pool_sharing () =
  let server = Hiperbot.Serve.create () in
  ignore (Hiperbot.Serve.handle server (open_line ~name:"p1" ~seed:1 ()));
  ignore (Hiperbot.Serve.handle server (open_line ~name:"p2" ~seed:2 ()));
  check Alcotest.int "same space shares one pool" 1 (Hiperbot.Serve.n_pools server);
  ignore
    (Hiperbot.Serve.handle server "open p3 seed=3 budget=4 space=level=cat:O0,O1,O2");
  check Alcotest.int "new space gets its own pool" 2 (Hiperbot.Serve.n_pools server);
  check Alcotest.int "three sessions" 3 (Hiperbot.Serve.n_sessions server);
  Hiperbot.Serve.close_all server;
  check Alcotest.int "close_all empties the registry" 0 (Hiperbot.Serve.n_sessions server)

(* ---- concurrent clients on separate domains: the global and
   per-session locks keep every session's campaign equal to its
   isolated drive ---- *)

let test_concurrent_clients () =
  let server = Hiperbot.Serve.create () in
  let seeds = [| 11; 12; 13; 14 |] in
  Array.iteri
    (fun i seed ->
      ignore
        (Hiperbot.Serve.handle server
           (open_line ~name:(Printf.sprintf "d%d" i) ~seed ())))
    seeds;
  check Alcotest.int "all sessions share the pool" 1 (Hiperbot.Serve.n_pools server);
  let domains =
    Array.mapi
      (fun i _ ->
        Domain.spawn (fun () ->
            drive_session server (Printf.sprintf "d%d" i) Gen.hash_objective))
      seeds
  in
  let finished = Array.map Domain.join domains in
  Array.iteri
    (fun i seed ->
      match direct_result seed with
      | Stdlib.Ok r ->
          check (Alcotest.float 0.)
            (Printf.sprintf "client %d best = isolated best" i)
            r.Hiperbot.Tuner.best_value
            (finished_best finished.(i))
      | Stdlib.Error _ -> Alcotest.fail "direct drive failed")
    seeds

let suite =
  ( "serve",
    [
      Alcotest.test_case "golden protocol lines" `Quick test_protocol_golden;
      Alcotest.test_case "malformed input never kills the loop" `Quick test_malformed_input;
      Alcotest.test_case "two-client interleaving is deterministic" `Quick
        test_two_client_interleaving;
      Alcotest.test_case "crash-then-recover from runlog" `Quick test_crash_recovery;
      Alcotest.test_case "diverged reopen names Campaign" `Quick test_diverged_reopen;
      Alcotest.test_case "refused reopen leaves the log byte-identical" `Quick
        test_refused_reopen_untouched;
      Alcotest.test_case "pool sharing accounting" `Quick test_pool_sharing;
      Alcotest.test_case "concurrent clients across domains" `Quick test_concurrent_clients;
    ] )
