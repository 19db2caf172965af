(* The tuning server under concurrent load: N clients, each driving
   its own session over the line protocol from its own worker domain,
   all multiplexed through one [Hiperbot.Serve.t]. Reported to stdout
   for humans and BENCH_serve.json for tooling: campaigns completed
   per second and the p50/p95 latency of a [suggest] round-trip under
   contention.

   Two invariants are asserted, not just reported:
   - a served k=1 session finds exactly the best the synchronous
     engine finds from the same seed (the protocol adds no noise);
   - a session killed mid-campaign and re-opened from its run log
     finishes with exactly the uninterrupted session's best
     (crash-recovery through the bit-exact resume path).

   HIPERBOT_SERVE_BUDGET (positive integer) overrides the per-session
   evaluation budget for CI smoke runs. *)

let output_path = "BENCH_serve.json"
let n_clients = 8
let k = 4
let n_init = 8
let default_budget = 48

let budget () =
  match Sys.getenv_opt "HIPERBOT_SERVE_BUDGET" with
  | None -> default_budget
  | Some s -> (
      match int_of_string_opt s with
      | Some n when n > 0 -> n
      | _ -> failwith "HIPERBOT_SERVE_BUDGET must be a positive integer")

(* 8 x 8 x 4 = 256 configurations; the objective is a pure config
   hash, callable from any domain. *)
let space_wire = "a=ord:1,2,4,8,16,32,64,128;b=ord:1,2,3,4,5,6,7,8;c=cat:w,x,y,z"

let space =
  Param.Space.make
    (List.map Dataset.Runlog.spec_of_string (String.split_on_char ';' space_wire))

let objective c = float_of_int ((Param.Config.hash c land 0xFFFF) + 1)

let has_prefix p line =
  String.length line >= String.length p && String.sub line 0 (String.length p) = p

let parse_suggest line =
  match String.split_on_char ' ' line with
  | [ "ok"; "suggest"; _; id; cells ] ->
      let specs = Param.Space.specs space in
      let config =
        String.split_on_char ',' cells
        |> List.mapi (fun i cell -> Dataset.Runlog.value_of_string specs.(i) cell)
        |> Array.of_list
      in
      (int_of_string id, config)
  | _ -> failwith ("BENCH serve: expected a suggestion, got: " ^ line)

let finished_best line =
  match String.split_on_char ' ' line with
  | [ "ok"; "finished"; _; _; best ] when has_prefix "best=" best ->
      float_of_string (String.sub best 5 (String.length best - 5))
  | _ -> failwith ("BENCH serve: expected a finished line, got: " ^ line)

let open_line ~name ~seed ~budget ~k =
  Printf.sprintf "open %s seed=%d budget=%d k=%d n_init=%d space=%s" name seed budget k
    n_init space_wire

(* Drive one session to completion (fill the in-flight window, then
   report the oldest outstanding suggestion), timing every [suggest]
   round-trip. Returns (final line, suggest latencies in ms). *)
let drive ?(initial = []) server name =
  let q = Queue.create () in
  List.iter (fun s -> Queue.push s q) initial;
  let latencies = ref [] in
  let suggest () =
    let t0 = Unix.gettimeofday () in
    let line = Hiperbot.Serve.handle server ("suggest " ^ name) in
    latencies := ((Unix.gettimeofday () -. t0) *. 1e3) :: !latencies;
    line
  in
  let rec loop () =
    let line = suggest () in
    if has_prefix "ok finished" line then line
    else if has_prefix "ok wait" line then begin
      let id, config = Queue.pop q in
      let reply =
        Hiperbot.Serve.handle server
          (Printf.sprintf "report %s %d ok:%.17g" name id (objective config))
      in
      if not (has_prefix "ok" reply) then failwith ("BENCH serve: report rejected: " ^ reply);
      loop ()
    end
    else begin
      Queue.push (parse_suggest line) q;
      loop ()
    end
  in
  let final = loop () in
  (final, !latencies)

(* ---- invariant: served k=1 = synchronous engine ---- *)
let check_k1_parity ~budget =
  let seed = 4242 in
  let server = Hiperbot.Serve.create () in
  ignore (Hiperbot.Serve.handle server (open_line ~name:"parity" ~seed ~budget ~k:1));
  let final, _ = drive server "parity" in
  let served_best = finished_best final in
  let direct =
    match
      Hiperbot.Tuner.run_async
        ~options:{ Hiperbot.Tuner.default_options with n_init }
        ~rng:(Prng.Rng.create seed) ~space
        ~objective:(fun ~attempt:_ c -> Resilience.Outcome.Value (objective c))
        ~budget ()
    with
    | Stdlib.Ok r -> r.Hiperbot.Tuner.best_value
    | Stdlib.Error _ -> failwith "BENCH serve: fault-free engine run failed"
  in
  Float.equal served_best direct

(* ---- invariant: crash mid-campaign, recover from the run log ---- *)
let check_recovery ~budget =
  let seed = 777 in
  let dir = Filename.temp_file "serve_bench" "" in
  Sys.remove dir;
  let uninterrupted =
    let server = Hiperbot.Serve.create () in
    ignore (Hiperbot.Serve.handle server (open_line ~name:"r" ~seed ~budget ~k));
    finished_best (fst (drive server "r"))
  in
  (* Evaluate about half the budget, keep the window full, then drop
     the server on the floor with suggestions still in flight. *)
  let server1 = Hiperbot.Serve.create ~dir () in
  ignore (Hiperbot.Serve.handle server1 (open_line ~name:"r" ~seed ~budget ~k));
  let q = Queue.create () in
  let reported = ref 0 in
  while !reported < Int.max 1 (budget / 2) do
    let line = Hiperbot.Serve.handle server1 "suggest r" in
    if has_prefix "ok finished" line then reported := budget
    else if has_prefix "ok wait" line then begin
      let id, config = Queue.pop q in
      ignore
        (Hiperbot.Serve.handle server1
           (Printf.sprintf "report r %d ok:%.17g" id (objective config)));
      incr reported
    end
    else Queue.push (parse_suggest line) q
  done;
  let server2 = Hiperbot.Serve.create ~dir () in
  let reopened = Hiperbot.Serve.handle server2 (open_line ~name:"r" ~seed ~budget ~k) in
  if not (has_prefix "ok open" reopened) then
    failwith ("BENCH serve: recovery open failed: " ^ reopened);
  let recovered = finished_best (fst (drive server2 "r")) in
  Hiperbot.Serve.close_all server2;
  Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
  Sys.rmdir dir;
  Float.equal uninterrupted recovered

let run ~reps:_ () =
  Harness.section "Tuning server: concurrent clients over the line protocol";
  let budget = budget () in
  let k1_parity = check_k1_parity ~budget in
  let recovery_ok = check_recovery ~budget in
  let server = Hiperbot.Serve.create () in
  let pool = Parallel.Pool.create ~num_domains:n_clients () in
  Array.iteri
    (fun i () ->
      let line =
        Hiperbot.Serve.handle server
          (open_line ~name:(Printf.sprintf "c%d" i) ~seed:(1000 + i) ~budget ~k)
      in
      if not (has_prefix "ok open" line) then failwith ("BENCH serve: open failed: " ^ line))
    (Array.make n_clients ());
  let t0 = Unix.gettimeofday () in
  let futures =
    Array.init n_clients (fun i ->
        Parallel.Pool.async pool (fun () -> drive server (Printf.sprintf "c%d" i)))
  in
  let finished = Array.map Parallel.Pool.await futures in
  let wall_s = Unix.gettimeofday () -. t0 in
  Parallel.Pool.shutdown pool;
  Array.iter (fun (final, _) -> ignore (finished_best final)) finished;
  let latencies =
    Array.to_list finished |> List.concat_map snd |> Array.of_list
  in
  let p50 = Stats.Quantile.quantile latencies 0.5 in
  let p95 = Stats.Quantile.quantile latencies 0.95 in
  let campaigns_per_sec = float_of_int n_clients /. wall_s in
  Printf.printf
    "clients=%d k=%d budget=%d: %.2f campaigns/sec, %d suggests, p50=%.3f ms, p95=%.3f ms\n"
    n_clients k budget campaigns_per_sec (Array.length latencies) p50 p95;
  Printf.printf "served k=1 = sync engine best: %b\n" k1_parity;
  Printf.printf "crash-then-recover = uninterrupted best: %b\n" recovery_ok;
  let buf = Buffer.create 512 in
  Printf.bprintf buf "{\n";
  Printf.bprintf buf "  \"benchmark\": \"serve\",\n";
  Harness.stamp buf;
  Printf.bprintf buf "  \"n_clients\": %d,\n" n_clients;
  Printf.bprintf buf "  \"k\": %d,\n" k;
  Printf.bprintf buf "  \"budget\": %d,\n" budget;
  Printf.bprintf buf "  \"n_init\": %d,\n" n_init;
  Printf.bprintf buf "  \"campaigns_per_sec\": %.3f,\n" campaigns_per_sec;
  Printf.bprintf buf "  \"wall_s\": %.4f,\n" wall_s;
  Printf.bprintf buf "  \"n_suggests\": %d,\n" (Array.length latencies);
  Printf.bprintf buf "  \"suggest_p50_ms\": %.4f,\n" p50;
  Printf.bprintf buf "  \"suggest_p95_ms\": %.4f,\n" p95;
  Printf.bprintf buf "  \"k1_parity\": %b,\n" k1_parity;
  Printf.bprintf buf "  \"recovery_ok\": %b\n" recovery_ok;
  Printf.bprintf buf "}\n";
  let oc = open_out output_path in
  output_string oc (Buffer.contents buf);
  close_out oc;
  Printf.printf "wrote %s\n%!" output_path;
  if not k1_parity then failwith "BENCH serve: served k=1 diverged from the synchronous engine";
  if not recovery_ok then
    failwith "BENCH serve: recovered session diverged from the uninterrupted one"
