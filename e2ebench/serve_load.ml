(* serve: the multi-tenant protocol under load. Serve.handle from 2
   client domains against one Serve.create ~dir server. Sessions run
   in waves of 256 open at once, half on the kripke space and half on
   hypre (2 shared pools), each with k=4, n_init 10, budget 100 and a
   status request after every 4th report. Each wave is abandoned at
   half budget: the server is dropped, every session is reopened on a
   fresh server from its run log (crash recovery) and finished. A
   closed loop: each session's next request goes out only after its
   previous reply, from whichever client is free. This is the workload for protocol handling,
   locking, per-session run-log flushes and recovery.

   The abandoned server's sessions are closed rather than leaked: a
   single process cannot drop an open run-log channel without leaking
   its descriptor, and since every entry is flushed when it is written
   the log a reopen reads is the one a crash would leave. *)

open Bench

let k = 4
let n_init = 10
let status_every = 4
let n_clients = 2

type dataset = {
  name : string;
  wire : string;
  specs : Param.Spec.t array;
  lookup : Param.Config.t -> float;
  good : Metrics.Recall.good_set;
  exhaustive_best : float;
}

type env = {
  datasets : dataset array;
  dir : string;
  mutable server : Hiperbot.Serve.t;
}

let sessions_per_wave ctx = if ctx.smoke then 4 else 256
let budget ctx = if ctx.smoke then 20 else 100

let dataset name build =
  let table = build () in
  let space = Dataset.Table.space table in
  {
    name;
    wire =
      String.concat ";"
        (Array.to_list (Array.map Dataset.Runlog.spec_to_string (Param.Space.specs space)));
    specs = Param.Space.specs space;
    lookup = Dataset.Table.objective_fn table;
    good = Metrics.Recall.percentile_good_set table 0.05;
    exhaustive_best = Dataset.Table.best_value table;
  }

let setup ctx () =
  let dir = Filename.concat ctx.work_dir "serve" in
  {
    datasets = [| dataset "kripke" Hpcsim.Kripke.exec_table; dataset "hypre" Hpcsim.Hypre.table |];
    dir;
    server = Hiperbot.Serve.create ~dir ();
  }

(* One client's view of the load; each client domain owns one. *)
type client = {
  spans : Spans.t;
  tuner_ms : Samples.t;  (* suggest round trips that returned a configuration *)
  report_ms : Samples.t;
  status_ms : Samples.t;
  open_ms : Samples.t;
  reopen_ms : Samples.t;
  life_s : Samples.t;
  mutable requests : int;
  mutable suggests : int;
  mutable waits : int;
  mutable errs : int;
  mutable reports : int;
  mutable failed : int;
  mutable busy_s : float;
}

let client spans =
  {
    spans;
    tuner_ms = Samples.create ();
    report_ms = Samples.create ();
    status_ms = Samples.create ();
    open_ms = Samples.create ();
    reopen_ms = Samples.create ();
    life_s = Samples.create ();
    requests = 0;
    suggests = 0;
    waits = 0;
    errs = 0;
    reports = 0;
    failed = 0;
    busy_s = 0.;
  }

type session = {
  id : int;
  sname : string;
  ds : dataset;
  seed : int;
  sbudget : int;
  queue : (int * Param.Config.t) Queue.t;  (* outstanding suggestions, oldest first *)
  mutable n_reported : int;
  mutable history : (Param.Config.t * float) list;
  mutable best : float option;  (* from the finished reply *)
  mutable life : float;
  mutable since : float;
  mutable entered : bool;  (* opened in the current phase *)
}

let session ctx ds ~id ~seed =
  {
    id;
    sname = Printf.sprintf "s%d" id;
    ds;
    seed;
    sbudget = budget ctx;
    queue = Queue.create ();
    n_reported = 0;
    history = [];
    best = None;
    life = 0.;
    since = 0.;
    entered = false;
  }

let open_line s =
  Printf.sprintf "open %s seed=%d budget=%d k=%d n_init=%d space=%s" s.sname s.seed s.sbudget k
    n_init s.ds.wire

let has_prefix p line =
  String.length line >= String.length p && String.sub line 0 (String.length p) = p

let request cl server s ~span line samples =
  let t0 = now () in
  let reply =
    Spans.span cl.spans ~campaign:s.id ~layer:"serve" span (fun () ->
        Hiperbot.Serve.handle server line)
  in
  let ms = (now () -. t0) *. 1e3 in
  cl.requests <- cl.requests + 1;
  if has_prefix "err" reply then cl.errs <- cl.errs + 1;
  Option.iter (fun samples -> Samples.add samples ms) samples;
  (reply, ms)

let fail cl s reason =
  cl.failed <- cl.failed + 1;
  prerr_endline (Printf.sprintf "serve: session %s: %s" s.sname reason)

(* One closed-loop step: ask for a suggestion; on [wait], evaluate and
   report the oldest outstanding one. Returns true once the session has
   [target] reports, finished, or failed. *)
let step cl server s ~target =
  let reply, ms = request cl server s ~span:"Serve.handle suggest" ("suggest " ^ s.sname) None in
  cl.suggests <- cl.suggests + 1;
  match String.split_on_char ' ' reply with
  | [ "ok"; "suggest"; _; id; cells ] ->
      Samples.add cl.tuner_ms ms;
      let config =
        Array.of_list
          (List.mapi
             (fun i cell -> Dataset.Runlog.value_of_string s.ds.specs.(i) cell)
             (String.split_on_char ',' cells))
      in
      Queue.push (int_of_string id, config) s.queue;
      false
  | "ok" :: "wait" :: _ when not (Queue.is_empty s.queue) ->
      cl.waits <- cl.waits + 1;
      let id, config = Queue.pop s.queue in
      let t0 = now () in
      let y = s.ds.lookup config in
      Spans.leaf cl.spans ~campaign:s.id ~layer:"hpcsim" "Hpcsim.eval" t0 (now ());
      let reply, _ =
        request cl server s ~span:"Serve.handle report"
          (Printf.sprintf "report %s %d ok:%.17g" s.sname id y)
          (Some cl.report_ms)
      in
      if not (has_prefix "ok reported" reply) then begin
        fail cl s reply;
        true
      end
      else begin
        s.n_reported <- s.n_reported + 1;
        cl.reports <- cl.reports + 1;
        s.history <- (config, y) :: s.history;
        if s.n_reported mod status_every = 0 then begin
          let reply, _ =
            request cl server s ~span:"Serve.handle status" ("status " ^ s.sname)
              (Some cl.status_ms)
          in
          if not (has_prefix "ok status" reply) then fail cl s reply
        end;
        s.n_reported >= target
      end
  | [ "ok"; "finished"; _; _; best ] when has_prefix "best=" best ->
      s.best <- float_of_string_opt (String.sub best 5 (String.length best - 5));
      true
  | _ ->
      fail cl s reply;
      true

let end_life s = s.life <- s.life +. (now () -. s.since)

let open_session cl server s ~samples ~expect =
  s.since <- now ();
  let reply, _ = request cl server s ~span:"Serve.handle open" (open_line s) (Some samples) in
  let ok = has_prefix ("ok open " ^ s.sname ^ " evaluated=" ^ string_of_int expect ^ " ") reply in
  if not ok then fail cl s reply;
  ok

(* The sessions of a phase waiting for their next request, shared by
   the clients: a client takes one, gives it one step and hands it back
   unless it is done. A client slowed by its core thus leaves more of
   the phase to the other instead of holding the phase back with a
   fixed half of the sessions; each session still sees one request at a
   time, in the same order. *)
type board = { lock : Mutex.t; waiting : session Queue.t }

let board sessions =
  let waiting = Queue.create () in
  List.iter
    (fun s ->
      s.entered <- false;
      Queue.push s waiting)
    sessions;
  { lock = Mutex.create (); waiting }

(* Drive the sessions of [b] until each has [target] reports or is
   finished: [enter] opens a session on its first turn and says whether
   it may go on; [leave] sees each session that got there. Each turn is
   a span of the client layer, whose self time is the client's own
   parsing and bookkeeping around the requests. *)
let drive cl server b ~enter ~leave ~target =
  let rec loop () =
    match Mutex.protect b.lock (fun () -> Queue.take_opt b.waiting) with
    | None -> ()
    | Some s ->
        let go_on =
          Spans.span cl.spans ~campaign:s.id ~layer:"client" "client.turn" (fun () ->
              if not s.entered then begin
                s.entered <- true;
                enter s
              end
              else if step cl server s ~target then begin
                end_life s;
                leave s;
                false
              end
              else true)
        in
        if go_on then Mutex.protect b.lock (fun () -> Queue.push s b.waiting);
        loop ()
  in
  loop ()

(* Run [work] on both clients at once: client 0 on this domain, client
   1 on the worker domain. *)
let both workers clients work =
  let timed cl () =
    let t0 = now () in
    work cl;
    cl.busy_s <- cl.busy_s +. (now () -. t0)
  in
  match clients with
  | [ c0; c1 ] ->
      let other = Parallel.Pool.async workers (timed c1) in
      timed c0 ();
      Parallel.Pool.await other
  | _ -> invalid_arg "serve: two clients expected"

(* One wave: open, drive to half budget, drop the server, reopen every
   session on a fresh server from its log, finish, close. *)
let wave ctx env ~workers clients ~next_id ~next_seed =
  let half = budget ctx / 2 in
  let sessions =
    List.init (sessions_per_wave ctx) (fun j ->
        session ctx env.datasets.(j mod 2) ~id:(next_id + j) ~seed:(next_seed ()))
  in
  let t0 = now () in
  let first = board sessions in
  both workers clients (fun cl ->
      drive cl env.server first ~target:half
        ~enter:(fun s -> open_session cl env.server s ~samples:cl.open_ms ~expect:0)
        ~leave:ignore);
  Hiperbot.Serve.close_all env.server;
  let server = Hiperbot.Serve.create ~dir:env.dir () in
  env.server <- server;
  let second = board sessions in
  both workers clients (fun cl ->
      drive cl server second ~target:max_int
        ~enter:(fun s ->
          Queue.clear s.queue;
          open_session cl server s ~samples:cl.reopen_ms ~expect:half)
        ~leave:(fun s ->
          Samples.add cl.life_s s.life;
          let reply, _ =
            request cl server s ~span:"Serve.handle close" ("close " ^ s.sname) None
          in
          if not (has_prefix "ok closed" reply) then fail cl s reply));
  (sessions, now () -. t0)

(* Drive one session alone on a fresh in-memory server, uninterrupted. *)
let solo ?(spans = Spans.disabled) ctx ds ~seed =
  let cl = client spans in
  let server = Hiperbot.Serve.create () in
  let s = session ctx ds ~id:0 ~seed in
  drive cl server (board [ s ]) ~target:max_int ~leave:ignore
    ~enter:(fun s -> open_session cl server s ~samples:cl.open_ms ~expect:0);
  (s, cl.failed = 0)

let run ctx =
  let env, setup = timed_setup ctx (setup ctx) in
  let next_seed = seed_stream ctx in
  let clients = List.init n_clients (fun d -> client (Spans.create ~on:ctx.traced ~domain:d)) in
  let timed_s = ref 0. in
  let sampled = ref [] in
  let next_id = ref 0 in
  let log_bytes = ref 0 and log_records = ref 0 in
  Parallel.Pool.with_pool ~num_domains:(n_clients - 1) (fun workers ->
      load ctx ~setup ~per_second:0.75 (fun _ ->
          let sessions, wall = wave ctx env ~workers clients ~next_id:!next_id ~next_seed in
          next_id := !next_id + List.length sessions;
          timed_s := !timed_s +. wall;
          List.iter
            (fun s ->
              if s.id mod 64 = 0 then sampled := s :: !sampled;
              let path = Filename.concat env.dir (s.sname ^ ".runlog") in
              if Sys.file_exists path then begin
                log_bytes := !log_bytes + (Unix.stat path).Unix.st_size;
                log_records := !log_records + s.sbudget;
                Sys.remove path
              end)
            sessions));
  (* Recovered sessions must finish with the uninterrupted session's
     best. *)
  let recovered_ok = ref true in
  List.iter
    (fun s ->
      let alone, ok = solo ctx s.ds ~seed:s.seed in
      if (not ok) || s.best = None || s.best <> alone.best then recovered_ok := false)
    !sampled;
  (* The reference set: seeds 1..4 on both spaces, each session alone. *)
  let reference spans =
    List.concat_map
      (fun seed -> List.map (fun ds -> solo ~spans ctx ds ~seed) (Array.to_list env.datasets))
      (List.init (if ctx.smoke then 1 else 4) (fun i -> i + 1))
  in
  let runs, traced_matches, overhead_pct =
    reference_pass ctx reference ~same:(fun (a, _) (b, _) ->
        a.best = b.best && same_history (Array.of_list a.history) (Array.of_list b.history))
  in
  let quality = Quality.create () in
  let quality_ok = ref true in
  List.iter
    (fun (s, ok) ->
      if not ok then quality_ok := false;
      Quality.add quality ~good:s.ds.good ~exhaustive_best:s.ds.exhaustive_best
        (Array.of_list s.history))
    runs;
  let sum f = List.fold_left (fun acc cl -> acc + f cl) 0 clients in
  let merged f =
    let all = Samples.create () in
    List.iter (fun cl -> Samples.append_into ~dst:all (f cl)) clients;
    all
  in
  let failed =
    sum (fun cl -> cl.failed)
    + (if !recovered_ok then 0 else 1)
    + if !quality_ok then 0 else 1
  in
  let layers = Layers.create () in
  layers.Layers.overhead_pct <- overhead_pct;
  layers.Layers.participants <- n_clients;
  layers.Layers.requests <- sum (fun cl -> cl.requests);
  layers.Layers.suggest_requests <- sum (fun cl -> cl.suggests);
  layers.Layers.suggests <- Samples.count (merged (fun cl -> cl.tuner_ms));
  layers.Layers.wait_replies <- sum (fun cl -> cl.waits);
  layers.Layers.errs <- sum (fun cl -> cl.errs);
  layers.Layers.pools <- Hiperbot.Serve.n_pools env.server;
  layers.Layers.records <- !log_records;
  layers.Layers.record_bytes <- !log_bytes;
  List.iter
    (fun (dst, f) -> Samples.append_into ~dst (merged f))
    [
      (layers.Layers.report_ms, fun cl -> cl.report_ms);
      (layers.Layers.status_ms, fun cl -> cl.status_ms);
      (layers.Layers.open_ms, fun cl -> cl.open_ms);
      (layers.Layers.reopen_ms, fun cl -> cl.reopen_ms);
    ];
  let spans = List.map (fun cl -> cl.spans) clients in
  {
    attempted = sum (fun cl -> cl.requests) + List.length !sampled;
    failed;
    checks =
      ("recovered_matches_uninterrupted", !recovered_ok)
      :: (if ctx.traced then [ ("traced_matches_untraced", traced_matches) ] else []);
    e2e =
      e2e ~setup_s:(setup_s setup)
        ~units:(sum (fun cl -> cl.reports))
        ~timed_s:!timed_s
        ~campaign_s:(merged (fun cl -> cl.life_s))
        ~tuner_ms:(merged (fun cl -> cl.tuner_ms))
        ~quality;
    layers =
      (if ctx.traced then
         Layers.metrics layers ~spans
           ~timed_s:(List.fold_left (fun a cl -> a +. cl.busy_s) 0. clients)
       else []);
    trace = (if ctx.traced then spans else []);
  }
