(* Tests for the campaign telemetry layer: JSONL event round-trips,
   truncation-tolerant trace loading, the aggregated summary, and —
   most importantly — the guarantee that tracing never changes a
   campaign: trace-on and trace-off runs are bit-identical, including
   across an interrupt-then-resume. *)

let check = Alcotest.check

let contains_substring haystack needle =
  let n = String.length needle and h = String.length haystack in
  let rec go i = i + n <= h && (String.sub haystack i n = needle || go (i + 1)) in
  go 0

let temp_path suffix =
  let path = Filename.temp_file "hiperbot_trace" suffix in
  at_exit (fun () -> try Sys.remove path with Sys_error _ -> ());
  path

(* One representative of every event variant (finite floats only:
   non-finite fields serialize as null by design). *)
let all_events : Telemetry.Event.t list =
  [
    Campaign_start { budget = 30; n_init = 10; batch_size = 2; n_warm = 1; n_replay = 0 };
    Init_draw { index = 3; redraws = 2; duplicate = false };
    Init_draw { index = 4; redraws = 50; duplicate = true };
    Refit
      {
        n_obs = 12;
        n_good = 3;
        n_bad = 9;
        n_extra_bad = 1;
        alpha = 0.2;
        threshold = 14.5;
        n_priors = 2;
        prior_weight = 7.5;
        dur_ms = 0.75;
      };
    Trust
      { refit = 3; source = 0; agreement = 0.55; trust = 0.625; weight = 1.25; state = "active" };
    Trust
      { refit = 4; source = 1; agreement = 0.; trust = 0.25; weight = 0.; state = "dropped" };
    Gate { refit = 4; source = 1; action = "drop"; trust = 0.25 };
    Gate { refit = 4; source = -1; action = "fallback"; trust = 0. };
    Promote { bracket = 0; rung = 1; kept = 4; total = 12; best = 3.0625 };
    Demote { bracket = 2; rung = 0; dropped = 8; total = 12 };
    Compile { pool_size = 1620; n_params = 6; dur_ms = 0.125 };
    Rank
      {
        pool_size = 1620;
        k = 2;
        selected = 2;
        workers = 1;
        excluded = 37;
        visited = 1583;
        dur_ms = 1.5;
      };
    Submit { index = 0; in_flight = 1; sim_time = 0. };
    Submit { index = 5; in_flight = 4; sim_time = 12.25 };
    Complete { index = 3; in_flight = 3; sim_time = 14.5; kind = "ok" };
    Complete { index = 4; in_flight = 0; sim_time = 20.; kind = "transient" };
    Attempt { attempt = 2; kind = "transient"; backoff = 0.1 };
    Eval
      {
        index = 7;
        kind = "ok";
        value = Some 42.5;
        attempts = 2;
        retry_cost = 0.1;
        replayed = false;
        dur_ms = 3.25;
      };
    Eval
      {
        index = 8;
        kind = "permanent";
        value = None;
        attempts = 1;
        retry_cost = 0.;
        replayed = true;
        dur_ms = 0.5;
      };
    Campaign_end { evaluations = 30; failures = 4; best = Some 13.25; stopped_early = false; dur_ms = 99. };
    Campaign_end { evaluations = 2; failures = 2; best = None; stopped_early = true; dur_ms = 1. };
  ]

let test_event_roundtrip () =
  List.iter
    (fun ev ->
      let line = Telemetry.Tracefile.event_line ~ts:12.5 ev in
      let fields = Telemetry.Jsonl.decode line in
      let ev' = Telemetry.Event.of_fields fields in
      check Alcotest.bool (Telemetry.Event.name ev ^ " round-trips") true (ev = ev');
      match List.assoc "ts" fields with
      | Telemetry.Jsonl.Number ts -> check (Alcotest.float 1e-12) "ts preserved" 12.5 ts
      | _ -> Alcotest.fail "ts missing or mistyped")
    all_events

let test_tracefile_roundtrip () =
  let path = temp_path ".jsonl" in
  let sink = Telemetry.Trace.jsonl_sink path in
  List.iteri (fun i ev -> sink.Telemetry.Trace.emit ~ts:(float_of_int i) ev) all_events;
  sink.Telemetry.Trace.close ();
  let tf = Telemetry.Tracefile.load path in
  check Alcotest.int "schema version" Telemetry.Tracefile.version tf.Telemetry.Tracefile.version;
  check Alcotest.bool "nothing dropped" false tf.Telemetry.Tracefile.dropped;
  check Alcotest.int "event count" (List.length all_events)
    (Array.length tf.Telemetry.Tracefile.events);
  Array.iteri
    (fun i (ts, ev) ->
      check (Alcotest.float 1e-12) "timestamp" (float_of_int i) ts;
      check Alcotest.bool "event equal" true (ev = List.nth all_events i))
    tf.Telemetry.Tracefile.events

let test_truncated_trace_recovery () =
  let lines =
    Telemetry.Jsonl.encode
      [ ("schema", Telemetry.Jsonl.String "hiperbot-trace"); ("version", Telemetry.Jsonl.Number 1.) ]
    :: List.mapi (fun i ev -> Telemetry.Tracefile.event_line ~ts:(float_of_int i) ev) all_events
  in
  let whole = String.concat "\n" lines ^ "\n" in
  (* Chop the file mid-way through its final line — what a killed
     process leaves behind. *)
  let truncated = String.sub whole 0 (String.length whole - 12) in
  let tf = Telemetry.Tracefile.of_string ~recover:true truncated in
  check Alcotest.bool "recovery flagged" true tf.Telemetry.Tracefile.dropped;
  check Alcotest.int "exactly the final line dropped"
    (List.length all_events - 1)
    (Array.length tf.Telemetry.Tracefile.events);
  (* Without recover, a truncated tail is an error... *)
  (match Telemetry.Tracefile.of_string truncated with
  | _ -> Alcotest.fail "truncated trace should not load without ~recover"
  | exception Failure _ -> ());
  (* ...and corruption before the final line is an error regardless. *)
  let corrupt_mid =
    String.concat "\n"
      (List.mapi (fun i l -> if i = 2 then "{ garbage" else l) lines)
    ^ "\n"
  in
  (match Telemetry.Tracefile.of_string ~recover:true corrupt_mid with
  | _ -> Alcotest.fail "mid-file corruption should never be recovered"
  | exception Failure _ -> ());
  (* A file with an alien header is rejected outright. *)
  match Telemetry.Tracefile.of_string ~recover:true "{\"schema\":\"other\",\"version\":1}\n" with
  | _ -> Alcotest.fail "alien schema should be rejected"
  | exception Failure _ -> ()

let test_disabled_trace_is_inert () =
  let t = Telemetry.Trace.disabled in
  check Alcotest.bool "disabled" false (Telemetry.Trace.enabled t);
  check (Alcotest.float 0.) "now is 0 without a clock read" 0. (Telemetry.Trace.now t);
  (* make [] collapses to disabled. *)
  check Alcotest.bool "empty sink list is disabled" false
    (Telemetry.Trace.enabled (Telemetry.Trace.make []))

let test_memory_sink_and_clock () =
  let ticks = ref 0. in
  let clock () =
    ticks := !ticks +. 1.;
    !ticks
  in
  let sink, collected = Telemetry.Trace.memory_sink () in
  let t = Telemetry.Trace.make ~clock [ sink ] in
  Telemetry.Trace.emit t (Telemetry.Event.Init_draw { index = 0; redraws = 0; duplicate = false });
  Telemetry.Trace.emit t (Telemetry.Event.Init_draw { index = 1; redraws = 1; duplicate = false });
  match collected () with
  | [ (ts1, _); (ts2, _) ] ->
      check (Alcotest.float 1e-12) "injected clock drives timestamps" 1. ts1;
      check (Alcotest.float 1e-12) "monotone" 2. ts2
  | l -> Alcotest.fail (Printf.sprintf "expected 2 events, got %d" (List.length l))

(* ---- tracing never changes the campaign ---- *)

let space2 = Gen.cat_ord_space
let objective2 = Gen.cat_ord_objective

let run_once telemetry seed =
  Gen.ok
    (Hiperbot.Tuner.run_with_policy ?telemetry
       ~options:{ Hiperbot.Tuner.default_options with n_init = 5 } ~rng:(Prng.Rng.create seed)
       ~space:space2 ~objective:(Gen.total objective2) ~budget:10 ())

let test_trace_on_equals_trace_off () =
  let untraced = run_once None 7 in
  let sink, collected = Telemetry.Trace.memory_sink () in
  let traced = run_once (Some (Telemetry.Trace.make [ sink ])) 7 in
  check Alcotest.bool "histories identical" true
    (untraced.Hiperbot.Tuner.history = traced.Hiperbot.Tuner.history);
  check Alcotest.bool "trajectories identical" true
    (untraced.Hiperbot.Tuner.trajectory = traced.Hiperbot.Tuner.trajectory);
  check Alcotest.bool "best identical" true
    (Param.Config.equal untraced.Hiperbot.Tuner.best_config traced.Hiperbot.Tuner.best_config
    && Float.equal untraced.Hiperbot.Tuner.best_value traced.Hiperbot.Tuner.best_value);
  check Alcotest.bool "trace not empty" true (List.length (collected ()) > 0)

(* ---- full campaign trace structure (kripke, faults, JSONL) ---- *)

let policy3 = Gen.policy3

let count pred events =
  Array.fold_left (fun acc (_, ev) -> if pred ev then acc + 1 else acc) 0 events

let test_kripke_campaign_trace () =
  let t = (Hpcsim.Registry.find "kripke").Hpcsim.Registry.table () in
  let space = Dataset.Table.space t in
  let spec = Hpcsim.Faults.standard ~seed:77 ~rate:0.2 in
  let objective = Hpcsim.Faults.inject spec (Dataset.Table.objective_fn t) in
  let budget = 30 in
  let path = temp_path ".jsonl" in
  let telemetry = Telemetry.Trace.make [ Telemetry.Trace.jsonl_sink path ] in
  let result =
    match
      Hiperbot.Tuner.run_with_policy ~telemetry
        ~options:{ Hiperbot.Tuner.default_options with n_init = 10 }
        ~policy:policy3 ~rng:(Prng.Rng.create 3) ~space ~objective ~budget ()
    with
    | Stdlib.Ok r -> r
    | Stdlib.Error _ -> Alcotest.fail "campaign failed outright"
  in
  Telemetry.Trace.close telemetry;
  let tf = Telemetry.Tracefile.load path in
  let events = tf.Telemetry.Tracefile.events in
  check Alcotest.bool "nothing dropped" false tf.Telemetry.Tracefile.dropped;
  (* Bracketing events. *)
  (match events.(0) with
  | _, Telemetry.Event.Campaign_start { budget = b; _ } ->
      check Alcotest.int "start records the budget" budget b
  | _ -> Alcotest.fail "first event must be campaign_start");
  (match events.(Array.length events - 1) with
  | _, Telemetry.Event.Campaign_end { evaluations; failures; best; _ } ->
      check Alcotest.int "end counts every budget unit" budget evaluations;
      check Alcotest.int "end counts the failures"
        (Array.length result.Hiperbot.Tuner.failures)
        failures;
      check (Alcotest.option (Alcotest.float 1e-12)) "end records the best"
        (Some result.Hiperbot.Tuner.best_value)
        best
  | _ -> Alcotest.fail "last event must be campaign_end");
  (* Every refit produced exactly one compiled table and one ranking
     scan, and at least one refit happened. *)
  let refits = count (function Telemetry.Event.Refit _ -> true | _ -> false) events in
  let compiles = count (function Telemetry.Event.Compile _ -> true | _ -> false) events in
  let ranks = count (function Telemetry.Event.Rank _ -> true | _ -> false) events in
  check Alcotest.bool "at least one refit" true (refits >= 1);
  check Alcotest.int "one compile per refit" refits compiles;
  check Alcotest.int "one rank per refit" refits ranks;
  (* Ranking is one sequential scan: every Rank span reports a single
     participant. *)
  check Alcotest.int "every rank scan runs on one worker" ranks
    (count (function Telemetry.Event.Rank { workers = 1; _ } -> true | _ -> false) events);
  (* One eval per consumed budget unit; attempts line up with the
     tuner's own accounting. *)
  let evals = count (function Telemetry.Event.Eval _ -> true | _ -> false) events in
  check Alcotest.int "one eval event per budget unit" budget evals;
  check Alcotest.int "eval events cover history + failures"
    (Array.length result.Hiperbot.Tuner.history + Array.length result.Hiperbot.Tuner.failures)
    evals;
  let attempts = count (function Telemetry.Event.Attempt _ -> true | _ -> false) events in
  check Alcotest.int "one attempt event per objective attempt"
    result.Hiperbot.Tuner.n_attempts attempts;
  (* Refit spans carry the split sizes and alpha the surrogate used. *)
  Array.iter
    (fun (_, ev) ->
      match ev with
      | Telemetry.Event.Refit { n_obs; n_good; n_bad; alpha; _ } ->
          check (Alcotest.float 1e-12) "alpha recorded" 0.2 alpha;
          check Alcotest.int "good + bad covers the observations" n_obs (n_good + n_bad);
          check Alcotest.bool "good side non-empty" true (n_good >= 1)
      | _ -> ())
    events;
  (* The summary aggregates the same counts. *)
  let s = Telemetry.Summary.of_trace tf in
  check Alcotest.int "summary refits" refits (Telemetry.Summary.refits s);
  check Alcotest.int "summary ranks" ranks (Telemetry.Summary.ranks s);
  check Alcotest.int "summary evals" budget (Telemetry.Summary.evals s);
  check Alcotest.int "summary failures"
    (Array.length result.Hiperbot.Tuner.failures)
    (Telemetry.Summary.failures s);
  let rendered = Telemetry.Summary.render s in
  check Alcotest.bool "summary renders refits" true
    (String.length rendered > 0
    && contains_substring rendered "refit"
    && contains_substring rendered "rank")

(* ---- resume with tracing is still bit-identical ---- *)

let status_of_outcome = Gen.status_of_outcome

let test_resume_with_trace_parity () =
  let t = (Hpcsim.Registry.find "kripke").Hpcsim.Registry.table () in
  let space = Dataset.Table.space t in
  let spec = Hpcsim.Faults.standard ~seed:41 ~rate:0.15 in
  let objective = Hpcsim.Faults.inject spec (Dataset.Table.objective_fn t) in
  let options = { Hiperbot.Tuner.default_options with n_init = 8 } in
  let budget = 20 and interrupt_after = 8 in
  let recorded = ref [] in
  let full =
    match
      Hiperbot.Tuner.run_with_policy ~options ~policy:policy3
        ~on_outcome:(fun i c v -> recorded := (i, c, v) :: !recorded)
        ~rng:(Prng.Rng.create 5) ~space ~objective ~budget ()
    with
    | Stdlib.Ok r -> r
    | Stdlib.Error _ -> Alcotest.fail "uninterrupted campaign failed outright"
  in
  let entries =
    List.rev !recorded
    |> List.filteri (fun i _ -> i < interrupt_after)
    |> List.map (fun (i, c, (v : Resilience.Evaluator.verdict)) ->
           {
             Dataset.Runlog.index = i;
             config = c;
             status = status_of_outcome v.Resilience.Evaluator.outcome;
             attempts = v.Resilience.Evaluator.attempts;
           })
  in
  let log = Dataset.Runlog.create ~name:"kripke" ~seed:5 ~space entries in
  let sink, collected = Telemetry.Trace.memory_sink () in
  let telemetry = Telemetry.Trace.make [ sink ] in
  let resumed =
    match Hiperbot.Tuner.resume ~telemetry ~options ~policy:policy3 ~log ~objective ~budget () with
    | Stdlib.Ok r -> r
    | Stdlib.Error _ -> Alcotest.fail "resumed campaign failed outright"
  in
  check Alcotest.bool "traced resume reproduces the uninterrupted run" true
    (full.Hiperbot.Tuner.history = resumed.Hiperbot.Tuner.history
    && full.Hiperbot.Tuner.trajectory = resumed.Hiperbot.Tuner.trajectory
    && Float.equal full.Hiperbot.Tuner.best_value resumed.Hiperbot.Tuner.best_value);
  (* The trace marks exactly the replayed prefix. *)
  let replayed, live =
    List.fold_left
      (fun (r, l) (_, ev) ->
        match ev with
        | Telemetry.Event.Eval { replayed = true; _ } -> (r + 1, l)
        | Telemetry.Event.Eval { replayed = false; _ } -> (r, l + 1)
        | _ -> (r, l))
      (0, 0) (collected ())
  in
  check Alcotest.int "replayed prefix traced" interrupt_after replayed;
  check Alcotest.int "live suffix traced" (budget - interrupt_after) live

(* ---- gate telemetry: tolerant decoding and summary rendering ---- *)

let test_trust_decodes_with_defaults () =
  (* A trace written by an older (or trimmed) producer may carry only
     the key fields; the rest default instead of failing the load. *)
  let fields =
    [
      ("ev", Telemetry.Jsonl.String "trust");
      ("refit", Telemetry.Jsonl.Number 2.);
      ("source", Telemetry.Jsonl.Number 1.);
    ]
  in
  (match Telemetry.Event.of_fields fields with
  | Telemetry.Event.Trust { refit; source; agreement; trust; weight; state } ->
      check Alcotest.int "refit kept" 2 refit;
      check Alcotest.int "source kept" 1 source;
      check (Alcotest.float 0.) "agreement defaults" 0. agreement;
      check Alcotest.bool "trust/weight default finite" true
        (Float.is_finite trust && Float.is_finite weight);
      check Alcotest.bool "state defaults non-empty" true (String.length state > 0)
  | _ -> Alcotest.fail "minimal trust event must decode as Trust");
  match
    Telemetry.Event.of_fields
      [
        ("ev", Telemetry.Jsonl.String "gate");
        ("refit", Telemetry.Jsonl.Number 3.);
        ("source", Telemetry.Jsonl.Number (-1.));
        ("action", Telemetry.Jsonl.String "fallback");
      ]
  with
  | Telemetry.Event.Gate { refit = 3; source = -1; action = "fallback"; trust = 0. } -> ()
  | _ -> Alcotest.fail "minimal gate event must decode as Gate"

(* Rank events written before the exclusion counters existed carry
   neither field; both decode as 0. Older traces also carry the
   parallel scan's "schedule" label and worker count: the label is
   ignored and the count is kept as recorded. *)
let test_rank_decodes_with_defaults () =
  (match
     Telemetry.Event.of_fields
       [
         ("ev", Telemetry.Jsonl.String "rank");
         ("pool_size", Telemetry.Jsonl.Number 1620.);
         ("k", Telemetry.Jsonl.Number 1.);
         ("selected", Telemetry.Jsonl.Number 1.);
         ("workers", Telemetry.Jsonl.Number 1.);
         ("schedule", Telemetry.Jsonl.String "seq");
         ("dur_ms", Telemetry.Jsonl.Number 0.25);
       ]
   with
  | Telemetry.Event.Rank { pool_size = 1620; excluded = 0; visited = 0; _ } -> ()
  | _ -> Alcotest.fail "a rank event without exclusion counters must decode with zeros");
  match
    Telemetry.Event.of_fields
      (Telemetry.Jsonl.decode
         {|{"ts":0.5,"ev":"rank","pool_size":65536,"k":2,"selected":2,"workers":4,"schedule":"dynamic:64","excluded":9,"visited":60000,"dur_ms":1.25}|})
  with
  | Telemetry.Event.Rank
      { pool_size = 65536; k = 2; selected = 2; workers = 4; excluded = 9; visited = 60000; _ } ->
      ()
  | _ -> Alcotest.fail "a parallel-era rank line must still decode"

let test_summary_gate_lines () =
  let s = Telemetry.Summary.create () in
  let feed ts ev = Telemetry.Summary.observe s ~ts ev in
  feed 0. (Telemetry.Event.Trust
             { refit = 0; source = 0; agreement = 0.9; trust = 0.95; weight = 2.0; state = "active" });
  feed 1. (Telemetry.Event.Trust
             { refit = 0; source = 1; agreement = 0.1; trust = 0.55; weight = 0.7; state = "attenuated" });
  feed 2. (Telemetry.Event.Gate { refit = 0; source = 1; action = "attenuate"; trust = 0.55 });
  feed 3. (Telemetry.Event.Trust
             { refit = 1; source = 1; agreement = 0.1; trust = 0.3; weight = 0.; state = "dropped" });
  feed 4. (Telemetry.Event.Gate { refit = 1; source = 1; action = "drop"; trust = 0.3 });
  check Alcotest.int "gate decisions counted" 2 (Telemetry.Summary.gate_decisions s);
  check Alcotest.bool "no fallback recorded" true (Telemetry.Summary.fallback_refit s = None);
  (match Telemetry.Summary.trust_sources s with
  | [ (0, t0, w0, st0); (1, t1, _, st1) ] ->
      check (Alcotest.float 1e-12) "source 0 last trust" 0.95 t0;
      check (Alcotest.float 1e-12) "source 0 last weight" 2.0 w0;
      check Alcotest.string "source 0 state" "active" st0;
      check (Alcotest.float 1e-12) "source 1 last trust" 0.3 t1;
      check Alcotest.string "source 1 state" "dropped" st1
  | l -> Alcotest.fail (Printf.sprintf "expected 2 sources, got %d" (List.length l)));
  let rendered = Telemetry.Summary.render s in
  check Alcotest.bool "per-source lines rendered" true
    (contains_substring rendered "source 0" && contains_substring rendered "dropped");
  feed 5. (Telemetry.Event.Gate { refit = 1; source = -1; action = "fallback"; trust = 0. });
  check Alcotest.bool "fallback refit recorded" true
    (Telemetry.Summary.fallback_refit s = Some 1);
  (* An ungated campaign keeps its summary free of gate lines. *)
  let bare = Telemetry.Summary.create () in
  Telemetry.Summary.observe bare ~ts:0.
    (Telemetry.Event.Init_draw { index = 0; redraws = 0; duplicate = false });
  check Alcotest.bool "no transfer block without gate events" false
    (contains_substring (Telemetry.Summary.render bare) "transfer")

let test_summary_fidelity_lines () =
  let s = Telemetry.Summary.create () in
  let feed ts ev = Telemetry.Summary.observe s ~ts ev in
  feed 0. (Telemetry.Event.Promote { bracket = 0; rung = 0; kept = 4; total = 12; best = 2.5 });
  feed 1. (Telemetry.Event.Demote { bracket = 0; rung = 0; dropped = 8; total = 12 });
  feed 2. (Telemetry.Event.Promote { bracket = 1; rung = 0; kept = 2; total = 6; best = 2.25 });
  feed 3. (Telemetry.Event.Demote { bracket = 1; rung = 0; dropped = 4; total = 6 });
  check Alcotest.int "rung closures counted" 2 (Telemetry.Summary.rung_closures s);
  check Alcotest.int "promotions counted" 6 (Telemetry.Summary.promotions s);
  check Alcotest.int "demotions counted" 12 (Telemetry.Summary.demotions s);
  let rendered = Telemetry.Summary.render s in
  check Alcotest.bool "fidelity line rendered" true
    (contains_substring rendered "fidelity"
    && contains_substring rendered "2 rung closures over 2 brackets");
  (* A flat campaign keeps its summary free of fidelity lines. *)
  let bare = Telemetry.Summary.create () in
  Telemetry.Summary.observe bare ~ts:0.
    (Telemetry.Event.Init_draw { index = 0; redraws = 0; duplicate = false });
  check Alcotest.bool "no fidelity block without promote events" false
    (contains_substring (Telemetry.Summary.render bare) "fidelity")

(* Golden test: the `trace' subcommand's summary rendering of a
   checked-in fixture trace must match the checked-in expected text.
   Catches accidental format drift in [Summary.render]. *)
let test_summary_golden () =
  let read path =
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  let fixture name = Filename.concat (Filename.dirname Sys.executable_name) (Filename.concat "fixtures" name) in
  let tf = Telemetry.Tracefile.load (fixture "trace_small.jsonl") in
  check Alcotest.int "fixture parses fully" 25 (Array.length tf.Telemetry.Tracefile.events);
  let actual = Telemetry.Summary.render (Telemetry.Summary.of_trace tf) in
  let expected = read (fixture "trace_summary.expected") in
  if actual <> expected then
    Alcotest.failf "summary rendering drifted from golden file:\n--- expected ---\n%s--- actual ---\n%s---" expected actual

let suite =
  let tc = Alcotest.test_case in
  ( "telemetry",
    [
      tc "event round-trip" `Quick test_event_roundtrip;
      tc "tracefile round-trip" `Quick test_tracefile_roundtrip;
      tc "truncated trace recovery" `Quick test_truncated_trace_recovery;
      tc "disabled trace inert" `Quick test_disabled_trace_is_inert;
      tc "memory sink and clock" `Quick test_memory_sink_and_clock;
      tc "trace on = trace off" `Quick test_trace_on_equals_trace_off;
      tc "kripke campaign trace" `Quick test_kripke_campaign_trace;
      tc "resume with trace parity" `Quick test_resume_with_trace_parity;
      tc "trust/gate decode with defaults" `Quick test_trust_decodes_with_defaults;
      tc "rank decodes with defaults" `Quick test_rank_decodes_with_defaults;
      tc "summary gate lines" `Quick test_summary_gate_lines;
      tc "summary fidelity lines" `Quick test_summary_fidelity_lines;
      tc "summary golden file" `Quick test_summary_golden;
    ] )
