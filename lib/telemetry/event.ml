type t =
  | Campaign_start of { budget : int; n_init : int; batch_size : int; n_warm : int; n_replay : int }
  | Init_draw of { index : int; redraws : int; duplicate : bool }
  | Refit of {
      n_obs : int;
      n_good : int;
      n_bad : int;
      n_extra_bad : int;
      alpha : float;
      threshold : float;
      n_priors : int;
      prior_weight : float;
      dur_ms : float;
    }
  | Compile of { pool_size : int; n_params : int; dur_ms : float }
  | Rank of {
      pool_size : int;
      k : int;
      selected : int;
      workers : int;
      excluded : int;
      visited : int;
      dur_ms : float;
    }
  | Trust of {
      refit : int;
      source : int;
      agreement : float;
      trust : float;
      weight : float;
      state : string;
    }
  | Gate of { refit : int; source : int; action : string; trust : float }
  | Promote of { bracket : int; rung : int; kept : int; total : int; best : float }
  | Demote of { bracket : int; rung : int; dropped : int; total : int }
  | Submit of { index : int; in_flight : int; sim_time : float }
  | Complete of { index : int; in_flight : int; sim_time : float; kind : string }
  | Attempt of { attempt : int; kind : string; backoff : float }
  | Eval of {
      index : int;
      kind : string;
      value : float option;
      attempts : int;
      retry_cost : float;
      replayed : bool;
      dur_ms : float;
    }
  | Campaign_end of {
      evaluations : int;
      failures : int;
      best : float option;
      stopped_early : bool;
      dur_ms : float;
    }

let name = function
  | Campaign_start _ -> "campaign_start"
  | Init_draw _ -> "init_draw"
  | Refit _ -> "refit"
  | Compile _ -> "compile"
  | Rank _ -> "rank"
  | Trust _ -> "trust"
  | Gate _ -> "gate"
  | Promote _ -> "promote"
  | Demote _ -> "demote"
  | Submit _ -> "submit"
  | Complete _ -> "complete"
  | Attempt _ -> "attempt"
  | Eval _ -> "eval"
  | Campaign_end _ -> "campaign_end"

let num f = Jsonl.Number f
let int_ i = Jsonl.Number (float_of_int i)
let opt_num = function Some f -> Jsonl.Number f | None -> Jsonl.Null

let to_fields ev =
  ("ev", Jsonl.String (name ev))
  ::
  (match ev with
  | Campaign_start { budget; n_init; batch_size; n_warm; n_replay } ->
      [
        ("budget", int_ budget);
        ("n_init", int_ n_init);
        ("batch_size", int_ batch_size);
        ("n_warm", int_ n_warm);
        ("n_replay", int_ n_replay);
      ]
  | Init_draw { index; redraws; duplicate } ->
      [ ("index", int_ index); ("redraws", int_ redraws); ("duplicate", Jsonl.Bool duplicate) ]
  | Refit { n_obs; n_good; n_bad; n_extra_bad; alpha; threshold; n_priors; prior_weight; dur_ms }
    ->
      [
        ("n_obs", int_ n_obs);
        ("n_good", int_ n_good);
        ("n_bad", int_ n_bad);
        ("n_extra_bad", int_ n_extra_bad);
        ("alpha", num alpha);
        ("threshold", num threshold);
        ("n_priors", int_ n_priors);
        ("prior_weight", num prior_weight);
        ("dur_ms", num dur_ms);
      ]
  | Compile { pool_size; n_params; dur_ms } ->
      [ ("pool_size", int_ pool_size); ("n_params", int_ n_params); ("dur_ms", num dur_ms) ]
  | Rank { pool_size; k; selected; workers; excluded; visited; dur_ms } ->
      [
        ("pool_size", int_ pool_size);
        ("k", int_ k);
        ("selected", int_ selected);
        ("workers", int_ workers);
        ("excluded", int_ excluded);
        ("visited", int_ visited);
        ("dur_ms", num dur_ms);
      ]
  | Trust { refit; source; agreement; trust; weight; state } ->
      [
        ("refit", int_ refit);
        ("source", int_ source);
        ("agreement", num agreement);
        ("trust", num trust);
        ("weight", num weight);
        ("state", Jsonl.String state);
      ]
  | Gate { refit; source; action; trust } ->
      [
        ("refit", int_ refit);
        ("source", int_ source);
        ("action", Jsonl.String action);
        ("trust", num trust);
      ]
  | Promote { bracket; rung; kept; total; best } ->
      [
        ("bracket", int_ bracket);
        ("rung", int_ rung);
        ("kept", int_ kept);
        ("total", int_ total);
        ("best", num best);
      ]
  | Demote { bracket; rung; dropped; total } ->
      [
        ("bracket", int_ bracket);
        ("rung", int_ rung);
        ("dropped", int_ dropped);
        ("total", int_ total);
      ]
  | Submit { index; in_flight; sim_time } ->
      [ ("index", int_ index); ("in_flight", int_ in_flight); ("sim_time", num sim_time) ]
  | Complete { index; in_flight; sim_time; kind } ->
      [
        ("index", int_ index);
        ("in_flight", int_ in_flight);
        ("sim_time", num sim_time);
        ("kind", Jsonl.String kind);
      ]
  | Attempt { attempt; kind; backoff } ->
      [ ("attempt", int_ attempt); ("kind", Jsonl.String kind); ("backoff", num backoff) ]
  | Eval { index; kind; value; attempts; retry_cost; replayed; dur_ms } ->
      [
        ("index", int_ index);
        ("kind", Jsonl.String kind);
        ("value", opt_num value);
        ("attempts", int_ attempts);
        ("retry_cost", num retry_cost);
        ("replayed", Jsonl.Bool replayed);
        ("dur_ms", num dur_ms);
      ]
  | Campaign_end { evaluations; failures; best; stopped_early; dur_ms } ->
      [
        ("evaluations", int_ evaluations);
        ("failures", int_ failures);
        ("best", opt_num best);
        ("stopped_early", Jsonl.Bool stopped_early);
        ("dur_ms", num dur_ms);
      ])

(* ---- decoding ---- *)

let fail ev key what =
  failwith (Printf.sprintf "Telemetry.Event: %s event: %s field %S" ev what key)

let number ev fields key =
  match List.assoc_opt key fields with
  | Some (Jsonl.Number f) -> f
  | Some _ -> fail ev key "mistyped"
  | None -> fail ev key "missing"

let int_field ev fields key =
  let f = number ev fields key in
  if Float.is_integer f then int_of_float f else fail ev key "non-integer"

let string_field ev fields key =
  match List.assoc_opt key fields with
  | Some (Jsonl.String s) -> s
  | Some _ -> fail ev key "mistyped"
  | None -> fail ev key "missing"

let bool_field ev fields key =
  match List.assoc_opt key fields with
  | Some (Jsonl.Bool b) -> b
  | Some _ -> fail ev key "mistyped"
  | None -> fail ev key "missing"

let opt_number_field ev fields key =
  match List.assoc_opt key fields with
  | Some (Jsonl.Number f) -> Some f
  | Some Jsonl.Null | None -> None
  | Some _ -> fail ev key "mistyped"

let of_fields fields =
  let ev =
    match List.assoc_opt "ev" fields with
    | Some (Jsonl.String s) -> s
    | _ -> failwith "Telemetry.Event: missing \"ev\" discriminator"
  in
  let i = int_field ev fields in
  let f = number ev fields in
  let s = string_field ev fields in
  let b = bool_field ev fields in
  let fo = opt_number_field ev fields in
  match ev with
  | "campaign_start" ->
      Campaign_start
        {
          budget = i "budget";
          n_init = i "n_init";
          batch_size = i "batch_size";
          n_warm = i "n_warm";
          n_replay = i "n_replay";
        }
  | "init_draw" ->
      Init_draw { index = i "index"; redraws = i "redraws"; duplicate = b "duplicate" }
  | "refit" ->
      (* Prior-provenance fields postdate the v1 trace schema; default
         them so pre-transfer traces still decode. *)
      Refit
        {
          n_obs = i "n_obs";
          n_good = i "n_good";
          n_bad = i "n_bad";
          n_extra_bad = i "n_extra_bad";
          alpha = f "alpha";
          threshold = f "threshold";
          n_priors =
            (match fo "n_priors" with Some p -> int_of_float p | None -> 0);
          prior_weight = (match fo "prior_weight" with Some w -> w | None -> 0.);
          dur_ms = f "dur_ms";
        }
  | "compile" ->
      Compile { pool_size = i "pool_size"; n_params = i "n_params"; dur_ms = f "dur_ms" }
  | "rank" ->
      (* The exclusion counters postdate the first trace schema;
         default them so older traces still decode. Older traces also
         carry a "schedule" label, which is ignored. *)
      let count key = match fo key with Some v -> int_of_float v | None -> 0 in
      Rank
        {
          pool_size = i "pool_size";
          k = i "k";
          selected = i "selected";
          workers = i "workers";
          excluded = count "excluded";
          visited = count "visited";
          dur_ms = f "dur_ms";
        }
  | "trust" ->
      (* Like the Refit prior fields, the non-key fields default so a
         trace from a leaner writer still decodes. *)
      Trust
        {
          refit = i "refit";
          source = i "source";
          agreement = (match fo "agreement" with Some a -> a | None -> 0.);
          trust = (match fo "trust" with Some t -> t | None -> 0.);
          weight = (match fo "weight" with Some w -> w | None -> 0.);
          state =
            (match List.assoc_opt "state" fields with
            | Some (Jsonl.String s) -> s
            | _ -> "active");
        }
  | "gate" ->
      Gate
        {
          refit = i "refit";
          source = i "source";
          action = s "action";
          trust = (match fo "trust" with Some t -> t | None -> 0.);
        }
  | "promote" ->
      Promote
        {
          bracket = i "bracket";
          rung = i "rung";
          kept = i "kept";
          total = i "total";
          best = (match fo "best" with Some v -> v | None -> Float.nan);
        }
  | "demote" ->
      Demote { bracket = i "bracket"; rung = i "rung"; dropped = i "dropped"; total = i "total" }
  | "submit" ->
      Submit { index = i "index"; in_flight = i "in_flight"; sim_time = f "sim_time" }
  | "complete" ->
      Complete
        {
          index = i "index";
          in_flight = i "in_flight";
          sim_time = f "sim_time";
          kind = s "kind";
        }
  | "attempt" -> Attempt { attempt = i "attempt"; kind = s "kind"; backoff = f "backoff" }
  | "eval" ->
      Eval
        {
          index = i "index";
          kind = s "kind";
          value = fo "value";
          attempts = i "attempts";
          retry_cost = f "retry_cost";
          replayed = b "replayed";
          dur_ms = f "dur_ms";
        }
  | "campaign_end" ->
      Campaign_end
        {
          evaluations = i "evaluations";
          failures = i "failures";
          best = fo "best";
          stopped_early = b "stopped_early";
          dur_ms = f "dur_ms";
        }
  | other -> failwith (Printf.sprintf "Telemetry.Event: unknown event %S" other)
