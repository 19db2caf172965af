(* The multi-tenant campaign server: a thin, mutex-guarded registry
   of [Session]s plus the line protocol that drives their campaigns.
   All tuning logic lives in the machine and all persistence in
   [Session]; this module only parses requests, routes them to the
   right session under its lock, and renders responses. Nothing here
   may raise across [handle]: every failure — malformed input, unknown
   session, campaign rejection, resume divergence — is rendered as an
   [err] line so one bad client request can never take the server
   loop down. *)

type session = {
  s_lock : Mutex.t;
  s_log : Session.t;
  s_campaign : Campaign.t;
  s_specs : Param.Spec.t array;
  mutable s_undelivered : Campaign.suggestion list;
      (* refilled in-flight suggestions recovered from a crashed
         session's log, waiting to be re-delivered oldest first *)
  mutable s_closed : bool;
}

type t = {
  dir : string option;
  options : Campaign.options;
  lock : Mutex.t;  (* guards [sessions] and [pools]; never held during campaign work *)
  sessions : (string, session) Hashtbl.t;
  pools : (string, Surrogate.Pool.t) Hashtbl.t;
}

let create ?dir ?(options = Campaign.default_options) () =
  (match dir with
  | Some d when not (Sys.file_exists d) -> Sys.mkdir d 0o755
  | Some _ | None -> ());
  {
    dir;
    options;
    lock = Mutex.create ();
    sessions = Hashtbl.create 16;
    pools = Hashtbl.create 4;
  }

let with_lock m f =
  Mutex.lock m;
  Fun.protect ~finally:(fun () -> Mutex.unlock m) f

let n_sessions t = with_lock t.lock (fun () -> Hashtbl.length t.sessions)
let n_pools t = with_lock t.lock (fun () -> Hashtbl.length t.pools)

(* One shared encoded pool per parameter space, keyed by the space's
   canonical wire rendering. Pools are immutable after construction,
   so handing the same one to many campaigns (and many domains) is
   safe; each campaign still builds its own refit engine over it. *)
let space_key space =
  String.concat ";"
    (Array.to_list (Array.map Dataset.Runlog.spec_to_string (Param.Space.specs space)))

let shared_pool_for t space =
  let key = space_key space in
  with_lock t.lock (fun () ->
      match Hashtbl.find_opt t.pools key with
      | Some p -> p
      | None ->
          let p = Surrogate.Pool.of_space space in
          Hashtbl.add t.pools key p;
          p)

(* ---- protocol parsing helpers ---- *)

let valid_session_name name =
  name <> ""
  && name.[0] <> '.'
  && String.for_all
       (fun c ->
         (c >= 'a' && c <= 'z')
         || (c >= 'A' && c <= 'Z')
         || (c >= '0' && c <= '9')
         || c = '_' || c = '-' || c = '.')
       name

let split_words line =
  String.split_on_char ' ' line |> List.filter (fun w -> w <> "")

(* "key=value" tokens, the value allowed to contain further '='s
   (space renderings do: "space=level=cat:O0,O1"). A token that is not
   [key=value] with a key [cmd] reads is an error, so a misspelt
   option is reported instead of silently taking its default. *)
let parse_args ~cmd ~keys tokens =
  List.map
    (fun token ->
      match String.index_opt token '=' with
      | Some i when List.mem (String.sub token 0 i) keys ->
          (String.sub token 0 i, String.sub token (i + 1) (String.length token - i - 1))
      | Some _ | None -> failwith (Printf.sprintf "Serve: %s: unknown option %S" cmd token))
    tokens

let int_arg ~cmd key args =
  match List.assoc_opt key args with
  | None -> None
  | Some v -> (
      match int_of_string_opt v with
      | Some n -> Some n
      | None -> failwith (Printf.sprintf "Serve: %s: %s must be an integer, got %S" cmd key v))

let require_int_arg ~cmd key args =
  match int_arg ~cmd key args with
  | Some n -> n
  | None -> failwith (Printf.sprintf "Serve: %s requires %s=<int>" cmd key)

let space_of_wire s =
  let specs = String.split_on_char ';' s |> List.map Dataset.Runlog.spec_of_string in
  Param.Space.make specs

let config_to_wire specs config =
  String.concat ","
    (Array.to_list (Array.mapi (fun i v -> Param.Spec.value_to_string specs.(i) v) config))

let float_to_wire = Printf.sprintf "%.17g"

let best_to_wire = function None -> "none" | Some (_, v) -> float_to_wire v

(* ---- sessions ---- *)

let session_options base args =
  let n_init = int_arg ~cmd:"open" "n_init" args in
  let early_stop = int_arg ~cmd:"open" "early_stop" args in
  {
    base with
    Campaign.n_init = Option.value n_init ~default:base.Campaign.n_init;
    early_stop = (match early_stop with Some e -> Some e | None -> base.Campaign.early_stop);
  }

let find_session t name =
  match with_lock t.lock (fun () -> Hashtbl.find_opt t.sessions name) with
  | Some s -> s
  | None -> failwith (Printf.sprintf "Serve: unknown session %S" name)

let open_session t name args =
  if not (valid_session_name name) then
    failwith
      (Printf.sprintf "Serve: invalid session name %S (use letters, digits, '_', '-', '.')"
         name);
  (match with_lock t.lock (fun () -> Hashtbl.find_opt t.sessions name) with
  | Some _ -> failwith (Printf.sprintf "Serve: session %S is already open" name)
  | None -> ());
  let seed = require_int_arg ~cmd:"open" "seed" args in
  let budget = require_int_arg ~cmd:"open" "budget" args in
  let k = Option.value (int_arg ~cmd:"open" "k" args) ~default:1 in
  let space =
    match List.assoc_opt "space" args with
    | Some s -> space_of_wire s
    | None -> failwith "Serve: open requires space=<spec;spec;...>"
  in
  let options = session_options t.options args in
  let shared_pool = shared_pool_for t space in
  let path = Option.map (fun d -> Filename.concat d (name ^ ".runlog")) t.dir in
  let log =
    try Session.open_log ~strict_seed:true ?path ~name ~seed ~space () with
    | Session.Seed_mismatch recorded ->
        failwith
          (Printf.sprintf "Serve: session %S resumes with seed %d, not %d" name recorded seed)
    | Session.Space_mismatch ->
        failwith
          (Printf.sprintf "Serve: session %S's recorded space does not match the request" name)
  in
  let campaign = Session.start ~options ~shared_pool ~k ~budget log in
  let session =
    {
      s_lock = Mutex.create ();
      s_log = log;
      s_campaign = campaign;
      s_specs = Param.Space.specs space;
      s_undelivered = Campaign.pending campaign;
      s_closed = false;
    }
  in
  with_lock t.lock (fun () ->
      if Hashtbl.mem t.sessions name then
        failwith (Printf.sprintf "Serve: session %S is already open" name)
      else Hashtbl.add t.sessions name session);
  Printf.sprintf "ok open %s evaluated=%d pending=%d" name
    (Campaign.n_evaluated campaign)
    (Campaign.n_pending campaign)

let with_session t name f =
  let s = find_session t name in
  with_lock s.s_lock (fun () ->
      if s.s_closed then failwith (Printf.sprintf "Serve: session %S is closed" name);
      f s)

let suggest_session t name =
  with_session t name (fun s ->
      match s.s_undelivered with
      | sug :: rest ->
          s.s_undelivered <- rest;
          Printf.sprintf "ok suggest %s %d %s" name sug.Campaign.id
            (config_to_wire s.s_specs sug.Campaign.config)
      | [] -> (
          match Campaign.suggest s.s_campaign with
          | Campaign.Suggest sug ->
              Printf.sprintf "ok suggest %s %d %s" name sug.Campaign.id
                (config_to_wire s.s_specs sug.Campaign.config)
          | Campaign.Wait -> Printf.sprintf "ok wait %s" name
          | Campaign.Finished ->
              Printf.sprintf "ok finished %s evaluated=%d best=%s" name
                (Campaign.n_evaluated s.s_campaign)
                (best_to_wire (Campaign.best s.s_campaign))))

let verdict_of_wire ~attempts word =
  let outcome =
    match String.index_opt word ':' with
    | Some i when String.sub word 0 i = "ok" -> (
        let v = String.sub word (i + 1) (String.length word - i - 1) in
        match float_of_string_opt v with
        | Some y when Float.is_finite y -> Resilience.Outcome.Value y
        | Some _ | None ->
            failwith (Printf.sprintf "Serve: report: malformed objective value %S" v))
    | Some i when String.sub word 0 i = "fail" -> (
        match String.sub word (i + 1) (String.length word - i - 1) with
        | "transient" -> Resilience.Outcome.Transient "reported failure"
        | "permanent" -> Resilience.Outcome.Permanent "reported failure"
        | "timeout" -> Resilience.Outcome.Timeout
        | "infeasible" -> Resilience.Outcome.Infeasible "reported failure"
        | "crash" -> Resilience.Outcome.Permanent "reported failure"
        | k -> failwith (Printf.sprintf "Serve: report: unknown failure kind %S" k))
    | _ ->
        failwith
          (Printf.sprintf
             "Serve: report: expected ok:<value> or fail:<kind>, got %S" word)
  in
  {
    Resilience.Evaluator.outcome;
    attempts;
    (* Reconstructed from the default policy's schedule, exactly as
       [Campaign.of_log] will when the session resumes — so a live and
       a recovered campaign account retries identically. *)
    retry_cost = Resilience.Policy.total_backoff Resilience.Policy.default ~attempts;
  }

let report_session t name id_word rest =
  let id =
    match int_of_string_opt id_word with
    | Some i -> i
    | None -> failwith (Printf.sprintf "Serve: report: malformed suggestion id %S" id_word)
  in
  let verdict_word, args =
    match rest with
    | [] -> failwith "Serve: report requires a verdict (ok:<value> or fail:<kind>)"
    | w :: more -> (w, parse_args ~cmd:"report" ~keys:[ "attempts" ] more)
  in
  let attempts = Option.value (int_arg ~cmd:"report" "attempts" args) ~default:1 in
  if attempts < 1 then failwith "Serve: report: attempts must be at least 1";
  let verdict = verdict_of_wire ~attempts verdict_word in
  with_session t name (fun s ->
      Campaign.report s.s_campaign ~id verdict;
      Printf.sprintf "ok reported %s %d evaluated=%d" name id
        (Campaign.n_evaluated s.s_campaign))

let status_session t name =
  with_session t name (fun s ->
      Printf.sprintf "ok status %s state=%s evaluated=%d pending=%d best=%s" name
        (if Campaign.is_finished s.s_campaign then "finished" else "running")
        (Campaign.n_evaluated s.s_campaign)
        (Campaign.n_pending s.s_campaign)
        (best_to_wire (Campaign.best s.s_campaign)))

let close t name s =
  with_lock t.lock (fun () -> Hashtbl.remove t.sessions name);
  with_lock s.s_lock (fun () ->
      s.s_closed <- true;
      Session.close s.s_log)

let close_session t name =
  close t name (find_session t name);
  Printf.sprintf "ok closed %s" name

let close_all t =
  List.iter
    (fun (name, s) -> close t name s)
    (with_lock t.lock (fun () -> Hashtbl.fold (fun n s l -> (n, s) :: l) t.sessions []))

(* One line in, one line out. Responses are single-line by
   construction; error text is flattened to keep the framing. *)
let one_line s =
  String.map (fun c -> if c = '\n' || c = '\r' then ' ' else c) s

let handle t line =
  try
    match split_words line with
    | [] -> "err empty request"
    | "ping" :: _ -> "ok pong"
    | "open" :: name :: rest ->
        open_session t name
          (parse_args ~cmd:"open" ~keys:[ "seed"; "budget"; "k"; "n_init"; "early_stop"; "space" ]
             rest)
    | "suggest" :: name :: _ -> suggest_session t name
    | "report" :: name :: id :: rest -> report_session t name id rest
    | "report" :: _ -> "err Serve: report requires <session> <id> <verdict>"
    | "status" :: name :: _ -> status_session t name
    | "close" :: name :: _ -> close_session t name
    | "open" :: [] -> "err Serve: open requires a session name"
    | "suggest" :: [] | "status" :: [] | "close" :: [] ->
        "err Serve: missing session name"
    | cmd :: _ -> Printf.sprintf "err Serve: unknown command %S" cmd
  with
  | Failure msg -> "err " ^ one_line msg
  | Invalid_argument msg -> "err " ^ one_line msg
  | Sys_error msg -> "err " ^ one_line msg
