(* Multi-objective campaigns as a wrapper over the scalar campaign
   state machine: each vector measurement is scalarised with fixed
   weights, the scalar drives the usual TPE machinery, and the raw
   vectors feed an incremental Pareto archive on the side. Because
   the scalarisation is a pure function of the vector (no adaptive
   ideal point), the recorded scalar of a resumed campaign can be
   verified bit-exactly against the recorded vector. *)

type scalarisation = Linear | Chebyshev

type options = {
  scalarisation : scalarisation;
  weights : float array;
  reference : float array;
}

let validate_options o =
  let n = Array.length o.weights in
  if n < 2 then invalid_arg "Moo: need at least two objectives";
  Array.iter
    (fun w ->
      if not (Float.is_finite w) || w <= 0. then
        invalid_arg "Moo: weights must be finite and positive")
    o.weights;
  if Array.length o.reference <> n then
    invalid_arg "Moo: reference point arity must match the weights";
  Array.iter
    (fun r ->
      if not (Float.is_finite r) then invalid_arg "Moo: reference point must be finite")
    o.reference

let n_objectives o = Array.length o.weights

let scalarise o v =
  if Array.length v <> Array.length o.weights then
    invalid_arg "Moo.scalarise: vector arity must match the weights";
  match o.scalarisation with
  | Linear ->
      let acc = ref 0. in
      Array.iteri (fun i w -> acc := !acc +. (w *. v.(i))) o.weights;
      !acc
  | Chebyshev ->
      let acc = ref Float.neg_infinity in
      Array.iteri (fun i w -> acc := Float.max !acc (w *. v.(i))) o.weights;
      !acc

type measurement = Vector of float array | Failure of Resilience.Outcome.t

type t = {
  m_opts : options;
  m_campaign : Campaign.t;
  m_front : Pareto.front;
  mutable m_archive : (Param.Config.t * float array) list;  (* newest first *)
  m_on_vector : (int -> float array -> unit) option;
}

let validate_vector opts v =
  if Array.length v <> n_objectives opts then
    invalid_arg
      (Printf.sprintf "Moo: objective vector has arity %d, expected %d" (Array.length v)
         (n_objectives opts));
  Array.iter
    (fun x -> if not (Float.is_finite x) then invalid_arg "Moo: objective values must be finite")
    v

let wrap ?on_vector ~moo campaign =
  {
    m_opts = moo;
    m_campaign = campaign;
    m_front = Pareto.create ~arity:(n_objectives moo);
    m_archive = [];
    m_on_vector = on_vector;
  }

let create ?telemetry ?options ?on_outcome ?on_gate ?on_vector ~moo ~mode ~rng ~space ~budget ()
    =
  validate_options moo;
  wrap ?on_vector ~moo
    (Campaign.create ?telemetry ?options ?on_outcome ?on_gate ~mode ~rng ~space ~budget ())

let campaign t = t.m_campaign
let options t = t.m_opts
let suggest ?at t = Campaign.suggest ?at t.m_campaign

let archive_vector t config v =
  t.m_archive <- (config, v) :: t.m_archive;
  ignore (Pareto.add t.m_front v)

let report ?at ?eval_ms ?(attempts = 1) ?(retry_cost = 0.) t ~id measurement =
  (* Grab the suggestion's config before [Campaign.report] consumes
     the pending slot — the archive pairs vectors with configs. *)
  let config =
    match
      List.find_opt (fun s -> s.Campaign.id = id) (Campaign.pending t.m_campaign)
    with
    | Some s -> s.Campaign.config
    | None -> invalid_arg "Moo.report: suggestion is not pending"
  in
  let outcome, vector =
    match measurement with
    | Vector v ->
        validate_vector t.m_opts v;
        (Resilience.Outcome.Value (scalarise t.m_opts v), Some (Array.copy v))
    | Failure (Resilience.Outcome.Value _) ->
        invalid_arg "Moo.report: a successful measurement must be a Vector"
    | Failure o -> (o, None)
  in
  (* Entry indices are assigned in completion order by both drivers,
     so the index this report gets is the completed count right now. *)
  let idx = Campaign.n_evaluated t.m_campaign in
  Campaign.report ?at ?eval_ms t.m_campaign ~id
    { Resilience.Evaluator.outcome; attempts; retry_cost };
  match vector with
  | None -> ()
  | Some v ->
      archive_vector t config v;
      (match t.m_on_vector with Some f -> f idx v | None -> ())

let front t = Pareto.points t.m_front

let front_configs t =
  (* Oldest-first archive scan: the first config attaining each front
     point wins, which is deterministic across resumes. *)
  let archive = List.rev t.m_archive in
  Array.to_list (front t)
  |> List.map (fun p ->
         match List.find_opt (fun (_, v) -> Pareto.point_equal v p) archive with
         | Some (c, v) -> (c, Array.copy v)
         | None -> assert false)

let hypervolume t = Pareto.hypervolume ~reference:t.m_opts.reference t.m_front
let is_finished t = Campaign.is_finished t.m_campaign
let result t = Campaign.result t.m_campaign

(* ---- resume ---- *)

let objs_of_log (log : Dataset.Runlog.t) =
  let tbl = Hashtbl.create 64 in
  Array.iter (fun o -> Hashtbl.replace tbl o.Dataset.Runlog.o_index o.Dataset.Runlog.o_values)
    log.Dataset.Runlog.objs;
  tbl

let of_log ?telemetry ?options ?policy ?on_outcome ?on_gate ?on_vector ~moo ~mode ~log ~budget ()
    =
  validate_options moo;
  let vectors = objs_of_log log in
  (* Every recorded success must carry a vector whose scalarisation
     reproduces the recorded scalar bit-exactly — the moo analogue of
     the campaign's replay-divergence check. *)
  Array.iter
    (fun (e : Dataset.Runlog.entry) ->
      match e.Dataset.Runlog.status with
      | Dataset.Runlog.Failed _ -> ()
      | Dataset.Runlog.Ok y -> (
          match Hashtbl.find_opt vectors e.Dataset.Runlog.index with
          | None ->
              failwith
                (Printf.sprintf "Moo.of_log: evaluation %d has no recorded #obj vector"
                   e.Dataset.Runlog.index)
          | Some v ->
              validate_vector moo v;
              if not (Float.equal (scalarise moo v) y) then failwith Campaign.divergence_msg))
    log.Dataset.Runlog.entries;
  let campaign =
    Campaign.of_log ?telemetry ?options ?policy ?on_outcome ?on_gate ~mode ~log ~budget ()
  in
  let t = wrap ?on_vector ~moo campaign in
  (* Rebuild the archive and front from the recorded vectors, oldest
     first, exactly as the uninterrupted run built them. *)
  Array.iter
    (fun (e : Dataset.Runlog.entry) ->
      match Hashtbl.find_opt vectors e.Dataset.Runlog.index with
      | Some v -> archive_vector t e.Dataset.Runlog.config (Array.copy v)
      | None -> ())
    log.Dataset.Runlog.entries;
  t

(* ---- synchronous convenience driver ---- *)

let run ?telemetry ?options ?on_outcome ?on_gate ?on_vector ~moo ~rng ~space ~budget ~objective ()
    =
  let t =
    create ?telemetry ?options ?on_outcome ?on_gate ?on_vector ~moo ~mode:Campaign.Sync ~rng
      ~space ~budget ()
  in
  let rec loop () =
    match suggest t with
    | Campaign.Finished -> ()
    | Campaign.Wait -> assert false (* sync driving always reports before re-suggesting *)
    | Campaign.Suggest s ->
        report t ~id:s.Campaign.id (objective s.Campaign.config);
        loop ()
  in
  loop ();
  t
