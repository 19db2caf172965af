exception Seed_mismatch of int
exception Space_mismatch

type t = {
  seed : int;
  space : Param.Space.t;
  recovered : Dataset.Runlog.t option;
  open_writer : unit -> Dataset.Runlog.writer option;
  mutable writer : Dataset.Runlog.writer option;
}

let open_log ?(strict_seed = false) ?(resume = true) ?path ~name ~seed ~space () =
  let recovered =
    match path with
    | Some p when resume && Sys.file_exists p ->
        let log = Dataset.Runlog.load ~recover:true p in
        if strict_seed && log.seed <> seed then raise (Seed_mismatch log.seed);
        if not (Param.Space.equal log.space space) then raise Space_mismatch;
        Some log
    | Some _ | None -> None
  in
  let open_writer () =
    Option.map
      (fun path ->
        match recovered with
        | Some log -> Dataset.Runlog.writer_resume ~path log
        | None -> Dataset.Runlog.writer_create ~path ~name ~seed ~space)
      path
  in
  { seed; space; recovered; open_writer; writer = None }

let recovered t = t.recovered

let write t f =
  if Option.is_none t.writer then t.writer <- t.open_writer ();
  Option.iter f t.writer

let record t entry = write t (fun w -> Dataset.Runlog.writer_record w entry)
let append t r = write t (fun w -> Dataset.Runlog.writer_append w r)

let start ?telemetry ?options ?policy ?duration ?shared_pool ?on_outcome ?(k = 1) ~budget t =
  let on_outcome i c v =
    record t (Campaign.entry_of_verdict i c v);
    Option.iter (fun f -> f i c v) on_outcome
  in
  (* Gate decisions a replay recomputes past the recorded ones wait
     until it is accepted: one that diverges later writes nothing. *)
  let held = Queue.create () and live = ref false in
  let on_gate g = if !live then append t (Gate g) else Queue.push g held in
  let campaign =
    match t.recovered with
    | Some log ->
        Campaign.of_log ?telemetry ?options ?policy ?shared_pool ~on_outcome ~on_gate ?duration
          ~mode:(Async k) ~log ~budget ()
    | None ->
        Campaign.create ?telemetry ?options ?shared_pool ~on_outcome ~on_gate ~mode:(Async k)
          ~rng:(Prng.Rng.create t.seed) ~space:t.space ~budget ()
  in
  live := true;
  write t ignore;
  Queue.iter on_gate held;
  campaign

let close t = Option.iter Dataset.Runlog.writer_close t.writer
