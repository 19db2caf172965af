(* Golden decision digests. A fixed grid of small campaigns, one per
   engine path, each rendered as the run log it would persist
   (decision lines included) and compared with one line of
   [fixtures/decisions.expected]:

     <cell> <evaluations> <best value, %h> <digest of the log> <fingerprints>

   The fingerprints are the first six hex digits of each rendered
   line's digest, comma-separated, so a mismatch names the first
   diverging line. The conformance properties compare engines with
   each other and cannot see a change that moves every engine the
   same way (a float reorder in a fit, a tie-break flip in the scan,
   one extra rng draw); these digests pin the absolute decisions.

   [HIPERBOT_BLESS=1 dune runtest] rewrites the fixture from the
   current code. *)

open Hiperbot

let table name = (Hpcsim.Registry.find name).Hpcsim.Registry.table ()
let fixture = "decisions.expected"

(* What a campaign persists, gathered from its callbacks. *)
type recorder = {
  mutable entries : Dataset.Runlog.entry list;
  mutable records : Dataset.Runlog.record list;
}

let recorder () = { entries = []; records = [] }
let on_outcome r i c v = r.entries <- Campaign.entry_of_verdict i c v :: r.entries
let on_gate r g = r.records <- Dataset.Runlog.Gate g :: r.records
let on_record r d = r.records <- d :: r.records

let on_eval r index config y =
  r.entries <- { Dataset.Runlog.index; config; status = Ok y; attempts = 1 } :: r.entries

(* The first [cut] entries, as a log a crashed writer would have left
   behind, with the gate decisions it had flushed by then. *)
let cut_log ?gates ~name ~seed ~space r ~cut =
  let entries = List.filteri (fun i _ -> i < cut) (List.rev r.entries) in
  Dataset.Runlog.create ?gates ~name ~seed ~space entries

(* A recorder that continues from a cut log. *)
let resumed_from (log : Dataset.Runlog.t) =
  {
    entries = List.rev (Array.to_list log.Dataset.Runlog.entries);
    records =
      List.rev_map (fun g -> Dataset.Runlog.Gate g) (Array.to_list log.Dataset.Runlog.gates);
  }

let log_of ~name ~seed ~space r =
  let records = List.rev r.records in
  Dataset.Runlog.create
    ~gates:(List.filter_map (function Dataset.Runlog.Gate g -> Some g | _ -> None) records)
    ~fids:(List.filter_map (function Dataset.Runlog.Fid f -> Some f | _ -> None) records)
    ~rungs:(List.filter_map (function Dataset.Runlog.Rung g -> Some g | _ -> None) records)
    ~objs:(List.filter_map (function Dataset.Runlog.Obj o -> Some o | _ -> None) records)
    ~name ~seed ~space (List.rev r.entries)

type line = { cell : string; evals : int; best : string; digest : string; prints : string list }

(* A cell's fixture line, and the rendered run-log lines it digests. *)
let line_of_text cell ~evals ~best text =
  let lines = String.split_on_char '\n' text in
  let print l = String.sub (Digest.to_hex (Digest.string l)) 0 6 in
  ( {
      cell;
      evals;
      best = Printf.sprintf "%h" best;
      digest = Digest.to_hex (Digest.string text);
      prints = List.map print lines;
    },
    lines )

let line_of cell (run : Tuner.result) log =
  line_of_text cell
    ~evals:(Array.length run.Tuner.history + Array.length run.Tuner.failures)
    ~best:run.Tuner.best_value (Dataset.Runlog.to_string log)

let render l =
  Printf.sprintf "%s %d %s %s %s" l.cell l.evals l.best l.digest (String.concat "," l.prints)

let parse s =
  match String.split_on_char ' ' s with
  | [ cell; evals; best; digest; prints ] ->
      { cell; evals = int_of_string evals; best; digest; prints = String.split_on_char ',' prints }
  | _ -> Alcotest.failf "malformed line in %s: %S" fixture s

(* ---- the cells ---- *)

let kripke_objective = Dataset.Table.objective_fn (table "kripke")
let kripke_space = Dataset.Table.space (table "kripke")

let sync_cell ~dataset ~seed () =
  let t = table dataset in
  let space = Dataset.Table.space t in
  let r = recorder () in
  let run =
    Gen.ok
      (Tuner.run_async
         ~options:{ Tuner.default_options with n_init = 10 }
         ~on_outcome:(on_outcome r) ~rng:(Prng.Rng.create seed) ~space
         ~objective:(Gen.total (Dataset.Table.objective_fn t)) ~budget:40 ())
  in
  [ line_of ("sync-" ^ dataset) run (log_of ~name:dataset ~seed ~space r) ]

let sync_kripke = sync_cell ~dataset:"kripke" ~seed:1
let sync_hypre = sync_cell ~dataset:"hypre" ~seed:5
let sync_lulesh = sync_cell ~dataset:"lulesh" ~seed:6

(* The continuous toy of the paper's fig. 1 (bench/experiments.ml):
   the only cells whose surrogate has KDE sides, and the only ones on
   the Proposal path — synchronous, and at k=3 with the pending
   configurations joining pb as constant-liar observations. Run logs
   cannot hold a continuous parameter, so these cells digest one
   "<index> <x> <y>" line per evaluation, floats in %h. *)
let toy_space = Param.Space.make [ Param.Spec.continuous "x" ~lo:0. ~hi:5. ]

let toy_objective config =
  let x = Param.Value.to_float_raw config.(0) in
  (20. *. ((x -. 2.) ** 2.)) -. 25. +. (8. *. sin (3. *. x))

let toy_options =
  {
    Tuner.default_options with
    n_init = 10;
    strategy = Strategy.Proposal { n_candidates = 64 };
  }

let toy_line cell (run : Tuner.result) r =
  let row (e : Dataset.Runlog.entry) =
    let y = match e.Dataset.Runlog.status with Dataset.Runlog.Ok y -> y | Failed _ -> nan in
    Printf.sprintf "%d %h %h" e.Dataset.Runlog.index
      (Param.Value.to_float_raw e.Dataset.Runlog.config.(0))
      y
  in
  let text = String.concat "\n" (List.rev_map row r.entries) in
  [
    line_of_text cell
      ~evals:(Array.length run.Tuner.history + Array.length run.Tuner.failures)
      ~best:run.Tuner.best_value text;
  ]

let proposal_toy () =
  let r = recorder () and seed = 7 in
  let run =
    Gen.ok
      (Tuner.run_async ~options:toy_options ~on_outcome:(on_outcome r)
         ~rng:(Prng.Rng.create seed) ~space:toy_space ~objective:(Gen.total toy_objective)
         ~budget:30 ())
  in
  toy_line "proposal-toy" run r

let proposal_toy_async3 () =
  let r = recorder () and seed = 8 in
  let run =
    Gen.ok
      (Tuner.run_async ~options:toy_options ~on_outcome:(on_outcome r) ~k:3
         ~rng:(Prng.Rng.create seed) ~space:toy_space ~objective:(Gen.total toy_objective)
         ~budget:30 ())
  in
  toy_line "proposal-toy-async3" run r

(* Time and energy on kripke_energy, Chebyshev-scalarised, through
   the multi-objective driver; the log carries the #obj vectors. *)
let moo_kripke_energy () =
  let space = Hpcsim.Kripke.energy_space in
  let vector c = [| Hpcsim.Kripke.exec_time_capped c; Hpcsim.Kripke.energy c |] in
  let moo =
    { Moo.scalarisation = Moo.Chebyshev; weights = [| 1.; 0.02 |]; reference = [| 1e3; 1e5 |] }
  in
  let r = recorder () and seed = 9 in
  let t =
    Moo.run
      ~options:{ Tuner.default_options with n_init = 10 }
      ~on_outcome:(on_outcome r)
      ~on_vector:(fun i v -> on_record r (Dataset.Runlog.Obj { o_index = i; o_values = v }))
      ~moo ~rng:(Prng.Rng.create seed) ~space ~budget:30
      ~objective:(fun c -> Moo.Vector (vector c))
      ()
  in
  [
    line_of "moo-kripke_energy" (Gen.ok (Moo.result t))
      (log_of ~name:"kripke_energy" ~seed ~space r);
  ]

(* A session served over the line protocol at k=4, driven by a client
   that asks until told to wait and then reports its oldest
   suggestion; the cell digests the run-log file the session wrote. *)
let served_kripke_k4 () =
  let dir = Filename.temp_file "golden_serve" "" in
  Sys.remove dir;
  let server = Serve.create ~dir () in
  let ask line =
    let reply = Serve.handle server line in
    if String.length reply < 2 || String.sub reply 0 2 <> "ok" then
      Alcotest.failf "%S -> %S" line reply;
    String.split_on_char ' ' reply
  in
  let specs = Param.Space.specs kripke_space in
  let wire =
    String.concat ";" (Array.to_list (Array.map Dataset.Runlog.spec_to_string specs))
  in
  ignore (ask ("open g seed=10 budget=30 k=4 n_init=8 space=" ^ wire));
  let queue = Queue.create () in
  let rec drive () =
    match ask "suggest g" with
    | [ "ok"; "finished"; _; evals; best ] ->
        let value field =
          let i = String.index field '=' + 1 in
          String.sub field i (String.length field - i)
        in
        (int_of_string (value evals), float_of_string (value best))
    | [ "ok"; "wait"; _ ] ->
        let id, config = Queue.pop queue in
        ignore (ask (Printf.sprintf "report g %d ok:%h" id (kripke_objective config)));
        drive ()
    | [ "ok"; "suggest"; _; id; cells ] ->
        let config =
          Array.of_list
            (List.mapi
               (fun i cell -> Dataset.Runlog.value_of_string specs.(i) cell)
               (String.split_on_char ',' cells))
        in
        Queue.push (int_of_string id, config) queue;
        drive ()
    | reply -> Alcotest.failf "unexpected reply %S" (String.concat " " reply)
  in
  let evals, best = drive () in
  ignore (ask "close g");
  let path = Filename.concat dir "g.runlog" in
  let text = In_channel.with_open_bin path In_channel.input_all in
  Sys.remove path;
  Sys.rmdir dir;
  [ line_of_text "served-kripke-k4" ~evals ~best text ]

(* Async k=4 under injected faults with retries, then the same
   campaign resumed from a mid-campaign cut of its log. *)
let async_hypre () =
  let t = table "hypre" in
  let space = Dataset.Table.space t in
  let objective =
    Hpcsim.Faults.inject (Hpcsim.Faults.standard ~seed:29 ~rate:0.2) (Dataset.Table.objective_fn t)
  in
  let options = { Tuner.default_options with n_init = 10 } in
  let seed = 2 and k = 4 and budget = 40 in
  let r = recorder () in
  let run =
    Gen.ok
      (Tuner.run_async ~options ~policy:Gen.policy3 ~on_outcome:(on_outcome r) ~k
         ~rng:(Prng.Rng.create seed) ~space ~objective ~budget ())
  in
  let log = cut_log ~name:"hypre" ~seed ~space r ~cut:20 in
  let resumed = resumed_from log in
  let rerun =
    Gen.ok
      (Tuner.resume_async ~options ~policy:Gen.policy3 ~on_outcome:(on_outcome resumed) ~k ~log
         ~objective ~budget ())
  in
  [
    line_of "async4-hypre-faults" run (log_of ~name:"hypre" ~seed ~space r);
    line_of "async4-hypre-faults-resumed" rerun (log_of ~name:"hypre" ~seed ~space resumed);
  ]

(* A single-rung plan: the flat campaign the fidelity engine hands to
   the async engine. *)
let fidelity_flat () =
  let r = recorder () and seed = 3 in
  let res =
    match
      Fidelity.run ~on_eval:(on_eval r)
        ~plan:{ Fidelity.default_plan with costs = [| 1. |] }
        ~k:3 ~rng:(Prng.Rng.create seed) ~space:kripke_space
        ~objective:(fun ~rung:_ c -> kripke_objective c)
        ~budget:30 ()
    with
    | Stdlib.Ok res -> res
    | Stdlib.Error _ -> Alcotest.fail "single-rung campaign failed"
  in
  [
    line_of "fidelity1-kripke-k3" res.Fidelity.run
      (log_of ~name:"kripke" ~seed ~space:kripke_space r);
  ]

(* Successive halving over kripke's node ladder (its top three rungs,
   as the CLI's --fidelity 3 picks them). *)
let halving_kripke () =
  let ladder = Option.get (Hpcsim.Registry.find "kripke").Hpcsim.Registry.fidelity in
  let offset = Array.length ladder.Hpcsim.Registry.levels - 3 in
  let plan =
    {
      Fidelity.default_plan with
      costs = Array.init 3 (fun i -> ladder.Hpcsim.Registry.cost (offset + i));
      cohort = 9;
      brackets = 2;
    }
  in
  let r = recorder () and seed = 4 in
  let res =
    match
      Fidelity.run ~on_eval:(on_eval r) ~on_record:(on_record r) ~plan ~k:3
        ~rng:(Prng.Rng.create seed) ~space:kripke_space
        ~objective:(fun ~rung c -> ladder.Hpcsim.Registry.objective_at (offset + rung) c)
        ~budget:60 ()
    with
    | Stdlib.Ok res -> res
    | Stdlib.Error _ -> Alcotest.fail "successive-halving campaign failed"
  in
  [ line_of "halving-kripke" res.Fidelity.run (log_of ~name:"kripke" ~seed ~space:kripke_space r) ]

(* Gated transfer from the hypre source study to the hypre target,
   async k=4, resumed from a cut that already holds gate decisions. *)
let gated_hypre_resumed () =
  let trgt = table "hypre_trgt" and src = table "hypre_src" in
  let space = Dataset.Table.space trgt in
  let source =
    let rng = Prng.Rng.create 17 in
    Array.init 200 (fun _ ->
        let i = Prng.Rng.int rng (Dataset.Table.size src) in
        (Dataset.Table.config src i, Dataset.Table.objective src i))
  in
  let options =
    Transfer.options
      ~options:{ Tuner.default_options with n_init = 8 }
      ~gate:(Some { Gate.default_options with Gate.min_obs = 8 })
      ~space
      [ (source, 1.) ]
  in
  let objective = Gen.total (Dataset.Table.objective_fn trgt) in
  (* The gate attenuates the source after completion 10 and drops it
     after completion 11: the cut log holds the first decision, and
     the resume must verify it and emit the others. *)
  let seed = 2 and k = 4 and budget = 40 and cut = 10 in
  let r = recorder () in
  let flushed = ref [] in
  ignore
    (Gen.ok
       (Tuner.run_async ~options ~on_outcome:(on_outcome r)
          ~on_gate:(fun g -> if List.length r.entries <= cut then flushed := g :: !flushed)
          ~k ~rng:(Prng.Rng.create seed) ~space ~objective ~budget ()));
  let log = cut_log ~gates:(List.rev !flushed) ~name:"hypre_trgt" ~seed ~space r ~cut in
  let resumed = resumed_from log in
  let run =
    Gen.ok
      (Tuner.resume_async ~options ~on_outcome:(on_outcome resumed) ~on_gate:(on_gate resumed) ~k
         ~log ~objective ~budget ())
  in
  [ line_of "gated-hypre-async-resumed" run (log_of ~name:"hypre_trgt" ~seed ~space resumed) ]

let cells () =
  List.concat_map (fun f -> f ())
    [
      sync_kripke;
      async_hypre;
      fidelity_flat;
      halving_kripke;
      gated_hypre_resumed;
      sync_hypre;
      sync_lulesh;
      proposal_toy;
      proposal_toy_async3;
      moo_kripke_energy;
      served_kripke_k4;
    ]

(* ---- comparison and blessing ---- *)

let read_lines path =
  In_channel.with_open_text path In_channel.input_all
  |> String.split_on_char '\n'
  |> List.filter (fun l -> l <> "")

(* The fixture in the source tree: dune runs tests inside its build
   directory and names the source root in DUNE_SOURCEROOT. *)
let source_fixture () =
  let root = Option.value (Sys.getenv_opt "DUNE_SOURCEROOT") ~default:Filename.current_dir_name in
  List.fold_left Filename.concat root [ "test"; "fixtures"; fixture ]

let first_divergence expected actual =
  let rec go i = function
    | e :: es, a :: rest -> if e = a then go (i + 1) (es, rest) else Some i
    | [], [] -> None
    | _ -> Some i
  in
  go 0 (expected, actual)

let test_golden () =
  let actual = cells () in
  if Sys.getenv_opt "HIPERBOT_BLESS" = Some "1" then begin
    let path = source_fixture () in
    Out_channel.with_open_text path (fun oc ->
        List.iter (fun (l, _) -> output_string oc (render l ^ "\n")) actual);
    Printf.printf "blessed %s\n" path
  end
  else begin
    let expected =
      List.map parse
        (read_lines
           (Filename.concat
              (Filename.dirname Sys.executable_name)
              (Filename.concat "fixtures" fixture)))
    in
    Alcotest.check
      Alcotest.(list string)
      "cells"
      (List.map (fun l -> l.cell) expected)
      (List.map (fun (l, _) -> l.cell) actual);
    List.iter2
      (fun (e : line) ((a : line), lines) ->
        if e <> a then
          let where =
            match first_divergence e.prints a.prints with
            | Some i ->
                Printf.sprintf "first diverging run-log line %d, now: %s" i
                  (Option.value (List.nth_opt lines i) ~default:"(missing)")
            | None -> "every run-log line matches"
          in
          Alcotest.failf
            "%s drifted from fixtures/%s\n  expected: %d evals, best %s, digest %s\n  actual:   \
             %d evals, best %s, digest %s\n  %s\n  (HIPERBOT_BLESS=1 dune runtest rewrites the \
             fixture)"
            a.cell fixture e.evals e.best e.digest a.evals a.best a.digest where)
      expected actual
  end

let suite = ("golden", [ Alcotest.test_case "engine decision digests" `Quick test_golden ])
