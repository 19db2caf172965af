(* Tests for the session layer: a campaign recovered through
   [Session] from any cut of its run log, torn tail included, finishes
   with the uninterrupted campaign's run-log bytes, in both driver
   shapes (the CLI's simulated clock and retry policy, a server's
   client-ordered reports); and an open that is refused leaves the
   file byte-identical. *)

let check = Alcotest.check

let read_file path = In_channel.with_open_bin path In_channel.input_all

let write_file path text =
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc text)

let temp_path () =
  let path = Filename.temp_file "session" ".runlog" in
  Sys.remove path;
  path

let remove path = if Sys.file_exists path then Sys.remove path

(* How a front end drives a session: the CLI runs [Tuner.drive] on the
   simulated clock under its retry policy and resumes with both; a
   server's clients report in their own order (here: ask until told to
   wait, then report the oldest suggestion) and it resumes with
   neither. *)
type shape = Cli | Served

let shape_to_string = function Cli -> "cli" | Served -> "served"

let drive_served campaign ~objective =
  let queue = Queue.create () in
  List.iter (fun s -> Queue.push s queue) (Hiperbot.Campaign.pending campaign);
  let rec loop () =
    match Hiperbot.Campaign.suggest campaign with
    | Hiperbot.Campaign.Suggest s ->
        Queue.push s queue;
        loop ()
    | Hiperbot.Campaign.Wait | Hiperbot.Campaign.Finished -> (
        match Queue.take_opt queue with
        | None -> ()
        | Some s ->
            Hiperbot.Campaign.report campaign ~id:s.Hiperbot.Campaign.id
              (Resilience.Evaluator.evaluate ~policy:Resilience.Policy.default ~objective
                 s.Hiperbot.Campaign.config);
            loop ())
  in
  loop ()

(* Open (or resume) the session at [path], run it to the end, close
   it. [before_close] sees the session's file once the campaign is
   driven, before {!Hiperbot.Session.close} canonicalizes it. *)
let run_session ?(before_close = ignore) shape ~options ~k ~seed ~space ~objective ~budget path =
  let log = Hiperbot.Session.open_log ~path ~name:"session" ~seed ~space () in
  (match shape with
  | Cli ->
      let duration = Hiperbot.Tuner.default_duration in
      ignore
        (Hiperbot.Tuner.drive ~policy:Gen.policy3 ~duration ~objective
           (Hiperbot.Session.start ~options ~policy:Gen.policy3 ~duration ~k ~budget log))
  | Served -> drive_served (Hiperbot.Session.start ~options ~k ~budget log) ~objective);
  before_close ();
  Hiperbot.Session.close log

let every_cut_gen =
  let open QCheck2.Gen in
  let* shape = oneofl [ Cli; Served ] in
  let* k = oneofl [ 1; 3 ] in
  let* space = Gen.space_gen ~max_params:3 ~allow_continuous:false () in
  let* faults = Gen.fault_spec_gen in
  let* seed = Gen.seed_gen in
  let* n_init = int_range 1 5 in
  let* budget = int_range 1 12 in
  let+ source = opt (Gen.observations_gen ~min_n:4 ~max_n:10 space) in
  (shape, k, space, faults, seed, n_init, budget, source)

(* A gated prior from a source that disagrees with [Gen.hash_objective]. *)
let gated_options ~options ~space obs =
  Hiperbot.Transfer.options ~options
    ~gate:(Some { Hiperbot.Gate.default_options with Hiperbot.Gate.min_obs = 2 })
    ~space
    [ (Array.map (fun (c, _) -> (c, -.Gen.hash_objective c)) obs, 1.) ]

(* The lines of [text] after its first [skip] bytes, each with its
   newline. *)
let lines_after text skip =
  String.split_on_char '\n' (String.sub text skip (String.length text - skip))
  |> List.filter (( <> ) "")
  |> List.map (fun l -> l ^ "\n")

(* Every state a crash can leave (the file after its header and after
   each flushed line, with and without a torn final line) resumes to
   the uninterrupted run's bytes. The file is append-only until close,
   so those states are the line prefixes of the file just before it.
   The transfer source disagrees with the target under an eager gate,
   so cuts hold gate decisions that resume verifies, and cuts that
   drop some make the replay recompute and write them. *)
let prop_every_cut =
  QCheck2.Test.make
    ~name:"session: resume from every cut of the file = uninterrupted run-log bytes" ~count:40
    ~print:(fun (shape, k, space, faults, seed, n_init, budget, source) ->
      Printf.sprintf "%s k=%d %s %s seed=%d n_init=%d budget=%d source=%s"
        (shape_to_string shape) k (Gen.space_to_string space)
        (Gen.fault_spec_to_string faults) seed n_init budget
        (match source with Some o -> string_of_int (Array.length o) | None -> "none"))
    every_cut_gen
    (fun (shape, k, space, faults, seed, n_init, budget, source) ->
      let objective = Hpcsim.Faults.inject faults Gen.hash_objective in
      let options = { Hiperbot.Tuner.default_options with n_init } in
      let options =
        match source with None -> options | Some obs -> gated_options ~options ~space obs
      in
      let run ?before_close path =
        run_session ?before_close shape ~options ~k ~seed ~space ~objective ~budget path
      in
      let full = temp_path () and cut = temp_path () in
      Fun.protect
        ~finally:(fun () ->
          remove full;
          remove cut)
        (fun () ->
          let header =
            Dataset.Runlog.(to_string (create ~name:"session" ~seed ~space []))
          in
          let mid_run = ref "" in
          run ~before_close:(fun () -> mid_run := read_file full) full;
          let expected = read_file full in
          let resumes text =
            write_file cut text;
            run cut;
            String.equal (read_file cut) expected
          in
          String.starts_with ~prefix:header !mid_run
          && snd
               (List.fold_left
                  (fun (text, ok) line ->
                    let text = text ^ line in
                    (text, ok && resumes text && resumes (text ^ "11,ZG")))
                  (header, resumes header && resumes (header ^ "11,ZG"))
                  (lines_after !mid_run (String.length header)))))

(* ---- a refused open leaves the file as it was ---- *)

(* A finished budget-12 campaign's log on [Gen.wide_space]. *)
let finished_log ?(options = Hiperbot.Tuner.default_options) path =
  run_session Cli ~options ~k:1 ~seed:5 ~space:Gen.wide_space
    ~objective:(Gen.total Gen.hash_objective) ~budget:12 path

(* Replace entry [i] of the log at [path] with a configuration the
   replay never draws. *)
let diverge_entry path i =
  let log = Dataset.Runlog.load path in
  let entries = Array.copy log.Dataset.Runlog.entries in
  let taken = Array.map (fun e -> e.Dataset.Runlog.config) entries in
  let other =
    List.find
      (fun c -> not (Array.exists (Param.Config.equal c) taken))
      (Array.to_list (Param.Space.enumerate Gen.wide_space))
  in
  entries.(i) <- { entries.(i) with Dataset.Runlog.config = other };
  Dataset.Runlog.save { log with Dataset.Runlog.entries } path

let expect_untouched path ~what f =
  let before = read_file path in
  (match f () with
  | () -> Alcotest.failf "%s: the open was not refused" what
  | exception (Failure _ | Invalid_argument _ | Hiperbot.Session.Space_mismatch) -> ());
  check Alcotest.bool (what ^ ": file byte-identical") true (String.equal before (read_file path))

let test_refused_open_untouched () =
  let path = temp_path () in
  Fun.protect
    ~finally:(fun () -> remove path)
    (fun () ->
      finished_log path;
      diverge_entry path 3;
      write_file path (read_file path ^ "11,ZG");
      expect_untouched path ~what:"divergent cut with a torn tail" (fun () ->
          finished_log path);
      expect_untouched path ~what:"space mismatch" (fun () ->
          ignore
            (Hiperbot.Session.open_log ~path ~name:"session" ~seed:5 ~space:Gen.cat_ord_space
               ()));
      (* A log that fails to load ([Invalid_argument]): a row duplicated. *)
      remove path;
      finished_log path;
      let lines = String.split_on_char '\n' (read_file path) in
      write_file path
        (String.concat "\n"
           (List.concat_map (fun l -> if String.starts_with ~prefix:"5," l then [ l; l ] else [ l ])
              lines));
      expect_untouched path ~what:"duplicated row" (fun () ->
          ignore
            (Hiperbot.Session.open_log ~path ~name:"session" ~seed:5 ~space:Gen.wide_space ())))

(* A log saved without a prior, resumed under a gated one: the replay
   recomputes gate decisions the log never recorded, then diverges.
   Those decisions are held, not written, so the file stays as it was. *)
let test_gated_divergence_untouched () =
  let path = temp_path () in
  Fun.protect
    ~finally:(fun () -> remove path)
    (fun () ->
      let options = { Hiperbot.Tuner.default_options with n_init = 4 } in
      finished_log ~options path;
      diverge_entry path 8;
      (* A strict gate, so the first trust update attenuates the source. *)
      let gated =
        Hiperbot.Transfer.options ~options
          ~gate:
            (Some
               { Hiperbot.Gate.default_options with min_obs = 2; threshold = 0.99; smoothing = 1. })
          ~space:Gen.wide_space
          [ (Array.map (fun c -> (c, -.Gen.hash_objective c)) (Param.Space.enumerate Gen.wide_space), 1.) ]
      in
      let n_gates = ref 0 in
      (match
         Hiperbot.Campaign.of_log ~options:gated ~on_gate:(fun _ -> incr n_gates)
           ~duration:Hiperbot.Tuner.default_duration ~policy:Gen.policy3
           ~mode:(Hiperbot.Campaign.Async 1) ~log:(Dataset.Runlog.load path) ~budget:12 ()
       with
      | _ -> Alcotest.fail "the gated replay did not diverge"
      | exception Failure _ -> ());
      check Alcotest.bool "the replay emits a gate decision before it diverges" true
        (!n_gates > 0);
      expect_untouched path ~what:"gated replay diverging after a new gate decision" (fun () ->
          finished_log ~options:gated path))

(* An accepted resume rewrites the recovered log once its replay
   passes, even with nothing left to evaluate: the torn tail goes. *)
let test_idle_resume_rewrites () =
  let path = temp_path () in
  Fun.protect
    ~finally:(fun () -> remove path)
    (fun () ->
      finished_log path;
      let finished = read_file path in
      write_file path (finished ^ "12,");
      finished_log path;
      check Alcotest.string "idle resume restores the finished file" finished (read_file path))

let test_strict_seed () =
  let path = temp_path () in
  Fun.protect
    ~finally:(fun () -> remove path)
    (fun () ->
      finished_log path;
      let before = read_file path in
      (match
         Hiperbot.Session.open_log ~strict_seed:true ~path ~name:"session" ~seed:6
           ~space:Gen.cat_ord_space ()
       with
      | _ -> Alcotest.fail "seed mismatch accepted"
      | exception Hiperbot.Session.Seed_mismatch recorded ->
          check Alcotest.int "the log's seed, checked before the space" 5 recorded);
      (* Without [strict_seed] the log's seed wins. *)
      let log =
        Hiperbot.Session.open_log ~path ~name:"session" ~seed:6 ~space:Gen.wide_space ()
      in
      check Alcotest.(option int) "recovered with the log's seed" (Some 5)
        (Option.map (fun l -> l.Dataset.Runlog.seed) (Hiperbot.Session.recovered log));
      Hiperbot.Session.close log;
      check Alcotest.bool "closing an unstarted session leaves the file" true
        (String.equal before (read_file path)))

let suite =
  ( "session",
    [
      Alcotest.test_case "refused open leaves the file byte-identical" `Quick
        test_refused_open_untouched;
      Alcotest.test_case "gated replay diverging late leaves the file byte-identical" `Quick
        test_gated_divergence_untouched;
      Alcotest.test_case "idle resume drops the torn tail" `Quick test_idle_resume_rewrites;
      Alcotest.test_case "strict seed refuses, default uses the log's" `Quick test_strict_seed;
      QCheck_alcotest.to_alcotest prop_every_cut;
    ] )
