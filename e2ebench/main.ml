(* The end-to-end benchmark: one workload per process, timed whole
   campaign by whole campaign, with a separate traced run for the
   per-layer numbers. See README.md.

     main.exe --workload NAME --seed N [--seconds S] [--trace 0|1]
              [--trace-out FILE] [--out FILE]
     main.exe --compare BASE NEW [--benchmark BENCHMARK.json]
     main.exe --smoke [--benchmark BENCHMARK.json]

   A run prints every metric as "name value unit", then as its last
   line one JSON object: correct, attempted, failed, and the end-to-end
   metrics (untraced) or the per-layer metrics (traced). It exits
   non-zero when a correctness check fails. *)

let workloads =
  [
    ("sync-paper", Sync_paper.run);
    ("bigpool", Bigpool.run);
    ("async-faults", Async_faults.run);
    ("serve", Serve_load.run);
  ]

let out_root = ".bench_out"

let rec remove_tree path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> remove_tree (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

let ensure_dir path = if not (Sys.file_exists path) then Sys.mkdir path 0o755

(* The commit, core count and budget overrides a record was measured
   under. The commit is "unknown" outside a git checkout. *)
let stamp () =
  let commit =
    if not (Sys.file_exists ".git") then "unknown"
    else
      try
        let ic = Unix.open_process_args_in "git" [| "git"; "rev-parse"; "HEAD" |] in
        let line = try String.trim (input_line ic) with End_of_file -> "" in
        match Unix.close_process_in ic with
        | Unix.WEXITED 0 when line <> "" -> line
        | _ -> "unknown"
      with Unix.Unix_error _ | Sys_error _ -> "unknown"
  in
  let overrides =
    Array.to_list (Unix.environment ())
    |> List.filter_map (fun kv ->
           match String.index_opt kv '=' with
           | Some i ->
               let k = String.sub kv 0 i in
               if
                 String.starts_with ~prefix:"HIPERBOT_" k && String.ends_with ~suffix:"_BUDGET" k
               then Some (k, Json.quote (String.sub kv (i + 1) (String.length kv - i - 1)))
               else None
           | None -> None)
    |> List.sort compare
  in
  Json.obj
    [
      ("commit", Json.quote commit);
      ("cores", string_of_int (Domain.recommended_domain_count ()));
      ("budget_overrides", Json.obj overrides);
    ]

let metrics_json ms =
  Json.obj
    (List.map
       (fun m ->
         ( m.Bench.name,
           Json.obj [ ("value", Json.number m.Bench.value); ("unit", Json.quote m.Bench.unit_) ] ))
       ms)

let with_work_dir f =
  ensure_dir out_root;
  let work_dir = Filename.concat out_root (Printf.sprintf "run-%d" (Unix.getpid ())) in
  remove_tree work_dir;
  Sys.mkdir work_dir 0o755;
  Fun.protect ~finally:(fun () -> remove_tree work_dir) (fun () -> f work_dir)

let is_correct (r : Bench.result) =
  r.failed = 0
  && List.for_all snd r.checks
  && List.for_all (fun m -> Float.is_finite m.Bench.value) (r.e2e @ r.layers)

let run_workload ~name ~seed ~seconds ~traced ~trace_out ~out =
  let run =
    match List.assoc_opt name workloads with
    | Some run -> run
    | None ->
        Printf.eprintf "unknown workload %S (known: %s)\n" name
          (String.concat ", " (List.map fst workloads));
        exit 2
  in
  let r =
    with_work_dir (fun work_dir -> run { Bench.seed; seconds; traced; smoke = false; work_dir })
  in
  if traced then begin
    let path =
      match trace_out with
      | Some p -> p
      | None -> Filename.concat out_root (name ^ ".trace.jsonl")
    in
    Spans.write_jsonl ~path r.trace;
    Printf.printf "trace: %s\n" path
  end;
  List.iter
    (fun m -> Printf.printf "%s %.6g %s\n" m.Bench.name m.Bench.value m.Bench.unit_)
    (r.e2e @ r.layers);
  List.iter
    (fun (c, ok) -> Printf.printf "check %s %s\n" c (if ok then "ok" else "FAILED"))
    r.checks;
  let correct = is_correct r in
  Printf.printf "error_ratio %.6g ratio\n"
    (float_of_int r.failed /. float_of_int (max 1 r.attempted));
  Option.iter
    (fun path ->
      let oc = open_out_gen [ Open_append; Open_creat ] 0o644 path in
      output_string oc
        (Json.obj
           [
             ("workload", Json.quote name);
             ("seed", string_of_int seed);
             ("seconds", Json.number seconds);
             ("trace", if traced then "1" else "0");
             ("stamp", stamp ());
             ("correct", string_of_bool correct);
             ("attempted", string_of_int r.attempted);
             ("failed", string_of_int r.failed);
             ("checks", Json.obj (List.map (fun (c, ok) -> (c, string_of_bool ok)) r.checks));
             ("metrics", metrics_json (r.e2e @ r.layers));
           ]
        ^ "\n");
      close_out oc)
    out;
  print_endline
    (Json.obj
       [
         ("correct", string_of_bool correct);
         ("attempted", string_of_int r.attempted);
         ("failed", string_of_int r.failed);
         ("metrics", metrics_json (if traced then r.layers else r.e2e));
       ]);
  exit (if correct then 0 else 1)

(* Every workload at ~1/100 scale, untraced and traced, with every
   check on; fails when a run is incorrect or when the metric names a
   run emits differ from BENCHMARK.json's. *)
let smoke ~benchmark =
  let spec = Compare.load_benchmark benchmark in
  let ok = ref true in
  let complain fmt =
    Printf.ksprintf
      (fun msg ->
        ok := false;
        print_endline ("FAIL " ^ msg))
      fmt
  in
  let names ms = List.sort compare (List.map (fun m -> m.Bench.name) ms) in
  let e2e_names = List.sort compare (List.map (fun m -> m.Compare.name) spec.end_to_end) in
  let layer_names = List.sort compare spec.per_layer in
  if List.sort compare spec.workloads <> List.sort compare (List.map fst workloads) then
    complain "BENCHMARK.json workloads differ from the benchmark's";
  with_work_dir (fun work_dir ->
      List.iter
        (fun (name, run) ->
          List.iter
            (fun traced ->
              let t0 = Unix.gettimeofday () in
              let r = run { Bench.seed = 1; seconds = 0.; traced; smoke = true; work_dir } in
              let label = Printf.sprintf "%s (trace %b)" name traced in
              if not (is_correct r) then complain "%s: incorrect" label;
              if names r.e2e <> e2e_names then
                complain "%s: end-to-end metrics differ from BENCHMARK.json: %s" label
                  (String.concat " " (names r.e2e));
              if traced && names r.layers <> layer_names then
                complain "%s: per-layer metrics differ from BENCHMARK.json: %s" label
                  (String.concat " "
                     (List.filter (fun n -> not (List.mem n layer_names)) (names r.layers)
                     @ List.map (fun n -> "-" ^ n)
                         (List.filter (fun n -> not (List.mem n (names r.layers))) layer_names)));
              Printf.printf "%-13s trace=%b %.2fs\n%!" name traced (Unix.gettimeofday () -. t0))
            [ false; true ])
        workloads);
  !ok

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 15. and trace = ref 0 in
  let trace_out = ref None and out = ref None in
  let compare = ref None and benchmark = ref "BENCHMARK.json" and smoke_test = ref false in
  let base = ref "" in
  let spec =
    [
      ( "--workload",
        Arg.Set_string workload,
        "NAME  one of: " ^ String.concat ", " (List.map fst workloads) );
      ("--seed", Arg.Set_int seed, "N  seed every campaign of the load derives from (default 1)");
      ( "--seconds",
        Arg.Set_float seconds,
        "S  size of the measured load, in reference-machine seconds (default 15)" );
      ("--trace", Arg.Set_int trace, "0|1  1: traced run reporting the per-layer metrics");
      ( "--trace-out",
        Arg.String (fun s -> trace_out := Some s),
        "FILE  span JSONL of a traced run" );
      ( "--out",
        Arg.String (fun s -> out := Some s),
        "FILE  append the run record as one JSON line" );
      ( "--compare",
        Arg.Tuple [ Arg.Set_string base; Arg.String (fun n -> compare := Some (!base, n)) ],
        "BASE NEW  compare two sets of run records" );
      ("--benchmark", Arg.Set_string benchmark, "FILE  BENCHMARK.json (default: ./BENCHMARK.json)");
      ("--smoke", Arg.Set smoke_test, "  every workload at ~1/100 scale, all checks on");
    ]
  in
  Arg.parse spec
    (fun a -> raise (Arg.Bad (Printf.sprintf "unexpected argument %S" a)))
    "main.exe --workload NAME --seed N [--seconds S] [--trace 0|1] [--out FILE]";
  match !compare with
  | Some (b, n) -> exit (if Compare.run ~benchmark:!benchmark ~base:b ~next:n then 0 else 1)
  | None ->
      if !smoke_test then exit (if smoke ~benchmark:!benchmark then 0 else 1)
      else if !workload = "" then begin
        prerr_endline "--workload is required (or --compare / --smoke)";
        exit 2
      end
      else if !trace <> 0 && !trace <> 1 then begin
        prerr_endline "--trace takes 0 or 1";
        exit 2
      end
      else
        run_workload ~name:!workload ~seed:!seed ~seconds:!seconds ~traced:(!trace = 1)
          ~trace_out:!trace_out ~out:!out
