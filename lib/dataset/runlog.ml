type failure_kind = Crash | Transient | Permanent | Timeout | Infeasible
type status = Ok of float | Failed of failure_kind
type entry = { index : int; config : Param.Config.t; status : status; attempts : int }

type gate = { g_refit : int; g_source : int; g_action : string; g_trust : float; g_below : int }

type fid = { f_bracket : int; f_rung : int; f_value : float; f_config : Param.Config.t }

type rung = {
  r_bracket : int;
  r_rung : int;
  r_evaluated : int;
  r_promoted : int;
  r_best : float;
}

type obj = { o_index : int; o_values : float array }

type record = Gate of gate | Fid of fid | Rung of rung | Obj of obj

type t = {
  name : string;
  seed : int;
  space : Param.Space.t;
  entries : entry array;
  gates : gate array;
  fids : fid array;
  rungs : rung array;
  objs : obj array;
}

let gate_actions = [ "attenuate"; "restore"; "drop"; "fallback" ]

let validate = function
  | Gate g ->
      if g.g_refit < 0 then invalid_arg "Runlog: gate refit must be non-negative";
      if g.g_source < -1 then invalid_arg "Runlog: gate source must be >= -1";
      if not (List.mem g.g_action gate_actions) then
        invalid_arg (Printf.sprintf "Runlog: unknown gate action %S" g.g_action);
      if not (Float.is_finite g.g_trust) then invalid_arg "Runlog: gate trust must be finite";
      if g.g_below < 0 then invalid_arg "Runlog: gate below-count must be non-negative"
  | Fid f ->
      if f.f_bracket < 0 then invalid_arg "Runlog: fid bracket must be non-negative";
      if f.f_rung < 0 then invalid_arg "Runlog: fid rung must be non-negative";
      if not (Float.is_finite f.f_value) then invalid_arg "Runlog: fid value must be finite"
  | Rung r ->
      if r.r_bracket < 0 then invalid_arg "Runlog: rung bracket must be non-negative";
      if r.r_rung < 0 then invalid_arg "Runlog: rung index must be non-negative";
      if r.r_evaluated < 1 then invalid_arg "Runlog: rung evaluated-count must be positive";
      if r.r_promoted < 0 || r.r_promoted > r.r_evaluated then
        invalid_arg "Runlog: rung promoted-count must lie in [0, evaluated]";
      if not (Float.is_finite r.r_best) then invalid_arg "Runlog: rung best must be finite"
  | Obj o ->
      if o.o_index < 0 then invalid_arg "Runlog: obj index must be non-negative";
      if Array.length o.o_values = 0 then invalid_arg "Runlog: obj needs at least one objective";
      Array.iter
        (fun v -> if not (Float.is_finite v) then invalid_arg "Runlog: obj values must be finite")
        o.o_values

let equal a b =
  match (a, b) with
  | Gate a, Gate b ->
      a.g_refit = b.g_refit && a.g_source = b.g_source && a.g_action = b.g_action
      && Float.equal a.g_trust b.g_trust
      && a.g_below = b.g_below
  | Fid a, Fid b ->
      a.f_bracket = b.f_bracket && a.f_rung = b.f_rung
      && Float.equal a.f_value b.f_value
      && a.f_config = b.f_config
  | Rung a, Rung b ->
      a.r_bracket = b.r_bracket && a.r_rung = b.r_rung && a.r_evaluated = b.r_evaluated
      && a.r_promoted = b.r_promoted
      && Float.equal a.r_best b.r_best
  | Obj a, Obj b ->
      a.o_index = b.o_index
      && Array.length a.o_values = Array.length b.o_values
      && Array.for_all2 Float.equal a.o_values b.o_values
  | (Gate _ | Fid _ | Rung _ | Obj _), _ -> false

let verify_prefix ~msg recorded =
  let next = ref 0 in
  fun r ->
    if !next >= Array.length recorded then true
    else begin
      if not (equal recorded.(!next) r) then failwith msg;
      incr next;
      false
    end

let create ?(gates = []) ?(fids = []) ?(rungs = []) ?(objs = []) ~name ~seed ~space entries =
  let entries = Array.of_list entries in
  Array.sort (fun a b -> compare a.index b.index) entries;
  Array.iteri
    (fun i e ->
      if not (Param.Space.validate space e.config) then
        invalid_arg "Runlog.create: invalid configuration";
      if e.attempts < 1 then invalid_arg "Runlog.create: attempts must be at least 1";
      if i > 0 && entries.(i - 1).index = e.index then invalid_arg "Runlog.create: duplicate index")
    entries;
  (* The gate, fid and rung streams keep their given (chronological)
     order: resume verification matches each as a prefix against the
     recomputed stream, so reordering here would manufacture
     divergence. *)
  let gates = Array.of_list gates in
  Array.iter (fun g -> validate (Gate g)) gates;
  let fids = Array.of_list fids in
  Array.iter
    (fun f ->
      validate (Fid f);
      if not (Param.Space.validate space f.f_config) then
        invalid_arg "Runlog.create: invalid fid configuration")
    fids;
  let rungs = Array.of_list rungs in
  Array.iter (fun r -> validate (Rung r)) rungs;
  (* Objective vectors are keyed by entry index, so index order is the
     canonical one (unlike the chronological streams). *)
  let objs = Array.of_list objs in
  Array.sort (fun a b -> compare a.o_index b.o_index) objs;
  Array.iteri
    (fun i o ->
      validate (Obj o);
      if i > 0 then begin
        if objs.(i - 1).o_index = o.o_index then invalid_arg "Runlog: duplicate obj index";
        if Array.length objs.(i - 1).o_values <> Array.length o.o_values then
          invalid_arg "Runlog: obj rows must agree on the objective count"
      end)
    objs;
  { name; seed; space; entries; gates; fids; rungs; objs }

let history t =
  Array.of_list
    (List.filter_map
       (fun e -> match e.status with Ok y -> Some (e.config, y) | Failed _ -> None)
       (Array.to_list t.entries))

let best t =
  Array.fold_left
    (fun acc e ->
      match (e.status, acc) with
      | Failed _, _ -> acc
      | Ok y, Some (_, by) when by <= y -> acc
      | Ok y, _ -> Some (e.config, y))
    None t.entries

let count_kind t kind =
  Array.fold_left
    (fun n e -> match e.status with Failed k when k = kind -> n + 1 | _ -> n)
    0 t.entries

(* ---- serialization ---- *)

let failure_kind_to_string = function
  | Crash -> "failed"
  | Transient -> "transient"
  | Permanent -> "permanent"
  | Timeout -> "timeout"
  | Infeasible -> "infeasible"

let failure_kind_of_string = function
  | "failed" -> Some Crash
  | "transient" -> Some Transient
  | "permanent" -> Some Permanent
  | "timeout" -> Some Timeout
  | "infeasible" -> Some Infeasible
  | _ -> None

(* The spec codec doubles as the wire format of the serve protocol's
   space descriptions, so it is exported ([spec_to_string] /
   [spec_of_string]) rather than private to the #spec header lines. *)
let spec_to_string spec =
  let name = Param.Spec.name spec in
  if String.contains name '=' || String.contains name ',' || String.contains name ':' then
    invalid_arg "Runlog: parameter names may not contain '=', ':' or ','";
  match Param.Spec.domain spec with
  | Param.Spec.Categorical labels ->
      Array.iter
        (fun l ->
          if String.contains l ',' then invalid_arg "Runlog: labels may not contain ','")
        labels;
      Printf.sprintf "%s=cat:%s" name (String.concat "," (Array.to_list labels))
  | Param.Spec.Ordinal levels ->
      Printf.sprintf "%s=ord:%s" name
        (String.concat "," (Array.to_list (Array.map (Printf.sprintf "%.17g") levels)))
  | Param.Spec.Permutation n -> Printf.sprintf "%s=perm:%d" name n
  | Param.Spec.Continuous _ -> invalid_arg "Runlog: continuous parameters are not supported"

let header_string ~version ~name ~seed ~specs =
  let buf = Buffer.create 512 in
  Printf.bprintf buf "#runlog v%d\n#name %s\n#seed %d\n" version name seed;
  Array.iter (fun spec -> Printf.bprintf buf "#spec %s\n" (spec_to_string spec)) specs;
  Buffer.add_string buf "index";
  Array.iter (fun spec -> Buffer.add_string buf ("," ^ Param.Spec.name spec)) specs;
  Buffer.add_string buf ",objective,status";
  if version >= 2 then Buffer.add_string buf ",attempts";
  Buffer.add_char buf '\n';
  Buffer.contents buf

let add_cells buf ~specs config =
  Array.iteri
    (fun i v ->
      Buffer.add_char buf ',';
      Buffer.add_string buf (Param.Spec.value_to_string specs.(i) v))
    config

let add_entry buf ~version ~specs e =
  Buffer.add_string buf (string_of_int e.index);
  add_cells buf ~specs e.config;
  (match e.status with
  | Ok y -> Printf.bprintf buf ",%.17g,ok" y
  | Failed kind -> Buffer.add_string buf (",," ^ failure_kind_to_string kind));
  if version >= 2 then Buffer.add_string buf ("," ^ string_of_int e.attempts);
  Buffer.add_char buf '\n'

(* A decision line is "#<tag> " then comma-separated fields. Every
   float is written in hex ("%h") so a resumed campaign verifies its
   recomputed decisions and replays its recorded values bit-exactly —
   "%.17g" round-trips too, but hex is unambiguous about it. *)
let add_record buf ~specs = function
  | Gate g ->
      Printf.bprintf buf "#gate %d,%d,%s,%h,%d\n" g.g_refit g.g_source g.g_action g.g_trust
        g.g_below
  | Fid f ->
      Printf.bprintf buf "#fid %d,%d,%h" f.f_bracket f.f_rung f.f_value;
      add_cells buf ~specs f.f_config;
      Buffer.add_char buf '\n'
  | Rung r ->
      Printf.bprintf buf "#rung %d,%d,%d,%d,%h\n" r.r_bracket r.r_rung r.r_evaluated r.r_promoted
        r.r_best
  | Obj o ->
      Printf.bprintf buf "#obj %d" o.o_index;
      Array.iter (Printf.bprintf buf ",%h") o.o_values;
      Buffer.add_char buf '\n'

let to_string ?(version = 2) t =
  if version <> 1 && version <> 2 then invalid_arg "Runlog.to_string: unknown format version";
  let specs = Param.Space.specs t.space in
  let buf = Buffer.create 4096 in
  Buffer.add_string buf (header_string ~version ~name:t.name ~seed:t.seed ~specs);
  Array.iter (add_entry buf ~version ~specs) t.entries;
  (* v1 predates decision lines; like the attempts column, they are
     dropped from a v1 rendering. *)
  if version >= 2 then begin
    Array.iter (fun g -> add_record buf ~specs (Gate g)) t.gates;
    Array.iter (fun f -> add_record buf ~specs (Fid f)) t.fids;
    Array.iter (fun r -> add_record buf ~specs (Rung r)) t.rungs;
    Array.iter (fun o -> add_record buf ~specs (Obj o)) t.objs
  end;
  Buffer.contents buf

(* Field parsers shared by the header, entry and decision-line
   grammars; [what] names the field in the [Failure] message. *)
let int_field what s =
  match int_of_string_opt (String.trim s) with
  | Some i -> i
  | None -> failwith ("Runlog: malformed " ^ what)

let float_field what s =
  match float_of_string_opt (String.trim s) with
  | Some v -> v
  | None -> failwith ("Runlog: malformed " ^ what)

let spec_of_string s =
  (* "name=kind:v1,v2,..." *)
  let malformed () = failwith "Runlog: malformed #spec line" in
  let eq = match String.index_opt s '=' with Some i -> i | None -> malformed () in
  let name = String.sub s 0 eq and rest = String.sub s (eq + 1) (String.length s - eq - 1) in
  let colon = match String.index_opt rest ':' with Some i -> i | None -> malformed () in
  let values =
    String.split_on_char ',' (String.sub rest (colon + 1) (String.length rest - colon - 1))
  in
  match (String.sub rest 0 colon, values) with
  | "cat", _ -> Param.Spec.categorical name values
  | "ord", _ ->
      Param.Spec.ordinal_floats name
        (List.map
           (fun s ->
             match float_of_string_opt s with
             | Some f -> f
             | None -> failwith "Runlog: malformed ordinal level")
           values)
  | "perm", [ v ] -> (
      match Param.Spec.permutation name (int_field "permutation size" v) with
      | spec -> spec
      | exception Invalid_argument msg -> failwith msg)
  | "perm", _ -> malformed ()
  | kind, _ -> failwith (Printf.sprintf "Runlog: unknown spec kind %S" kind)

let value_of_string spec s =
  match Param.Spec.domain spec with
  | Param.Spec.Categorical labels ->
      let rec find i =
        if i = Array.length labels then failwith (Printf.sprintf "Runlog: unknown label %S" s)
        else if labels.(i) = s then Param.Value.Categorical i
        else find (i + 1)
      in
      find 0
  | Param.Spec.Ordinal levels ->
      let x =
        match float_of_string_opt s with
        | Some x -> x
        | None -> failwith (Printf.sprintf "Runlog: malformed level %S" s)
      in
      let rec find i =
        if i = Array.length levels then failwith (Printf.sprintf "Runlog: unknown level %S" s)
        else if Float.abs (levels.(i) -. x) <= 1e-9 *. Float.max 1. (Float.abs levels.(i)) then
          Param.Value.Ordinal i
        else find (i + 1)
      in
      find 0
  | Param.Spec.Permutation n -> begin
      match Param.Spec.permutation_of_string n s with
      | v -> v
      | exception Invalid_argument _ ->
          failwith (Printf.sprintf "Runlog: malformed permutation %S" s)
    end
  | Param.Spec.Continuous _ -> assert false

let config_cells ~specs cells = Array.mapi (fun i s -> value_of_string specs.(i) s) cells

(* Split a row into its decision tag and field text when it is a
   decision line ("#gate ", "#fid ", "#rung " or "#obj "); any other
   row is an entry row. *)
let decision_tag line =
  if line.[0] <> '#' then None
  else
    match String.index_opt line ' ' with
    | Some sp -> (
        match String.sub line 1 (sp - 1) with
        | ("gate" | "fid" | "rung" | "obj") as tag ->
            Some (tag, String.sub line (sp + 1) (String.length line - sp - 1))
        | _ -> None)
    | None -> None

(* Field layouts, after the tag:
     gate  refit,source,action,trust,below
     fid   bracket,rung,value,<one cell per parameter>
     rung  bracket,rung,evaluated,promoted,best
     obj   index,v1,v2,...
   A record that parses but fails {!validate} is malformed too, so
   [~recover] can drop a torn final line whichever way it tore. *)
let parse_record ~specs tag body =
  let record =
    match (tag, String.split_on_char ',' body) with
    | "gate", [ refit; source; action; trust; below ] ->
        Gate
          {
            g_refit = int_field "gate refit" refit;
            g_source = int_field "gate source" source;
            g_action = String.trim action;
            g_trust = float_field "gate trust" trust;
            g_below = int_field "gate below" below;
          }
    | "fid", bracket :: rung :: value :: cells when List.length cells = Array.length specs ->
        Fid
          {
            f_bracket = int_field "fid bracket" bracket;
            f_rung = int_field "fid rung" rung;
            f_value = float_field "fid value" value;
            f_config = config_cells ~specs (Array.of_list cells);
          }
    | "rung", [ bracket; rung; evaluated; promoted; best ] ->
        Rung
          {
            r_bracket = int_field "rung bracket" bracket;
            r_rung = int_field "rung rung" rung;
            r_evaluated = int_field "rung evaluated" evaluated;
            r_promoted = int_field "rung promoted" promoted;
            r_best = float_field "rung best" best;
          }
    | "obj", index :: (_ :: _ as values) ->
        Obj
          {
            o_index = int_field "obj index" index;
            o_values = Array.of_list (List.map (float_field "obj value") values);
          }
    | _ -> failwith (Printf.sprintf "Runlog: malformed #%s line" tag)
  in
  match validate record with () -> record | exception Invalid_argument msg -> failwith msg

let of_string ?(recover = false) text =
  let lines = String.split_on_char '\n' text |> List.filter (fun l -> String.trim l <> "") in
  let version, rest =
    match lines with
    | magic :: rest when String.trim magic = "#runlog v1" -> (1, rest)
    | magic :: rest when String.trim magic = "#runlog v2" -> (2, rest)
    | _ -> failwith "Runlog: missing '#runlog v1' magic"
  in
  let name = ref "" and seed = ref 0 and specs = ref [] in
  let rec headers = function
    | line :: rest when String.length line > 0 && line.[0] = '#' ->
        let value () = String.sub line 6 (String.length line - 6) in
        (match if String.length line > 6 then String.sub line 0 6 else "" with
        | "#name " -> name := value ()
        | "#seed " -> seed := int_field "#seed line" (value ())
        | "#spec " -> specs := spec_of_string (value ()) :: !specs
        | _ -> failwith (Printf.sprintf "Runlog: unknown header %S" line));
        headers rest
    | rest -> rest
  in
  let body = headers rest in
  let space = Param.Space.make (List.rev !specs) in
  let spec_arr = Param.Space.specs space in
  let n_params = Array.length spec_arr in
  let n_fields = n_params + if version >= 2 then 4 else 3 in
  let parse_entry line =
    let fields = String.split_on_char ',' line |> Array.of_list in
    if Array.length fields <> n_fields then
      failwith
        (Printf.sprintf "Runlog: row has %d fields, expected %d" (Array.length fields) n_fields);
    let index =
      match int_of_string_opt fields.(0) with
      | Some i -> i
      | None -> failwith "Runlog: malformed index"
    in
    let config = config_cells ~specs:spec_arr (Array.sub fields 1 n_params) in
    let status =
      match String.trim fields.(n_params + 2) with
      | "ok" -> begin
          match float_of_string_opt fields.(n_params + 1) with
          | Some y -> Ok y
          | None -> failwith "Runlog: ok row without objective"
        end
      | other -> begin
          match failure_kind_of_string other with
          | Some kind -> Failed kind
          | None -> failwith (Printf.sprintf "Runlog: unknown status %S" other)
        end
    in
    let attempts =
      if version < 2 then 1
      else
        match int_field "attempts" fields.(n_params + 3) with
        | a when a >= 1 -> a
        | _ -> failwith "Runlog: malformed attempts"
    in
    { index; config; status; attempts }
  in
  match body with
  | [] -> failwith "Runlog: missing column header"
  | _header :: rows ->
      (* With [recover], a parse failure on the *final* row — the
         signature of a crash mid-write — drops that row; failures
         anywhere else still abort. Decision lines interleave with
         entry rows in write order; each kind keeps its own
         chronological order. *)
      let n_rows = List.length rows in
      let entries = ref [] and gates = ref [] and fids = ref [] and rungs = ref [] in
      let objs = ref [] in
      List.iteri
        (fun i line ->
          match
            match decision_tag line with
            | None -> entries := parse_entry line :: !entries
            | Some (tag, body) -> (
                match parse_record ~specs:spec_arr tag body with
                | Gate g -> gates := g :: !gates
                | Fid f -> fids := f :: !fids
                | Rung r -> rungs := r :: !rungs
                | Obj o -> objs := o :: !objs)
          with
          | () -> ()
          | exception Failure msg -> if not (recover && i = n_rows - 1) then failwith msg)
        rows;
      create ~gates:(List.rev !gates) ~fids:(List.rev !fids) ~rungs:(List.rev !rungs)
        ~objs:(List.rev !objs) ~name:!name ~seed:!seed ~space (List.rev !entries)

let save t path =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc (to_string t))

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let load ?recover path = of_string ?recover (read_file path)

(* ---- incremental writer ---- *)

type writer = {
  w_oc : out_channel;
  w_path : string;
  w_specs : Param.Spec.t array;
  mutable w_closed : bool;
}

let writer_open ~path ~specs text =
  let oc = open_out path in
  output_string oc text;
  flush oc;
  { w_oc = oc; w_path = path; w_specs = specs; w_closed = false }

let writer_create ~path ~name ~seed ~space =
  let specs = Param.Space.specs space in
  writer_open ~path ~specs (header_string ~version:2 ~name ~seed ~specs)

(* Rewrite the (recovered) log from scratch: this truncates any
   partial final line left by a crash and upgrades v1 files to v2, so
   subsequent appends always extend a well-formed file. *)
let writer_resume ~path t = writer_open ~path ~specs:(Param.Space.specs t.space) (to_string t)

(* One flushed line per record: the file on disk always holds every
   record written so far. *)
let writer_line w add =
  if w.w_closed then invalid_arg "Runlog: record on a closed writer";
  let buf = Buffer.create 64 in
  add buf;
  Buffer.output_buffer w.w_oc buf;
  flush w.w_oc

let writer_record w entry = writer_line w (fun buf -> add_entry buf ~version:2 ~specs:w.w_specs entry)

let writer_append w r =
  writer_line w (fun buf ->
      validate r;
      add_record buf ~specs:w.w_specs r)

let writer_close w =
  if not w.w_closed then begin
    w.w_closed <- true;
    close_out w.w_oc;
    (* Mid-run files interleave decision lines with entry rows in
       write order (each line must hit the disk the moment it exists),
       and a resumed writer's rewrite-then-append produces yet another
       layout. Canonicalize on close — entries sorted by index, then
       each decision kind — so a completed log's bytes never depend on
       how many times the campaign was interrupted. The temp-file
       rename keeps even a crash mid-close from corrupting the log. *)
    match of_string (read_file w.w_path) with
    | log ->
        let tmp = w.w_path ^ ".tmp" in
        save log tmp;
        Sys.rename tmp w.w_path
    | exception _ -> ()
  end
