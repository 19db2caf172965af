(* The benchmark's trace: spans kept in memory and written out once.

   A bench span brackets one call into a public entry point (name,
   layer, start, end, parent, campaign). The program's own telemetry
   events, collected per call through [Telemetry.Trace.memory_sink],
   become spans too and are nested under the innermost bench span that
   encloses them in time: Refit/Compile/Rank keep their measured
   duration, every other event is an instant. A span's self time is its
   duration minus the part of it that its children cover.

   One recorder belongs to one domain; a workload with several client
   domains keeps one each and merges them at the end. Columns are flat
   arrays so a run of a few hundred thousand spans stays a few tens of
   MB. Bench spans read the same clock as [Telemetry.Trace]'s default
   ([Unix.gettimeofday]), which is what lets events nest by time. *)

(* Columns live off the OCaml heap, so a few million spans neither
   weigh on the collector nor double under its space overhead. *)
type floats = (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t
type ints = (int32, Bigarray.int32_elt, Bigarray.c_layout) Bigarray.Array1.t

type t = {
  on : bool;
  domain : int;
  kinds : (string * string, int) Hashtbl.t;
  mutable kind_names : (string * string) array;  (* kind id -> (name, layer) *)
  mutable t0 : floats;
  mutable t1 : floats;
  mutable parents : ints;
  mutable campaigns : ints;
  mutable kinds_of : ints;
  mutable n : int;
  mutable stack : int list;  (* open bench spans, innermost first *)
  mutable events : int;  (* spans that came from telemetry events *)
}

let floats n = Bigarray.Array1.create Bigarray.float64 Bigarray.c_layout n
let ints n = Bigarray.Array1.create Bigarray.int32 Bigarray.c_layout n

let create ~on ~domain =
  {
    on;
    domain;
    kinds = Hashtbl.create 32;
    kind_names = [||];
    t0 = floats 0;
    t1 = floats 0;
    parents = ints 0;
    campaigns = ints 0;
    kinds_of = ints 0;
    n = 0;
    stack = [];
    events = 0;
  }

let disabled = create ~on:false ~domain:0
let parent t i = Int32.to_int t.parents.{i}
let campaign t i = Int32.to_int t.campaigns.{i}
let kind t i = t.kind_names.(Int32.to_int t.kinds_of.{i})

let kind_id t name layer =
  match Hashtbl.find_opt t.kinds (name, layer) with
  | Some k -> k
  | None ->
      let k = Array.length t.kind_names in
      Hashtbl.add t.kinds (name, layer) k;
      t.kind_names <- Array.append t.kind_names [| (name, layer) |];
      k

let grow t =
  let cap = max 1024 (2 * t.n) in
  let extend make a =
    let b = make cap in
    Bigarray.Array1.blit a (Bigarray.Array1.sub b 0 t.n);
    b
  in
  t.t0 <- extend floats t.t0;
  t.t1 <- extend floats t.t1;
  t.parents <- extend ints t.parents;
  t.campaigns <- extend ints t.campaigns;
  t.kinds_of <- extend ints t.kinds_of

let push t ~parent ~campaign ~kind t0 t1 =
  if t.n = Bigarray.Array1.dim t.t0 then grow t;
  let id = t.n in
  t.t0.{id} <- t0;
  t.t1.{id} <- t1;
  t.parents.{id} <- Int32.of_int parent;
  t.campaigns.{id} <- Int32.of_int campaign;
  t.kinds_of.{id} <- Int32.of_int kind;
  t.n <- id + 1;
  id

let current t = match t.stack with id :: _ -> id | [] -> -1

let span t ~campaign ~layer name f =
  if not t.on then f ()
  else begin
    let id =
      push t ~parent:(current t) ~campaign ~kind:(kind_id t name layer) (Unix.gettimeofday ())
        Float.nan
    in
    t.stack <- id :: t.stack;
    Fun.protect
      ~finally:(fun () ->
        t.t1.{id} <- Unix.gettimeofday ();
        t.stack <- List.tl t.stack)
      f
  end

let leaf t ~campaign ~layer name t0 t1 =
  if t.on then ignore (push t ~parent:(current t) ~campaign ~kind:(kind_id t name layer) t0 t1)

(* Which layer each telemetry event belongs to, and the interval it
   covers: the three timed phases of a refit keep their duration, the
   rest are instants at their emission time. *)
let event_layer = function
  | Telemetry.Event.Refit _ | Telemetry.Event.Compile _ -> "surrogate"
  | Telemetry.Event.Rank _ -> "strategy"
  | Telemetry.Event.Attempt _ -> "resilience"
  | Telemetry.Event.Promote _ | Telemetry.Event.Demote _ -> "fidelity"
  | _ -> "campaign"

let event_interval ts = function
  | Telemetry.Event.Refit { dur_ms; _ }
  | Telemetry.Event.Compile { dur_ms; _ }
  | Telemetry.Event.Rank { dur_ms; _ } ->
      (ts -. (dur_ms /. 1000.), ts)
  | _ -> (ts, ts)

(* The innermost span among [first, last) enclosing [e0, e1], or
   [first] itself. Spans of one call are in start order, so the search
   starts at the last span opened before [e0] and walks up its
   ancestors. *)
let enclosing t ~first ~last e0 e1 =
  let rec search lo hi =
    (* last index in [lo, hi) with t0 <= e0, assuming t0.(first) <= e0 *)
    if hi - lo <= 1 then lo
    else
      let mid = (lo + hi) / 2 in
      if t.t0.{mid} <= e0 then search mid hi else search lo mid
  in
  let rec up j =
    if j <= first then first
    else if t.t0.{j} <= e0 && e1 <= t.t1.{j} then j
    else up (parent t j)
  in
  up (search first last)

(* Call [f] with a live telemetry trace inside a bench span, then turn
   the events it collected into child spans; [observe] sees every event
   first. Untraced, [f] gets the disabled trace and nothing is
   recorded. *)
let traced_call t ~campaign ~layer name ~observe f =
  if not t.on then f Telemetry.Trace.disabled
  else begin
    let sink, collected = Telemetry.Trace.memory_sink () in
    let trace = Telemetry.Trace.make [ sink ] in
    let first = t.n in
    let result = span t ~campaign ~layer name (fun () -> f trace) in
    Telemetry.Trace.close trace;
    let last = t.n in
    List.iter
      (fun (ts, ev) ->
        observe (ts, ev);
        t.events <- t.events + 1;
        let e0, e1 = event_interval ts ev in
        let parent = enclosing t ~first ~last e0 e1 in
        ignore
          (push t ~parent ~campaign
             ~kind:(kind_id t (Telemetry.Event.name ev) (event_layer ev))
             e0 e1))
      (collected ());
    result
  end

(* Per-span self time: duration minus the union of its children's
   intervals, clipped to the span. *)
let self_times t =
  let n = t.n in
  let first_child = Array.make (n + 1) 0 in
  for i = 0 to n - 1 do
    let p = parent t i in
    if p >= 0 then first_child.(p + 1) <- first_child.(p + 1) + 1
  done;
  for i = 1 to n do
    first_child.(i) <- first_child.(i) + first_child.(i - 1)
  done;
  let fill = Array.copy first_child in
  let children = Array.make (max 1 first_child.(n)) 0 in
  for i = 0 to n - 1 do
    let p = parent t i in
    if p >= 0 then begin
      children.(fill.(p)) <- i;
      fill.(p) <- fill.(p) + 1
    end
  done;
  Array.init n (fun s ->
      let lo = t.t0.{s} and hi = t.t1.{s} in
      let k = first_child.(s + 1) - first_child.(s) in
      if k = 0 then hi -. lo
      else begin
        let iv =
          Array.init k (fun j ->
              let c = children.(first_child.(s) + j) in
              (Float.max lo t.t0.{c}, Float.min hi t.t1.{c}))
        in
        Array.sort compare iv;
        let covered = ref 0. and reach = ref lo in
        Array.iter
          (fun (a, b) ->
            let a = Float.max a !reach in
            if b > a then begin
              covered := !covered +. (b -. a);
              reach := b
            end)
          iv;
        hi -. lo -. !covered
      end)

(* [f duration] for every span called [name]. *)
let iter_named t name f =
  for i = 0 to t.n - 1 do
    if fst (kind t i) = name then f (t.t1.{i} -. t.t0.{i})
  done

type summary = {
  self_by_layer : (string * float) list;  (* seconds *)
  root_s : float;  (* summed durations of top-level spans *)
  spans : int;
  events : int;  (* spans that came from telemetry events *)
}

let summarize recorders =
  let by_layer = Hashtbl.create 16 in
  let root_s = ref 0. and spans = ref 0 and events = ref 0 in
  List.iter
    (fun t ->
      let self = self_times t in
      for i = 0 to t.n - 1 do
        let _, layer = kind t i in
        let prev = Option.value (Hashtbl.find_opt by_layer layer) ~default:0. in
        Hashtbl.replace by_layer layer (prev +. self.(i));
        if parent t i < 0 then root_s := !root_s +. (t.t1.{i} -. t.t0.{i})
      done;
      spans := !spans + t.n;
      events := !events + t.events)
    recorders;
  {
    self_by_layer = Hashtbl.fold (fun l s acc -> (l, s) :: acc) by_layer [];
    root_s = !root_s;
    spans = !spans;
    events = !events;
  }

(* The spans the JSONL keeps: every span of every 32nd campaign, and
   of the bench's own probes (negative campaign ids). A 15-second run
   records a few hundred thousand spans; the sample keeps the file at a
   few MB while the summary line still covers all of them. *)
let sample_every = 32
let written campaign = campaign < 0 || campaign mod sample_every = 0

(* A summary line (span and event counts, summed root time, self time
   and share per layer over every span), then one line per written
   span: ids unique across recorders, times in ms from the earliest
   span. *)
let write_jsonl ~path recorders =
  let s = summarize recorders in
  let origin =
    List.fold_left (fun acc t -> if t.n > 0 then Float.min acc t.t0.{0} else acc) infinity recorders
  in
  let oc = open_out path in
  Printf.fprintf oc
    "{\"summary\":{\"spans\":%d,\"events\":%d,\"root_ms\":%.3f,\"campaigns_written\":\"every %dth\",\"layers\":{%s}}}\n"
    s.spans s.events (s.root_s *. 1e3) sample_every
    (String.concat ","
       (List.map
          (fun (layer, self) ->
            Printf.sprintf "\"%s\":{\"self_ms\":%.3f,\"share\":%.6f}" layer (self *. 1e3)
              (if s.root_s > 0. then self /. s.root_s else 0.))
          (List.sort compare s.self_by_layer)));
  let offset = ref 0 in
  List.iter
    (fun t ->
      let self = self_times t in
      for i = 0 to t.n - 1 do
        if written (campaign t i) then begin
          let name, layer = kind t i in
          let p = parent t i in
          Printf.fprintf oc
            "{\"id\":%d,\"parent\":%d,\"campaign\":%d,\"domain\":%d,\"layer\":\"%s\",\"name\":\"%s\",\"start_ms\":%.3f,\"end_ms\":%.3f,\"self_ms\":%.3f}\n"
            (i + !offset)
            (if p < 0 then -1 else p + !offset)
            (campaign t i) t.domain layer name
            ((t.t0.{i} -. origin) *. 1e3)
            ((t.t1.{i} -. origin) *. 1e3)
            (self.(i) *. 1e3)
        end
      done;
      offset := !offset + t.n)
    recorders;
  close_out oc
