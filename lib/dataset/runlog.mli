(** Persistent records of tuning runs.

    A run log captures everything needed to audit, replay, or — since
    format v2 — {e resume} a tuning session: the parameter space, the
    seed, and every evaluation in order, including failed ones with
    their failure kind and how many attempts the retry policy spent on
    them. The on-disk format is a small self-describing text file —
    `#` header lines declaring the space, then CSV rows — so logs are
    diffable and greppable:

    {v
    #runlog v2
    #name lulesh-tune
    #seed 42
    #spec level=cat:O0,O1,O2,O3
    #spec unroll=ord:1,2,4
    index,level,unroll,objective,status,attempts
    0,O3,2,4.12,ok,1
    1,O0,1,,transient,3
    2,O1,4,,timeout,2
    v}

    v1 files (no [attempts] column; the only failure status is
    [failed]) are still parsed; {!of_string} accepts both. The
    {!writer} API appends one flushed line per evaluation, so a killed
    process loses at most the entry being written — and
    [of_string ~recover:true] parses such a truncated file up to its
    last complete entry. *)

type failure_kind =
  | Crash  (** unclassified failure (what v1's [failed] maps to) *)
  | Transient
  | Permanent
  | Timeout
  | Infeasible  (** hard-constraint violation; consumes budget, never retried *)

type status = Ok of float | Failed of failure_kind

type entry = {
  index : int;
  config : Param.Config.t;
  status : status;
  attempts : int;  (** retry-policy attempts consumed (1 when not retried) *)
}

type gate = {
  g_refit : int;  (** trust-update ordinal within the campaign *)
  g_source : int;  (** transfer source index; -1 for the pooled fallback *)
  g_action : string;  (** "attenuate", "restore", "drop", or "fallback" *)
  g_trust : float;  (** trust at the transition, persisted bit-exactly *)
  g_below : int;  (** consecutive below-threshold refits *)
}
(** One persisted transfer-gate decision ([#gate] line). Resume
    recomputes the decision stream deterministically and verifies it
    against the recorded prefix, so a resumed campaign's gate state is
    bit-identical to the uninterrupted one's. *)

type fid = {
  f_bracket : int;  (** successive-halving bracket ordinal *)
  f_rung : int;  (** rung index within the bracket (0 = cheapest) *)
  f_value : float;  (** low-fidelity objective, persisted bit-exactly *)
  f_config : Param.Config.t;
}
(** One persisted low-fidelity observation ([#fid] line). Full-
    fidelity evaluations are ordinary entries; everything below the
    top rung is recorded here so a resumed bracket replays recorded
    values instead of re-running cheap evaluations. *)

type rung = {
  r_bracket : int;
  r_rung : int;  (** the rung that closed *)
  r_evaluated : int;  (** results the closure decision saw *)
  r_promoted : int;  (** survivors promoted to the next rung *)
  r_best : float;  (** best objective at closure, persisted bit-exactly *)
}
(** One persisted rung-closure (promotion) decision ([#rung] line).
    Resume recomputes the closure stream deterministically and
    verifies it against the recorded prefix — same contract as
    {!gate}. *)

type obj = {
  o_index : int;  (** index of the entry this vector annotates *)
  o_values : float array;  (** raw objective vector, persisted bit-exactly *)
}
(** One persisted multi-objective measurement ([#obj] line). A
    multi-objective campaign records the scalarised value as the
    entry's objective and the raw vector here, keyed by entry index,
    so a resumed campaign can rebuild the Pareto front and verify the
    recorded scalarisations bit-exactly. *)

type record = Gate of gate | Fid of fid | Rung of rung | Obj of obj
(** A decision line: everything a run log holds besides its entry
    rows. One codec renders, parses, validates (the checks {!create}
    lists) and appends all four kinds. *)

val equal : record -> record -> bool
(** Same kind and field-wise equal; floats compare with
    [Float.equal] (bit-meaningful, NaN-safe). *)

val verify_prefix : msg:string -> record array -> record -> bool
(** [verify_prefix ~msg recorded] checks a recomputed stream of
    decision lines against a log's recorded ones: while [recorded]
    lasts, each record given must {!equal} the next recorded one
    (raising [Failure msg] otherwise) and the result is [false]; every
    record past the recorded prefix is new, and the result is [true].
    A resumed campaign uses it to verify the decisions its log holds
    and persist only the rest. *)

type t = {
  name : string;
  seed : int;
  space : Param.Space.t;
  entries : entry array;  (** in evaluation order *)
  gates : gate array;  (** gate decisions in emission (chronological) order *)
  fids : fid array;  (** low-fidelity observations in completion order *)
  rungs : rung array;  (** rung closures in decision order *)
  objs : obj array;  (** objective vectors sorted by entry index *)
}

val create :
  ?gates:gate list ->
  ?fids:fid list ->
  ?rungs:rung list ->
  ?objs:obj list ->
  name:string ->
  seed:int ->
  space:Param.Space.t ->
  entry list ->
  t
(** Entries are sorted by index; indices must be distinct, configs
    valid for the space, and attempts >= 1 ([Invalid_argument]
    otherwise). [gates], [fids] and [rungs] (default none) keep their
    given chronological order and are validated (known action, finite
    values, counters in range, fid configs valid for the space).
    [objs] are sorted by entry index and validated (distinct
    non-negative indices, non-empty finite vectors of uniform
    arity). *)

val history : t -> (Param.Config.t * float) array
(** Successful evaluations in order — the shape the metrics layer and
    the tuner drivers' [warm_start] expect. *)

val best : t -> (Param.Config.t * float) option
(** Best successful evaluation, [None] if all failed. *)

val count_kind : t -> failure_kind -> int
(** Number of entries that failed with the given kind. *)

val failure_kind_to_string : failure_kind -> string
(** The status-column word: ["failed"], ["transient"], ["permanent"],
    ["timeout"], or ["infeasible"]. *)

(** {2 Wire codec}

    The textual parameter codec behind the [#spec] header lines and
    CSV value cells, exported because the serve protocol speaks the
    same format: a space travels as one [spec_to_string] rendering
    per parameter, and configurations as comma-joined
    {!Param.Spec.value_to_string} cells parsed back with
    {!value_of_string}. *)

val spec_to_string : Param.Spec.t -> string
(** ["name=cat:a,b"] / ["name=ord:1,2,4"]. Raises [Invalid_argument]
    on continuous specs or names/labels containing the delimiter
    characters ('=', ':', ','). *)

val spec_of_string : string -> Param.Spec.t
(** Inverse of {!spec_to_string}. Raises [Failure] on malformed
    input. *)

val value_of_string : Param.Spec.t -> string -> Param.Value.t
(** Parse one rendered value cell: categorical labels match by
    equality, ordinal levels within a 1e-9 relative tolerance.
    Raises [Failure] on unknown labels or unmatched levels. *)

val to_string : ?version:int -> t -> string
(** Serialize to the format above; [version] is 2 (default) or 1.
    Version 1 is lossy: every failure kind collapses to [failed],
    attempt counts are dropped, and decision lines are omitted. In
    v2 the decision lines follow the entry rows, grouped by kind:
    [#gate refit,source,action,trust,below],
    [#fid bracket,rung,value,v1,v2,...],
    [#rung bracket,rung,evaluated,promoted,best] and
    [#obj index,v1,v2,...] (floats in hex form for bit-exact
    round-trips). Continuous parameters are not supported (the
    reproduction's spaces are finite); raises [Invalid_argument] on a
    continuous spec or an unknown version. *)

val of_string : ?recover:bool -> string -> t
(** Parse v1 or v2 text. Decision lines may interleave with
    evaluation rows anywhere after the column header; each kind keeps
    its own order. Raises [Failure] on malformed
    input. With [~recover:true] (default false) a malformed {e final}
    row or decision line — the residue of a crash mid-write — is
    dropped instead; malformed rows anywhere else still raise. *)

val save : t -> string -> unit
(** Write to a file path (v2). *)

val load : ?recover:bool -> string -> t

(** {2 Incremental, crash-safe writing}

    A [writer] emits the v2 header immediately and then one line per
    entry or decision record, flushing after every write — the append-
    oriented discipline that makes tuning campaigns recoverable: kill
    the process at any point and the file on disk is a valid (at worst
    final-line-truncated) run log of everything evaluated so far. *)

type writer

val writer_create : path:string -> name:string -> seed:int -> space:Param.Space.t -> writer
(** Start a fresh log at [path] (truncating any existing file) and
    write the v2 header. Raises [Invalid_argument] for spaces the
    format cannot represent (continuous parameters). *)

val writer_resume : path:string -> t -> writer
(** Rewrite [path] with the entries of [t] (dropping any truncated
    tail, upgrading v1 files to v2) and return a writer positioned to
    append the resumed campaign's new entries. *)

val writer_record : writer -> entry -> unit
(** Append one entry and flush. Raises [Invalid_argument] on a closed
    writer. *)

val writer_append : writer -> record -> unit
(** Append one decision line and flush — interleaved with the
    evaluation rows in whatever order the campaign produces them.
    Raises [Invalid_argument] on a closed writer or an invalid
    record. *)

val writer_close : writer -> unit
(** Close the underlying channel and rewrite the file in canonical
    form — entries sorted by index, then [#gate], [#fid], [#rung] and
    [#obj] lines (each decision kind chronological, objective vectors
    sorted by entry index), via an atomic
    temp-file rename — so a completed log is byte-identical whether
    the campaign ran straight through or was interrupted and resumed
    any number of times. Idempotent. *)
