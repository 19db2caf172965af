(** Tuning as a service: a multi-tenant campaign server.

    One {!t} multiplexes any number of concurrent tuning campaigns
    ("sessions"), each an [Async k] {!Campaign} driven remotely by a
    client that asks for configurations and reports measurements —
    the long-running-service shape of autotuning (Dorier et al.)
    rather than the one-shot CLI run. The server performs no
    evaluations itself: clients own the objective, so a session's
    completion order is whatever its clients report, and everything
    the machine guarantees (dedup, constant-liar pending handling,
    out-of-order report rejection, bit-exact resume) carries over.

    {b Sharing.} Sessions over the same parameter space share one
    encoded {!Surrogate.Pool} (keyed by the space's canonical spec
    rendering): pools are immutable after construction, so sharing
    is safe across sessions and domains, while every refit engine
    and compiled table stays session-local — no cross-tenant state.

    {b Persistence.} With [dir], every session is a {!Session} over
    [<dir>/<name>.runlog], the layer CLI [tune --save/--resume] opens
    too: one flushed line per evaluation. Re-[open]ing an existing session after a
    crash rebuilds the campaign from its log via the bit-exact resume
    path, provided the request names the recorded seed and space; a
    refused re-open leaves the file byte-identical. The in-flight
    suggestions the dead server had handed out are refilled
    deterministically and re-delivered on the next [suggest] calls.

    {b Concurrency.} {!handle} is safe to call from any number of
    domains: the session registry and pool cache take a global
    mutex, each session takes its own, and no campaign work runs
    under the global one.

    {b Protocol.} One request line in, one response line out; every
    response starts with [ok] or [err], and a malformed request can
    never kill the loop. Values use the {!Dataset.Runlog} wire codec
    (spaces as ';'-joined [spec_to_string] renderings, configurations
    as comma-joined value cells in spec order).

    {v
    open s1 seed=42 budget=40 k=4 n_init=8 space=level=cat:O0,O1,O2;unroll=ord:1,2,4
    ok open s1 evaluated=0 pending=0
    suggest s1
    ok suggest s1 0 O2,4
    report s1 0 ok:3.7
    ok reported s1 0 evaluated=1
    report s1 0 ok:3.7
    err Campaign.report: suggestion 0 is not pending (...)
    status s1
    ok status s1 state=running evaluated=1 pending=0 best=3.7
    close s1
    ok closed s1
    v}

    [suggest] answers [ok suggest <name> <id> <config>], [ok wait
    <name>] (k suggestions already outstanding), or [ok finished
    <name> evaluated=<n> best=<v|none>]. [report] takes [ok:<float>]
    or [fail:<transient|permanent|timeout|infeasible|crash>] with an
    optional [attempts=<n>]. [open] options: [k] (default 1),
    [n_init], [early_stop] override the server's base options. Any
    other [open] or [report] token is answered with [err]. *)

type t

val create : ?dir:string -> ?options:Campaign.options -> unit -> t
(** A fresh server. [dir] (created if missing) enables per-session
    runlog persistence and crash recovery; without it sessions are
    in-memory only. [options] seeds every session's campaign options
    (default {!Campaign.default_options}); per-session protocol
    options override its [n_init]/[early_stop]. *)

val handle : t -> string -> string
(** Process one request line and return the response line. Never
    raises: parse errors, unknown sessions, campaign rejections
    (duplicate report, finished campaign) and resume divergence all
    come back as [err <message>]. *)

val close_all : t -> unit
(** Close every open session (flushing and canonicalizing their run
    logs). The server stays usable; closed sessions can be re-opened
    from their logs. *)

val n_sessions : t -> int

val n_pools : t -> int
(** Distinct parameter spaces currently cached — sessions over the
    same space share one encoded pool (what the sharing tests
    assert). *)
