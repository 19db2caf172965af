(** A persistent domain pool with OpenMP-style parallel loops.

    This is the runtime substrate behind the executable kernels in
    [lib/kernels]: their tunable "schedule" and "threads" parameters
    map directly onto {!schedule} and the pool size, so the tuner can
    optimize real multicore execution rather than a cost model.

    A pool owns [num_domains] worker domains plus the calling domain,
    which always participates in loops. Creating domains is expensive
    (~ms); create one pool and reuse it. All loop bodies must be
    thread-safe for the index ranges they receive. *)

type t

val create : ?num_domains:int -> unit -> t
(** [create ()] spawns [Domain.recommended_domain_count - 1] workers
    (possibly zero — the pool then degrades to sequential execution).
    [num_domains] overrides the worker count; it must be
    non-negative. *)

val size : t -> int
(** Number of participants in a loop: workers + the caller. *)

val shutdown : t -> unit
(** Join all workers. The pool must not be used afterwards; calling
    [shutdown] twice is safe. *)

val with_pool : ?num_domains:int -> (t -> 'a) -> 'a
(** Create, run, and always shut down (also on exceptions). *)

type 'a future
(** A single task submitted with {!async}, completed (or failed) at
    most once. *)

val async : t -> (unit -> 'a) -> 'a future
(** [async pool f] enqueues [f] to run on a worker domain and returns
    immediately; the asynchronous campaign engine uses this to keep
    [k] evaluations in flight. When the pool has zero worker domains
    [f] runs inline before [async] returns (nothing else would drain
    the queue), so the future is already completed — the degradation
    mirrors the sequential fallback of the parallel loops. [f] must
    not {!await} another future of the same pool (a task queued behind
    it could never run) and must be thread-safe with respect to any
    concurrently submitted work. Raises [Invalid_argument] after
    {!shutdown}. *)

val await : 'a future -> 'a
(** Block until the future's task has finished and return its result,
    re-raising the task's exception if it failed. May be called any
    number of times (from the domain that created the pool). *)

(** Loop scheduling policies, mirroring OpenMP's:
    - [Static]: iterations are split into [size ()] contiguous blocks
      up front — lowest overhead, best for uniform iterations.
    - [Dynamic chunk]: workers grab [chunk] iterations at a time from
      a shared counter — balances irregular work, more traffic.
    - [Guided]: like [Dynamic] but the grab size starts large and
      shrinks with the remaining work. *)
type schedule = Static | Dynamic of int | Guided

val parallel_for : t -> ?schedule:schedule -> lo:int -> hi:int -> (int -> unit) -> unit
(** [parallel_for pool ~lo ~hi f] runs [f i] for every [lo <= i < hi],
    each index exactly once, partitioned by [schedule] (default
    [Static]). Returns when every iteration has finished. Exceptions
    raised by [f] on the calling domain propagate; exceptions on
    worker domains are re-raised on the caller after the loop
    completes. Nested [parallel_for] on the same pool is not
    supported. *)

val map_array_result :
  t -> ?schedule:schedule -> ('a -> 'b) -> 'a array -> ('b, exn) Stdlib.result array
(** Failure-isolating parallel map for batch evaluation: an exception
    raised by [f] on one element becomes that element's [Error] and
    every other element still completes — one crashing batch member
    never aborts the batch. *)
