(** Live-tuning adapters: parameter spaces and wall-clock objectives
    for the executable kernels, so HiPerBOt can tune real executions
    on the current machine (see [examples/live_tuning.ml]).

    Unlike the recorded datasets in [hpcsim], these objectives are
    genuinely noisy (machine jitter) and machine-dependent — which is
    exactly the regime the paper targets. *)

val schedule_labels : string list
(** The schedule choices exposed as a categorical parameter:
    "static", "dynamic16", "dynamic64", "guided". *)

val schedule_of_label : string -> Parallel.Pool.schedule
(** Raises [Invalid_argument] for unknown labels. *)

val stencil_space : Param.Space.t
(** tile_rows x tile_cols x schedule. *)

val stencil_objective :
  pool:Parallel.Pool.t -> ?rows:int -> ?cols:int -> ?iters:int -> unit -> Param.Config.t -> float
(** Wall-clock seconds for [iters] Jacobi sweeps (default 8) on a
    [rows x cols] grid (default 256 x 256) under the configuration's
    tiling and schedule. *)

val matmul_space : Param.Space.t
(** block_i x block_j x block_k x order x schedule. *)

val matmul_objective : pool:Parallel.Pool.t -> ?n:int -> unit -> Param.Config.t -> float
(** Wall-clock seconds for one [n x n] (default 128) blocked multiply
    under the configuration. *)
