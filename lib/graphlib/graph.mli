(** Undirected graphs over integer node ids [0 .. n-1], stored as
    adjacency lists. Built once per parameter space and reused across
    experiment repetitions (the GEIST baseline's propagation graph). *)

type t

val of_edges : n:int -> (int * int) list -> t
(** Build from an edge list; self-loops and duplicate edges are
    rejected with [Invalid_argument]. *)

val of_adjacency : int array array -> t
(** Build from symmetric adjacency lists (trusted, used by builders
    that construct symmetric structure directly). Raises
    [Invalid_argument] if the lists are not symmetric. *)

val n_nodes : t -> int
val n_edges : t -> int
val degree : t -> int -> int

val mem_edge : t -> int -> int -> bool
val fold_neighbors : t -> int -> init:'a -> f:('a -> int -> 'a) -> 'a

val connected_components : t -> int array
(** Component id per node, ids dense from 0. *)

val is_connected : t -> bool
