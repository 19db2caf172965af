(** A configuration: one value per parameter of a space.

    Configurations are plain value arrays; the pairing with the
    declaring {!Space.t} is by position. Equality, comparison, and
    hashing are structural, enabling use as hashtable keys (duplicate
    elimination in the Ranking strategy). *)

type t = Value.t array

val equal : t -> t -> bool
val compare : t -> t -> int
val hash : t -> int

module Table : Hashtbl.S with type key = t
(** Hashtables keyed by configuration. *)
