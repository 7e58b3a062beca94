(** The experiment registry: every table/figure of EXPERIMENTS.md, keyed by
    id, in presentation order. [anonc experiment] builds and renders
    them. *)

type experiment = {
  id : string;
  title : string;  (** Static short title (no build needed to list it). *)
  build : unit -> Table.t;
}

val all : experiment list
val find : string -> experiment option
