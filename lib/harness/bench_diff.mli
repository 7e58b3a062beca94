(** Provenance for benchmark result sets: the spine ([bench/spine])
    stamps every result set with {!git_revision}. The function is alone
    here only until the spine's own code next changes and takes it
    over. *)

val git_revision : unit -> string
(** The commit hash of [./.git]'s HEAD, read without a subprocess
    (detached head, loose ref, or packed-refs); ["unknown"] when
    unreadable. *)
