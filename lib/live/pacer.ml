(* Adaptive round timeouts. See pacer.mli. *)

module Config_error = Anon_giraf.Config_error

(* Growth per expiry and decay per quiet round. *)
let growth = 2.0
let decay = 0.9

type t = {
  init_s : float;
  max_s : float;
  mutable current : float;
  mutable expiries : int;
  mutable trajectory : float list;  (* reversed *)
}

let create ~init_s ~max_s () =
  let where = "Live.Pacer.create" in
  if not (Float.is_finite init_s && init_s > 0.) then
    Config_error.fail ~where
      (Printf.sprintf "timeout_init must be finite and > 0 (got %g)" init_s);
  if not (Float.is_finite max_s && max_s >= init_s) then
    Config_error.fail ~where
      (Printf.sprintf "timeout_max must be finite and >= timeout_init (got max %g, init %g)"
         max_s init_s);
  { init_s; max_s; current = init_s; expiries = 0; trajectory = [] }

let current t = t.current
let note_wait t = t.trajectory <- t.current :: t.trajectory

let on_expiry t =
  t.expiries <- t.expiries + 1;
  t.current <- Float.min t.max_s (t.current *. growth)

let on_quorum t = t.current <- Float.max t.init_s (t.current *. decay)
let expiries t = t.expiries
let trajectory t = List.rev t.trajectory
