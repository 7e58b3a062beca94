type stream = {
  oc : out_channel;
  write : Event.t -> unit;
  finish : unit -> unit;
  mutable unflushed : int;
  mutable closed : bool;
}

type t = Null | Stream of stream | Handler of (Event.t -> unit) | Tee of t list

(* Every open stream is registered here so that an abnormal exit
   (uncaught exception, [exit] from a CLI error path) still finishes and
   closes it: the file left behind is always a whole document. *)
let open_streams : stream list ref = ref []

let close_stream s =
  if not s.closed then begin
    s.closed <- true;
    open_streams := List.filter (fun s' -> s' != s) !open_streams;
    match
      s.finish ();
      Stdlib.flush s.oc
    with
    | () -> close_out s.oc
    | exception (Sys_error _ as e) ->
      close_out_noerr s.oc;
      raise e
  end

(* Closes every stream of [ss], then re-raises the first write error. *)
let close_all ss =
  List.fold_left
    (fun err s ->
      match close_stream s with
      | () -> err
      | exception (Sys_error _ as e) -> Some (Option.value err ~default:e))
    None ss
  |> Option.iter raise

let () = at_exit (fun () -> try close_all !open_streams with Sys_error _ -> ())

let null = Null

let stream oc ~write ~finish =
  let s = { oc; write; finish; unflushed = 0; closed = false } in
  open_streams := s :: !open_streams;
  Stream s

let jsonl oc =
  stream oc ~finish:ignore ~write:(fun ev ->
      output_string oc (Json.to_string (Event.to_json ev));
      output_char oc '\n')

let handler f = Handler f
let tee ts = Tee ts

let rec is_null = function
  | Null -> true
  | Stream _ | Handler _ -> false
  | Tee ts -> List.for_all is_null ts

let rec emit t ev =
  match t with
  | Null -> ()
  | Stream s ->
    s.write ev;
    s.unflushed <- s.unflushed + 1;
    if s.unflushed >= 256 then begin
      Stdlib.flush s.oc;
      s.unflushed <- 0
    end
  | Handler f -> f ev
  | Tee ts -> List.iter (fun t -> emit t ev) ts

let rec streams = function
  | Null | Handler _ -> []
  | Stream s -> [ s ]
  | Tee ts -> List.concat_map streams ts

let flush t = List.iter (fun s -> if not s.closed then Stdlib.flush s.oc) (streams t)
let close t = close_all (streams t)
