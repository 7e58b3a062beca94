type t =
  | Sync
  | Ms
  | Es of { gst : int }
  | Ess of { gst : int }
  | Async
  | Dynamic of { stability : int; rooted : bool }

let pp ppf = function
  | Sync -> Format.pp_print_string ppf "SYNC"
  | Ms -> Format.pp_print_string ppf "MS"
  | Es { gst } -> Format.fprintf ppf "ES(gst=%d)" gst
  | Ess { gst } -> Format.fprintf ppf "ESS(gst=%d)" gst
  | Async -> Format.pp_print_string ppf "ASYNC"
  | Dynamic { stability; rooted } ->
    Format.fprintf ppf "DYN(s=%d%s)" stability (if rooted then "" else ",unrooted")

let to_string t = Format.asprintf "%a" pp t

(* Rounds are grouped into windows of [stability]; each window opens with a
   reconfiguration pulse and then holds still for the remaining rounds. *)
let pulse ~stability ~round = (round - 1) mod stability = 0

type owed = Nothing | A_source | Every_sender | Stable_source

let owes t ~round =
  match t with
  | Sync -> Every_sender
  | Ms -> A_source
  | Es { gst } -> if round >= gst then Every_sender else A_source
  | Ess { gst } -> if round >= gst then Stable_source else A_source
  | Async -> Nothing
  | Dynamic { stability; rooted } ->
    if not (pulse ~stability ~round) then Every_sender
    else if rooted then A_source
    else Nothing

let gst = function
  | Sync -> Some 1
  | Ms | Async | Dynamic _ -> None
  | Es { gst } | Ess { gst } -> Some gst

let validate ~where = function
  | (Es { gst } | Ess { gst }) when gst < 1 ->
    Config_error.fail ~where (Printf.sprintf "gst must be >= 1 (got %d)" gst)
  | Dynamic { stability; _ } when stability < 1 ->
    Config_error.fail ~where
      (Printf.sprintf "stability must be >= 1 (got %d)" stability)
  | Sync | Ms | Es _ | Ess _ | Async | Dynamic _ -> ()

let of_string s =
  let fail () =
    Error
      (Printf.sprintf
         "unknown environment %S (sync|ms|async|es:GST|ess:GST|dynamic:S[:unrooted])" s)
  in
  let int_of s = int_of_string_opt s in
  match String.split_on_char ':' (String.lowercase_ascii s) with
  | [ "sync" ] -> Ok Sync
  | [ "ms" ] -> Ok Ms
  | [ "async" ] -> Ok Async
  | [ "es" ] -> Ok (Es { gst = 10 })
  | [ "ess" ] -> Ok (Ess { gst = 10 })
  | [ "es"; g ] -> (
    match int_of g with Some gst when gst >= 1 -> Ok (Es { gst }) | _ -> fail ())
  | [ "ess"; g ] -> (
    match int_of g with Some gst when gst >= 1 -> Ok (Ess { gst }) | _ -> fail ())
  | [ "dynamic"; st ] | [ "dyn"; st ] -> (
    match int_of st with
    | Some stability when stability >= 1 -> Ok (Dynamic { stability; rooted = true })
    | _ -> fail ())
  | [ "dynamic"; st; "unrooted" ] | [ "dyn"; st; "unrooted" ] -> (
    match int_of st with
    | Some stability when stability >= 1 -> Ok (Dynamic { stability; rooted = false })
    | _ -> fail ())
  | _ -> fail ()
