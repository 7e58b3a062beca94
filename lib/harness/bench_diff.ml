(* The current commit, read straight from .git (no subprocess): HEAD is
   either a detached hash or a "ref: ..." pointer into refs/ or
   packed-refs. *)
let git_revision () =
  let read_file path =
    try
      let ic = open_in path in
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () -> Some (String.trim (input_line ic)))
    with Sys_error _ | End_of_file -> None
  in
  let resolve_ref r =
    match read_file (Filename.concat ".git" r) with
    | Some hash -> Some hash
    | None -> (
      (* packed-refs lines: "<hash> <ref>" *)
      try
        let ic = open_in (Filename.concat ".git" "packed-refs") in
        Fun.protect
          ~finally:(fun () -> close_in ic)
          (fun () ->
            let rec scan () =
              let line = input_line ic in
              match String.index_opt line ' ' with
              | Some i when String.sub line (i + 1) (String.length line - i - 1) = r
                -> Some (String.sub line 0 i)
              | _ -> scan ()
            in
            try scan () with End_of_file -> None)
      with Sys_error _ -> None)
  in
  match read_file (Filename.concat ".git" "HEAD") with
  | Some head when String.length head > 5 && String.sub head 0 5 = "ref: " ->
    Option.value ~default:"unknown"
      (resolve_ref (String.sub head 5 (String.length head - 5)))
  | Some hash -> hash
  | None -> "unknown"
