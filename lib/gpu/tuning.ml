(* Fail-fast parsers for the PPAT_* environment variables.

   A malformed knob used to be silently ignored (PPAT_SIM_JOBS=four ran
   serially with no diagnostic); now every PPAT_* consumer goes through
   these parsers and a bad value raises [Bad_env] with a message naming
   the variable and the accepted values. The pure [parse_*] functions take
   the raw string so unit tests can exercise the error paths without
   touching the environment. Every variable is read at call time; no
   setting lives here as process state. *)

exception Bad_env of string

let parse_bool ~name s =
  match String.lowercase_ascii (String.trim s) with
  | "1" | "true" | "on" | "yes" -> Ok true
  | "0" | "false" | "off" | "no" -> Ok false
  | _ ->
    Error
      (Printf.sprintf
         "%s=%S is not a boolean (accepted: 1|0|true|false|on|off|yes|no)"
         name s)

let parse_pos_int ~name s =
  match int_of_string_opt (String.trim s) with
  | Some n when n >= 1 -> Ok n
  | Some n ->
    Error (Printf.sprintf "%s=%d must be a positive integer (>= 1)" name n)
  | None ->
    Error (Printf.sprintf "%s=%S is not a positive integer" name s)

(* [choices] pairs every accepted alias list with its value; the error
   message lists the canonical (first) alias of each choice *)
let parse_enum ~name choices s =
  let key = String.lowercase_ascii (String.trim s) in
  match List.find_opt (fun (aliases, _) -> List.mem key aliases) choices with
  | Some (_, v) -> Ok v
  | None ->
    Error
      (Printf.sprintf "%s=%S is not recognised (accepted: %s)" name s
         (String.concat "|" (List.map (fun (a, _) -> List.hd a) choices)))

(* read [name] through [parse]; unset is [None], malformed raises *)
let env name parse =
  match Sys.getenv_opt name with
  | None -> None
  | Some s -> (
    match parse ~name s with Ok v -> Some v | Error e -> raise (Bad_env e))
