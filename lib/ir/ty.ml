type scalar = I32 | F64 | Bool
type extent = Const of int | Param of string

let scalar_bytes = function I32 -> 4 | F64 -> 8 | Bool -> 4

let pp_scalar ppf s =
  Format.pp_print_string ppf
    (match s with I32 -> "i32" | F64 -> "f64" | Bool -> "bool")

let pp_extent ppf = function
  | Const n -> Format.fprintf ppf "%d" n
  | Param p -> Format.pp_print_string ppf p

let extent_value params = function
  | Const n -> n
  | Param p -> List.assoc p params
