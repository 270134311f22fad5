type rng = { mutable state : int64 }

let rng seed = { state = Int64.of_int (seed * 2654435761 + 1) }

(* splitmix64 *)
let next_u64 r =
  r.state <- Int64.add r.state 0x9E3779B97F4A7C15L;
  let z = r.state in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30))
            0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27))
            0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let next_float r =
  let u = Int64.shift_right_logical (next_u64 r) 11 in
  Int64.to_float u /. 9007199254740992.

let next_int r bound =
  if bound <= 0 then invalid_arg "next_int: bound <= 0";
  let u = Int64.shift_right_logical (next_u64 r) 1 in
  Int64.to_int (Int64.rem u (Int64.of_int bound))

let farray ?(lo = 0.) ?(hi = 1.) ~seed n =
  let r = rng seed in
  Array.init n (fun _ -> lo +. ((hi -. lo) *. next_float r))

let iarray ~seed ~bound n =
  let r = rng seed in
  Array.init n (fun _ -> next_int r bound)

let permutation ~seed n =
  let r = rng seed in
  let a = Array.init n (fun i -> i) in
  for i = n - 1 downto 1 do
    let j = next_int r (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

let csr_graph ~seed ~nodes ~avg_degree =
  let r = rng seed in
  let degs =
    Array.init nodes (fun _ ->
        (* skewed degrees: most nodes small, a few heavy *)
        let u = next_float r in
        let d =
          if u < 0.80 then next_int r (max 1 (avg_degree / 2))
          else if u < 0.99 then avg_degree + next_int r (3 * avg_degree + 1)
          else 64 * avg_degree
        in
        min d (nodes - 1))
  in
  let row_ptr = Array.make (nodes + 1) 0 in
  for i = 0 to nodes - 1 do
    row_ptr.(i + 1) <- row_ptr.(i) + degs.(i)
  done;
  let m = row_ptr.(nodes) in
  let cols = Array.make (max 1 m) 0 in
  for i = 0 to nodes - 1 do
    for k = row_ptr.(i) to row_ptr.(i + 1) - 1 do
      cols.(k) <- next_int r nodes
    done
  done;
  (row_ptr, cols)

let spd_matrix ~seed n =
  let r = rng seed in
  let a = Array.init (n * n) (fun _ -> next_float r) in
  (* diagonal dominance => no pivoting needed *)
  for i = 0 to n - 1 do
    a.((i * n) + i) <- a.((i * n) + i) +. float_of_int n
  done;
  a

let fixed_nodes nodes env =
  match List.assoc_opt "NODES" env with
  | Some n when n <> nodes ->
    Error
      (Printf.sprintf
         "parameter \"NODES\" is fixed at %d for this app (its row-pointer \
          extent is built into the program), got %d"
         nodes n)
  | _ -> Ok []

let steps_below_n env =
  let n = List.assoc "N" env and s = List.assoc "STEPS" env in
  if s > n - 1 then
    Error
      (Printf.sprintf "parameter \"STEPS\" (%d) must be at most N - 1 (%d)" s
         (n - 1))
  else Ok []
