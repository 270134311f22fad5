type t = Buffer.t

let create () = Buffer.create 1024

(* 7-bit groups over the 63-bit word, low group first, high bit = more *)
let rec int b n =
  if n >= 0 && n < 128 then Buffer.add_uint8 b n
  else (Buffer.add_uint8 b (n land 127 lor 128); int b (n lsr 7))

let float b x = Buffer.add_int64_le b (Int64.bits_of_float x)
let string b s = int b (String.length s); Buffer.add_string b s

let data b (d : Host.data) =
  int b (List.length d);
  List.iter
    (fun (name, buf) ->
      string b name;
      match buf with
      | Host.F a -> int b 0; int b (Array.length a); Array.iter (float b) a
      | Host.I a -> int b 1; int b (Array.length a); Array.iter (int b) a)
    d

let digest b = Digest.to_hex (Digest.string (Buffer.contents b))
