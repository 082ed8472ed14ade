(* Splitmix64: fast, high-quality, and trivially seedable.  The 64-bit
   state lives unboxed in an 8-byte buffer, read and written with the
   bytes primitives, so a draw allocates no Int64 box; [mix], [int64] and
   [float] inline into the other draws for the same reason. *)

type t = Bytes.t

external get_state : Bytes.t -> int -> int64 = "%caml_bytes_get64u"

external set_state : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

let golden_gamma = 0x9E3779B97F4A7C15L

let of_int64 s =
  let t = Bytes.create 8 in
  set_state t 0 s;
  t

let create seed = of_int64 (Int64.of_int seed)

let copy = Bytes.copy

let[@inline] mix z =
  let z = Int64.(mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L) in
  let z = Int64.(mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL) in
  Int64.(logxor z (shift_right_logical z 31))

let[@inline] int64 t =
  let s = Int64.add (get_state t 0) golden_gamma in
  set_state t 0 s;
  mix s

let split t = of_int64 (mix (Int64.logxor (int64 t) 0x5851F42D4C957F2DL))

let[@inline] float t =
  (* 53 random bits mapped to [0, 1). *)
  let bits = Int64.shift_right_logical (int64 t) 11 in
  Int64.to_float bits *. 0x1p-53

let uniform t ~lo ~hi =
  if lo > hi then invalid_arg "Rng.uniform: lo > hi";
  lo +. ((hi -. lo) *. float t)

let int t n =
  if n <= 0 then invalid_arg "Rng.int: nonpositive bound";
  (* Rejection-free modulo is fine here: n is tiny compared to 2^62. *)
  Int64.to_int (Int64.rem (Int64.shift_right_logical (int64 t) 1) (Int64.of_int n))

let bool t = Int64.logand (int64 t) 1L = 1L

let gaussian t =
  let rec draw () =
    let u = float t in
    if u <= 0. then draw () else u
  in
  let u1 = draw () and u2 = float t in
  sqrt (-2. *. log u1) *. cos (2. *. Float.pi *. u2)

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done
