let frame_size = 24

let magic = 0x43535931l (* "CSY1" *)

type error =
  | Truncated of int
  | Oversized of int
  | Bad_magic
  | Bad_checksum
  | Bad_src of int
  | Bad_value

let pp_error ppf = function
  | Truncated len -> Format.fprintf ppf "truncated frame (%d bytes)" len
  | Oversized len -> Format.fprintf ppf "oversized frame (%d bytes)" len
  | Bad_magic -> Format.fprintf ppf "bad magic"
  | Bad_checksum -> Format.fprintf ppf "bad checksum"
  | Bad_src src -> Format.fprintf ppf "source pid %d out of range" src
  | Bad_value -> Format.fprintf ppf "non-finite clock value"

(* splitmix64 finalizer: every input bit affects every output bit, so any
   single-bit wire corruption flips about half the checksum. *)
let mix64 x =
  let open Int64 in
  let z = mul (logxor x (shift_right_logical x 30)) 0xbf58476d1ce4e5b9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94d049bb133111ebL in
  logxor z (shift_right_logical z 31)

let checksum ~src ~bits =
  mix64 (Int64.logxor bits (Int64.of_int (src lxor 0x5ca1ab1e)))

let encode ~src ~value =
  if src < 0 then invalid_arg "Codec.encode: negative src";
  let bits = Int64.bits_of_float value in
  let buf = Bytes.create frame_size in
  Bytes.set_int32_be buf 0 magic;
  Bytes.set_int32_be buf 4 (Int32.of_int src);
  Bytes.set_int64_be buf 8 bits;
  Bytes.set_int64_be buf 16 (checksum ~src ~bits);
  buf

let decode ~max_src buf ~len =
  if len < frame_size then Error (Truncated len)
  else if len > frame_size then Error (Oversized len)
  else if Bytes.get_int32_be buf 0 <> magic then Error Bad_magic
  else begin
    let src = Int32.to_int (Bytes.get_int32_be buf 4) in
    let bits = Bytes.get_int64_be buf 8 in
    if Bytes.get_int64_be buf 16 <> checksum ~src ~bits then Error Bad_checksum
    else if src < 0 || src > max_src then Error (Bad_src src)
    else
      let value = Int64.float_of_bits bits in
      if not (Float.is_finite value) then Error Bad_value
      else Ok (src, value)
  end

(* ---------- telemetry frames ----------

   The fleet emitter ships chunks of a node's btrace byte stream to the
   collector in the same defensive style as maintenance frames: a
   distinct magic, big-endian header, and a splitmix64-chained checksum
   over header and payload, so a scanner's datagram or a corrupted chunk
   is rejected instead of corrupting the merged trace.

     magic "CSYT" (4) | src int32 (4) | seq int32 (4) | ts_ns int64 (8)
     | checksum int64 (8) | payload (datagram length - 28)

   [seq] numbers a node's frames consecutively so the collector can
   account for losses; [ts_ns] is the emitter's monotonic-clock stamp
   ({!Csync_obs.Registry.now_ns}) used as the merge key. *)

let tel_magic = 0x43535954l (* "CSYT" *)

let tel_header_size = 28

(* Stay well under the 65,507-byte UDP payload ceiling; the emitter
   chunks its stream to this. *)
let max_tel_payload = 60_000

let tel_checksum ~src ~seq ~ts_ns payload =
  let h = ref (checksum ~src ~bits:(Int64.of_int ts_ns)) in
  h := mix64 (Int64.logxor !h (Int64.of_int (seq lxor 0x7e1e)));
  String.iter
    (fun c -> h := mix64 (Int64.logxor !h (Int64.of_int (Char.code c))))
    payload;
  !h

let encode_tel ~src ~seq ~ts_ns payload =
  if src < 0 then invalid_arg "Codec.encode_tel: negative src";
  if seq < 0 then invalid_arg "Codec.encode_tel: negative seq";
  if ts_ns < 0 then invalid_arg "Codec.encode_tel: negative ts_ns";
  if String.length payload > max_tel_payload then
    invalid_arg "Codec.encode_tel: payload exceeds max_tel_payload";
  let buf = Bytes.create (tel_header_size + String.length payload) in
  Bytes.set_int32_be buf 0 tel_magic;
  Bytes.set_int32_be buf 4 (Int32.of_int src);
  Bytes.set_int32_be buf 8 (Int32.of_int seq);
  Bytes.set_int64_be buf 12 (Int64.of_int ts_ns);
  Bytes.set_int64_be buf 20 (tel_checksum ~src ~seq ~ts_ns payload);
  Bytes.blit_string payload 0 buf tel_header_size (String.length payload);
  buf

let decode_tel ~max_src buf ~len =
  if len < tel_header_size then Error (Truncated len)
  else if len > tel_header_size + max_tel_payload then Error (Oversized len)
  else if Bytes.get_int32_be buf 0 <> tel_magic then Error Bad_magic
  else begin
    let src = Int32.to_int (Bytes.get_int32_be buf 4) in
    let seq = Int32.to_int (Bytes.get_int32_be buf 8) in
    let ts_ns = Int64.to_int (Bytes.get_int64_be buf 12) in
    let payload = Bytes.sub_string buf tel_header_size (len - tel_header_size) in
    if Bytes.get_int64_be buf 20 <> tel_checksum ~src ~seq ~ts_ns payload then
      Error Bad_checksum
    else if src < 0 || src > max_src then Error (Bad_src src)
    else if seq < 0 || ts_ns < 0 then Error Bad_value
    else Ok (src, seq, ts_ns, payload)
  end
