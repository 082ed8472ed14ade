(* [csync-btrace/1] — the binary trace container.

   Layout: a magic line, then length-prefixed records:

     record   := uvarint payload_len, payload
     payload  := tag byte, tag-specific body

   Length prefixes let a reader skip record kinds it does not know.
   Numeric metrics (counters, gauges, series, hists, spans, monitor
   verdicts) get compact binary bodies; manifest and event records — a
   handful per trace, with free-form JSON inside — are carried as JSON
   text under a single JSONREC tag (as is a monitor's first-violation
   object, when one exists).

   Metric names are "<label>/<base>" ({!Record.split_name}); label and
   base are interned separately in a shared string table (STRDEF assigns
   ids 0, 1, 2… in order of first use), so the per-cell label that
   prefixes every metric of an experiment cell is stored once.  A STRDEF
   body is [uvarint ref, uvarint shared, suffix] ([ref] = id+1, 0 means
   no reference and omits [shared]): [shared] bytes are copied from the
   front of the referenced earlier string, so sibling names ("profile.
   apply.ns" after "profile.advance.ns") pay only their distinct tail.
   The writer finds that reference in a prefix trie of every string
   defined so far, so interning is linear in the total name length.

   Integers are unsigned LEB128 varints ([zigzag] for signed); bare
   floats are binary64 little-endian.  Float arrays pick the cheapest
   encoding per array: RANGE (start, step) for arithmetic progressions —
   round indices and constant series; INT_SCALED / INT_DELTA (zigzag
   varint deltas, optionally divided by a common factor such as the
   clock granularity) when every value is exactly an integer; F64_XOR
   (uvarint of the bit-pattern XOR against the previous value) when
   values repeat or share exponent/high-mantissa structure — a
   steady-state skew series costs one byte per repeated point; RAW64
   otherwise.  Histogram bin counts are zigzag deltas between adjacent
   bins (smooth distributions have small neighbor differences).  Float
   pairs (hist lo/hi, span total/max) become two varints when both
   values are exact nanosecond quotients — every duration is — and
   otherwise XOR-code the second against the first. *)

let magic = "csync-btrace/1\n"

(* record tags *)
let tag_strdef = 0
let tag_jsonrec = 1
let tag_counter = 2
let tag_gauge = 3
let tag_series = 4
let tag_hist = 5
let tag_span = 6
let tag_monitor = 7

(* series array encodings *)
let enc_raw64 = 0
let enc_int_delta = 1
let enc_f64_xor = 2
let enc_range = 3
let enc_int_scaled = 4

(* span / hist-bound float encodings *)
let enc_two_f64 = 0
let enc_two_ns = 1

(* histogram bin-count encodings *)
let cnt_dense = 0
let cnt_sparse = 1

let zigzag n = (n lsl 1) lxor (n asr 62)

let unzigzag n = (n lsr 1) lxor (-(n land 1))

(* ---------- writer ---------- *)

(* A prefix trie over the defined strings, one node per distinct prefix.
   [first] is the lowest id among the strings through the node: ids only
   grow, so that is the id of the string that created it. *)
type trie = { first : int; mutable kids : (char * trie) list }

(* Interned ids by string, hashed and compared as strings: the generic
   table's polymorphic compare is a C call on every probe. *)
module Strtbl = Hashtbl.Make (struct
  type t = string

  let equal = String.equal
  let hash (s : string) = Hashtbl.hash s
end)

(* The writer is generalized over a sink so the same encoder serves both
   file output and the fleet emitter's socket stream.  The sink only
   ever receives *whole frames* (length prefix + payload as one string),
   so a flush — or a network packet boundary — can never split a record:
   chunked output concatenates to exactly the one-shot encoding. *)
type writer = {
  sink : string -> unit;
  flush_sink : unit -> unit;
  ids : int Strtbl.t;
  mutable next_id : int;
  defs : trie;  (* root: the empty prefix *)
  buf : Buffer.t;  (* current record payload *)
  mutable pending : int;  (* records since last flush *)
}

let flush_period = 64

let put_uvarint buf n =
  if n < 0 then invalid_arg "Btrace: negative varint";
  let n = ref n in
  while !n >= 0x80 do
    Buffer.add_char buf (Char.chr (0x80 lor (!n land 0x7f)));
    n := !n lsr 7
  done;
  Buffer.add_char buf (Char.chr !n)

let put_varint buf n = put_uvarint buf (zigzag n)

(* Full 64-bit varints carry float bit patterns (XOR residuals), which
   don't fit OCaml's 63-bit int. *)
let put_uvarint64 buf n =
  let n = ref n in
  while Int64.unsigned_compare !n 0x80L >= 0 do
    Buffer.add_char buf (Char.chr (0x80 lor (Int64.to_int !n land 0x7f)));
    n := Int64.shift_right_logical !n 7
  done;
  Buffer.add_char buf (Char.chr (Int64.to_int !n))

let uvarint64_len n =
  let rec go n acc =
    if Int64.unsigned_compare n 0x80L < 0 then acc
    else go (Int64.shift_right_logical n 7) (acc + 1)
  in
  go n 1

let uvarint_len n =
  let rec go n acc = if n < 0x80 then acc else go (n lsr 7) (acc + 1) in
  go n 1

let put_f64 buf v =
  let bits = Int64.bits_of_float v in
  for i = 0 to 7 do
    Buffer.add_char buf
      (Char.chr (Int64.to_int (Int64.shift_right_logical bits (8 * i)) land 0xff))
  done

let writer_fn ?(flush = fun () -> ()) sink =
  sink magic;
  {
    sink;
    flush_sink = flush;
    ids = Strtbl.create 64;
    next_id = 0;
    defs = { first = 0; kids = [] };
    buf = Buffer.create 256;
    pending = 0;
  }

let writer oc = writer_fn ~flush:(fun () -> flush oc) (output_string oc)

(* Frame out a payload buffer.  Flushing every few records bounds how
   stale a tailing reader ([csync top --follow]) can observe the file. *)
let emit_frame w buf =
  let len = Buffer.length buf in
  let head = uvarint_len len in
  let frame = Bytes.create (head + len) in
  let n = ref len in
  for i = 0 to head - 2 do
    Bytes.unsafe_set frame i (Char.unsafe_chr (0x80 lor (!n land 0x7f)));
    n := !n lsr 7
  done;
  Bytes.unsafe_set frame (head - 1) (Char.unsafe_chr !n);
  Buffer.blit buf 0 frame head len;
  w.sink (Bytes.unsafe_to_string frame);
  Buffer.clear buf;
  w.pending <- w.pending + 1;
  if w.pending >= flush_period then begin
    w.flush_sink ();
    w.pending <- 0
  end

let emit w = emit_frame w w.buf

let rec trie_kid c = function
  | [] -> None
  | (c', t) :: rest -> if Char.equal c c' then Some t else trie_kid c rest

(* STRDEF frames go out through their own scratch buffer: [string_id] is
   called mid-record (from [put_name], after the record's tag byte is
   already in [w.buf]), so the definition must not disturb the
   in-progress payload — it lands on the channel just before the record
   that first uses it. *)
let string_id w s =
  match Strtbl.find_opt w.ids s with
  | Some id -> id
  | None ->
    let id = w.next_id in
    w.next_id <- id + 1;
    Strtbl.add w.ids s id;
    (* Borrow the longest prefix any defined string offers ("profile.
       advance" after "profile.advance.ns" is pure suffix); lowest id
       wins ties so the choice is deterministic.  Walking [s] down the
       trie as far as it matches finds both at once: the depth reached is
       the longest shared prefix, and that node's [first] the lowest id
       sharing it.  The unmatched tail then hangs below that node. *)
    let n = String.length s in
    let rec walk node d =
      if d = n then (node, d)
      else
        match trie_kid s.[d] node.kids with
        | Some k -> walk k (d + 1)
        | None -> (node, d)
    in
    let node, shared = walk w.defs 0 in
    let ref_id = node.first in
    let tip = ref node in
    for d = shared to n - 1 do
      let k = { first = id; kids = [] } in
      !tip.kids <- (s.[d], k) :: !tip.kids;
      tip := k
    done;
    let b = Buffer.create (String.length s + 3) in
    Buffer.add_char b (Char.chr tag_strdef);
    if shared = 0 then put_uvarint b 0
    else begin
      put_uvarint b (ref_id + 1);
      put_uvarint b shared
    end;
    Buffer.add_substring b s shared (n - shared);
    emit_frame w b;
    id

let put_name w name =
  let label, base = Record.split_name name in
  let lid = string_id w label in
  let bid = string_id w base in
  put_uvarint w.buf lid;
  put_uvarint w.buf bid

(* INT_DELTA applies when every value is exactly representable as an
   integer; -0. is excluded so decode reproduces the same bits. *)
let int_exact v =
  Float.is_integer v
  && Float.abs v <= 4.611686018427387e18 (* 2^62, headroom for deltas *)
  && not (v = 0. && 1. /. v < 0.)

let rec gcd a b = if b = 0 then a else gcd b (a mod b)

(* Durations land in records as [ns /. 1e9] quotients; when scaling a
   float back to integral nanoseconds reproduces it bit-for-bit, a
   varint of the ns count beats eight raw bytes.  The round trip is
   verified here, so imprecise wall-clock values simply fall back. *)
let ns_exact v =
  let n = Float.round (v *. 1e9) in
  if Float.abs n <= 4.611686018427387e18 && Float.is_finite n then begin
    let i = Int64.to_int (Int64.of_float n) in
    if Int64.bits_of_float (float_of_int i /. 1e9) = Int64.bits_of_float v then
      Some i
    else None
  end
  else None

(* Bit-pattern XOR against the previous value: repeats cost one byte,
   near-neighbours share sign/exponent/high-mantissa bits so the varint
   stays short.  Only used when it actually beats RAW64 — unrelated
   values XOR to full-width patterns whose varints run to 10 bytes. *)
let xor_cost a =
  let prev = ref 0L and acc = ref 0 in
  Array.iter
    (fun v ->
      let bits = Int64.bits_of_float v in
      acc := !acc + uvarint64_len (Int64.logxor !prev bits);
      prev := bits)
    a;
  !acc

let varint_len n = uvarint_len (zigzag n)

let put_int_array w a =
  let ints = Array.map (fun v -> Int64.to_int (Int64.of_float v)) a in
  let n = Array.length ints in
  (* RANGE: one (start, step) pair covers round indices 0,1,2… and
     constant series alike. *)
  let step = if n >= 2 then ints.(1) - ints.(0) else 0 in
  let is_range =
    n >= 2
    &&
    let ok = ref true in
    for i = 1 to n - 1 do
      if ints.(i) - ints.(i - 1) <> step then ok := false
    done;
    !ok
  in
  if is_range then begin
    Buffer.add_char w.buf (Char.chr enc_range);
    put_varint w.buf ints.(0);
    put_varint w.buf step
  end
  else begin
    (* Common divisor (clock granularity quantizes ns ticks): deltas of
       v/g need fewer varint bytes than deltas of v. *)
    let g = Array.fold_left (fun acc v -> gcd acc (abs v)) 0 ints in
    let delta_cost scale =
      let prev = ref 0 and acc = ref 0 in
      Array.iter
        (fun v ->
          let v = v / scale in
          acc := !acc + varint_len (v - !prev);
          prev := v)
        ints;
      !acc
    in
    if g > 1 && uvarint_len g + delta_cost g < delta_cost 1 then begin
      Buffer.add_char w.buf (Char.chr enc_int_scaled);
      put_uvarint w.buf g;
      let prev = ref 0 in
      Array.iter
        (fun v ->
          let v = v / g in
          put_varint w.buf (v - !prev);
          prev := v)
        ints
    end
    else begin
      Buffer.add_char w.buf (Char.chr enc_int_delta);
      let prev = ref 0 in
      Array.iter
        (fun v ->
          put_varint w.buf (v - !prev);
          prev := v)
        ints
    end
  end

let put_array w a =
  let n = Array.length a in
  if n > 0 && Array.for_all int_exact a then put_int_array w a
  else if n > 0 && xor_cost a < 8 * n then begin
    Buffer.add_char w.buf (Char.chr enc_f64_xor);
    let prev = ref 0L in
    Array.iter
      (fun v ->
        let bits = Int64.bits_of_float v in
        put_uvarint64 w.buf (Int64.logxor !prev bits);
        prev := bits)
      a
  end
  else begin
    Buffer.add_char w.buf (Char.chr enc_raw64);
    Array.iter (put_f64 w.buf) a
  end

(* Histogram bin counts: DENSE zigzag deltas between adjacent bins
   (smooth distributions have small neighbor differences), or SPARSE
   (gap, value) pairs when most bins are empty — a log-bucketed skew
   hist concentrates its mass in a handful of bins. *)
let put_counts w counts =
  let n = Array.length counts in
  let nonzero = ref 0 and nonneg = ref true in
  let dense_cost = ref 0 and prev = ref 0 in
  let sparse_cost = ref 0 and gap = ref 0 in
  for i = 0 to n - 1 do
    let c = Array.unsafe_get counts i in
    dense_cost := !dense_cost + varint_len (c - !prev);
    prev := c;
    if c < 0 then nonneg := false;
    if c = 0 then incr gap
    else begin
      incr nonzero;
      sparse_cost := !sparse_cost + uvarint_len !gap + uvarint_len c;
      gap := 0
    end
  done;
  if !nonneg && uvarint_len !nonzero + !sparse_cost < !dense_cost then begin
    Buffer.add_char w.buf (Char.chr cnt_sparse);
    put_uvarint w.buf !nonzero;
    let gap = ref 0 in
    for i = 0 to n - 1 do
      let c = Array.unsafe_get counts i in
      if c = 0 then incr gap
      else begin
        put_uvarint w.buf !gap;
        put_uvarint w.buf c;
        gap := 0
      end
    done
  end
  else begin
    Buffer.add_char w.buf (Char.chr cnt_dense);
    let prev = ref 0 in
    for i = 0 to n - 1 do
      let c = Array.unsafe_get counts i in
      put_varint w.buf (c - !prev);
      prev := c
    done
  end

(* Paired floats (hist lo/hi, span total/max): one encoding byte covers
   both.  TWO_NS varints when both are exact ns quotients; otherwise the
   second is XOR-coded against the first (equal when a span fired once,
   and a hist's hi shares exponent structure with its lo). *)
let put_float_pair w a b =
  match (ns_exact a, ns_exact b) with
  | Some na, Some nb ->
    Buffer.add_char w.buf (Char.chr enc_two_ns);
    put_varint w.buf na;
    put_varint w.buf nb
  | _ ->
    Buffer.add_char w.buf (Char.chr enc_two_f64);
    put_f64 w.buf a;
    put_uvarint64 w.buf
      (Int64.logxor (Int64.bits_of_float a) (Int64.bits_of_float b))

let write_json w j =
  Buffer.add_char w.buf (Char.chr tag_jsonrec);
  Buffer.add_string w.buf (Json.to_string j);
  emit w

let write w (r : Record.t) =
  match r with
  | Record.Manifest _ | Record.Event _ | Record.Unknown _ ->
    write_json w (Record.to_json r)
  | Record.Monitor (name, m) ->
    Buffer.add_char w.buf (Char.chr tag_monitor);
    let id = string_id w name in
    put_uvarint w.buf id;
    put_uvarint w.buf m.checks;
    put_uvarint w.buf m.violations;
    (match m.first with
    | None -> Buffer.add_char w.buf '\000'
    | Some j ->
      Buffer.add_char w.buf '\001';
      Buffer.add_string w.buf (Json.to_string j));
    emit w
  | Record.Counter (name, v) ->
    Buffer.add_char w.buf (Char.chr tag_counter);
    put_name w name;
    put_varint w.buf v;
    emit w
  | Record.Gauge (name, v) ->
    Buffer.add_char w.buf (Char.chr tag_gauge);
    put_name w name;
    put_f64 w.buf v;
    emit w
  | Record.Series (name, xs, ys) ->
    Buffer.add_char w.buf (Char.chr tag_series);
    put_name w name;
    put_uvarint w.buf (Array.length xs);
    put_array w xs;
    put_array w ys;
    emit w
  | Record.Hist (name, h) ->
    Buffer.add_char w.buf (Char.chr tag_hist);
    put_name w name;
    put_float_pair w h.lo h.hi;
    put_uvarint w.buf (match h.per_decade with None -> 0 | Some pd -> pd);
    put_uvarint w.buf (Array.length h.counts);
    put_counts w h.counts;
    put_uvarint w.buf h.underflow;
    put_uvarint w.buf h.overflow;
    put_uvarint w.buf h.invalid;
    put_uvarint w.buf h.total;
    emit w
  | Record.Span (name, s) ->
    Buffer.add_char w.buf (Char.chr tag_span);
    put_name w name;
    put_uvarint w.buf s.count;
    put_float_pair w s.total_s s.max_s;
    emit w

let close_writer w = w.flush_sink ()

(* ---------- reader ---------- *)

exception Malformed of string

let malformed fmt = Printf.ksprintf (fun s -> raise (Malformed s)) fmt

(* The intern table is shared between the channel reader and the
   byte-feed reader; both decode payloads through the same core. *)
type strtab = { mutable strings : string array; mutable nstrings : int }

let strtab () = { strings = Array.make 64 ""; nstrings = 0 }

type reader = { ic : in_channel; tab : strtab }

(* A record payload never legitimately approaches this; a larger length
   prefix means a corrupt or non-btrace file, and failing early beats
   attempting a giant allocation. *)
let max_record_len = 1 lsl 30

let reader ic =
  let m = Bytes.create (String.length magic) in
  match really_input ic m 0 (String.length magic) with
  | () when Bytes.to_string m = magic -> Ok { ic; tab = strtab () }
  | () -> Error "not a csync-btrace/1 file (bad magic)"
  | exception End_of_file -> Error "not a csync-btrace/1 file (truncated magic)"

let add_string r s =
  if r.nstrings = Array.length r.strings then
    r.strings <-
      Array.append r.strings (Array.make (Array.length r.strings) "");
  r.strings.(r.nstrings) <- s;
  r.nstrings <- r.nstrings + 1

let get_string r id =
  if id < 0 || id >= r.nstrings then malformed "string id %d out of range" id;
  r.strings.(id)

(* Payload cursor.  The payload is read in place: it spans [stop - pos]
   bytes of [b] from the starting [pos]. *)
type cur = { b : Bytes.t; mutable pos : int; stop : int }

let byte c =
  if c.pos >= c.stop then malformed "record payload overrun";
  let v = Char.code (Bytes.unsafe_get c.b c.pos) in
  c.pos <- c.pos + 1;
  v

(* Varint loops keep their state in locals: a recursive inner function
   would close over [c] and allocate on every call. *)
let g_uvarint_long c =
  let acc = ref 0 and shift = ref 0 and more = ref true in
  while !more do
    if !shift > 62 then malformed "varint too long";
    let b = byte c in
    acc := !acc lor ((b land 0x7f) lsl !shift);
    if b land 0x80 = 0 then more := false else shift := !shift + 7
  done;
  !acc

(* Most varints in a trace (bin counts, ids, small deltas) are one byte. *)
let g_uvarint c =
  let p = c.pos in
  if p < c.stop && Char.code (Bytes.unsafe_get c.b p) < 0x80 then begin
    c.pos <- p + 1;
    Char.code (Bytes.unsafe_get c.b p)
  end
  else g_uvarint_long c

let g_varint c = unzigzag (g_uvarint c)

let g_uvarint64 c =
  let acc = ref 0L and shift = ref 0 and more = ref true in
  while !more do
    if !shift > 63 then malformed "varint too long";
    let b = byte c in
    acc :=
      Int64.logor !acc (Int64.shift_left (Int64.of_int (b land 0x7f)) !shift);
    if b land 0x80 = 0 then more := false else shift := !shift + 7
  done;
  !acc

let rest c = Bytes.sub_string c.b c.pos (c.stop - c.pos)

let g_f64 c =
  let bits = ref 0L in
  for i = 0 to 7 do
    bits := Int64.logor !bits (Int64.shift_left (Int64.of_int (byte c)) (8 * i))
  done;
  Int64.float_of_bits !bits

let g_name r c =
  let label = get_string r (g_uvarint c) in
  let base = get_string r (g_uvarint c) in
  let ll = String.length label in
  if ll = 0 then base
  else begin
    let bl = String.length base in
    let b = Bytes.create (ll + 1 + bl) in
    Bytes.blit_string label 0 b 0 ll;
    Bytes.unsafe_set b ll '/';
    Bytes.blit_string base 0 b (ll + 1) bl;
    Bytes.unsafe_to_string b
  end

let g_array c n =
  let e = byte c in
  if e > enc_int_scaled then malformed "unknown series encoding %d" e;
  let a = Array.make n 0. in
  if e = enc_raw64 then
    for i = 0 to n - 1 do
      a.(i) <- g_f64 c
    done
  else if e = enc_int_delta then begin
    let prev = ref 0 in
    for i = 0 to n - 1 do
      prev := !prev + g_varint c;
      a.(i) <- float_of_int !prev
    done
  end
  else if e = enc_f64_xor then begin
    let prev = ref 0L in
    for i = 0 to n - 1 do
      prev := Int64.logxor !prev (g_uvarint64 c);
      a.(i) <- Int64.float_of_bits !prev
    done
  end
  else if e = enc_range then begin
    let start = g_varint c in
    let step = g_varint c in
    for i = 0 to n - 1 do
      a.(i) <- float_of_int (start + (i * step))
    done
  end
  else begin
    (* enc_int_scaled *)
    let scale = g_uvarint c in
    let prev = ref 0 in
    for i = 0 to n - 1 do
      prev := !prev + g_varint c;
      a.(i) <- float_of_int (!prev * scale)
    done
  end;
  a

let g_float_pair c =
  match byte c with
  | e when e = enc_two_ns ->
    let a = float_of_int (g_varint c) /. 1e9 in
    let b = float_of_int (g_varint c) /. 1e9 in
    (a, b)
  | e when e = enc_two_f64 ->
    let a = g_f64 c in
    let b =
      Int64.float_of_bits (Int64.logxor (Int64.bits_of_float a) (g_uvarint64 c))
    in
    (a, b)
  | e -> malformed "unknown float-pair encoding %d" e

(* Decode one framed payload against an intern table.  [`Again] means
   the frame carried bookkeeping (a STRDEF, or an unknown tag to skip)
   rather than a record.  Raises {!Malformed} on corrupt input. *)
let decode_payload tab payload ~off len =
  let c = { b = payload; pos = off; stop = off + len } in
  let tag = byte c in
  if tag = tag_strdef then begin
    let s =
      match g_uvarint c with
      | 0 -> rest c
      | ref_ ->
        let base = get_string tab (ref_ - 1) in
        let shared = g_uvarint c in
        if shared > String.length base then
          malformed "strdef prefix %d exceeds referenced string" shared;
        let tail = c.stop - c.pos in
        let b = Bytes.create (shared + tail) in
        Bytes.blit_string base 0 b 0 shared;
        Bytes.blit c.b c.pos b shared tail;
        Bytes.unsafe_to_string b
    in
    add_string tab s;
    `Again
  end
  else if tag = tag_jsonrec then begin
    let text = Bytes.sub_string payload (off + 1) (len - 1) in
    match Json.of_string text with
    | Error e -> malformed "embedded JSON: %s" e
    | Ok j -> (
      match Record.of_json j with
      | Error e -> malformed "embedded record: %s" e
      | Ok rec_ -> `Record rec_)
  end
  else if tag = tag_counter then
    let name = g_name tab c in
    `Record (Record.Counter (name, g_varint c))
  else if tag = tag_gauge then
    let name = g_name tab c in
    `Record (Record.Gauge (name, g_f64 c))
  else if tag = tag_series then begin
    let name = g_name tab c in
    let n = g_uvarint c in
    if n > max_record_len then malformed "implausible series length %d" n;
    let xs = g_array c n in
    let ys = g_array c n in
    `Record (Record.Series (name, xs, ys))
  end
  else if tag = tag_hist then begin
    let name = g_name tab c in
    let lo, hi = g_float_pair c in
    let pd = g_uvarint c in
    let nbins = g_uvarint c in
    if nbins > max_record_len then malformed "implausible bin count %d" nbins;
    let counts =
      match byte c with
      | e when e = cnt_dense ->
        let counts = Array.make nbins 0 in
        let prev = ref 0 in
        for i = 0 to nbins - 1 do
          prev := !prev + g_varint c;
          if !prev < 0 then malformed "negative hist bin count";
          counts.(i) <- !prev
        done;
        counts
      | e when e = cnt_sparse ->
        let counts = Array.make nbins 0 in
        let nonzero = g_uvarint c in
        let pos = ref 0 in
        for _ = 1 to nonzero do
          let gap = g_uvarint c in
          let v = g_uvarint c in
          let i = !pos + gap in
          if i >= nbins then malformed "sparse hist bin out of range";
          counts.(i) <- v;
          pos := i + 1
        done;
        counts
      | e -> malformed "unknown hist count encoding %d" e
    in
    let underflow = g_uvarint c in
    let overflow = g_uvarint c in
    let invalid = g_uvarint c in
    let total = g_uvarint c in
    `Record
      (Record.Hist
         ( name,
           {
             Record.lo;
             hi;
             per_decade = (if pd = 0 then None else Some pd);
             counts;
             underflow;
             overflow;
             invalid;
             total;
           } ))
  end
  else if tag = tag_span then begin
    let name = g_name tab c in
    let count = g_uvarint c in
    let total_s, max_s = g_float_pair c in
    `Record (Record.Span (name, { Record.count; total_s; max_s }))
  end
  else if tag = tag_monitor then begin
    let name = get_string tab (g_uvarint c) in
    let checks = g_uvarint c in
    let violations = g_uvarint c in
    let first =
      match byte c with
      | 0 -> None
      | 1 -> (
        match Json.of_string (rest c) with
        | Error e -> malformed "monitor first-violation JSON: %s" e
        | Ok j -> Some j)
      | f -> malformed "bad monitor first-violation flag %d" f
    in
    `Record (Record.Monitor (name, { Record.checks; violations; first }))
  end
  else
    (* unknown tag: length framing lets us skip it *)
    `Again

(* Read the next record.  [`Truncated] means the file ends mid-record —
   the channel is rewound to the record boundary, so a tailing caller can
   retry after the writer appends more. *)
let rec next r =
  let start = pos_in r.ic in
  let truncated () =
    seek_in r.ic start;
    `Truncated
  in
  (* The length prefix is read byte-by-byte so EOF inside it rewinds
     cleanly. *)
  let rec read_len shift acc =
    match input_byte r.ic with
    | exception End_of_file -> if shift = 0 && acc = 0 then `Eof else `Short
    | b ->
      if shift > 62 then `Bad "varint too long"
      else
        let acc = acc lor ((b land 0x7f) lsl shift) in
        if b land 0x80 = 0 then `Len acc else read_len (shift + 7) acc
  in
  match read_len 0 0 with
  | `Eof -> `Eof
  | `Short -> truncated ()
  | `Bad msg -> `Error msg
  | `Len len -> (
    if len <= 0 || len > max_record_len then
      `Error (Printf.sprintf "implausible record length %d" len)
    else
      let payload = Bytes.create len in
      match really_input r.ic payload 0 len with
      | exception End_of_file -> truncated ()
      | () -> (
        match decode_payload r.tab payload ~off:0 len with
        | `Again -> next r
        | `Record _ as res -> res
        | exception Malformed msg -> `Error msg))

(* ---------- byte-feed reader ---------- *)

(* An incremental reader over an in-memory byte stream: the collector
   appends each arriving datagram's payload with [feed_bytes] and drains
   whole records with [feed_next].  Partial records simply [`Await] more
   bytes; [feed_reset] discards buffered bytes and the intern table, for
   a node that reconnected with a fresh stream. *)
type feed = {
  mutable fb : Bytes.t;
  mutable fstart : int;  (* consumed prefix *)
  mutable flen : int;  (* valid bytes from fstart *)
  mutable ftab : strtab;
  mutable expect_magic : bool;
}

let feed () =
  {
    fb = Bytes.create 4096;
    fstart = 0;
    flen = 0;
    ftab = strtab ();
    expect_magic = true;
  }

let feed_reset f =
  f.fstart <- 0;
  f.flen <- 0;
  f.ftab <- strtab ();
  f.expect_magic <- true

let feed_bytes f s =
  let n = String.length s in
  if f.fstart + f.flen + n > Bytes.length f.fb then begin
    let need = f.flen + n in
    let cap =
      let rec go c = if c >= need then c else go (2 * c) in
      go (max (Bytes.length f.fb) 64)
    in
    let nb = if cap > Bytes.length f.fb then Bytes.create cap else f.fb in
    Bytes.blit f.fb f.fstart nb 0 f.flen;
    f.fb <- nb;
    f.fstart <- 0
  end;
  Bytes.blit_string s 0 f.fb (f.fstart + f.flen) n;
  f.flen <- f.flen + n

let feed_consume f n =
  f.fstart <- f.fstart + n;
  f.flen <- f.flen - n;
  if f.flen = 0 then f.fstart <- 0

(* Parse a length prefix without consuming until the whole record is
   available. *)
let rec scan_len f i shift acc =
  if i >= f.flen then `Await
  else if shift > 62 then `Error "varint too long"
  else
    let b = Char.code (Bytes.get f.fb (f.fstart + i)) in
    let acc = acc lor ((b land 0x7f) lsl shift) in
    if b land 0x80 = 0 then `Len (i + 1, acc)
    else scan_len f (i + 1) (shift + 7) acc

let rec feed_next f =
  if f.expect_magic then
    if f.flen < String.length magic then `Await
    else if Bytes.sub_string f.fb f.fstart (String.length magic) = magic
    then begin
      feed_consume f (String.length magic);
      f.expect_magic <- false;
      feed_next f
    end
    else `Error "stream does not start with csync-btrace/1 magic"
  else
    match scan_len f 0 0 0 with
    | `Await -> `Await
    | `Error _ as e -> e
    | `Len (head, len) ->
      if len <= 0 || len > max_record_len then
        `Error (Printf.sprintf "implausible record length %d" len)
      else if f.flen < head + len then `Await
      else begin
        (* Decoded in place: nothing writes to the buffer before the
           next [feed_bytes]. *)
        let off = f.fstart + head in
        feed_consume f (head + len);
        match decode_payload f.ftab f.fb ~off len with
        | `Again -> feed_next f
        | `Record _ as res -> res
        | exception Malformed msg -> `Error msg
      end

(* ---------- convenience ---------- *)

let write_file path records =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      let w = writer oc in
      List.iter (write w) records;
      close_writer w)

let fold_file path ~init ~f =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      match reader ic with
      | Error e -> Error e
      | Ok r ->
        let rec go acc i =
          match next r with
          | `Record rec_ -> go (f acc rec_) (i + 1)
          | `Eof -> Ok acc
          | `Truncated ->
            Error
              (Printf.sprintf "record %d: truncated trace (file ends mid-record)"
                 i)
          | `Error e -> Error (Printf.sprintf "record %d: %s" i e)
        in
        go init 1)
