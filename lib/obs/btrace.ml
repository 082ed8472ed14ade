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
   apply" after "profile.advance") pay only their distinct tail.

   The writer keeps no string table: a trie over every string defined so
   far is both the dictionary and the prefix finder.  Its nodes — one per
   distinct prefix — are four ints each (first child, next sibling,
   lowest id through the node with the edge character, id of the string
   ending there) in flat arrays of 64 nodes, so interning a name is one
   walk down from the root: a name that ends at a node with an id is
   known, and otherwise the depth reached is the longest prefix any
   earlier string shares and that node's lowest id the reference (lowest
   id on ties).  The walk starts as deep as the name agrees with the
   previous label (or base): records come sorted by name, so a sibling
   such as "net.delay.3->12" after "net.delay.3->11" walks one level.
   Interning allocates only a chunk per 64 new prefixes.

   Frames are written in place into one writer-owned buffer (a length
   byte is reserved and the payload moved up in the rare frame of 128
   bytes or more) and reach the sink as one string per flush point.

   Integers are unsigned LEB128 varints of their 63 bits ([zigzag] for
   signed, so every int round-trips in at most 9 bytes); bare floats are
   binary64 little-endian.  Float arrays pick the cheapest encoding per
   array: RANGE (start, step) for arithmetic progressions — round indices
   and constant series; INT_SCALED / INT_DELTA (zigzag varint deltas,
   optionally divided by a common factor such as the clock granularity)
   when every value is exactly an integer; F64_XOR (uvarint of the
   bit-pattern XOR against the previous value) when values repeat or
   share exponent/high-mantissa structure — a steady-state skew series
   costs one byte per repeated point; RAW64 otherwise.  Histogram bin
   counts are zigzag deltas between adjacent bins (smooth distributions
   have small neighbor differences).  Float pairs (hist lo/hi, span
   total/max) become two varints when both values are exact nanosecond
   quotients — every duration is — and otherwise XOR-code the second
   against the first. *)

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

(* ---------- varints ---------- *)

(* Varints read their argument as an unsigned 63-bit number: a zigzag
   past 2^62 sets the sign bit and takes the full 9 bytes. *)
let uvarint_len n =
  let rec go n acc =
    if n land lnot 0x7f = 0 then acc else go (n lsr 7) (acc + 1)
  in
  go n 1

let varint_len n = uvarint_len (zigzag n)

(* The setters store at [pos] with no bounds check and return the
   position after the value; callers {!reserve} room first. *)
let set_uvarint_long b pos n =
  let n = ref n and pos = ref pos in
  while !n land lnot 0x7f <> 0 do
    Bytes.unsafe_set b !pos (Char.unsafe_chr (0x80 lor (!n land 0x7f)));
    n := !n lsr 7;
    incr pos
  done;
  Bytes.unsafe_set b !pos (Char.unsafe_chr !n);
  !pos + 1

(* Most varints in a trace (bin counts, ids, small deltas) are one byte. *)
let[@inline] set_uvarint b pos n =
  if n land lnot 0x7f = 0 then begin
    Bytes.unsafe_set b pos (Char.unsafe_chr n);
    pos + 1
  end
  else set_uvarint_long b pos n

let[@inline] set_varint b pos n = set_uvarint b pos (zigzag n)

let max_uvarint = 9 (* bytes for 63 bits *)

(* Full 64-bit varints carry float bit patterns (XOR residuals), which
   don't fit OCaml's 63-bit int: the low 63 bits go as a 63-bit varint,
   and a set top bit adds a tenth byte. *)
let set_uvarint64 b pos x =
  let low = Int64.to_int x in
  if Int64.compare x 0L >= 0 then set_uvarint b pos low
  else begin
    for k = 0 to 8 do
      Bytes.unsafe_set b (pos + k)
        (Char.unsafe_chr (0x80 lor ((low lsr (7 * k)) land 0x7f)))
    done;
    Bytes.unsafe_set b (pos + 9) '\001';
    pos + 10
  end

let max_uvarint64 = 10

(* ---------- writer ---------- *)

(* The interned strings' trie (see the header).  Node [i] is four ints,
   at [4 * (i mod 64)] of chunk [i / 64]: its first child and its next
   sibling (-1 for none), [first lsl 8 lor] its edge character — [first]
   the lowest id through the node (ids only grow, so that is the id of
   the string that created it) — and the id of the string ending there
   (-1 for none).  Node 0 is the root, the empty prefix.  A chunk is 256
   words, small enough for the minor heap, and filling one copies
   nothing. *)
type trie = {
  mutable chunks : int array array;
  mutable count : int;
  mutable next_id : int;
}

let chunk_bits = 6
let chunk_mask = (1 lsl chunk_bits) - 1
let kid = 0
let sib = 1
let first_chr = 2
let term = 3

let[@inline] node_get t i f =
  Array.unsafe_get
    (Array.unsafe_get t.chunks (i lsr chunk_bits))
    (((i land chunk_mask) lsl 2) + f)

let[@inline] node_set t i f v =
  Array.unsafe_set
    (Array.unsafe_get t.chunks (i lsr chunk_bits))
    (((i land chunk_mask) lsl 2) + f)
    v

let new_chunk () = Array.make (4 lsl chunk_bits) (-1)

let trie () =
  let root = new_chunk () in
  root.(first_chr) <- 0;
  { chunks = [| root |]; count = 1; next_id = 0 }

(* A new node for character [c] under [parent], created by string [id]. *)
let add_node t parent c id =
  let i = t.count in
  if i lsr chunk_bits = Array.length t.chunks then
    t.chunks <- Array.append t.chunks [| new_chunk () |];
  t.count <- i + 1;
  node_set t i kid (-1);
  node_set t i sib (node_get t parent kid);
  node_set t i first_chr ((id lsl 8) lor Char.code c);
  node_set t i term (-1);
  node_set t parent kid i;
  i

(* The path of the string last interned through a cursor: [path.(d)] is
   its node after [d] characters.  Records come sorted by name, so a
   string usually shares a long prefix with the one before it in its
   role (label or base), and its walk can start that deep. *)
type cursor = {
  mutable src : string;  (* the string was [src.[off .. off+len-1]] *)
  mutable off : int;
  mutable len : int;
  mutable path : int array;
}

let cursor () = { src = ""; off = 0; len = 0; path = Array.make 32 0 }

(* The writer is generalized over a sink so the same encoder serves both
   file output and the fleet emitter's socket stream.  Frames go straight
   into [out]; the sink receives them as one string per flush point, so a
   flush — or a network packet boundary — can never split a record, and
   chunked output concatenates to exactly the one-shot encoding. *)
type writer = {
  sink : string -> unit;
  flush_sink : unit -> unit;
  mutable out : Bytes.t;  (* whole frames since the last flush point *)
  mutable len : int;
  mutable frame : int;  (* the open frame's length byte *)
  mutable pending : int;  (* frames since the last flush point *)
  names : trie;
  labels : cursor;
  bases : cursor;  (* and monitor names *)
}

let flush_period = 64

let writer_fn ?(flush = fun () -> ()) sink =
  sink magic;
  {
    sink;
    flush_sink = flush;
    out = Bytes.create 1024;
    len = 0;
    frame = 0;
    pending = 0;
    names = trie ();
    labels = cursor ();
    bases = cursor ();
  }

let grow w k =
  let cap = max (2 * Bytes.length w.out) (w.len + k) in
  w.out <- Bytes.extend w.out 0 (cap - Bytes.length w.out)

(* Room for [k] more bytes at [w.len]. *)
let[@inline] reserve w k = if w.len + k > Bytes.length w.out then grow w k

let put_byte w c =
  reserve w 1;
  Bytes.unsafe_set w.out w.len (Char.unsafe_chr c);
  w.len <- w.len + 1

let put_uvarint w n =
  reserve w max_uvarint;
  w.len <- set_uvarint w.out w.len n

let put_varint w n = put_uvarint w (zigzag n)

let put_f64 w v =
  reserve w 8;
  Bytes.set_int64_le w.out w.len (Int64.bits_of_float v);
  w.len <- w.len + 8

(* Names' distinct tails are a few bytes: copied by hand, below the
   cost of a blit's C call. *)
let put_substring w s off n =
  reserve w n;
  if n <= 16 then
    for i = 0 to n - 1 do
      Bytes.unsafe_set w.out (w.len + i) (String.unsafe_get s (off + i))
    done
  else Bytes.blit_string s off w.out w.len n;
  w.len <- w.len + n

let hand_over w =
  if w.len > 0 then begin
    w.sink (Bytes.sub_string w.out 0 w.len);
    w.len <- 0
  end

(* A frame opens with one byte for its length, which is all a payload
   under 128 bytes needs; a longer one moves up to make room. *)
let open_frame w tag =
  reserve w 2;
  w.frame <- w.len;
  Bytes.unsafe_set w.out (w.len + 1) (Char.unsafe_chr tag);
  w.len <- w.len + 2

(* Flushing every few frames bounds how stale a tailing reader ([csync
   report --watch]) can observe the file. *)
let close_frame w =
  let start = w.frame + 1 in
  let len = w.len - start in
  if len < 0x80 then Bytes.unsafe_set w.out w.frame (Char.unsafe_chr len)
  else begin
    let head = uvarint_len len in
    reserve w (head - 1);
    Bytes.blit w.out start w.out (w.frame + head) len;
    ignore (set_uvarint w.out w.frame len);
    w.len <- w.len + head - 1
  end;
  w.pending <- w.pending + 1;
  if w.pending >= flush_period then begin
    hand_over w;
    w.flush_sink ();
    w.pending <- 0
  end

(* The id of [s.[off .. off+n-1]], defining it first if it is new.  A
   definition is a whole STRDEF frame, so interning happens before the
   record that uses the string opens its own frame.  The walk down the
   trie starts as deep as the string agrees with [cur]'s last one. *)
let intern w (cur : cursor) s off n =
  let t = w.names in
  let same = ref 0 and most = min n cur.len in
  while
    !same < most
    && String.unsafe_get s (off + !same)
       = String.unsafe_get cur.src (cur.off + !same)
  do
    incr same
  done;
  if Array.length cur.path <= n then begin
    let path = Array.make (max (n + 1) (2 * Array.length cur.path)) 0 in
    Array.blit cur.path 0 path 0 (!same + 1);
    cur.path <- path
  end;
  let path = cur.path in
  let node = ref path.(!same) and d = ref !same and walking = ref true in
  while !walking && !d < n do
    let c = Char.code (String.unsafe_get s (off + !d)) in
    let k = ref (node_get t !node kid) in
    while !k >= 0 && node_get t !k first_chr land 0xff <> c do
      k := node_get t !k sib
    done;
    if !k < 0 then walking := false
    else begin
      node := !k;
      incr d;
      Array.unsafe_set path !d !k
    end
  done;
  cur.src <- s;
  cur.off <- off;
  cur.len <- n;
  let known = node_get t !node term in
  if !d = n && known >= 0 then known
  else begin
    let id = t.next_id in
    t.next_id <- id + 1;
    let shared = !d and ref_id = node_get t !node first_chr lsr 8 in
    let tip = ref !node in
    for i = shared to n - 1 do
      tip := add_node t !tip (String.unsafe_get s (off + i)) id;
      Array.unsafe_set path (i + 1) !tip
    done;
    node_set t !tip term id;
    open_frame w tag_strdef;
    if shared = 0 then put_byte w 0
    else begin
      put_uvarint w (ref_id + 1);
      put_uvarint w shared
    end;
    put_substring w s (off + shared) (n - shared);
    close_frame w;
    id
  end

(* Opens a record frame for a named metric: the tag, then the ids of the
   name's label and base ({!Record.split_name}, without its copies). *)
let open_named w tag name =
  let n = String.length name in
  let slash = ref (n - 1) in
  while !slash >= 0 && String.unsafe_get name !slash <> '/' do
    decr slash
  done;
  let slash = !slash in
  let label = intern w w.labels name 0 (max slash 0) in
  let base = intern w w.bases name (slash + 1) (n - slash - 1) in
  open_frame w tag;
  reserve w (2 * max_uvarint);
  w.len <- set_uvarint w.out w.len label;
  w.len <- set_uvarint w.out w.len base

(* INT_DELTA applies when every value is exactly representable as an
   integer; -0. is excluded so decode reproduces the same bits. *)
let int_exact v =
  Float.abs v <= 4.611686018427387e18 (* 2^62, headroom for deltas *)
  && Float.of_int (int_of_float v) = v
  && not (v = 0. && 1. /. v < 0.)

let rec gcd a b = if b = 0 then a else gcd b (a mod b)

(* Durations land in records as [ns /. 1e9] quotients; when scaling a
   float back to integral nanoseconds reproduces it bit-for-bit, a
   varint of the ns count beats eight raw bytes.  The round trip is
   verified here, so imprecise wall-clock values simply fall back to
   [not_ns] (no quotient is that far out). *)
let not_ns = min_int

let ns_exact v =
  let n = Float.round (v *. 1e9) in
  if Float.abs n <= 4.611686018427387e18 && Float.is_finite n then begin
    let i = Int64.to_int (Int64.of_float n) in
    if Int64.equal
         (Int64.bits_of_float (float_of_int i /. 1e9))
         (Int64.bits_of_float v)
    then i
    else not_ns
  end
  else not_ns

(* INT_SCALED's length for divisor [g]. *)
let scaled_cost a g =
  let prev = ref 0 and acc = ref (uvarint_len g) in
  for i = 0 to Array.length a - 1 do
    let v = int_of_float (Array.unsafe_get a i) / g in
    acc := !acc + varint_len (v - !prev);
    prev := v
  done;
  !acc

(* Every value of [a] is [int_exact] (and [a] is not empty).  RANGE: one
   (start, step) pair covers round indices 0,1,2… and constant series
   alike.  Otherwise a common divisor (clock granularity quantizes ns
   ticks) is worth its varint when deltas of v/g are that much shorter
   than deltas of v. *)
let put_int_array w a =
  let n = Array.length a in
  let v0 = int_of_float a.(0) in
  let step = if n >= 2 then int_of_float a.(1) - v0 else 0 in
  let is_range = ref (n >= 2) and g = ref 0 in
  let prev = ref 0 and cost1 = ref 0 in
  for i = 0 to n - 1 do
    let v = int_of_float (Array.unsafe_get a i) in
    if i > 0 && v - !prev <> step then is_range := false;
    g := gcd !g (abs v);
    cost1 := !cost1 + varint_len (v - !prev);
    prev := v
  done;
  if !is_range then begin
    reserve w (1 + (2 * max_uvarint));
    let b = w.out in
    Bytes.unsafe_set b w.len (Char.unsafe_chr enc_range);
    let pos = set_varint b (w.len + 1) v0 in
    w.len <- set_varint b pos step
  end
  else begin
    let g = !g in
    let scale = if g > 1 && scaled_cost a g < !cost1 then g else 1 in
    reserve w (1 + max_uvarint + (n * max_uvarint));
    let b = w.out in
    let pos = ref (w.len + 1) in
    if scale = 1 then Bytes.unsafe_set b w.len (Char.unsafe_chr enc_int_delta)
    else begin
      Bytes.unsafe_set b w.len (Char.unsafe_chr enc_int_scaled);
      pos := set_uvarint b !pos scale
    end;
    let prev = ref 0 in
    for i = 0 to n - 1 do
      let v = int_of_float (Array.unsafe_get a i) / scale in
      pos := set_varint b !pos (v - !prev);
      prev := v
    done;
    w.len <- !pos
  end

(* Bit-pattern XOR against the previous value: repeats cost one byte,
   near-neighbours share sign/exponent/high-mantissa bits so the varint
   stays short.  Only kept when it beats RAW64 — unrelated values XOR to
   full-width patterns whose varints run to 10 bytes — so it is written
   first and replaced by the raw bits when it comes out longer. *)
let put_float_array w a =
  let n = Array.length a in
  reserve w (1 + (n * max_uvarint64));
  let b = w.out and start = w.len in
  Bytes.unsafe_set b start (Char.unsafe_chr enc_f64_xor);
  let pos = ref (start + 1) and prev = ref 0L in
  for i = 0 to n - 1 do
    let bits = Int64.bits_of_float (Array.unsafe_get a i) in
    pos := set_uvarint64 b !pos (Int64.logxor !prev bits);
    prev := bits
  done;
  if !pos - start - 1 < 8 * n then w.len <- !pos
  else begin
    Bytes.unsafe_set b start (Char.unsafe_chr enc_raw64);
    for i = 0 to n - 1 do
      Bytes.set_int64_le b
        (start + 1 + (8 * i))
        (Int64.bits_of_float (Array.unsafe_get a i))
    done;
    w.len <- start + 1 + (8 * n)
  end

let put_array w a =
  let n = Array.length a in
  let ints = ref (n > 0) and i = ref 0 in
  while !ints && !i < n do
    ints := int_exact (Array.unsafe_get a !i);
    incr i
  done;
  if !ints then put_int_array w a
  else if n > 0 then put_float_array w a
  else put_byte w enc_raw64

(* Histogram bin counts: DENSE zigzag deltas between adjacent bins
   (smooth distributions have small neighbor differences), or SPARSE
   (gap, value) pairs when most bins are empty — a log-bucketed skew
   hist concentrates its mass in a handful of bins.  One pass writes
   DENSE in place and SPARSE's pairs in scratch room past it; the
   shorter is kept. *)
let put_counts w counts =
  let n = Array.length counts in
  let dense_room = 1 + (n * max_uvarint) in
  reserve w (dense_room + max_uvarint + (2 * n * max_uvarint));
  let b = w.out and start = w.len in
  let pairs = start + dense_room + max_uvarint in
  let pos = ref (start + 1) and spos = ref pairs and prev = ref 0 in
  let nonzero = ref 0 and gap = ref 0 and nonneg = ref true in
  for i = 0 to n - 1 do
    let c = Array.unsafe_get counts i in
    pos := set_varint b !pos (c - !prev);
    prev := c;
    if c = 0 then incr gap
    else begin
      if c < 0 then nonneg := false;
      spos := set_uvarint b (set_uvarint b !spos !gap) c;
      incr nonzero;
      gap := 0
    end
  done;
  let sparse = !spos - pairs in
  if !nonneg && uvarint_len !nonzero + sparse < !pos - start - 1 then begin
    Bytes.unsafe_set b start (Char.unsafe_chr cnt_sparse);
    let head = set_uvarint b (start + 1) !nonzero in
    Bytes.blit b pairs b head sparse;
    w.len <- head + sparse
  end
  else begin
    Bytes.unsafe_set b start (Char.unsafe_chr cnt_dense);
    w.len <- !pos
  end

(* Paired floats (hist lo/hi, span total/max): one encoding byte covers
   both.  TWO_NS varints when both are exact ns quotients; otherwise the
   second is XOR-coded against the first (equal when a span fired once,
   and a hist's hi shares exponent structure with its lo). *)
let put_float_pair w x y =
  let nx = ns_exact x in
  let ny = if nx = not_ns then not_ns else ns_exact y in
  reserve w (1 + 8 + max_uvarint64);
  let b = w.out in
  if ny <> not_ns then begin
    Bytes.unsafe_set b w.len (Char.unsafe_chr enc_two_ns);
    w.len <- set_varint b (set_varint b (w.len + 1) nx) ny
  end
  else begin
    let bx = Int64.bits_of_float x in
    Bytes.unsafe_set b w.len (Char.unsafe_chr enc_two_f64);
    Bytes.set_int64_le b (w.len + 1) bx;
    w.len <- set_uvarint64 b (w.len + 9) (Int64.logxor bx (Int64.bits_of_float y))
  end

let put_json w j =
  let s = Json.to_string j in
  put_substring w s 0 (String.length s)

let write w (r : Record.t) =
  match r with
  | Record.Manifest _ | Record.Event _ | Record.Unknown _ ->
    open_frame w tag_jsonrec;
    put_json w (Record.to_json r);
    close_frame w
  | Record.Monitor (name, m) ->
    let id = intern w w.bases name 0 (String.length name) in
    open_frame w tag_monitor;
    put_uvarint w id;
    put_uvarint w m.checks;
    put_uvarint w m.violations;
    (match m.first with
    | None -> put_byte w 0
    | Some j ->
      put_byte w 1;
      put_json w j);
    close_frame w
  | Record.Counter (name, v) ->
    open_named w tag_counter name;
    put_varint w v;
    close_frame w
  | Record.Gauge (name, v) ->
    open_named w tag_gauge name;
    put_f64 w v;
    close_frame w
  | Record.Series (name, xs, ys) ->
    open_named w tag_series name;
    put_uvarint w (Array.length xs);
    put_array w xs;
    put_array w ys;
    close_frame w
  | Record.Hist (name, h) ->
    open_named w tag_hist name;
    put_float_pair w h.lo h.hi;
    reserve w (2 * max_uvarint);
    let pd = match h.per_decade with None -> 0 | Some pd -> pd in
    w.len <- set_uvarint w.out (set_uvarint w.out w.len pd) (Array.length h.counts);
    put_counts w h.counts;
    reserve w (4 * max_uvarint);
    let b = w.out in
    let pos = set_uvarint b (set_uvarint b w.len h.underflow) h.overflow in
    w.len <- set_uvarint b (set_uvarint b pos h.invalid) h.total;
    close_frame w
  | Record.Span (name, s) ->
    open_named w tag_span name;
    put_uvarint w s.count;
    put_float_pair w s.total_s s.max_s;
    close_frame w

let close_writer w =
  hand_over w;
  w.flush_sink ()

(* ---------- reader ---------- *)

exception Malformed of string

let malformed fmt = Printf.ksprintf (fun s -> raise (Malformed s)) fmt

(* Decoder state of a feed: the intern table, and a cursor over the
   payload being decoded — it spans [b.[pos .. stop-1]] and is reset in
   place for every record, so decoding allocates nothing beyond the
   records it returns. *)
type dec = {
  mutable strings : string array;
  mutable nstrings : int;
  mutable b : Bytes.t;
  mutable pos : int;
  mutable stop : int;
  mutable last_hist : Record.hist_rec;
}

let dec () =
  {
    strings = Array.make 64 "";
    nstrings = 0;
    b = Bytes.empty;
    pos = 0;
    stop = 0;
    last_hist =
      {
        Record.lo = 0.;
        hi = 0.;
        per_decade = None;
        counts = [||];
        underflow = 0;
        overflow = 0;
        invalid = 0;
        total = 0;
      };
  }

(* A record payload never legitimately approaches this; a larger length
   prefix means a corrupt or non-btrace file, and failing early beats
   attempting a giant allocation. *)
let max_record_len = 1 lsl 30

let add_string d s =
  if d.nstrings = Array.length d.strings then
    d.strings <- Array.append d.strings (Array.make (Array.length d.strings) "");
  d.strings.(d.nstrings) <- s;
  d.nstrings <- d.nstrings + 1

let get_string d id =
  if id < 0 || id >= d.nstrings then malformed "string id %d out of range" id;
  Array.unsafe_get d.strings id

let byte d =
  if d.pos >= d.stop then malformed "record payload overrun";
  let v = Char.code (Bytes.unsafe_get d.b d.pos) in
  d.pos <- d.pos + 1;
  v

(* Varint loops keep their state in locals: a recursive inner function
   would close over [d] and allocate on every call. *)
let g_uvarint_long d =
  let acc = ref 0 and shift = ref 0 and more = ref true in
  while !more do
    if !shift > 62 then malformed "varint too long";
    let b = byte d in
    acc := !acc lor ((b land 0x7f) lsl !shift);
    if b land 0x80 = 0 then more := false else shift := !shift + 7
  done;
  !acc

let[@inline] g_uvarint d =
  let p = d.pos in
  if p < d.stop && Char.code (Bytes.unsafe_get d.b p) < 0x80 then begin
    d.pos <- p + 1;
    Char.code (Bytes.unsafe_get d.b p)
  end
  else g_uvarint_long d

let[@inline] g_varint d = unzigzag (g_uvarint d)

let[@inline] g_uvarint64 d =
  let acc = ref 0L and shift = ref 0 and more = ref true in
  while !more do
    if !shift > 63 then malformed "varint too long";
    let b = byte d in
    acc :=
      Int64.logor !acc (Int64.shift_left (Int64.of_int (b land 0x7f)) !shift);
    if b land 0x80 = 0 then more := false else shift := !shift + 7
  done;
  !acc

let rest d = Bytes.sub_string d.b d.pos (d.stop - d.pos)

let[@inline] g_f64 d =
  if d.stop - d.pos < 8 then malformed "record payload overrun";
  let bits = Bytes.get_int64_le d.b d.pos in
  d.pos <- d.pos + 8;
  Int64.float_of_bits bits

let g_name d =
  let label = get_string d (g_uvarint d) in
  let base = get_string d (g_uvarint d) in
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

let g_array d n =
  let e = byte d in
  if e > enc_int_scaled then malformed "unknown series encoding %d" e;
  let a = Array.make n 0. in
  if e = enc_raw64 then
    for i = 0 to n - 1 do
      Array.unsafe_set a i (g_f64 d)
    done
  else if e = enc_int_delta then begin
    let prev = ref 0 in
    for i = 0 to n - 1 do
      prev := !prev + g_varint d;
      Array.unsafe_set a i (float_of_int !prev)
    done
  end
  else if e = enc_f64_xor then begin
    let prev = ref 0L in
    for i = 0 to n - 1 do
      prev := Int64.logxor !prev (g_uvarint64 d);
      Array.unsafe_set a i (Int64.float_of_bits !prev)
    done
  end
  else if e = enc_range then begin
    let start = g_varint d in
    let step = g_varint d in
    for i = 0 to n - 1 do
      Array.unsafe_set a i (float_of_int (start + (i * step)))
    done
  end
  else begin
    (* enc_int_scaled *)
    let scale = g_uvarint d in
    let prev = ref 0 in
    for i = 0 to n - 1 do
      prev := !prev + g_varint d;
      Array.unsafe_set a i (float_of_int (!prev * scale))
    done
  end;
  a

(* A float pair's encoding byte; its two halves are then read in place
   by [g_first] and [g_second], so no pair is built. *)
let g_pair_enc d =
  let e = byte d in
  if e <> enc_two_ns && e <> enc_two_f64 then
    malformed "unknown float-pair encoding %d" e;
  e

let[@inline] g_first d e =
  if e = enc_two_ns then float_of_int (g_varint d) /. 1e9 else g_f64 d

let[@inline] g_second d e first =
  if e = enc_two_ns then float_of_int (g_varint d) /. 1e9
  else
    Int64.float_of_bits
      (Int64.logxor (Int64.bits_of_float first) (g_uvarint64 d))

let g_counts d nbins =
  let counts = Array.make nbins 0 in
  (match byte d with
  | e when e = cnt_dense ->
    let prev = ref 0 in
    for i = 0 to nbins - 1 do
      prev := !prev + g_varint d;
      if !prev < 0 then malformed "negative hist bin count";
      Array.unsafe_set counts i !prev
    done
  | e when e = cnt_sparse ->
    let nonzero = g_uvarint d in
    let pos = ref 0 in
    for _ = 1 to nonzero do
      let gap = g_uvarint d in
      let v = g_uvarint d in
      let i = !pos + gap in
      if gap < 0 || i >= nbins then malformed "sparse hist bin out of range";
      counts.(i) <- v;
      pos := i + 1
    done
  | e -> malformed "unknown hist count encoding %d" e);
  counts

let g_strdef d =
  let s =
    match g_uvarint d with
    | 0 -> rest d
    | ref_ ->
      let base = get_string d (ref_ - 1) in
      let shared = g_uvarint d in
      if shared < 0 || shared > String.length base then
        malformed "strdef prefix %d exceeds referenced string" shared;
      let tail = d.stop - d.pos in
      let b = Bytes.create (shared + tail) in
      Bytes.blit_string base 0 b 0 shared;
      Bytes.blit d.b d.pos b shared tail;
      Bytes.unsafe_to_string b
  in
  add_string d s

(* Decode one framed payload, [payload.[off .. off+len-1]].  [`Again]
   means the frame carried bookkeeping (a STRDEF, or an unknown tag to
   skip) rather than a record.  Raises {!Malformed} on corrupt input. *)
let decode_payload d payload ~off len =
  d.b <- payload;
  d.pos <- off;
  d.stop <- off + len;
  let tag = byte d in
  if tag = tag_strdef then begin
    g_strdef d;
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
    let name = g_name d in
    `Record (Record.Counter (name, g_varint d))
  else if tag = tag_gauge then
    let name = g_name d in
    `Record (Record.Gauge (name, g_f64 d))
  else if tag = tag_series then begin
    let name = g_name d in
    let n = g_uvarint d in
    if n < 0 || n > max_record_len then
      malformed "implausible series length %d" n;
    let xs = g_array d n in
    let ys = g_array d n in
    `Record (Record.Series (name, xs, ys))
  end
  else if tag = tag_hist then begin
    let name = g_name d in
    let e = g_pair_enc d in
    let lo = g_first d e in
    let hi = g_second d e lo in
    let pd = g_uvarint d in
    let nbins = g_uvarint d in
    if nbins < 0 || nbins > max_record_len then
      malformed "implausible bin count %d" nbins;
    let counts = g_counts d nbins in
    let underflow = g_uvarint d in
    let overflow = g_uvarint d in
    let invalid = g_uvarint d in
    let total = g_uvarint d in
    let per_decade = if pd = 0 then None else Some pd in
    (* A grid's links all share one window: a hist with the previous
       one's bounds shares their boxes too. *)
    let last = d.last_hist in
    let h =
      if
        Int64.equal (Int64.bits_of_float lo) (Int64.bits_of_float last.lo)
        && Int64.equal (Int64.bits_of_float hi) (Int64.bits_of_float last.hi)
      then { last with per_decade; counts; underflow; overflow; invalid; total }
      else
        { Record.lo; hi; per_decade; counts; underflow; overflow; invalid; total }
    in
    d.last_hist <- h;
    `Record (Record.Hist (name, h))
  end
  else if tag = tag_span then begin
    let name = g_name d in
    let count = g_uvarint d in
    let e = g_pair_enc d in
    let total_s = g_first d e in
    let max_s = g_second d e total_s in
    `Record (Record.Span (name, { Record.count; total_s; max_s }))
  end
  else if tag = tag_monitor then begin
    let name = get_string d (g_uvarint d) in
    let checks = g_uvarint d in
    let violations = g_uvarint d in
    let first =
      match byte d with
      | 0 -> None
      | 1 -> (
        match Json.of_string (rest d) with
        | Error e -> malformed "monitor first-violation JSON: %s" e
        | Ok j -> Some j)
      | f -> malformed "bad monitor first-violation flag %d" f
    in
    `Record (Record.Monitor (name, { Record.checks; violations; first }))
  end
  else
    (* unknown tag: length framing lets us skip it *)
    `Again

(* ---------- byte-feed reader ---------- *)

(* The one decoder, an incremental reader over an in-memory byte
   stream: the collector appends each arriving datagram's payload with
   [feed_bytes] and [fold_file] each chunk it reads, and both drain whole
   records with [feed_next].  Partial records simply [`Await] more bytes;
   [feed_reset] discards buffered bytes and the intern table, for a node
   that reconnected with a fresh stream. *)
type feed = {
  mutable own : Bytes.t;  (* the feed's buffer, grown on demand *)
  mutable fb : Bytes.t;  (* [own], or the chunk just fed *)
  mutable fstart : int;  (* consumed prefix *)
  mutable flen : int;  (* valid bytes from fstart *)
  mutable fd : dec;
  mutable expect_magic : bool;
}

let feed () =
  {
    own = Bytes.empty;
    fb = Bytes.empty;
    fstart = 0;
    flen = 0;
    fd = dec ();
    expect_magic = true;
  }

let feed_reset f =
  f.fstart <- 0;
  f.flen <- 0;
  f.fd <- dec ();
  f.expect_magic <- true

(* With nothing buffered, a chunk is decoded where it is, read only; the
   bytes of a record it leaves unfinished move to [own] when the next
   chunk arrives. *)
let feed_bytes f s =
  let n = String.length s in
  if f.flen = 0 then begin
    f.fb <- Bytes.unsafe_of_string s;
    f.fstart <- 0;
    f.flen <- n
  end
  else begin
    if f.fb != f.own || f.fstart + f.flen + n > Bytes.length f.own then begin
      let need = f.flen + n in
      if need > Bytes.length f.own then begin
        let rec cap c = if c >= need then c else cap (2 * c) in
        f.own <- Bytes.create (cap (max (Bytes.length f.own) 64))
      end;
      Bytes.blit f.fb f.fstart f.own 0 f.flen;
      f.fb <- f.own;
      f.fstart <- 0
    end;
    Bytes.blit_string s 0 f.fb (f.fstart + f.flen) n;
    f.flen <- f.flen + n
  end

let feed_consume f n =
  f.fstart <- f.fstart + n;
  f.flen <- f.flen - n;
  if f.flen = 0 then f.fstart <- 0

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
  else begin
    (* The length prefix is parsed without consuming anything until the
       whole record is buffered. *)
    let head = ref 0 and len = ref 0 and shift = ref 0 in
    let more = ref true and state = ref `Len in
    while !more do
      if !head >= f.flen then begin
        state := `Await;
        more := false
      end
      else if !shift > 62 then begin
        state := `Bad;
        more := false
      end
      else begin
        let b = Char.code (Bytes.unsafe_get f.fb (f.fstart + !head)) in
        len := !len lor ((b land 0x7f) lsl !shift);
        incr head;
        if b land 0x80 = 0 then more := false else shift := !shift + 7
      end
    done;
    match !state with
    | `Await -> `Await
    | `Bad -> `Error "varint too long"
    | `Len ->
      let head = !head and len = !len in
      if len <= 0 || len > max_record_len then
        `Error (Printf.sprintf "implausible record length %d" len)
      else if f.flen < head + len then `Await
      else begin
        (* Decoded in place: nothing writes to the buffer before the
           next [feed_bytes]. *)
        let off = f.fstart + head in
        feed_consume f (head + len);
        match decode_payload f.fd f.fb ~off len with
        | `Again -> feed_next f
        | `Record _ as res -> res
        | exception Malformed msg -> `Error msg
      end
  end

(* ---------- convenience ---------- *)

let write_file path records =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      let w = writer_fn ~flush:(fun () -> flush oc) (output_string oc) in
      List.iter (write w) records;
      close_writer w)

(* The file is fed to one feed in fixed-size chunks, so memory stays
   bounded by the chunk and the longest record, whatever the file's
   length. *)
let fold_chunk = 65536

let fold_file path ~init ~f =
  match open_in_bin path with
  | exception Sys_error e ->
    (* [Sys_error] reads "<path>: <reason>"; callers name the file. *)
    let prefix = path ^ ": " in
    Error
      (if String.starts_with ~prefix e then
         String.sub e (String.length prefix) (String.length e - String.length prefix)
       else e)
  | ic ->
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () ->
        match really_input_string ic (String.length magic) with
        | exception End_of_file ->
          Error "not a csync-btrace/1 file (truncated magic)"
        | m when m <> magic -> Error "not a csync-btrace/1 file (bad magic)"
        | _ ->
          let fd = feed () in
          fd.expect_magic <- false;
          let chunk = Bytes.create fold_chunk in
          let rec drain acc i =
            match feed_next fd with
            | `Record r -> drain (f acc r) (i + 1)
            | `Await -> read acc i
            | `Error e -> Error (Printf.sprintf "record %d: %s" i e)
          and read acc i =
            match input ic chunk 0 fold_chunk with
            | 0 when fd.flen = 0 -> Ok acc
            | 0 ->
              Error
                (Printf.sprintf "record %d: truncated trace (file ends mid-record)"
                   i)
            | n ->
              feed_bytes fd (Bytes.sub_string chunk 0 n);
              drain acc i
          in
          read init 1)
