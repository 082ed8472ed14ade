(* A timing wheel / calendar queue exploiting the bounded-delay structure
   of the model: deliveries land in [delta - eps, delta + eps] of their
   send time and timers fire at round boundaries, so the active time
   horizon is narrow.  Events are hashed into [nbuckets] fixed-width time
   buckets (O(1) insert); each bucket stores its events struct-of-arrays
   and is sorted lazily when it becomes the current bucket.  Events whose
   bucket index reaches [epoch + nbuckets] (past the horizon) go to an
   overflow heap and are promoted into the wheel as the current bucket
   (the epoch) advances.  Occupied buckets are tracked in a bitmask so
   advancing skips empty buckets a word at a time, and counted alongside
   it so [occupancy] is a field read.

   Pop order is (time, prio, seq), where seq is the insertion sequence
   number.  One rule, [bucket_index], places every event: [add], overflow
   promotion and the restart after the wheel drains all call it.  The
   index is a monotone function of time, so logical bucket b only holds
   events no later than those of bucket b+1 and ties in time never span a
   bucket boundary: the head of the (sorted) current bucket is the global
   minimum.  Overflow holds exactly the events whose index is
   [epoch + nbuckets], and promotion must test that same index: a float
   horizon end can disagree with it by a rounding step and alias an event
   into the current physical bucket. *)

type 'a entry = { time : float; key : int; payload : 'a }

let prio_message = 0

let prio_timer = 1

let cmp_entry a b =
  let c = Float.compare a.time b.time in
  if c <> 0 then c else Int.compare a.key b.key

(* Priority classes are tiny by design (two are used), so (prio, seq) packs
   into one int whose natural order is the lexicographic (prio, seq) order:
   seq stays below 2^42 in any conceivable run and prio is bounded by
   [max_prio], checked in [add]. *)
let prio_bits = 20

let max_prio = (1 lsl prio_bits) - 1

let seq_bits = 42

let pack_key ~prio ~seq = (prio lsl seq_bits) lor seq

(* A bucket's live events occupy slots [pos, len); [0, pos) were popped.
   [dirty] means the live slice may be unsorted (events were appended since
   the last sort).  Slots past [len] keep stale elements until
   overwritten. *)
type 'a bucket = {
  mutable times : float array;
  mutable keys : int array; (* packed (prio, seq) *)
  mutable pays : 'a array;
  mutable len : int;
  mutable pos : int;
  mutable dirty : bool;
}

type 'a t = {
  width : float;
  nbuckets : int; (* a power of two *)
  mask : int; (* nbuckets - 1, for physical-index masking *)
  init_cap : int;
  dummy : 'a bucket;
  (* Bucket records are allocated on first use; untouched slots share
     [dummy] (always empty), so creating a wheel costs one word per bucket
     rather than a record per bucket. *)
  wbuckets : 'a bucket array;
  occ : int array; (* bitmask over physical bucket indices, 32 bits/word *)
  mutable occupied : int; (* set bits in [occ]: non-empty buckets *)
  overflow : 'a entry Heap.t;
  mutable base : float; (* real time at the start of logical bucket 0 *)
  mutable epoch : int; (* logical number of the current bucket *)
  mutable wheel_count : int; (* live events in buckets (overflow excluded) *)
  mutable next_seq : int;
}

(* -- occupancy bitmask ---------------------------------------------------- *)

(* 32 bits per word so word/bit extraction is a shift and a mask, not a
   division (OCaml ints are 63-bit, so 64 would not fit anyway). *)
let bpw_shift = 5

let bpw = 1 lsl bpw_shift

let bpw_mask = bpw - 1

let set_bit occ i =
  let wi = i lsr bpw_shift in
  Array.unsafe_set occ wi
    (Array.unsafe_get occ wi lor (1 lsl (i land bpw_mask)))

let clear_bit occ i =
  let wi = i lsr bpw_shift in
  Array.unsafe_set occ wi
    (Array.unsafe_get occ wi land lnot (1 lsl (i land bpw_mask)))

let ctz x =
  let rec go x i = if x land 1 = 1 then i else go (x lsr 1) (i + 1) in
  go x 0

(* Next occupied physical bucket at or after [s], scanning circularly.  At
   least one bucket must be occupied. *)
let find_occupied w s =
  let occ = w.occ in
  let nwords = Array.length occ in
  let wi = s lsr bpw_shift in
  let high = occ.(wi) land ((-1) lsl (s land bpw_mask)) in
  if high <> 0 then (wi lsl bpw_shift) + ctz high
  else begin
    let rec words k =
      if k > nwords then invalid_arg "Event_queue: occupancy mask empty"
      else
        let w2 = (wi + k) mod nwords in
        if occ.(w2) <> 0 then (w2 lsl bpw_shift) + ctz occ.(w2)
        else words (k + 1)
    in
    (* At k = nwords this re-checks word [wi]: its high bits are known zero,
       so a hit there is the wrapped-around low range. *)
    words 1
  end

(* -- per-bucket struct-of-arrays storage ---------------------------------- *)

let bucket_make () =
  { times = [||]; keys = [||]; pays = [||]; len = 0; pos = 0; dirty = false }

let bucket_grow b payload init_cap =
  let cap = Array.length b.times in
  let ncap = if cap = 0 then init_cap else 2 * cap in
  let nt = Array.make ncap 0. in
  let nk = Array.make ncap 0 in
  let nv = Array.make ncap payload in
  Array.blit b.times 0 nt 0 b.len;
  Array.blit b.keys 0 nk 0 b.len;
  Array.blit b.pays 0 nv 0 b.len;
  b.times <- nt;
  b.keys <- nk;
  b.pays <- nv

let bucket_insert w phys ~time ~key payload =
  let b0 = Array.unsafe_get w.wbuckets phys in
  let b =
    if b0 != w.dummy then b0
    else begin
      let nb = bucket_make () in
      w.wbuckets.(phys) <- nb;
      nb
    end
  in
  if b.len = Array.length b.times then begin
    (* Reclaim the popped prefix before growing. *)
    if b.pos > 0 then begin
      let m = b.len - b.pos in
      Array.blit b.times b.pos b.times 0 m;
      Array.blit b.keys b.pos b.keys 0 m;
      Array.blit b.pays b.pos b.pays 0 m;
      b.len <- m;
      b.pos <- 0
    end;
    if b.len = Array.length b.times then bucket_grow b payload w.init_cap
  end;
  let i = b.len in
  (* [i] < capacity is guaranteed by the grow step above. *)
  Array.unsafe_set b.times i time;
  Array.unsafe_set b.keys i key;
  Array.unsafe_set b.pays i payload;
  b.len <- i + 1;
  if i > b.pos then b.dirty <- true
  else begin
    (* [i = pos]: the bucket was empty, so its mask bit is newly set. *)
    set_bit w.occ phys;
    w.occupied <- w.occupied + 1
  end;
  w.wheel_count <- w.wheel_count + 1

(* -- sorting the live slice of a bucket ----------------------------------- *)

(* Whether slot [i] sorts before / after (t, k) in (time, key) order.
   Callers only pass indices inside the live slice, so accesses are
   unchecked.  Times are finite ([add] rejects the rest), so the plain
   float comparisons order them exactly as [Float.compare] would, -0.
   and 0. included.  All three are [@inline]: out of line, [t] is a float
   argument, so the sorts would box the pivot time on every comparison. *)
let[@inline] slot_before b i t k =
  let ti = Array.unsafe_get b.times i in
  ti < t || (ti = t && Array.unsafe_get b.keys i < k)

let[@inline] slot_after b i t k =
  let ti = Array.unsafe_get b.times i in
  ti > t || (ti = t && Array.unsafe_get b.keys i > k)

let[@inline] slot_before_slot b i j = slot_before b i b.times.(j) b.keys.(j)

let swap_slots b i j =
  let t = b.times.(i) in
  b.times.(i) <- b.times.(j);
  b.times.(j) <- t;
  let k = b.keys.(i) in
  b.keys.(i) <- b.keys.(j);
  b.keys.(j) <- k;
  let v = b.pays.(i) in
  b.pays.(i) <- b.pays.(j);
  b.pays.(j) <- v

(* Insertion sort of [lo, hi): O(slice + inversions), so re-sorting a
   nearly-sorted slice after a few appends is linear. *)
let insertion_sort b lo hi =
  for i = lo + 1 to hi - 1 do
    let t = Array.unsafe_get b.times i in
    let k = Array.unsafe_get b.keys i in
    let v = Array.unsafe_get b.pays i in
    let j = ref (i - 1) in
    while !j >= lo && slot_after b !j t k do
      let m = !j in
      Array.unsafe_set b.times (m + 1) (Array.unsafe_get b.times m);
      Array.unsafe_set b.keys (m + 1) (Array.unsafe_get b.keys m);
      Array.unsafe_set b.pays (m + 1) (Array.unsafe_get b.pays m);
      decr j
    done;
    let m = !j + 1 in
    Array.unsafe_set b.times m t;
    Array.unsafe_set b.keys m k;
    Array.unsafe_set b.pays m v
  done

(* In-place quicksort (Hoare partition, median-of-three) for large slices;
   keys are unique (seq is), so no stability concerns. *)
let rec qsort b lo hi =
  if hi - lo < 32 then insertion_sort b lo hi
  else begin
    let mid = lo + ((hi - lo) / 2) in
    if slot_before_slot b mid lo then swap_slots b mid lo;
    if slot_before_slot b (hi - 1) lo then swap_slots b (hi - 1) lo;
    if slot_before_slot b (hi - 1) mid then swap_slots b (hi - 1) mid;
    let pt = b.times.(mid) in
    let pk = b.keys.(mid) in
    let i = ref (lo - 1) in
    let j = ref hi in
    let cut = ref 0 in
    let looping = ref true in
    while !looping do
      incr i;
      while slot_before b !i pt pk do
        incr i
      done;
      decr j;
      while slot_after b !j pt pk do
        decr j
      done;
      if !i >= !j then begin
        cut := !j;
        looping := false
      end
      else swap_slots b !i !j
    done;
    qsort b lo (!cut + 1);
    qsort b (!cut + 1) hi
  end

let sort_slice b =
  if b.dirty then begin
    if b.len - b.pos < 32 then insertion_sort b b.pos b.len
    else qsort b b.pos b.len;
    b.dirty <- false
  end

(* -- wheel epoch movement and overflow promotion -------------------------- *)

(* The logical bucket of [time]: [floor ((time - base) / width)], clamped
   below to the current epoch (a time before the current bucket joins it,
   where the lazy sort restores global order) and above to
   [epoch + nbuckets], which means "beyond the horizon".  For q >= 0,
   [int_of_float] truncation IS floor, saving a libm call. *)
let[@inline] bucket_index w time =
  let q = (time -. w.base) /. w.width in
  let horizon = w.epoch + w.nbuckets in
  if q >= float_of_int horizon then horizon
  else if q <= float_of_int w.epoch then w.epoch
  else int_of_float q

(* Invariant: the overflow heap holds exactly the events whose
   [bucket_index] is [epoch + nbuckets].  Restore it after the epoch
   advances or [base] moves.  The index is monotone in time, so the heap
   minimum has the smallest index. *)
let promote w =
  let looping = ref true in
  while !looping do
    match Heap.peek w.overflow with
    | Some e ->
      let lb = bucket_index w e.time in
      if lb < w.epoch + w.nbuckets then begin
        ignore (Heap.pop_exn w.overflow);
        bucket_insert w (lb land w.mask) ~time:e.time ~key:e.key e.payload
      end
      else looping := false
    | None -> looping := false
  done

(* The wheel is empty but the overflow heap is not: restart the wheel at the
   overflow minimum.  Re-anchoring [base] here keeps logical bucket numbers
   small no matter how far ahead the overflow reaches. *)
let restart_at_overflow w =
  match Heap.peek w.overflow with
  | Some e ->
    w.base <- e.time;
    w.epoch <- 0;
    promote w
  | None -> ()

(* The current bucket is exhausted but the wheel is not: jump the epoch to
   the next occupied bucket, then promote newly in-horizon overflow. *)
let advance_epoch w =
  let phys = w.epoch land w.mask in
  let next = find_occupied w ((phys + 1) land w.mask) in
  let d = if next > phys then next - phys else next + w.nbuckets - phys in
  w.epoch <- w.epoch + d;
  promote w

(* Establish: the current bucket holds the global minimum at [pos] and its
   live slice is sorted.  False iff the queue is empty.  May advance the
   epoch, promote overflow and sort a bucket, none of which is observable
   through the interface. *)
let rec ensure_min w =
  if w.wheel_count > 0 then begin
    let b = w.wbuckets.(w.epoch land w.mask) in
    if b.pos >= b.len then begin
      advance_epoch w;
      ensure_min w
    end
    else begin
      sort_slice b;
      true
    end
  end
  else if Heap.is_empty w.overflow then false
  else begin
    restart_at_overflow w;
    ensure_min w
  end

(* Reset a bucket whose live slice just emptied.  Doing it eagerly keeps
   the occupancy mask and count exact and makes re-anchoring on an empty
   queue O(1). *)
let reset_bucket w phys b =
  b.len <- 0;
  b.pos <- 0;
  b.dirty <- false;
  clear_bit w.occ phys;
  w.occupied <- w.occupied - 1

(* Drop the head of the current bucket (caller read it already). *)
let drop_head w =
  let phys = w.epoch land w.mask in
  let b = w.wbuckets.(phys) in
  b.pos <- b.pos + 1;
  w.wheel_count <- w.wheel_count - 1;
  if b.pos >= b.len then reset_bucket w phys b

(* -- construction --------------------------------------------------------- *)

let create ?(width = 0.25) ?(buckets = 1024) ?(expected = 0) () =
  if not (Float.is_finite width) || width <= 0. then
    invalid_arg "Event_queue.create: wheel width must be finite and > 0";
  if buckets < 1 then
    invalid_arg "Event_queue.create: wheel needs at least one bucket";
  (* Round the bucket count up to a power of two so physical indexing is a
     mask instead of a division. *)
  let nbuckets =
    let rec p2 k = if k >= buckets then k else p2 (2 * k) in
    p2 1
  in
  let init_cap = min 4096 (max 16 (expected / nbuckets)) in
  let dummy = bucket_make () in
  (* Filled by doubling appends, not [Array.make nbuckets dummy]: once the
     table is too big for the minor heap, [Array.make] with a young initial
     value forces a whole minor collection (and the major slice after it)
     on every queue created. *)
  let rec fill a =
    if Array.length a >= nbuckets then a else fill (Array.append a a)
  in
  {
    width;
    nbuckets;
    mask = nbuckets - 1;
    init_cap;
    dummy;
    wbuckets = fill [| dummy |];
    occ = Array.make ((nbuckets + bpw - 1) / bpw) 0;
    occupied = 0;
    overflow = Heap.create ~cmp:cmp_entry;
    base = 0.;
    epoch = 0;
    wheel_count = 0;
    next_seq = 0;
  }

(* -- queue interface ------------------------------------------------------ *)

let size w = w.wheel_count + Heap.size w.overflow

let is_empty w = size w = 0

let occupancy w = w.occupied

let add w ~time ~prio payload =
  if not (Float.is_finite time) then
    invalid_arg "Event_queue.add: non-finite time";
  if prio < 0 || prio > max_prio then
    invalid_arg "Event_queue.add: prio out of range";
  let seq = w.next_seq in
  w.next_seq <- seq + 1;
  let key = pack_key ~prio ~seq in
  if w.wheel_count = 0 && Heap.is_empty w.overflow then begin
    (* Empty queue: re-anchor so this event lands in bucket 0. *)
    w.base <- time;
    w.epoch <- 0
  end;
  let lb = bucket_index w time in
  if lb < w.epoch + w.nbuckets then
    bucket_insert w (lb land w.mask) ~time ~key payload
  else Heap.push w.overflow { time; key; payload }

let peek_time w =
  if ensure_min w then begin
    let b = w.wbuckets.(w.epoch land w.mask) in
    Some b.times.(b.pos)
  end
  else None

let pop_if_before w ~until =
  if not (ensure_min w) then None
  else begin
    let b = w.wbuckets.(w.epoch land w.mask) in
    let i = b.pos in
    let time = b.times.(i) in
    if time > until then None
    else begin
      let payload = b.pays.(i) in
      drop_head w;
      Some (time, payload)
    end
  end

let pop w = pop_if_before w ~until:Float.infinity

let iter_pop_until w ~until ~f =
  let count = ref 0 in
  let looping = ref true in
  while !looping do
    if not (ensure_min w) then looping := false
    else begin
      let phys = w.epoch land w.mask in
      let b = w.wbuckets.(phys) in
      (* Pop a run out of the current bucket without re-deriving it per
         event.  The run ends when the slice empties (reset eagerly, BEFORE
         calling [f]: [f] may add to an empty queue, which re-anchors the
         epoch) or when [f] dirties the slice by adding into this bucket;
         [ensure_min] then re-establishes the minimum.  Otherwise
         [pos < len] still holds at the top of the loop. *)
      let running = ref true in
      while !running do
        let i = b.pos in
        let time = Array.unsafe_get b.times i in
        if time > until then begin
          running := false;
          looping := false
        end
        else begin
          let payload = Array.unsafe_get b.pays i in
          b.pos <- i + 1;
          w.wheel_count <- w.wheel_count - 1;
          if b.pos >= b.len then begin
            reset_bucket w phys b;
            running := false
          end;
          incr count;
          f time payload;
          if !running && b.dirty then running := false
        end
      done
    end
  done;
  !count
