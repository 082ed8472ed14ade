(* Two scheduler backends behind one interface.

   [Heap] is the original comparison-based binary min-heap: O(log n) per
   operation, no assumptions about the time distribution.  It remains the
   reference implementation for equivalence tests and the overflow store of
   the wheel backend.

   [Wheel] is a timing wheel / calendar queue exploiting the bounded-delay
   structure of the model: deliveries land in [delta - eps, delta + eps] of
   their send time and timers fire at round boundaries, so the active time
   horizon is narrow.  Events are hashed into [buckets] fixed-width time
   buckets (O(1) insert); each bucket stores its events struct-of-arrays and
   is sorted lazily when it becomes the current bucket.  Events beyond the
   horizon [base + (epoch + buckets) * width] go to an overflow heap and are
   promoted into the wheel as the current bucket (the epoch) advances.
   Occupied buckets are tracked in a bitmask so advancing skips empty
   buckets a word at a time, and counted alongside it so [occupancy] is a
   field read.

   Both backends pop in exactly the same order: (time, prio, seq), where seq
   is the insertion sequence number.  The wheel guarantees this because
   bucket b only holds events with time < start of bucket b+1, so the head
   of the (sorted) current bucket is the global minimum, and ties in time
   can never span a bucket boundary. *)

type backend = Heap | Wheel of { width : float; buckets : int }

type 'a entry = { time : float; prio : int; seq : int; payload : 'a }

let prio_message = 0

let prio_timer = 1

let cmp_entry a b =
  let c = Float.compare a.time b.time in
  if c <> 0 then c
  else
    let c = Int.compare a.prio b.prio in
    if c <> 0 then c else Int.compare a.seq b.seq

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
   the last sort).  Slots past [len] keep stale elements until overwritten,
   matching the documented [Heap.clear] retention behaviour. *)
type 'a bucket = {
  mutable times : float array;
  mutable keys : int array; (* packed (prio, seq) *)
  mutable pays : 'a array;
  mutable len : int;
  mutable pos : int;
  mutable dirty : bool;
}

type 'a wheel = {
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
}

type 'a repr = Heap_q of 'a entry Heap.t | Wheel_q of 'a wheel

type 'a t = {
  repr : 'a repr;
  mutable next_seq : int;
  mutable heap_reserve : int; (* pending capacity hint, applied on first add *)
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

let horizon_end w =
  w.base +. (float_of_int (w.epoch + w.nbuckets) *. w.width)

let insert_in_horizon w ~time ~prio ~seq payload =
  let fb = Float.floor ((time -. w.base) /. w.width) in
  let lb = if fb <= float_of_int w.epoch then w.epoch else int_of_float fb in
  bucket_insert w (lb land w.mask) ~time ~key:(pack_key ~prio ~seq) payload

(* Invariant: every overflow entry has time >= horizon_end.  Restore it after
   the epoch advances. *)
let promote w =
  let hend = horizon_end w in
  let looping = ref true in
  while !looping do
    match Heap.peek w.overflow with
    | Some e when e.time < hend ->
      let e = Heap.pop_exn w.overflow in
      insert_in_horizon w ~time:e.time ~prio:e.prio ~seq:e.seq e.payload
    | _ -> looping := false
  done

(* The wheel is empty but the overflow heap is not: restart the wheel at the
   overflow minimum.  Re-anchoring [base] here keeps logical bucket numbers
   small no matter how far ahead the overflow reaches. *)
let restart_at_overflow w =
  let e = Heap.pop_exn w.overflow in
  w.base <- e.time;
  w.epoch <- 0;
  bucket_insert w 0 ~time:e.time ~key:(pack_key ~prio:e.prio ~seq:e.seq)
    e.payload;
  promote w

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

let default_wheel_width = 0.25

let default_wheel_buckets = 1024

let default_backend () =
  match Sys.getenv_opt "CSYNC_ENGINE" with
  | Some "heap" -> Heap
  | Some "wheel" | Some _ | None ->
    Wheel { width = default_wheel_width; buckets = default_wheel_buckets }

let create ?backend ?(expected = 0) () =
  let backend =
    match backend with Some b -> b | None -> default_backend ()
  in
  match backend with
  | Heap ->
    {
      repr = Heap_q (Heap.create ~cmp:cmp_entry);
      next_seq = 0;
      heap_reserve = max 0 expected;
    }
  | Wheel { width; buckets } ->
    if not (Float.is_finite width) || width <= 0. then
      invalid_arg "Event_queue.create: wheel width must be finite and > 0";
    if buckets < 1 then
      invalid_arg "Event_queue.create: wheel needs at least one bucket";
    (* Round the bucket count up to a power of two so physical indexing is
       a mask instead of a division. *)
    let nbuckets =
      let rec p2 k = if k >= buckets then k else p2 (2 * k) in
      p2 1
    in
    let init_cap = min 4096 (max 16 (expected / nbuckets)) in
    let dummy = bucket_make () in
    (* Filled by doubling appends, not [Array.make nbuckets dummy]: once
       the table is too big for the minor heap, [Array.make] with a young
       initial value forces a whole minor collection (and the major slice
       after it) on every queue created. *)
    let rec fill a =
      if Array.length a >= nbuckets then a else fill (Array.append a a)
    in
    let w =
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
      }
    in
    { repr = Wheel_q w; next_seq = 0; heap_reserve = 0 }

let backend_kind q =
  match q.repr with
  | Heap_q _ -> Heap
  | Wheel_q w -> Wheel { width = w.width; buckets = w.nbuckets }

(* -- queue interface ------------------------------------------------------ *)

let size q =
  match q.repr with
  | Heap_q h -> Heap.size h
  | Wheel_q w -> w.wheel_count + Heap.size w.overflow

let is_empty q = size q = 0

let occupancy q = match q.repr with Heap_q _ -> 0 | Wheel_q w -> w.occupied

let add q ~time ~prio payload =
  if not (Float.is_finite time) then
    invalid_arg "Event_queue.add: non-finite time";
  if prio < 0 || prio > max_prio then
    invalid_arg "Event_queue.add: prio out of range";
  let seq = q.next_seq in
  q.next_seq <- seq + 1;
  match q.repr with
  | Heap_q h ->
    let entry = { time; prio; seq; payload } in
    if q.heap_reserve > 0 then begin
      Heap.reserve h ~dummy:entry q.heap_reserve;
      q.heap_reserve <- 0
    end;
    Heap.push h entry
  | Wheel_q w ->
    if w.wheel_count = 0 && Heap.is_empty w.overflow then begin
      (* Empty queue: re-anchor so this event lands in bucket 0. *)
      w.base <- time;
      w.epoch <- 0
    end;
    (* For q >= 0, int_of_float truncation IS floor, saving a libm call;
       q < 0 (a time before the anchor, which the engine never produces but
       this interface allows) clamps into the current bucket, where the
       lazy sort restores global order. *)
    let q = (time -. w.base) /. w.width in
    if q >= float_of_int (w.epoch + w.nbuckets) then
      Heap.push w.overflow { time; prio; seq; payload }
    else begin
      let lb =
        if q <= float_of_int w.epoch then w.epoch
        else
          let lb = int_of_float q in
          if lb < w.epoch then w.epoch else lb
      in
      bucket_insert w (lb land w.mask) ~time ~key:(pack_key ~prio ~seq)
        payload
    end

let peek_time q =
  match q.repr with
  | Heap_q h -> (match Heap.peek h with None -> None | Some e -> Some e.time)
  | Wheel_q w ->
    if ensure_min w then begin
      let b = w.wbuckets.(w.epoch land w.mask) in
      Some b.times.(b.pos)
    end
    else None

let pop_if_before q ~until =
  match q.repr with
  | Heap_q h ->
    if Heap.is_empty h then None
    else begin
      let e = Heap.min_elt h in
      if e.time > until then None
      else begin
        let e = Heap.pop_exn h in
        Some (e.time, e.payload)
      end
    end
  | Wheel_q w ->
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

let pop q = pop_if_before q ~until:Float.infinity

let iter_pop_until q ~until ~f =
  match q.repr with
  | Heap_q h ->
    let count = ref 0 in
    let looping = ref true in
    while !looping do
      if Heap.is_empty h then looping := false
      else begin
        let e = Heap.min_elt h in
        if e.time > until then looping := false
        else begin
          let e = Heap.pop_exn h in
          incr count;
          f e.time e.payload
        end
      end
    done;
    !count
  | Wheel_q w ->
    let count = ref 0 in
    let looping = ref true in
    while !looping do
      if not (ensure_min w) then looping := false
      else begin
        let phys = w.epoch land w.mask in
        let b = w.wbuckets.(phys) in
        (* Pop a run out of the current bucket without re-deriving it per
           event.  The run ends when the slice empties (reset eagerly,
           BEFORE calling [f]: [f] may add to an empty queue, which
           re-anchors the epoch) or when [f] dirties the slice by adding
           into this bucket; [ensure_min] then re-establishes the minimum.
           Otherwise [pos < len] still holds at the top of the loop. *)
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
