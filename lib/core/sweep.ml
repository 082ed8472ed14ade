(* Struct-of-arrays fault-tolerant averaging: the reduced-midpoint round
   update of Section 4.1 applied row-by-row over a flat slab, with no
   per-row arrays.  Csync_multiset is the reference implementation; the
   test suite checks every slab result against it. *)

let g_of ~f ~count = if count <= 0 then 0 else min f ((count - 1) / 3)

(* Insertion sort: O(len + inversions), in place, stable.  The
   [float array] annotation is load-bearing: without it the slab is
   inferred as ['a array], every comparison becomes a polymorphic-compare
   C call on freshly boxed floats, and the sort allocates on each step.
   Float [>] and polymorphic [>] order floats identically (IEEE,
   [-0. = 0.]), so the annotation moves no result. *)
let insertion_sort (slab : float array) ~off ~len =
  for i = off + 1 to off + len - 1 do
    let x = Array.unsafe_get slab i in
    let j = ref i in
    while !j > off && Array.unsafe_get slab (!j - 1) > x do
      Array.unsafe_set slab !j (Array.unsafe_get slab (!j - 1));
      decr j
    done;
    Array.unsafe_set slab !j x
  done

(* Rows of at most [rank_max] estimates take the rank sort below.  Its
   cost is quadratic but branch-free, where insertion sort mispredicts a
   branch on about every element of a row in adjacency order.  On 10^4
   random rows (2-vCPU x86-64 VM) it took 0.55x insertion's time at 9
   estimates, 0.78x at 32, 1.0x at 33, 1.35x at 49 and 2.1x at 129. *)
let rank_max = 32

(* One pair of scratch arrays per domain: the row's copy and, per
   element, how many earlier elements exceed it.  Pool workers run on
   domains of their own, so no two sweeps share a scratch. *)
type scratch = { xs : float array; down : int array }

let scratch_key =
  Csync_obs.Tls.new_key (fun () ->
      { xs = Array.make rank_max 0.; down = Array.make rank_max 0 })

(* Stable comparison-count sort of a row of at most [rank_max].  Element
   i lands at i - down_i + up_i, where down_i counts the earlier elements
   greater than it and up_i the later ones less than it: exactly its slot
   in a stable ascending order, with [-0.] and [0.] equal, so the result
   is insertion sort's bit for bit.  Visiting each pair i < j once feeds
   both counts; down_i is complete when i is reached, so i is written
   back at once.  [Bool.to_int] of a float [<] compiles to a compare and
   a flag read, no branch.  A row holding a NaN breaks the counts (two
   elements could claim one slot), so it falls back to insertion sort,
   which keeps the order it always gave such rows. *)
let sort_with s (slab : float array) ~off ~len =
  if len > rank_max then insertion_sort slab ~off ~len
  else begin
    let xs = s.xs and down = s.down in
    let unordered = ref 0 in
    for i = 0 to len - 1 do
      let x = Array.unsafe_get slab (off + i) in
      unordered := !unordered lor Bool.to_int (x <> x);
      Array.unsafe_set xs i x;
      Array.unsafe_set down i 0
    done;
    if !unordered <> 0 then insertion_sort slab ~off ~len
    else
      for i = 0 to len - 1 do
        let x = Array.unsafe_get xs i in
        let up = ref 0 in
        for j = i + 1 to len - 1 do
          let c = Bool.to_int (Array.unsafe_get xs j < x) in
          up := !up + c;
          Array.unsafe_set down j (Array.unsafe_get down j + c)
        done;
        Array.unsafe_set slab (off + i - Array.unsafe_get down i + !up) x
      done
  end

let sort_row slab ~off ~len =
  sort_with (Csync_obs.Tls.get scratch_key) slab ~off ~len

(* [@inline]: out of line, the midpoint of every row would be boxed. *)
let[@inline] mid_sorted slab ~off ~count ~g =
  (Array.unsafe_get slab (off + g) +. Array.unsafe_get slab (off + count - 1 - g))
  /. 2.

let mid_row slab ~off ~count ~f =
  if count <= 0 then invalid_arg "Sweep.mid_row: empty row";
  sort_row slab ~off ~len:count;
  mid_sorted slab ~off ~count ~g:(g_of ~f ~count)

let sweep_rows ~slab ~width ~counts ~f ~lo ~hi ~out =
  if lo < 0 || hi > Array.length counts || lo > hi then
    invalid_arg "Sweep.sweep_rows: bad row range";
  if Array.length out < hi then
    invalid_arg "Sweep.sweep_rows: out too short";
  if Array.length slab < hi * width then
    invalid_arg "Sweep.sweep_rows: slab too short";
  if f < 0 then invalid_arg "Sweep.sweep_rows: negative f";
  let s = Csync_obs.Tls.get scratch_key in
  for row = lo to hi - 1 do
    let count = Array.unsafe_get counts row in
    if count < 0 || count > width then
      invalid_arg "Sweep.sweep_rows: bad row count";
    if count = 0 then Array.unsafe_set out row Float.nan
    else begin
      let off = row * width in
      sort_with s slab ~off ~len:count;
      Array.unsafe_set out row
        (mid_sorted slab ~off ~count ~g:(g_of ~f ~count))
    end
  done

let sweep ~slab ~width ~counts ~f ~out =
  sweep_rows ~slab ~width ~counts ~f ~lo:0 ~hi:(Array.length counts) ~out
