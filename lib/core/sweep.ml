(* Struct-of-arrays fault-tolerant averaging: the reduced-midpoint round
   update of Section 4.1 applied row-by-row over a flat slab, with no
   per-row arrays.  Csync_multiset is the reference implementation; the
   test suite checks every slab result against it. *)

let g_of ~f ~count = if count <= 0 then 0 else min f ((count - 1) / 3)

(* Rows are short (a topology's max in-degree plus one), so insertion
   sort - O(len + inversions), in place - beats anything with setup cost
   here.  The [float array] annotation is load-bearing: without it the
   slab is inferred as ['a array], every comparison becomes a
   polymorphic-compare C call on freshly boxed floats, and the sort
   allocates on each step.  Float [>] and polymorphic [>] order floats
   identically (IEEE, [-0. = 0.]), so the annotation moves no result. *)
let sort_row (slab : float array) ~off ~len =
  for i = off + 1 to off + len - 1 do
    let x = Array.unsafe_get slab i in
    let j = ref i in
    while !j > off && Array.unsafe_get slab (!j - 1) > x do
      Array.unsafe_set slab !j (Array.unsafe_get slab (!j - 1));
      decr j
    done;
    Array.unsafe_set slab !j x
  done

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
  for row = lo to hi - 1 do
    let count = Array.unsafe_get counts row in
    if count < 0 || count > width then
      invalid_arg "Sweep.sweep_rows: bad row count";
    if count = 0 then Array.unsafe_set out row Float.nan
    else begin
      let off = row * width in
      sort_row slab ~off ~len:count;
      Array.unsafe_set out row
        (mid_sorted slab ~off ~count ~g:(g_of ~f ~count))
    end
  done

let sweep ~slab ~width ~counts ~f ~out =
  sweep_rows ~slab ~width ~counts ~f ~lo:0 ~hi:(Array.length counts) ~out
