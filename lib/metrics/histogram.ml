(* Two binning schemes share one counter layout: [Linear] splits
   [lo, hi] into equal-width bins; [Log pd] (HDR-style) gives every
   decade [pd] geometrically spaced bins, the right shape for skew and
   delay distributions spanning decades, where linear bins either blur
   the small values or truncate the large ones. *)
type scheme =
  | Linear
  | Log of int  (* bins per decade *)

type t = {
  lo : float;
  hi : float;
  scheme : scheme;
  counts : int array;
  mutable underflow : int;
  mutable overflow : int;
  mutable invalid : int;
  mutable total : int;
}

let create ~lo ~hi ~bins =
  if lo >= hi then invalid_arg "Histogram.create: lo >= hi";
  if bins <= 0 then invalid_arg "Histogram.create: nonpositive bins";
  {
    lo;
    hi;
    scheme = Linear;
    counts = Array.make bins 0;
    underflow = 0;
    overflow = 0;
    invalid = 0;
    total = 0;
  }

let log_bins ~lo ~hi ~per_decade =
  (* Enough bins that the last one's upper bound reaches hi; ceil with a
     small epsilon so an exact decade count does not gain a spurious
     extra bin to float noise. *)
  max 1 (int_of_float (Float.ceil (float_of_int per_decade *. Float.log10 (hi /. lo) -. 1e-9)))

let log ~lo ~hi ~per_decade =
  if not (Float.is_finite lo && lo > 0.) then
    invalid_arg "Histogram.log: lo must be finite and positive";
  if lo >= hi then invalid_arg "Histogram.log: lo >= hi";
  if per_decade <= 0 then invalid_arg "Histogram.log: nonpositive per_decade";
  {
    lo;
    hi;
    scheme = Log per_decade;
    counts = Array.make (log_bins ~lo ~hi ~per_decade) 0;
    underflow = 0;
    overflow = 0;
    invalid = 0;
    total = 0;
  }

let scheme t = t.scheme

let per_decade t = match t.scheme with Linear -> None | Log pd -> Some pd

let[@inline] clamp_bin idx bins = Int.min (Int.max idx 0) (bins - 1)

(* The one copy of the linear binning arithmetic, shared by [add] and
   [Grid.add]: a value in [lo, hi] lands in bin
   [bins * (v - lo) / (hi - lo)], clamped so [hi] itself is the last bin. *)
let[@inline] linear_bin ~lo ~hi ~bins v =
  clamp_bin (int_of_float (float_of_int bins *. (v -. lo) /. (hi -. lo))) bins

let add t v =
  t.total <- t.total + 1;
  (* NaN compares false against both bounds, so without this check
     int_of_float nan would silently land it in bin 0. *)
  if Float.is_nan v then t.invalid <- t.invalid + 1
  else if v < t.lo then t.underflow <- t.underflow + 1
  else if v > t.hi then t.overflow <- t.overflow + 1
  else begin
    let bins = Array.length t.counts in
    let idx =
      match t.scheme with
      | Linear -> linear_bin ~lo:t.lo ~hi:t.hi ~bins v
      | Log pd ->
        clamp_bin
          (int_of_float (float_of_int pd *. Float.log10 (v /. t.lo)))
          bins
    in
    t.counts.(idx) <- t.counts.(idx) + 1
  end

module Grid = struct
  (* Link [l = src * n + dst] owns [counts.(l * bins .. l * bins + bins - 1)]
     and the four tallies [tallies.(l * 4 + k)]: underflow, overflow,
     invalid, total.  Growing [n] moves every link to its new index. *)
  type t = {
    lo : float;
    hi : float;
    bins : int;
    mutable n : int;
    mutable counts : int array;
    mutable tallies : int array;
  }

  let underflow_k = 0

  let overflow_k = 1

  let invalid_k = 2

  let total_k = 3

  let create ~lo ~hi ~bins ~n =
    if lo >= hi then invalid_arg "Histogram.Grid.create: lo >= hi";
    if bins <= 0 then invalid_arg "Histogram.Grid.create: nonpositive bins";
    if n <= 0 then invalid_arg "Histogram.Grid.create: nonpositive n";
    {
      lo;
      hi;
      bins;
      n;
      counts = Array.make (n * n * bins) 0;
      tallies = Array.make (n * n * 4) 0;
    }

  let n g = g.n

  let bins g = g.bins

  let range g = (g.lo, g.hi)

  let same_window g ~lo ~hi ~bins = g.lo = lo && g.hi = hi && g.bins = bins

  let grow g n =
    if n > g.n then begin
      let counts = Array.make (n * n * g.bins) 0 in
      let tallies = Array.make (n * n * 4) 0 in
      (* Source row [src] is contiguous in both layouts. *)
      for src = 0 to g.n - 1 do
        Array.blit g.counts (src * g.n * g.bins) counts (src * n * g.bins)
          (g.n * g.bins);
        Array.blit g.tallies (src * g.n * 4) tallies (src * n * 4) (g.n * 4)
      done;
      g.n <- n;
      g.counts <- counts;
      g.tallies <- tallies
    end

  let link g ~src ~dst =
    if src < 0 || src >= g.n || dst < 0 || dst >= g.n then
      invalid_arg "Histogram.Grid: link out of range";
    (src * g.n) + dst

  let bump a i = Array.unsafe_set a i (Array.unsafe_get a i + 1)

  let add g ~src ~dst v =
    let l = link g ~src ~dst in
    let tl = l * 4 in
    bump g.tallies (tl + total_k);
    if Float.is_nan v then bump g.tallies (tl + invalid_k)
    else if v < g.lo then bump g.tallies (tl + underflow_k)
    else if v > g.hi then bump g.tallies (tl + overflow_k)
    else
      bump g.counts ((l * g.bins) + linear_bin ~lo:g.lo ~hi:g.hi ~bins:g.bins v)

  let bin_counts g ~src ~dst =
    Array.sub g.counts (link g ~src ~dst * g.bins) g.bins

  let tally g ~src ~dst k = g.tallies.((link g ~src ~dst * 4) + k)

  let underflow g ~src ~dst = tally g ~src ~dst underflow_k

  let overflow g ~src ~dst = tally g ~src ~dst overflow_k

  let invalid g ~src ~dst = tally g ~src ~dst invalid_k

  let count g ~src ~dst = tally g ~src ~dst total_k

  let add_into a a0 b b0 len =
    for i = 0 to len - 1 do
      b.(b0 + i) <- b.(b0 + i) + a.(a0 + i)
    done

  let merge dst src =
    if not (same_window dst ~lo:src.lo ~hi:src.hi ~bins:src.bins) then
      invalid_arg "Histogram.Grid.merge: window mismatch";
    grow dst src.n;
    (* Source row [s] of [src] is the head of row [s] of [dst], as in [grow]. *)
    for s = 0 to src.n - 1 do
      add_into src.counts (s * src.n * src.bins) dst.counts
        (s * dst.n * dst.bins) (src.n * src.bins);
      add_into src.tallies (s * src.n * 4) dst.tallies (s * dst.n * 4)
        (src.n * 4)
    done
end

let of_array ?(bins = 20) a =
  if Array.length a = 0 then invalid_arg "Histogram.of_array: empty";
  let lo = Array.fold_left Float.min a.(0) a in
  let hi = Array.fold_left Float.max a.(0) a in
  let hi = if hi > lo then hi else lo +. 1. in
  let t = create ~lo ~hi ~bins in
  Array.iter (add t) a;
  t

let of_counts ?per_decade ~lo ~hi ~counts ~underflow ~overflow ~invalid ~total ()
    =
  if lo >= hi then invalid_arg "Histogram.of_counts: lo >= hi";
  if Array.length counts = 0 then invalid_arg "Histogram.of_counts: no bins";
  if underflow < 0 || overflow < 0 || invalid < 0 || total < 0 then
    invalid_arg "Histogram.of_counts: negative count";
  Array.iter (fun c -> if c < 0 then invalid_arg "Histogram.of_counts: negative count") counts;
  let scheme =
    match per_decade with
    | None -> Linear
    | Some pd ->
      if pd <= 0 then invalid_arg "Histogram.of_counts: nonpositive per_decade";
      if not (Float.is_finite lo && lo > 0.) then
        invalid_arg "Histogram.of_counts: log scheme needs positive lo";
      Log pd
  in
  { lo; hi; scheme; counts = Array.copy counts; underflow; overflow; invalid; total }

let count t = t.total

let bin_count t i =
  if i < 0 || i >= Array.length t.counts then invalid_arg "Histogram.bin_count";
  t.counts.(i)

let bins t = Array.length t.counts

let range t = (t.lo, t.hi)

let underflow t = t.underflow

let overflow t = t.overflow

let invalid t = t.invalid

let bin_bounds t i =
  if i < 0 || i >= Array.length t.counts then invalid_arg "Histogram.bin_bounds";
  match t.scheme with
  | Linear ->
    let bins = float_of_int (Array.length t.counts) in
    let width = (t.hi -. t.lo) /. bins in
    (t.lo +. (float_of_int i *. width), t.lo +. (float_of_int (i + 1) *. width))
  | Log pd ->
    let step j = t.lo *. Float.pow 10. (float_of_int j /. float_of_int pd) in
    (step i, step (i + 1))

let merge dst src =
  if
    dst.scheme <> src.scheme || dst.lo <> src.lo || dst.hi <> src.hi
    || Array.length dst.counts <> Array.length src.counts
  then invalid_arg "Histogram.merge: shape mismatch";
  Array.iteri (fun i c -> dst.counts.(i) <- dst.counts.(i) + c) src.counts;
  dst.underflow <- dst.underflow + src.underflow;
  dst.overflow <- dst.overflow + src.overflow;
  dst.invalid <- dst.invalid + src.invalid;
  dst.total <- dst.total + src.total

let mode_bin t =
  let best = ref 0 in
  Array.iteri (fun i c -> if c > t.counts.(!best) then best := i) t.counts;
  !best

let render ?(width = 50) ppf t =
  let max_count = Array.fold_left max 1 t.counts in
  Array.iteri
    (fun i c ->
      let lo, hi = bin_bounds t i in
      (* A nonzero bin always shows at least one mark, even when integer
         truncation of c * width / max_count would round it to nothing. *)
      let len = if c = 0 then 0 else max 1 (c * width / max_count) in
      let bar = String.make len '#' in
      Format.fprintf ppf "[%11.4e, %11.4e) %6d %s@." lo hi c bar)
    t.counts;
  if t.underflow > 0 then Format.fprintf ppf "underflow: %d@." t.underflow;
  if t.overflow > 0 then Format.fprintf ppf "overflow: %d@." t.overflow;
  if t.invalid > 0 then Format.fprintf ppf "invalid (NaN): %d@." t.invalid
