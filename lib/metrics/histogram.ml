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
      | Linear ->
        int_of_float (float_of_int bins *. (v -. t.lo) /. (t.hi -. t.lo))
      | Log pd -> int_of_float (float_of_int pd *. Float.log10 (v /. t.lo))
    in
    let idx = Int.min (Int.max idx 0) (bins - 1) in
    t.counts.(idx) <- t.counts.(idx) + 1
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
