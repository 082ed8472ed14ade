(* Multisets of reals, represented as sorted float arrays (ascending). *)

type t = float array

let empty = [||]

(* [Array.sort Float.compare], specialised to [float array]: the stdlib's
   ternary heap sort with the same comparisons and moves, so it yields the
   same permutation bit for bit, including where NaN and +-0 land.  The
   polymorphic original boxes every element it reads and calls the
   comparison through a closure.  Here the helpers take and return ints,
   the element in flight is a local, and [maxson] returns -1 where the
   stdlib raises [Bottom], so a sort allocates nothing. *)

(* The index of the largest of [i]'s (up to three) children in the heap
   [a.(0 .. l-1)], or -1 if [i] has none. *)
let maxson (a : float array) l i =
  let i31 = i + i + i + 1 in
  if i31 + 2 < l then begin
    let x = if Float.compare a.(i31) a.(i31 + 1) < 0 then i31 + 1 else i31 in
    if Float.compare a.(x) a.(i31 + 2) < 0 then i31 + 2 else x
  end
  else if i31 + 1 < l && Float.compare a.(i31) a.(i31 + 1) < 0 then i31 + 1
  else if i31 < l then i31
  else -1

(* Sift [a.(i)] down the heap of size [l]. *)
let trickle (a : float array) l i =
  let e = a.(i) in
  let i = ref i and continue = ref true in
  while !continue do
    let j = maxson a l !i in
    if j >= 0 && Float.compare a.(j) e > 0 then begin
      a.(!i) <- a.(j);
      i := j
    end
    else begin
      a.(!i) <- e;
      continue := false
    end
  done

(* Move the larger child up into the hole at [i] until the hole reaches a
   leaf; return the leaf. *)
let bubble (a : float array) l i =
  let i = ref i and j = ref (maxson a l i) in
  while !j >= 0 do
    a.(!i) <- a.(!j);
    i := !j;
    j := maxson a l !j
  done;
  !i

let sort_floats (a : float array) =
  let l = Array.length a in
  for i = ((l + 1) / 3) - 1 downto 0 do
    trickle a l i
  done;
  for i = l - 1 downto 2 do
    let e = a.(i) in
    a.(i) <- a.(0);
    (* Sift [e] up from the hole [bubble] leaves (the stdlib's trickleup,
       inlined so that [e] stays unboxed). *)
    let j = ref (bubble a i 0) and continue = ref true in
    while !continue do
      let father = (!j - 1) / 3 in
      if Float.compare a.(father) e < 0 then begin
        a.(!j) <- a.(father);
        if father > 0 then j := father
        else begin
          a.(0) <- e;
          continue := false
        end
      end
      else begin
        a.(!j) <- e;
        continue := false
      end
    done
  done;
  if l > 1 then begin
    let e = a.(1) in
    a.(1) <- a.(0);
    a.(0) <- e
  end

let of_array a =
  let b = Array.copy a in
  sort_floats b;
  b

let of_list l = of_array (Array.of_list l)

let singleton x = [| x |]

let size = Array.length

let is_empty u = Array.length u = 0

let to_list = Array.to_list

let to_array = Array.copy

let check_nonempty name u =
  if is_empty u then invalid_arg ("Csync_multiset." ^ name ^ ": empty multiset")

let min_elt u =
  check_nonempty "min_elt" u;
  u.(0)

let max_elt u =
  check_nonempty "max_elt" u;
  u.(Array.length u - 1)

let nth u i =
  if i < 0 || i >= Array.length u then invalid_arg "Csync_multiset.nth";
  u.(i)

let diameter u = if is_empty u then 0. else max_elt u -. min_elt u

let mid u =
  check_nonempty "mid" u;
  (min_elt u +. max_elt u) /. 2.

let mean u =
  check_nonempty "mean" u;
  Array.fold_left ( +. ) 0. u /. float_of_int (Array.length u)

let median u =
  check_nonempty "median" u;
  let n = Array.length u in
  if n mod 2 = 1 then u.(n / 2) else (u.(n / 2 - 1) +. u.(n / 2)) /. 2.

let add x u =
  let n = Array.length u in
  let b = Array.make (n + 1) x in
  (* Insert [x] keeping the array sorted. *)
  let rec place i =
    if i < n && u.(i) <= x then begin
      b.(i) <- u.(i);
      place (i + 1)
    end
    else begin
      b.(i) <- x;
      Array.blit u i b (i + 1) (n - i)
    end
  in
  place 0;
  b

let drop_lowest u = if is_empty u then u else Array.sub u 1 (Array.length u - 1)

let drop_highest u = if is_empty u then u else Array.sub u 0 (Array.length u - 1)

let reduce ~f u =
  if f < 0 then invalid_arg "Csync_multiset.reduce: negative f";
  let n = Array.length u in
  if n < 2 * f then invalid_arg "Csync_multiset.reduce: multiset too small";
  Array.sub u f (n - 2 * f)

(* Size of reduce ~f u, with reduce's checks plus the nonemptiness the
   averaging functions require - without building the reduced array. *)
let reduced_size name ~f u =
  if f < 0 then invalid_arg ("Csync_multiset." ^ name ^ ": negative f");
  let n = Array.length u in
  if n < 2 * f then invalid_arg ("Csync_multiset." ^ name ^ ": multiset too small");
  if n = 2 * f then invalid_arg ("Csync_multiset." ^ name ^ ": empty after reduction");
  n - (2 * f)

let mid_reduced ~f u =
  let m = reduced_size "mid_reduced" ~f u in
  (u.(f) +. u.(f + m - 1)) /. 2.

let mean_reduced ~f u =
  let m = reduced_size "mean_reduced" ~f u in
  let sum = ref 0. in
  for i = f to f + m - 1 do
    sum := !sum +. u.(i)
  done;
  !sum /. float_of_int m

let median_reduced ~f u =
  let m = reduced_size "median_reduced" ~f u in
  if m mod 2 = 1 then u.(f + (m / 2))
  else (u.(f + (m / 2) - 1) +. u.(f + (m / 2))) /. 2.

let add_scalar u r = Array.map (fun x -> x +. r) u

let union u v =
  (* Merge two sorted arrays. *)
  let n = Array.length u and m = Array.length v in
  let b = Array.make (n + m) 0. in
  let rec go i j k =
    if i = n then Array.blit v j b k (m - j)
    else if j = m then Array.blit u i b k (n - i)
    else if u.(i) <= v.(j) then begin
      b.(k) <- u.(i);
      go (i + 1) j (k + 1)
    end
    else begin
      b.(k) <- v.(j);
      go i (j + 1) (k + 1)
    end
  in
  go 0 0 0;
  b

let map f u = of_array (Array.map f u)

let count p u = Array.fold_left (fun acc x -> if p x then acc + 1 else acc) 0 u

let mem_within u ~value ~tol =
  Array.exists (fun e -> Float.abs (e -. value) <= tol) u

(* Maximum matching between sorted sequences under |a - b| <= x.
   Compatibility sets are intervals of the other sequence, and interval ends
   are monotone in the element, so the greedy "match each a (ascending) with
   the smallest unused compatible b" is optimal. *)
let max_pairing ~x u v =
  if x < 0. then invalid_arg "Csync_multiset.max_pairing: negative x";
  let n = Array.length u and m = Array.length v in
  let rec go i j matched =
    if i = n || j = m then matched
    else if v.(j) < u.(i) -. x then go i (j + 1) matched
    else if v.(j) > u.(i) +. x then go (i + 1) j matched
    else go (i + 1) (j + 1) (matched + 1)
  in
  go 0 0 0

let x_distance ~x u v =
  if size u > size v then
    invalid_arg "Csync_multiset.x_distance: first multiset larger than second";
  size u - max_pairing ~x u v

let pp ppf u =
  Format.fprintf ppf "@[<hov 1>{%a}@]"
    (Format.pp_print_array
       ~pp_sep:(fun ppf () -> Format.fprintf ppf ";@ ")
       (fun ppf x -> Format.fprintf ppf "%g" x))
    u

let equal u v = size u = size v && Array.for_all2 (fun a b -> a = b) u v

let compare u v =
  let c = Int.compare (size u) (size v) in
  if c <> 0 then c
  else
    let n = size u in
    let rec go i =
      if i = n then 0
      else
        let c = Float.compare u.(i) v.(i) in
        if c <> 0 then c else go (i + 1)
    in
    go 0

module Scratch = struct
  (* A multiset is a bare sorted array, and every operation above keys off
     [Array.length], so a reusable buffer must be exact-size.  One array is
     cached and reused whenever the requested size matches - on the periodic
     paths (same cluster size every round, same k every exchange) that means
     steady-state zero allocation. *)
  type buf = { mutable data : float array }

  let create () = { data = [||] }

  let obtain buf n =
    if Array.length buf.data = n then buf.data
    else begin
      let a = Array.make n 0. in
      buf.data <- a;
      a
    end

  let sorted_of_array buf a =
    let n = Array.length a in
    let out = obtain buf n in
    if out != a then Array.blit a 0 out 0 n;
    sort_floats out;
    out

  let add_scalar buf u r =
    let n = Array.length u in
    let out = obtain buf n in
    (* [out == u] is fine: each slot is read before it is written. *)
    for i = 0 to n - 1 do
      out.(i) <- u.(i) +. r
    done;
    out

  let union buf u v =
    let n = Array.length u and m = Array.length v in
    let out = obtain buf (n + m) in
    (* The merge writes ahead of its read fronts, so an input aliasing the
       buffer must be copied first. *)
    let u = if u == out then Array.copy u else u in
    let v = if v == out then Array.copy v else v in
    let rec go i j k =
      if i = n then Array.blit v j out k (m - j)
      else if j = m then Array.blit u i out k (n - i)
      else if u.(i) <= v.(j) then begin
        out.(k) <- u.(i);
        go (i + 1) j (k + 1)
      end
      else begin
        out.(k) <- v.(j);
        go i (j + 1) (k + 1)
      end
    in
    go 0 0 0;
    out
end
