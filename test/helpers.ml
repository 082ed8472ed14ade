(* Shared test utilities. *)

let check_float = Alcotest.(check (float 1e-9))

let check_float_tol tol = Alcotest.(check (float tol))

let check_int = Alcotest.(check int)

let check_bool = Alcotest.(check bool)

let check_true msg b = Alcotest.(check bool) msg true b

let check_raises_invalid msg f =
  match f () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.failf "%s: expected Invalid_argument" msg

(* Words [f] allocates in either heap, counted the way the bench's
   allocation audit counts them: minor words plus the major heap's direct
   allocations (major minus promoted words, so nothing counts twice).
   Large arrays skip the minor heap, so [Gc.minor_words] alone would miss
   them.  The minor count comes from the allocation-free [Gc.minor_words],
   read after the first [Gc.counters] result exists and before the second,
   so the probe counts none of its own words. *)
let allocated_words f =
  let _, promoted0, major0 = Gc.counters () in
  let minor0 = Gc.minor_words () in
  f ();
  let minor1 = Gc.minor_words () in
  let _, promoted1, major1 = Gc.counters () in
  minor1 -. minor0 +. (major1 -. promoted1 -. (major0 -. promoted0))

let qcheck ?(count = 200) ~name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

(* Standard small parameter set used across algorithm tests. *)
let params () =
  Csync_core.Params.make_exn ~n:7 ~f:2 ~rho:1e-6 ~delta:1e-3 ~eps:1e-4
    ~beta:4.5e-4 ~big_p:0.5 ()

(* Substring search (no external deps). *)
let contains haystack needle =
  let n = String.length needle and h = String.length haystack in
  if n = 0 then true
  else begin
    let rec go i = i + n <= h && (String.sub haystack i n = needle || go (i + 1)) in
    go 0
  end
