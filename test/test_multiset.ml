(* Unit and property tests for the multiset machinery, including the
   Appendix lemmas (21-24) that underpin Lemma 9. *)

module M = Csync_multiset
open Helpers

let t name f = Alcotest.test_case name `Quick f

let unit_tests =
  [
    t "of_list sorts" (fun () ->
        Alcotest.(check (list (float 0.)))
          "sorted" [ 1.; 2.; 3. ]
          (M.to_list (M.of_list [ 3.; 1.; 2. ])));
    t "of_array does not mutate input" (fun () ->
        let a = [| 3.; 1.; 2. |] in
        ignore (M.of_array a);
        Alcotest.(check (array (float 0.))) "unchanged" [| 3.; 1.; 2. |] a);
    t "duplicates preserved" (fun () ->
        check_int "size" 4 (M.size (M.of_list [ 1.; 1.; 2.; 1. ])));
    t "empty basics" (fun () ->
        check_true "is_empty" (M.is_empty M.empty);
        check_int "size" 0 (M.size M.empty);
        check_float "diameter" 0. (M.diameter M.empty));
    t "min max nth" (fun () ->
        let u = M.of_list [ 5.; -1.; 3. ] in
        check_float "min" (-1.) (M.min_elt u);
        check_float "max" 5. (M.max_elt u);
        check_float "nth 1" 3. (M.nth u 1));
    t "min/max/mid on empty raise" (fun () ->
        check_raises_invalid "min" (fun () -> M.min_elt M.empty);
        check_raises_invalid "max" (fun () -> M.max_elt M.empty);
        check_raises_invalid "mid" (fun () -> M.mid M.empty);
        check_raises_invalid "mean" (fun () -> M.mean M.empty);
        check_raises_invalid "median" (fun () -> M.median M.empty));
    t "nth out of range raises" (fun () ->
        check_raises_invalid "nth" (fun () -> M.nth (M.singleton 1.) 1));
    t "diameter" (fun () ->
        check_float "diam" 6. (M.diameter (M.of_list [ -1.; 2.; 5. ])));
    t "mid is midpoint of range" (fun () ->
        check_float "mid" 2. (M.mid (M.of_list [ -1.; 0.; 5. ])));
    t "mean" (fun () -> check_float "mean" 2. (M.mean (M.of_list [ 1.; 2.; 3. ])));
    t "median odd" (fun () ->
        check_float "median" 2. (M.median (M.of_list [ 9.; 2.; 1. ])));
    t "median even" (fun () ->
        check_float "median" 2.5 (M.median (M.of_list [ 1.; 2.; 3.; 9. ])));
    t "drop lowest/highest" (fun () ->
        let u = M.of_list [ 1.; 2.; 3. ] in
        Alcotest.(check (list (float 0.))) "s(U)" [ 2.; 3. ] (M.to_list (M.drop_lowest u));
        Alcotest.(check (list (float 0.))) "l(U)" [ 1.; 2. ] (M.to_list (M.drop_highest u)));
    t "drop on empty is identity" (fun () ->
        check_true "s" (M.is_empty (M.drop_lowest M.empty));
        check_true "l" (M.is_empty (M.drop_highest M.empty)));
    t "reduce drops f highest and lowest" (fun () ->
        let u = M.of_list [ 1.; 2.; 3.; 4.; 5.; 6.; 7. ] in
        Alcotest.(check (list (float 0.)))
          "reduced" [ 3.; 4.; 5. ]
          (M.to_list (M.reduce ~f:2 u)));
    t "reduce f=0 is identity" (fun () ->
        let u = M.of_list [ 2.; 1. ] in
        check_true "eq" (M.equal u (M.reduce ~f:0 u)));
    t "reduce errors" (fun () ->
        check_raises_invalid "negative" (fun () -> M.reduce ~f:(-1) M.empty);
        check_raises_invalid "too small" (fun () ->
            M.reduce ~f:2 (M.of_list [ 1.; 2.; 3. ])));
    t "add keeps order" (fun () ->
        let u = M.add 2.5 (M.of_list [ 1.; 2.; 3. ]) in
        Alcotest.(check (list (float 0.))) "inserted" [ 1.; 2.; 2.5; 3. ] (M.to_list u));
    t "add at ends" (fun () ->
        Alcotest.(check (list (float 0.)))
          "front" [ 0.; 1. ]
          (M.to_list (M.add 0. (M.singleton 1.)));
        Alcotest.(check (list (float 0.)))
          "back" [ 1.; 2. ]
          (M.to_list (M.add 2. (M.singleton 1.))));
    t "union merges sorted" (fun () ->
        let u = M.union (M.of_list [ 1.; 3. ]) (M.of_list [ 2.; 4. ]) in
        Alcotest.(check (list (float 0.))) "merged" [ 1.; 2.; 3.; 4. ] (M.to_list u));
    t "add_scalar shifts" (fun () ->
        Alcotest.(check (list (float 0.)))
          "shifted" [ 2.; 3. ]
          (M.to_list (M.add_scalar (M.of_list [ 1.; 2. ]) 1.)));
    t "count and mem_within" (fun () ->
        let u = M.of_list [ 1.; 2.; 3. ] in
        check_int "count" 2 (M.count (fun x -> x >= 2.) u);
        check_true "mem" (M.mem_within u ~value:2.05 ~tol:0.1);
        check_true "not mem" (not (M.mem_within u ~value:2.5 ~tol:0.1)));
    t "max_pairing basic" (fun () ->
        let u = M.of_list [ 0.; 10. ] and v = M.of_list [ 0.5; 9.5 ] in
        check_int "pairs" 2 (M.max_pairing ~x:1. u v);
        check_int "pairs tight" 0 (M.max_pairing ~x:0.1 u v));
    t "x_distance" (fun () ->
        let u = M.of_list [ 0.; 10. ] and v = M.of_list [ 0.5; 20. ] in
        check_int "d_x" 1 (M.x_distance ~x:1. u v);
        check_raises_invalid "size order" (fun () ->
            M.x_distance ~x:1. (M.of_list [ 1.; 2.; 3. ]) (M.of_list [ 1. ])));
    t "equal and compare" (fun () ->
        let u = M.of_list [ 1.; 2. ] in
        check_true "equal" (M.equal u (M.of_list [ 2.; 1. ]));
        check_true "compare size" (M.compare u (M.of_list [ 1. ]) > 0);
        check_true "compare lex" (M.compare u (M.of_list [ 1.; 3. ]) < 0));
  ]

(* Generators for property tests. *)
let gen_floats =
  QCheck2.Gen.(list_size (int_range 1 40) (float_bound_inclusive 100.))

let gen_floats_and_scalar = QCheck2.Gen.pair gen_floats QCheck2.Gen.(float_bound_inclusive 10.)

let prop_tests =
  [
    qcheck ~name:"to_list is sorted" gen_floats (fun l ->
        let sorted = M.to_list (M.of_list l) in
        List.sort Float.compare sorted = sorted);
    qcheck ~name:"size preserved" gen_floats (fun l ->
        M.size (M.of_list l) = List.length l);
    qcheck ~name:"mid within [min, max]" gen_floats (fun l ->
        let u = M.of_list l in
        M.min_elt u <= M.mid u && M.mid u <= M.max_elt u);
    qcheck ~name:"mean within [min, max]" gen_floats (fun l ->
        let u = M.of_list l in
        M.min_elt u -. 1e-9 <= M.mean u && M.mean u <= M.max_elt u +. 1e-9);
    qcheck ~name:"median within [min, max]" gen_floats (fun l ->
        let u = M.of_list l in
        M.min_elt u <= M.median u && M.median u <= M.max_elt u);
    qcheck ~name:"mid commutes with add_scalar" gen_floats_and_scalar
      (fun (l, r) ->
        let u = M.of_list l in
        Float.abs (M.mid (M.add_scalar u r) -. (M.mid u +. r)) < 1e-9);
    qcheck ~name:"reduce commutes with add_scalar" gen_floats_and_scalar
      (fun (l, r) ->
        let l = l @ [ 1.; 2.; 3. ] in
        let u = M.of_list l in
        M.equal
          (M.reduce ~f:1 (M.add_scalar u r))
          (M.add_scalar (M.reduce ~f:1 u) r));
    qcheck ~name:"diameter shrinks under reduce" gen_floats (fun l ->
        let l = l @ [ 0.; 50. ] in
        let u = M.of_list l in
        M.diameter (M.reduce ~f:1 u) <= M.diameter u);
    qcheck ~name:"union size adds" (QCheck2.Gen.pair gen_floats gen_floats)
      (fun (a, b) ->
        M.size (M.union (M.of_list a) (M.of_list b))
        = List.length a + List.length b);
    qcheck ~name:"union is sorted" (QCheck2.Gen.pair gen_floats gen_floats)
      (fun (a, b) ->
        let l = M.to_list (M.union (M.of_list a) (M.of_list b)) in
        List.sort Float.compare l = l);
    qcheck ~name:"max_pairing bounded by sizes"
      (QCheck2.Gen.pair gen_floats gen_floats) (fun (a, b) ->
        let u = M.of_list a and v = M.of_list b in
        let p = M.max_pairing ~x:1. u v in
        p <= M.size u && p <= M.size v);
    qcheck ~name:"x_distance zero iff all pairable within x" gen_floats
      (fun l ->
        let u = M.of_list l in
        M.x_distance ~x:0. u u = 0);
  ]

(* Appendix lemma properties.  W is a multiset of "honest" values; U and V
   perturb each honest value by at most x and append up to f arbitrary
   values - exactly the d_x(W, U) = 0 hypothesis shape. *)
let gen_lemma_instance =
  let open QCheck2.Gen in
  let* f = int_range 1 3 in
  let* honest_extra = int_range (f + 1) 10 in
  let n_honest = (2 * f) + honest_extra in
  (* n >= 3f + 1 *)
  let* w = list_size (return n_honest) (float_bound_inclusive 10.) in
  let* x = float_bound_inclusive 0.5 in
  let* noise_u = list_size (return n_honest) (float_bound_inclusive 1.) in
  let* noise_v = list_size (return n_honest) (float_bound_inclusive 1.) in
  let* byz_u = list_size (return f) (float_bound_inclusive 100.) in
  let* byz_v = list_size (return f) (float_bound_inclusive 100.) in
  let perturb values noise =
    List.map2 (fun w n -> w +. ((n -. 0.5) *. 2. *. x)) values noise
  in
  return (f, x, w, perturb w noise_u @ byz_u, perturb w noise_v @ byz_v)

let lemma_tests =
  [
    qcheck ~count:500 ~name:"Lemma 21: reduce(U) within W's range +- x"
      gen_lemma_instance (fun (f, x, w, u, _) ->
        let w = M.of_list w and u = M.of_list u in
        let r = M.reduce ~f u in
        M.max_elt r <= M.max_elt w +. x +. 1e-9
        && M.min_elt r >= M.min_elt w -. x -. 1e-9);
    qcheck ~count:500 ~name:"Lemma 22: x-distance not increased by drops"
      gen_lemma_instance (fun (_, x, w, u, _) ->
        let w = M.of_list w and u = M.of_list u in
        (* |W| <= |U| by construction *)
        M.x_distance ~x (M.drop_lowest w) (M.drop_lowest u)
        <= M.x_distance ~x w u
        && M.x_distance ~x (M.drop_highest w) (M.drop_highest u)
           <= M.x_distance ~x w u);
    qcheck ~count:500 ~name:"Lemma 23: reduced ranges overlap within 2x"
      gen_lemma_instance (fun (f, x, w, u, v) ->
        ignore w;
        let u = M.of_list u and v = M.of_list v in
        M.min_elt (M.reduce ~f u) -. M.max_elt (M.reduce ~f v) <= (2. *. x) +. 1e-9);
    qcheck ~count:500
      ~name:"Lemma 24: |mid(reduce U) - mid(reduce V)| <= diam(W)/2 + 2x"
      gen_lemma_instance (fun (f, x, w, u, v) ->
        let w = M.of_list w and u = M.of_list u and v = M.of_list v in
        Float.abs (M.mid (M.reduce ~f u) -. M.mid (M.reduce ~f v))
        <= (M.diameter w /. 2.) +. (2. *. x) +. 1e-9);
  ]

(* The fused reduce-and-average variants and the scratch-buffer operations
   must agree exactly (same floats, same elements) with the allocating
   compositions they replace. *)
let gen_reducible =
  let open QCheck2.Gen in
  let* f = int_range 0 4 in
  let* extra = int_range 1 30 in
  let* l = list_size (return ((2 * f) + extra)) (float_bound_inclusive 100.) in
  return (f, l)

let fused_tests =
  [
    qcheck ~name:"mid_reduced = mid o reduce" gen_reducible (fun (f, l) ->
        let u = M.of_list l in
        M.mid_reduced ~f u = M.mid (M.reduce ~f u));
    qcheck ~name:"mean_reduced = mean o reduce" gen_reducible (fun (f, l) ->
        let u = M.of_list l in
        Float.abs (M.mean_reduced ~f u -. M.mean (M.reduce ~f u)) <= 1e-12);
    qcheck ~name:"median_reduced = median o reduce" gen_reducible
      (fun (f, l) ->
        let u = M.of_list l in
        M.median_reduced ~f u = M.median (M.reduce ~f u));
    t "fused variants validate like reduce-then-average" (fun () ->
        let u = M.of_list [ 1.; 2.; 3.; 4. ] in
        check_raises_invalid "negative f" (fun () -> M.mid_reduced ~f:(-1) u);
        check_raises_invalid "too small" (fun () -> M.mid_reduced ~f:3 u);
        check_raises_invalid "empty after reduction" (fun () ->
            M.mid_reduced ~f:2 u);
        check_raises_invalid "mean empty" (fun () -> M.mean_reduced ~f:2 u);
        check_raises_invalid "median empty" (fun () -> M.median_reduced ~f:2 u));
  ]

let scratch_tests =
  [
    qcheck ~name:"Scratch.sorted_of_array = of_array" gen_floats (fun l ->
        let a = Array.of_list l in
        let buf = M.Scratch.create () in
        M.equal (M.Scratch.sorted_of_array buf a) (M.of_array a));
    qcheck ~name:"Scratch.sorted_of_array does not mutate input" gen_floats
      (fun l ->
        let a = Array.of_list l in
        let copy = Array.copy a in
        let buf = M.Scratch.create () in
        ignore (M.Scratch.sorted_of_array buf a);
        a = copy);
    qcheck ~name:"Scratch.add_scalar = add_scalar" gen_floats_and_scalar
      (fun (l, r) ->
        let u = M.of_list l in
        let buf = M.Scratch.create () in
        M.equal (M.Scratch.add_scalar buf u r) (M.add_scalar u r));
    qcheck ~name:"Scratch.union = union" (QCheck2.Gen.pair gen_floats gen_floats)
      (fun (a, b) ->
        let u = M.of_list a and v = M.of_list b in
        let buf = M.Scratch.create () in
        M.equal (M.Scratch.union buf u v) (M.union u v));
    qcheck ~name:"Scratch reuse across calls stays correct" gen_floats
      (fun l ->
        (* Same buffer, same size, repeated calls - the reuse path. *)
        let a = Array.of_list l in
        let buf = M.Scratch.create () in
        let first = M.to_list (M.Scratch.sorted_of_array buf a) in
        let second = M.to_list (M.Scratch.sorted_of_array buf a) in
        first = second && first = M.to_list (M.of_array a));
    t "Scratch.union tolerates aliased input" (fun () ->
        let buf = M.Scratch.create () in
        (* add_scalar leaves its result in the buffer's backing store; a
           union with the empty multiset then wants an output of the same
           size, so the buffer is handed back as output while also being
           the input - the aliasing guard must copy first. *)
        let v = M.Scratch.add_scalar buf (M.of_list [ 3.; 1. ]) 1. in
        let w = M.Scratch.union buf v M.empty in
        Alcotest.(check (list (float 0.))) "left" [ 2.; 4. ] (M.to_list w);
        let v = M.Scratch.add_scalar buf (M.of_list [ 5.; 2. ]) 0. in
        let w = M.Scratch.union buf M.empty v in
        Alcotest.(check (list (float 0.))) "right" [ 2.; 5. ] (M.to_list w));
  ]

(* The multiset sort must reproduce [Array.sort Float.compare] bit for bit,
   including where NaNs (of either sign), signed zeros, infinities and
   duplicates land, so elements are compared as their bit patterns. *)
let specials =
  [| Float.nan; Float.neg Float.nan; 0.; -0.; infinity; neg_infinity; 1.; -1.; 2.5 |]

let reference_sort a =
  let b = Array.copy a in
  Array.sort Float.compare b;
  b

let same_bits a b =
  Array.length a = Array.length b
  && Array.for_all2
       (fun x y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y))
       a b

let sorts_like_stdlib a =
  let want = reference_sort a in
  same_bits (M.to_array (M.of_array a)) want
  && same_bits (M.to_array (M.Scratch.sorted_of_array (M.Scratch.create ()) a)) want

let gen_tricky =
  QCheck2.Gen.(
    map Array.of_list
      (list_size (int_range 0 64)
         (frequency
            [ (3, oneofa specials); (1, float_range (-4.) 4.); (1, float) ])))

(* A 10^4-element input with the same mix, drawn from a seeded stream. *)
let tricky_array n =
  let rng = Csync_sim.Rng.create 11 in
  Array.init n (fun _ ->
      match Csync_sim.Rng.int rng 5 with
      | 0 | 1 | 2 -> specials.(Csync_sim.Rng.int rng (Array.length specials))
      | 3 -> Csync_sim.Rng.uniform rng ~lo:(-4.) ~hi:4.
      | _ -> Int64.float_of_bits (Csync_sim.Rng.int64 rng))

let sort_tests =
  [
    qcheck ~count:500 ~name:"sort bit-identical, n <= 64" gen_tricky
      sorts_like_stdlib;
    t "sort bit-identical, n = 10^4" (fun () ->
        check_true "same bits" (sorts_like_stdlib (tricky_array 10_000)));
    t "multiset sort allocates 0 words" (fun () ->
        List.iter
          (fun n ->
            let a = tricky_array n in
            let buf = M.Scratch.create () in
            (* The first call sizes the buffer; the measured one reuses it. *)
            ignore (M.Scratch.sorted_of_array buf a);
            let words =
              allocated_words (fun () -> ignore (M.Scratch.sorted_of_array buf a))
            in
            Alcotest.(check (float 0.)) (Printf.sprintf "n = %d" n) 0. words)
          [ 16; 10_000 ]);
  ]

let suite =
  unit_tests @ prop_tests @ lemma_tests @ fused_tests @ scratch_tests @ sort_tests
