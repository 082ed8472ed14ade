type t = {
  n : int;
  f : int;
  rho : float;
  delta : float;
  eps : float;
  beta : float;
  big_p : float;
  t0 : float;
}

type error =
  | Bad_counts of string
  | Bad_delay of string
  | Bad_rho of string
  | P_too_small of { minimum : float }
  | P_too_large of { maximum : float }
  | Beta_inconsistent of { minimum : float }

let pp_error ppf = function
  | Bad_counts msg | Bad_delay msg | Bad_rho msg -> Format.pp_print_string ppf msg
  | P_too_small { minimum } -> Format.fprintf ppf "P below its lower bound %.9g" minimum
  | P_too_large { maximum } -> Format.fprintf ppf "P above its upper bound %.9g" maximum
  | Beta_inconsistent { minimum } ->
    Format.fprintf ppf "beta below its self-consistency minimum %.9g" minimum

(* Lower bound on P: Lemma 12 needs 3(1+rho)(beta+eps) + rho delta; Lemma 8
   needs (1+rho)(2 beta + delta + 2 eps) + rho delta.  Both must hold. *)
let p_min ~rho ~delta ~eps ~beta =
  Float.max
    ((3. *. (1. +. rho) *. (beta +. eps)) +. (rho *. delta))
    (((1. +. rho) *. ((2. *. beta) +. delta +. (2. *. eps))) +. (rho *. delta))

(* Upper bound on P, from Lemma 11's requirement that
   2 rho P + beta/2 + 2 eps + 2 rho (2 beta + delta + 2 eps)
   + 2 rho^2 (beta + delta + eps) <= beta. *)
let p_max ~rho ~delta ~eps ~beta =
  if rho = 0. then infinity
  else
    (beta /. (4. *. rho)) -. (eps /. rho) -. (2. *. beta) -. delta -. (2. *. eps)
    -. (rho *. (beta +. delta +. eps))

(* Section 5.2's beta self-consistency:
   beta >= 4 eps + 4 rho (4 beta + delta + 4 eps + m)
           + 4 rho^2 (3 beta + 2 delta + 3 eps + m)
   where m = max(delta, beta + eps). *)
let beta_consistency_rhs ~rho ~delta ~eps ~beta =
  let m = Float.max delta (beta +. eps) in
  (4. *. eps)
  +. (4. *. rho *. ((4. *. beta) +. delta +. (4. *. eps) +. m))
  +. (4. *. rho *. rho *. ((3. *. beta) +. (2. *. delta) +. (3. *. eps) +. m))

let beta_consistency_min ~rho ~delta ~eps =
  (* The rhs is affine (piecewise) and increasing in beta with tiny slope
     (O(rho)); iterate to its fixpoint from below. *)
  let rec iterate beta remaining =
    let next = beta_consistency_rhs ~rho ~delta ~eps ~beta in
    if remaining = 0 || Float.abs (next -. beta) <= 1e-15 *. Float.max 1. next then next
    else iterate next (remaining - 1)
  in
  iterate (4. *. eps) 64

let beta_approx ~rho ~eps ~big_p = (4. *. eps) +. (4. *. rho *. big_p)

let beta_min ~rho ~delta ~eps ~big_p =
  let consistency = beta_consistency_min ~rho ~delta ~eps in
  if rho = 0. then consistency
  else begin
    (* Invert p_max: P <= beta (1/(4 rho) - 2 - rho) - eps/rho - delta
                          - 2 eps - rho (delta + eps). *)
    let slope = (1. /. (4. *. rho)) -. 2. -. rho in
    if slope <= 0. then infinity
    else
      let from_p =
        (big_p +. (eps /. rho) +. delta +. (2. *. eps) +. (rho *. (delta +. eps)))
        /. slope
      in
      Float.max consistency from_p
  end

let wait_window { rho; beta; delta; eps; _ } = (1. +. rho) *. (beta +. delta +. eps)

let gamma { rho; beta; delta; eps; _ } =
  let s = beta +. delta +. eps in
  beta +. eps
  +. (rho *. ((7. *. beta) +. (3. *. delta) +. (7. *. eps)))
  +. (8. *. rho *. rho *. s)
  +. (4. *. rho *. rho *. rho *. s)

let adjustment_bound { rho; beta; delta; eps; _ } =
  ((1. +. rho) *. (beta +. eps)) +. (rho *. delta)

let lambda { rho; beta; delta; eps; big_p; _ } =
  (big_p -. ((1. +. rho) *. (beta +. eps)) -. (rho *. delta)) /. (1. +. rho)

let validity t =
  let l = lambda t in
  (1. -. t.rho -. (t.eps /. l), 1. +. t.rho +. (t.eps /. l), t.eps)

let round_start t i = t.t0 +. (float_of_int i *. t.big_p)

let update_time t i = round_start t i +. wait_window t

let basic_errors ~n ~f ~rho ~delta ~eps ~big_p =
  let errs = ref [] in
  let err e = errs := e :: !errs in
  if n <= 0 then err (Bad_counts "n must be positive");
  if f < 0 then err (Bad_counts "f must be nonnegative");
  if eps < 0. then err (Bad_delay "eps must be nonnegative");
  if delta < eps then err (Bad_delay "delta >= eps required (assumption A3)");
  if delta <= 0. then err (Bad_delay "delta must be positive");
  if rho < 0. then err (Bad_rho "rho must be nonnegative");
  if rho >= 0.1 then err (Bad_rho "rho must be small (< 0.1)");
  if big_p <= 0. then err (Bad_counts "P must be positive");
  List.rev !errs

let check t =
  let { n; f; rho; delta; eps; beta; big_p; _ } = t in
  let errs = ref (basic_errors ~n ~f ~rho ~delta ~eps ~big_p) in
  let err e = errs := !errs @ [ e ] in
  if n < (3 * f) + 1 then err (Bad_counts "n >= 3f + 1 required (assumption A2)");
  if beta <= 0. then err (Bad_counts "beta must be positive");
  let minimum = p_min ~rho ~delta ~eps ~beta in
  if big_p < minimum then err (P_too_small { minimum });
  let maximum = p_max ~rho ~delta ~eps ~beta in
  if big_p > maximum then err (P_too_large { maximum });
  let beta_floor = beta_consistency_min ~rho ~delta ~eps in
  if beta < beta_floor then err (Beta_inconsistent { minimum = beta_floor });
  !errs

let unchecked ~n ~f ~rho ~delta ~eps ~beta ~big_p ?(t0 = 0.) () =
  let errs = basic_errors ~n ~f ~rho ~delta ~eps ~big_p in
  if errs <> [] then
    invalid_arg
      (Format.asprintf "Params.unchecked: %a"
         (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf "; ") pp_error)
         errs);
  { n; f; rho; delta; eps; beta; big_p; t0 }

let make ~n ~f ~rho ~delta ~eps ~beta ~big_p ?(t0 = 0.) () =
  let candidate = { n; f; rho; delta; eps; beta; big_p; t0 } in
  match basic_errors ~n ~f ~rho ~delta ~eps ~big_p with
  | [] -> ( match check candidate with [] -> Ok candidate | errs -> Error errs)
  | errs -> Error errs

let make_exn ~n ~f ~rho ~delta ~eps ~beta ~big_p ?t0 () =
  match make ~n ~f ~rho ~delta ~eps ~beta ~big_p ?t0 () with
  | Ok t -> t
  | Error errs ->
    invalid_arg
      (Format.asprintf "Params.make_exn: %a"
         (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf "; ") pp_error)
         errs)

let auto ~n ~f ~rho ~delta ~eps ~big_p ?t0 () =
  let beta = 1.05 *. beta_min ~rho ~delta ~eps ~big_p in
  make ~n ~f ~rho ~delta ~eps ~beta ~big_p ?t0 ()

let pp ppf t =
  Format.fprintf ppf
    "@[<hov 2>params{n=%d; f=%d; rho=%.3g; delta=%.6g; eps=%.6g; beta=%.6g;@ \
     P=%.6g; T0=%g; gamma=%.6g}@]"
    t.n t.f t.rho t.delta t.eps t.beta t.big_p t.t0 (gamma t)
