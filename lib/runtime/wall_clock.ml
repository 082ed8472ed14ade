type t = { epoch : float; offset : float; rate : float }

let host_now () = float_of_int (Csync_obs.Registry.now_ns ()) *. 1e-9

let create ?epoch ~offset ~rate () =
  if rate <= 0. then invalid_arg "Wall_clock.create: nonpositive rate";
  let epoch = match epoch with Some e -> e | None -> host_now () in
  { epoch; offset; rate }

let of_wall t wall = t.offset +. (t.rate *. (wall -. t.epoch))

let now t = of_wall t (host_now ())

let wall_of t reading = t.epoch +. ((reading -. t.offset) /. t.rate)

let rate t = t.rate

let offset t = t.offset
