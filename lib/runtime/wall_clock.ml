type t = { epoch : float; offset : float; rate : float }

let create ?epoch ~offset ~rate () =
  if rate <= 0. then invalid_arg "Wall_clock.create: nonpositive rate";
  let epoch = match epoch with Some e -> e | None -> Unix.gettimeofday () in
  { epoch; offset; rate }

let of_wall t wall = t.offset +. (t.rate *. (wall -. t.epoch))

let now t = of_wall t (Unix.gettimeofday ())

let wall_of t reading = t.epoch +. ((reading -. t.offset) /. t.rate)

let rate t = t.rate

let offset t = t.offset
