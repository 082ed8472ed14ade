type delay_choice = { sent : float; src : int; dst : int; delay : float }

(* Each ring is allocated on the first switch that turns it on: a cluster
   creates a trace whether or not anyone reads it, and most never do.
   Until then it is the empty array, and nothing is recorded into it. *)
type t = {
  capacity : int;
  mutable entries : (float * string) option array;
  mutable next : int;
  mutable total : int;
  mutable enabled : bool;
  mutable delay_entries : delay_choice option array;
  mutable delay_next : int;
  mutable delay_total : int;
  mutable delays_enabled : bool;
}

let create ?(capacity = 4096) () =
  if capacity <= 0 then invalid_arg "Trace.create: nonpositive capacity";
  {
    capacity;
    entries = [||];
    next = 0;
    total = 0;
    enabled = false;
    delay_entries = [||];
    delay_next = 0;
    delay_total = 0;
    delays_enabled = false;
  }

let enabled t = t.enabled

let set_enabled t flag =
  if flag && Array.length t.entries = 0 then
    t.entries <- Array.make t.capacity None;
  t.enabled <- flag

let record t ~time msg =
  if t.enabled then begin
    t.entries.(t.next) <- Some (time, msg);
    t.next <- (t.next + 1) mod t.capacity;
    t.total <- t.total + 1
  end

let recordf t ~time fmt =
  if t.enabled then Format.kasprintf (fun msg -> record t ~time msg) fmt
  else Format.ikfprintf (fun _ -> ()) Format.str_formatter fmt

let delays_enabled t = t.delays_enabled

let set_delays_enabled t flag =
  if flag && Array.length t.delay_entries = 0 then
    t.delay_entries <- Array.make t.capacity None;
  t.delays_enabled <- flag

let record_delay t ~sent ~src ~dst ~delay =
  if t.delays_enabled then begin
    t.delay_entries.(t.delay_next) <- Some { sent; src; dst; delay };
    t.delay_next <- (t.delay_next + 1) mod t.capacity;
    t.delay_total <- t.delay_total + 1
  end

let delays_total t = t.delay_total

let delays t =
  let n = min t.delay_total t.capacity in
  let start = if t.delay_total <= t.capacity then 0 else t.delay_next in
  List.init n (fun i ->
      match t.delay_entries.((start + i) mod t.capacity) with
      | Some e -> e
      | None -> assert false)

let length t = min t.total t.capacity

let total t = t.total

let to_list t =
  let n = length t in
  let start = if t.total <= t.capacity then 0 else t.next in
  List.init n (fun i ->
      match t.entries.((start + i) mod t.capacity) with
      | Some e -> e
      | None -> assert false)

let clear t =
  Array.fill t.entries 0 (Array.length t.entries) None;
  t.next <- 0;
  t.total <- 0;
  Array.fill t.delay_entries 0 (Array.length t.delay_entries) None;
  t.delay_next <- 0;
  t.delay_total <- 0

let pp ppf t =
  List.iter (fun (time, msg) -> Format.fprintf ppf "[%12.6f] %s@." time msg) (to_list t)
