(* Round-phase profiler for the scale pipeline.

   Phases are the fixed stages of a sharded round (plus the end-of-run
   state checksum); each gets a "profile.<phase>" span (count / total /
   max) and a "profile.<phase>.ns" series (one point per occurrence, so
   per-round phase times survive into the trace for [csync report]'s
   profile table and [csync top]'s bars).  Pool workers time their own
   fill/sweep as plain registry spans under the same names in their
   task's registry, which the pool folds into the run's registry.

   The clock is [Unix.gettimeofday] in integer nanoseconds, clamped
   monotone through an atomic high-water mark: the stdlib exposes no
   monotonic clock without C stubs, and a wall-clock step backwards
   (NTP!) must not produce negative phase times in a profiler that ships
   inside a clock-synchronization testbed.  During a backward step the
   clock holds still, so affected durations read 0, never negative. *)

type phase = Fill | Sweep | Apply | Advance | Checksum

let phases = [ Fill; Sweep; Apply; Advance; Checksum ]

let phase_name = function
  | Fill -> "fill"
  | Sweep -> "sweep"
  | Apply -> "apply"
  | Advance -> "advance"
  | Checksum -> "checksum"

let phase_index = function
  | Fill -> 0
  | Sweep -> 1
  | Apply -> 2
  | Advance -> 3
  | Checksum -> 4

let last_ns = Atomic.make 0

let now_ns () =
  let t = int_of_float (Unix.gettimeofday () *. 1e9) in
  let rec clamp () =
    let prev = Atomic.get last_ns in
    if t <= prev then prev
    else if Atomic.compare_and_set last_ns prev t then t
    else clamp ()
  in
  clamp ()

type cells = {
  spans : Registry.Span.handle array;  (* by phase_index *)
  series : Registry.Series.handle array;
}

type t = Disabled | On of cells

let disabled = Disabled

let create reg =
  if not (Registry.enabled reg) then Disabled
  else
    On
      {
        spans =
          Array.of_list
            (List.map (fun p -> Registry.span reg ("profile." ^ phase_name p)) phases);
        series =
          Array.of_list
            (List.map
               (fun p -> Registry.series reg ("profile." ^ phase_name p ^ ".ns"))
               phases);
      }

let active = function Disabled -> false | On _ -> true

let record_ns t phase ns =
  match t with
  | Disabled -> ()
  | On c ->
    let i = phase_index phase in
    (* The series x coordinate is the occurrence index, read from the
       interned span's count so it keeps advancing across profiler
       instances (one is created per Scale round). *)
    let x = float_of_int (Registry.Span.count c.spans.(i)) in
    Registry.Span.record c.spans.(i) (float_of_int ns *. 1e-9);
    Registry.Series.push c.series.(i) x (float_of_int ns)

let time t phase f =
  match t with
  | Disabled -> f ()
  | On _ ->
    let t0 = now_ns () in
    let finish () = record_ns t phase (now_ns () - t0) in
    (match f () with
    | v ->
      finish ();
      v
    | exception e ->
      finish ();
      raise e)
