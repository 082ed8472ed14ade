module Obs = Csync_obs.Registry

let parallel_available = Pool_backend.available

let default_jobs () =
  match Sys.getenv_opt "CSYNC_JOBS" with
  | Some s -> (
    match int_of_string_opt (String.trim s) with
    | Some j when j >= 1 -> j
    | Some _ | None -> 1)
  | None -> Pool_backend.recommended_jobs ()

let init ~jobs n f =
  if n < 0 then invalid_arg "Pool.init: negative length";
  if jobs < 1 then invalid_arg "Pool.init: jobs must be >= 1";
  let obs = Obs.installed () in
  if not (Obs.enabled obs) then Pool_backend.run ~jobs n f
  else begin
    (* Every task records into its own child registry, installed on the
       worker running it (worker 0 is this domain, so the previous
       registry is restored afterwards).  The children fold into [obs] in
       task-index order after the join, which is the order a one-worker
       run records in, so the trace does not depend on [jobs].  Task i
       runs on worker i mod effective-jobs (the backend's round-robin);
       the worker metrics are minted before [f] can relabel the child, so
       they carry the pool's own label.  This only wraps observation
       around [f]; results are unchanged. *)
    let eff = if Pool_backend.available then max 1 (min jobs n) else 1 in
    let tagged =
      Pool_backend.run ~jobs n (fun i ->
          let reg = Obs.child obs in
          let w = i mod eff in
          Obs.Counter.incr
            (Obs.counter reg (Printf.sprintf "pool.tasks.worker%d" w));
          let span = Obs.span reg (Printf.sprintf "pool.worker%d" w) in
          let prev = Obs.installed () in
          Obs.install reg;
          let v =
            Fun.protect
              ~finally:(fun () -> Obs.install prev)
              (fun () -> Obs.Span.time span (fun () -> f i))
          in
          (v, reg))
    in
    Array.iter (fun (_, reg) -> Obs.merge ~into:obs reg) tagged;
    Array.map fst tagged
  end

let map ~jobs f a = init ~jobs (Array.length a) (fun i -> f a.(i))

let map_list ~jobs f l =
  Array.to_list (map ~jobs f (Array.of_list l))
