(* Fleet-trace collection: merge N per-node btrace streams, arriving as
   framed chunks in arbitrary interleaving, into one canonical trace.

   Each node stream is an independent [csync-btrace/1] byte stream (own
   magic, own intern table) chopped into frames by the emitter; a frame
   carries the node id, a per-node sequence number, and the emitter's
   monotonic timestamp.  The collector keeps one {!Btrace.feed} per node
   so intern tables can never clash across nodes, and resynchronizes a
   stream on sequence gaps or decode errors by discarding state and
   waiting for the next stream restart (a frame whose payload begins
   with the btrace magic — emitters restart their stream after any
   drop, and on reconnect).

   The merged trace is canonical: per-node decoding depends only on that
   node's frames in sequence order, and the merge sorts on the
   content-derived key (timestamp, node id, seq, record index) — so the
   output is byte-identical regardless of how the per-node streams
   interleaved on arrival. *)

type node_stats = {
  src : int;
  frames : int;  (** frames accepted and fed to the decoder *)
  records : int;  (** records decoded *)
  gaps : int;  (** sequence discontinuities *)
  lost : int;  (** frames missing, summed over gaps *)
  skipped : int;  (** frames discarded while awaiting a stream restart *)
  resets : int;  (** stream restarts after the first *)
  errors : int;  (** decode errors *)
  last_seq : int;  (** seq of the last accepted frame, -1 if none *)
  last_ts_ns : int;  (** emitter monotonic ns of the last accepted frame *)
}

type node = {
  n_src : int;
  n_feed : Btrace.feed;
  mutable n_next_seq : int;
  mutable n_seen_stream : bool;  (* a magic frame has been accepted *)
  mutable n_awaiting : bool;  (* desynced: skip until the next magic *)
  mutable n_frames : int;
  mutable n_records : int;
  mutable n_gaps : int;
  mutable n_lost : int;
  mutable n_skipped : int;
  mutable n_resets : int;  (* sequence regressions at a segment head *)
  mutable n_errors : int;
  mutable n_last_seq : int;
  mutable n_last_ts : int;
  mutable n_idx : int;  (* per-node record index, for the merge key *)
  mutable n_recs : (int * int * int * Record.t) list;  (* ts, seq, idx; rev *)
}

type t = { nodes : (int, node) Hashtbl.t }

let create () = { nodes = Hashtbl.create 16 }

let node_of t src =
  match Hashtbl.find_opt t.nodes src with
  | Some n -> n
  | None ->
    let n =
      {
        n_src = src;
        n_feed = Btrace.feed ();
        n_next_seq = 0;
        n_seen_stream = false;
        n_awaiting = true;
        n_frames = 0;
        n_records = 0;
        n_gaps = 0;
        n_lost = 0;
        n_skipped = 0;
        n_resets = 0;
        n_errors = 0;
        n_last_seq = -1;
        n_last_ts = 0;
        n_idx = 0;
        n_recs = [];
      }
    in
    Hashtbl.add t.nodes src n;
    n

let drain n ~ts_ns ~seq =
  let rec go () =
    match Btrace.feed_next n.n_feed with
    | `Await -> ()
    | `Record r ->
      n.n_records <- n.n_records + 1;
      n.n_recs <- (ts_ns, seq, n.n_idx, r) :: n.n_recs;
      n.n_idx <- n.n_idx + 1;
      go ()
    | `Error _ ->
      (* Corrupt stream: drop buffered state and resync at the next
         stream restart.  The intern table is gone, so records between
         here and the restart could not be decoded anyway. *)
      n.n_errors <- n.n_errors + 1;
      n.n_awaiting <- true;
      Btrace.feed_reset n.n_feed
  in
  go ()

let accept n ~seq ~ts_ns payload =
  n.n_frames <- n.n_frames + 1;
  n.n_next_seq <- seq + 1;
  n.n_last_seq <- seq;
  if ts_ns > n.n_last_ts then n.n_last_ts <- ts_ns;
  Btrace.feed_bytes n.n_feed payload;
  drain n ~ts_ns ~seq

let frame t ~src ~seq ~ts_ns payload =
  let n = node_of t src in
  if String.starts_with ~prefix:Btrace.magic payload then begin
    (* A segment head.  Emitters ship every flush as a self-contained
       segment, so magic alone is routine; a sequence REGRESSION here
       means a fresh emitter (restart/reconnect, seq back to 0), and a
       forward jump means frames of the previous segment were lost. *)
    if n.n_seen_stream then begin
      if seq < n.n_next_seq then n.n_resets <- n.n_resets + 1
      else if seq > n.n_next_seq then begin
        n.n_gaps <- n.n_gaps + 1;
        n.n_lost <- n.n_lost + (seq - n.n_next_seq)
      end
    end;
    n.n_seen_stream <- true;
    n.n_awaiting <- false;
    Btrace.feed_reset n.n_feed;
    (* feed_reset re-arms the magic check; the payload starts with it. *)
    accept n ~seq ~ts_ns payload
  end
  else if n.n_awaiting then n.n_skipped <- n.n_skipped + 1
  else if seq <> n.n_next_seq then begin
    n.n_gaps <- n.n_gaps + 1;
    n.n_lost <- n.n_lost + max 0 (seq - n.n_next_seq);
    n.n_skipped <- n.n_skipped + 1;
    n.n_awaiting <- true;
    Btrace.feed_reset n.n_feed
  end
  else accept n ~seq ~ts_ns payload

let sorted_nodes t =
  Hashtbl.fold (fun _ n acc -> n :: acc) t.nodes []
  |> List.sort (fun a b -> compare a.n_src b.n_src)

let stats_of n =
  {
    src = n.n_src;
    frames = n.n_frames;
    records = n.n_records;
    gaps = n.n_gaps;
    lost = n.n_lost;
    skipped = n.n_skipped;
    resets = n.n_resets;
    errors = n.n_errors;
    last_seq = n.n_last_seq;
    last_ts_ns = n.n_last_ts;
  }

let stats t = List.map stats_of (sorted_nodes t)

let total_records t =
  Hashtbl.fold (fun _ n acc -> acc + n.n_records) t.nodes 0

(* ---------- canonical merge ---------- *)

let prefix src = "p" ^ string_of_int src

(* Tag a node's record names with its id, via the label half of the
   interned name ("p3" label, or "p3.cell" when the node already had
   one), so the string table of the merged trace shares the node prefix
   across all of that node's metrics. *)
let retag src name =
  let label, base = Record.split_name name in
  if label = "" then prefix src ^ "/" ^ base
  else prefix src ^ "." ^ label ^ "/" ^ base

let tag_record src (r : Record.t) : Record.t =
  match r with
  | Record.Manifest j -> Record.Event (prefix src ^ "/manifest", j)
  | Record.Counter (nm, v) -> Record.Counter (retag src nm, v)
  | Record.Gauge (nm, v) -> Record.Gauge (retag src nm, v)
  | Record.Series (nm, xs, ys) -> Record.Series (retag src nm, xs, ys)
  | Record.Hist (nm, h) -> Record.Hist (retag src nm, h)
  | Record.Span (nm, s) -> Record.Span (retag src nm, s)
  | Record.Event (nm, j) -> Record.Event (retag src nm, j)
  | Record.Monitor (nm, m) -> Record.Monitor (prefix src ^ "." ^ nm, m)
  | Record.Unknown _ -> r

let fleet_manifest nodes =
  (* Params (including the gamma/kappa envelopes the emitter bakes in)
     are copied from the lowest-id node that shipped a manifest — every
     node of one fleet runs the same parameters. *)
  let params =
    List.find_map
      (fun n ->
        List.find_map
          (fun (_, _, _, r) ->
            match r with
            | Record.Manifest j -> Json.member "params" j
            | _ -> None)
          (List.rev n.n_recs))
      nodes
  in
  Record.Manifest
    (Json.Obj
       [
         ("record", Json.Str "manifest");
         ("target", Json.Str "fleet");
         ("nodes", Json.Arr (List.map (fun n -> Json.num_of_int n.n_src) nodes));
         ("params", Option.value params ~default:Json.Null);
       ])

let accounting n =
  let p = prefix n.n_src in
  [
    Record.Counter (p ^ "/collect.frames", n.n_frames);
    Record.Counter (p ^ "/collect.records", n.n_records);
    Record.Counter (p ^ "/collect.gaps", n.n_gaps);
    Record.Counter (p ^ "/collect.lost", n.n_lost);
    Record.Counter (p ^ "/collect.skipped", n.n_skipped);
    Record.Counter (p ^ "/collect.resets", n.n_resets);
    Record.Counter (p ^ "/collect.errors", n.n_errors);
    Record.Gauge (p ^ "/collect.last_seen_ns", float_of_int n.n_last_ts);
  ]

let merged t =
  let nodes = sorted_nodes t in
  let tagged =
    List.concat_map
      (fun n ->
        List.rev_map
          (fun (ts, seq, idx, r) -> (ts, n.n_src, seq, idx, tag_record n.n_src r))
          n.n_recs
        |> List.rev)
      nodes
  in
  let sorted =
    List.stable_sort
      (fun (ts, s, q, i, _) (ts', s', q', i', _) ->
        compare (ts, s, q, i) (ts', s', q', i'))
      tagged
  in
  (fleet_manifest nodes :: List.map (fun (_, _, _, _, r) -> r) sorted)
  @ List.concat_map accounting nodes

let write_merged t path = Btrace.write_file path (merged t)
