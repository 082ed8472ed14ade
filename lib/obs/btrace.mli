(** [csync-btrace/1] — the trace container: every capture ([csync
    trace], the fleet collector's merged trace) is stored in it, and
    [csync report --json] renders one as JSON lines.

    A magic line followed by length-prefixed records; numeric metrics get
    compact varint/binary64 bodies with label/base names interned in a
    string table, while manifest/event/monitor records are carried as
    embedded JSON text.  Roughly five times smaller than its JSON
    rendering at scale, and readable record-at-a-time in constant
    memory.  See [btrace.ml] for the exact layout. *)

val magic : string
(** ["csync-btrace/1\n"], the file's first bytes. *)

(** {2 Writing} *)

type writer

val writer_fn : ?flush:(unit -> unit) -> (string -> unit) -> writer
(** A writer over a sink: a file channel ({!write_file}), a buffer, or
    the fleet emitter's socket stream.  The sink receives the magic
    immediately and then *whole frames* — a length prefix and its
    payload each — handed over in batches, one string per flush point:
    every 64 frames and at {!close_writer}.  So any chunking of the
    sink's output concatenates to exactly the one-shot encoding, and a
    flush can never split a record.  [flush] (default: no-op) runs right
    after each batch. *)

val write : writer -> Record.t -> unit
(** Appends one record (interning any new name strings first).  Records
    reach the sink at the next flush point, every few records, bounding
    how stale a tailing reader can observe a file. *)

val close_writer : writer -> unit
(** Hands over the frames written since the last flush point and runs
    [flush]; does not close the sink. *)

val write_file : string -> Record.t list -> unit
(** Write the records to a file, flushing the channel at every flush
    point. *)

(** {2 Reading} *)

val fold_file :
  string -> init:'a -> f:('a -> Record.t -> 'a) -> ('a, string) result
(** Stream every record of a file through [f] in constant memory: the
    file is read in fixed-size chunks through a {!feed}.  A file that
    ends mid-record is an error.  An error names the record it stopped
    at, counting from 1. *)

(** {2 Incremental byte-feed reading}

    The decoder: it takes the stream in arbitrary chunks (the fleet
    collector's datagrams, {!fold_file}'s reads). *)

type feed
(** Buffered undecoded bytes plus the intern table built so far. *)

val feed : unit -> feed
(** A fresh feed, expecting the btrace magic at the head of the stream. *)

val feed_bytes : feed -> string -> unit
(** Append a chunk.  Chunk boundaries are arbitrary — mid-varint,
    mid-record, mid-magic are all fine.  A chunk fed while nothing else
    is buffered is decoded in place, without a copy. *)

val feed_next : feed -> [ `Record of Record.t | `Await | `Error of string ]
(** Drain the next whole record.  [`Await] means more bytes are needed;
    call again after {!feed_bytes}.  After an [`Error] the stream is not
    self-resynchronizing — {!feed_reset} and skip to a known stream
    restart point. *)

val feed_reset : feed -> unit
(** Drop buffered bytes and the intern table, and expect the magic
    again — for a node stream that restarted from scratch. *)
