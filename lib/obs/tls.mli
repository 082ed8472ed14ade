(** Worker-local storage for ambient telemetry context.

    The pool runs experiment cells on OCaml 5 domains; ambient per-task
    context (the installed registry, the delivery provenance id) must be
    stored per worker, not in a shared mutable field — a shared field is
    last-writer-wins under [--jobs > 1].

    The implementation is selected at build time by a dune rule on the
    compiler version, mirroring {!Csync_harness.Pool_backend}: OCaml >= 5
    wraps [Domain.DLS] (each domain sees its own slot, initialized by the
    key's default thunk), older compilers use a plain ref (the executor is
    sequential there, so one slot is exact). *)

type 'a key

val new_key : (unit -> 'a) -> 'a key
(** [new_key default] allocates a slot; each worker's first read runs
    [default ()]. *)

val get : 'a key -> 'a

val set : 'a key -> 'a -> unit
