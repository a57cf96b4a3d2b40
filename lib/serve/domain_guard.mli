(** SIGINT-safe domain spawning and joining for the serve layer.

    A [Sys.Break] raised inside [Domain.spawn] (domain created, handle
    not yet captured) or between two joins orphans a running domain,
    and a process that then exits 130 tears the runtime down under it —
    a segfault instead of an interrupt. The worker pool ({!Pool})
    therefore spawns and joins only through this module, and the
    server ({!Server}) creates its connection threads under the same
    {!masked} section: SIGINT is masked across those two edges
    (workers inherit the mask, so the signal is only ever delivered
    once the spawning domain lifts it), the work in between stays
    interruptible, and any exception is parked with the caller's
    [park] so every domain is joined before anything re-raises. *)

(** [masked ~park f] runs [f] with SIGINT blocked, restoring the
    previous signal mask afterwards even when [f] raises (the exception
    is handed to [park], never thrown past the mask restore). On
    platforms without [sigprocmask] the mask step is skipped and [f]
    still runs under the same parking contract. *)
val masked : park:(exn -> unit) -> (unit -> unit) -> unit

(** [spawn_list ~park n worker] spawns [n] domains running [worker]
    under one SIGINT-masked section, returning the handles it managed
    to capture (all [n] unless spawning itself raised, in which case
    the exception is parked and the partial list is returned — join it
    anyway). [worker] must not let exceptions escape; wrap it with the
    same [park]. *)
val spawn_list : park:(exn -> unit) -> int -> (unit -> unit) -> unit Domain.t list

(** [join_list ~park domains] joins every domain under one
    SIGINT-masked section; each join's exception is parked so no domain
    is left unjoined. *)
val join_list : park:(exn -> unit) -> unit Domain.t list -> unit
