(** Content-addressed install store with transactional installs,
    shared safely between concurrent writers.

    Every installed spec node gets a prefix
    [<root>/<name>-<version>-<hash7>] derived from its sub-DAG hash, so
    ABI-distinct builds never collide and reuse is a hash lookup.

    Writers never touch a final prefix directly: {!install} is the one
    node transaction. It stages files under [<root>/.staging/<hash>/]
    with a write-ahead journal entry at [<root>/.journal/<hash>], and
    publishes them with idempotent copy-then-drop steps. A crash at any
    point (simulated by {!set_crash_after}) leaves a journal that
    {!recover} resolves — entries that never reached commit roll back,
    interrupted commits roll forward — and the registry itself is
    rebuilt from the [.spack/spec.json] files on disk, so the store
    survives losing all in-memory state.

    Concurrency: many writers — parallel nodes of one install plan, or
    independent installs on different domains — may share one store.
    The registry and claim table are guarded by a store mutex, and a
    per-hash lease admits exactly one writer per hash: a second
    {!install} of the hash blocks until the holder commits (and then
    returns without writing — in-flight dedup, not an error) or aborts
    (and then takes the lease over). Journal entries for
    distinct hashes interleave freely; each walks
    [claimed -> staged -> committing -> gone] independently. *)

type record = {
  spec : Spec.Concrete.t;  (** the sub-DAG rooted at the installed node *)
  prefix : string;
}

type t

exception Crashed of string
(** Simulated power loss: raised by a store-mediated mutation when the
    configured crash point is reached. Once one domain hits it, every
    later mutation on any domain raises too (power loss stops all
    writes), and blocked claimants are woken to raise. Deliberately NOT
    an {!Errors.Binary_error} — a crashed process cannot return a typed
    result; the caller's only recourse is {!recover}. *)

val create : root:string -> Vfs.t -> t

val root : t -> string

val vfs : t -> Vfs.t

val prefix_for : t -> name:string -> version:Vers.Version.t -> hash:string -> string

val installed : t -> hash:string -> record option

val is_installed : t -> hash:string -> bool

val records : t -> record list
(** All installed records, sorted by prefix. *)

val uninstall : t -> hash:string -> unit
(** Drop the record and its files. *)

val lib_path : prefix:string -> soname:string -> string
(** Conventional location of a prefix's shared object. *)

val soname_of : string -> string
(** [soname_of "zlib"] = ["libzlib.so"]. *)

(** {1 Transactions} *)

val install :
  t ->
  hash:string ->
  prefix:string ->
  spec:Spec.Concrete.t ->
  ((string -> Vfs.file -> unit) -> 'a) ->
  'a option
(** [install t ~hash ~prefix ~spec write] installs one node. [prefix]
    is the node's final prefix ({!prefix_for} of [spec]'s root) and
    [spec] its sub-DAG.

    It takes [hash]'s lease, blocking while another writer holds it,
    and journals a [claimed] entry. If the hash is installed, already
    or by the holder this call waited out, it returns [None] and
    [write] does not run. Otherwise it calls [write stage].
    [stage rel file] writes one file (path relative to [prefix]) into
    the staging area, and the first call upgrades the journal entry to
    [staged]; writers compute embedded paths against the final
    [prefix]. Then [install] stages [.spack/spec.json], rendered from
    [spec], which is what {!recover} reads back. It commits: marks the
    entry [committing], publishes every staged file, drops the entry,
    registers the record and releases the lease, waking blocked
    writers. The result is [Some] of [write]'s value.

    Any exception from [write] or from staging, except {!Crashed},
    aborts: the staging area and journal entry go, the final prefix is
    untouched, the lease is released, and the exception is re-raised.
    Abort never ticks the crash counter, so typed-failure cleanup
    always succeeds on a live store. {!Crashed} propagates untouched:
    a dead store is only recovered. *)

val in_flight : t -> string list
(** Hashes currently holding a claim lease, sorted. Empty on a
    quiescent store — asserted by tests after every install wave. *)

val set_obs : t -> Obs.ctx -> unit
(** Attach a tracing context: store-mediated writes count into
    [store.writes], each transaction commit is a [store.commit] span
    and bumps [store.journal_commits], leases taken by {!install}
    count into [store.claims] (with [store.claim_waits] /
    [store.claim_dedups] for contended ones), and injected crashes
    appear as [store.crash] instants. *)

(** {1 Crash injection and recovery} *)

val write_count : t -> int
(** Store-mediated mutations so far — the coordinate system for crash
    points. Under a parallel install the count is interleaving-
    dependent, but sweeping it still reaches every journal write
    point. *)

val set_crash_after : t -> int option -> unit
(** [set_crash_after t (Some n)] makes the mutation that would be
    number [n+1] raise {!Crashed} instead (so [Some 0] crashes before
    any write). [None] disables. Also clears the latched crashed flag,
    so a store can be re-armed between fuzz rounds. *)

type recovery = {
  rolled_back : string list;
      (** claimed- or staged-only hashes whose residue was dropped *)
  rolled_forward : string list;  (** interrupted commits replayed to completion *)
  reregistered : int;  (** records rebuilt from on-disk spec.json files *)
}

val recover : root:string -> Vfs.t -> t * recovery
(** Rebuild a store from what survived on the VFS: resolve the journal
    (roll back [claimed]/[staged] entries — including a bare [claimed]
    with no staging at all — and roll [committing] entries forward),
    then re-register every prefix carrying a parseable
    [.spack/spec.json]. Idempotent: recovering an already-consistent
    store, or recovering twice, changes nothing.
    @raise Errors.Binary_error ([Recovery_failed _]) on an unreadable
    journal or spec file. *)

val pp_recovery : Format.formatter -> recovery -> unit

val fingerprint : t -> string
(** Digest of the store's semantic content: every path under the root
    (journal and staging excluded) with text files verbatim and objects
    via {!Object_file.canonical}. Two stores converge iff their
    fingerprints match — the fuzz oracle's equality. *)
