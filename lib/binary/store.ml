type record = {
  spec : Spec.Concrete.t;
  prefix : string;
}

type t = {
  root : string;
  vfs : Vfs.t;
  by_hash : (string, record) Hashtbl.t;
  claims : (string, unit) Hashtbl.t;  (* hashes with an in-flight writer *)
  mu : Mutex.t;
  cond : Condition.t;  (* signalled on every claim release and on crash *)
  mutable write_count : int;
  mutable crash_after : int option;
  mutable crashed : bool;
  mutable obs : Obs.ctx;
}

exception Crashed of string

let create ~root vfs =
  { root;
    vfs;
    by_hash = Hashtbl.create 64;
    claims = Hashtbl.create 16;
    mu = Mutex.create ();
    cond = Condition.create ();
    write_count = 0;
    crash_after = None;
    crashed = false;
    obs = Obs.disabled }

let set_obs t obs = t.obs <- obs

let root t = t.root

let vfs t = t.vfs

let write_count t = t.write_count

let set_crash_after t n =
  Mutex.lock t.mu;
  t.crash_after <- n;
  t.crashed <- false;
  Mutex.unlock t.mu

(* Every store-mediated mutation passes through here. A configured
   crash point fires BEFORE the write it would have been, so the states
   between every pair of consecutive mutations are all reachable by
   sweeping [crash_after]. Under concurrency the trigger models power
   loss: once one domain hits the crash point, the [crashed] flag makes
   every later mutation — on any domain — raise before writing, so the
   store's mutation stream stops exactly at write N regardless of the
   interleaving; claim waiters are woken to raise too. *)
let tick t what =
  Mutex.lock t.mu;
  let fire =
    t.crashed
    || match t.crash_after with Some n -> t.write_count >= n | None -> false
  in
  if fire then begin
    t.crashed <- true;
    Condition.broadcast t.cond;
    Mutex.unlock t.mu;
    Obs.instant t.obs ~attrs:[ ("at", Obs.S what) ] "store.crash";
    raise (Crashed what)
  end
  else begin
    t.write_count <- t.write_count + 1;
    Mutex.unlock t.mu;
    Obs.incr t.obs "store.writes"
  end

let prefix_for t ~name ~version ~hash =
  Printf.sprintf "%s/%s-%s-%s" t.root name (Vers.Version.to_string version)
    (Chash.short hash)

let locked t f =
  Mutex.lock t.mu;
  match f () with
  | v ->
    Mutex.unlock t.mu;
    v
  | exception e ->
    Mutex.unlock t.mu;
    raise e

let register t ~hash record = locked t (fun () -> Hashtbl.replace t.by_hash hash record)

let installed t ~hash = locked t (fun () -> Hashtbl.find_opt t.by_hash hash)

let is_installed t ~hash = locked t (fun () -> Hashtbl.mem t.by_hash hash)

let records t =
  locked t (fun () -> Hashtbl.fold (fun _ r acc -> r :: acc) t.by_hash [])
  |> List.sort (fun a b -> String.compare a.prefix b.prefix)

let uninstall t ~hash =
  match installed t ~hash with
  | None -> ()
  | Some r ->
    ignore (Vfs.remove_prefix t.vfs r.prefix);
    locked t (fun () -> Hashtbl.remove t.by_hash hash)

let in_flight t =
  locked t (fun () -> Hashtbl.fold (fun h () acc -> h :: acc) t.claims [])
  |> List.sort String.compare

let soname_of name = "lib" ^ name ^ ".so"

let lib_path ~prefix ~soname = prefix ^ "/lib/" ^ soname

(* ---- transactional installs ---------------------------------------

   Each node's files are staged under <root>/.staging/<hash>/ with a
   write-ahead journal entry at <root>/.journal/<hash>; commit copies
   the staged files to their final prefix one by one (idempotent
   replays) and only then drops the journal entry. A crash at any
   mutation leaves a journal that {!recover} can resolve: entries still
   [claimed] or [staged] roll back, entries that reached [committing]
   roll forward.

   Concurrency: the journal is per-hash, so transactions from parallel
   plan nodes and from independent installs interleave freely — each
   hash's entry walks claimed -> staged -> committing -> gone on its
   own. Mutual exclusion per hash is the lease: [claim] admits exactly
   one writer for a hash; everyone else blocks until the holder commits
   (then finds the hash installed) or aborts (then takes the lease
   over). [install] is the one transaction built from these steps. *)

let journal_dir root = root ^ "/.journal"

let staging_dir root = root ^ "/.staging"

let journal_path root hash = journal_dir root ^ "/" ^ hash

type txn = {
  tx_hash : string;
  tx_prefix : string;
  tx_staging : string;
  mutable tx_files : string list;  (* rel paths, newest first *)
  mutable tx_staged : bool;  (* journal upgraded claimed -> staged *)
}

let journal_text state ~prefix ~staging =
  Printf.sprintf "%s\n%s\n%s\n" state prefix staging

let parse_journal text =
  match String.split_on_char '\n' text with
  | state :: prefix :: staging :: _ -> Some (state, prefix, staging)
  | _ -> None

let release_claim t hash =
  Mutex.lock t.mu;
  Hashtbl.remove t.claims hash;
  Condition.broadcast t.cond;
  Mutex.unlock t.mu

(* Take [hash]'s lease: [Some txn] to write the hash, [None] when it
   is installed — already, or by the holder this call waited out. *)
let claim t ~hash ~prefix =
  Mutex.lock t.mu;
  let rec loop ~waited =
    if t.crashed then begin
      Mutex.unlock t.mu;
      raise (Crashed ("claim " ^ Chash.short hash))
    end
    else if Hashtbl.mem t.by_hash hash then begin
      Mutex.unlock t.mu;
      if waited then Obs.incr t.obs "store.claim_dedups";
      None
    end
    else if Hashtbl.mem t.claims hash then begin
      Condition.wait t.cond t.mu;
      loop ~waited:true
    end
    else begin
      Hashtbl.replace t.claims hash ();
      Mutex.unlock t.mu;
      Obs.incr t.obs "store.claims";
      if waited then Obs.incr t.obs "store.claim_waits";
      let staging = staging_dir t.root ^ "/" ^ hash in
      (* The claim itself is journalled before any staging, so a crash
         mid-claim leaves a [claimed] entry recovery rolls back. The
         crash tick fires before the journal write; a dangling
         in-memory claim is irrelevant then — the store is dead and
         every other domain raises too. *)
      tick t ("journal claim " ^ Chash.short hash);
      Vfs.write t.vfs (journal_path t.root hash)
        (Vfs.Text (journal_text "claimed" ~prefix ~staging));
      Some
        { tx_hash = hash;
          tx_prefix = prefix;
          tx_staging = staging;
          tx_files = [];
          tx_staged = false }
    end
  in
  loop ~waited:false

let stage t tx rel file =
  if not tx.tx_staged then begin
    tick t ("journal staged " ^ Chash.short tx.tx_hash);
    Vfs.write t.vfs (journal_path t.root tx.tx_hash)
      (Vfs.Text (journal_text "staged" ~prefix:tx.tx_prefix ~staging:tx.tx_staging));
    tx.tx_staged <- true
  end;
  tick t ("stage " ^ rel);
  Vfs.write t.vfs (tx.tx_staging ^ "/" ^ rel) file;
  tx.tx_files <- rel :: tx.tx_files

let commit t tx ~spec =
  Obs.with_span t.obs ~cat:"store" "store.commit"
    ~attrs:
      [ ("hash", Obs.S (Chash.short tx.tx_hash));
        ("files", Obs.I (List.length tx.tx_files)) ]
  @@ fun _span ->
  Obs.incr t.obs "store.journal_commits";
  tick t ("journal committing " ^ Chash.short tx.tx_hash);
  Vfs.write t.vfs (journal_path t.root tx.tx_hash)
    (Vfs.Text (journal_text "committing" ~prefix:tx.tx_prefix ~staging:tx.tx_staging));
  List.iter
    (fun rel ->
      match Vfs.read t.vfs (tx.tx_staging ^ "/" ^ rel) with
      | None -> ()
      | Some file ->
        tick t ("publish " ^ rel);
        Vfs.write t.vfs (tx.tx_prefix ^ "/" ^ rel) file;
        tick t ("unstage " ^ rel);
        Vfs.remove t.vfs (tx.tx_staging ^ "/" ^ rel))
    (List.rev tx.tx_files);
  tick t ("journal commit " ^ Chash.short tx.tx_hash);
  Vfs.remove t.vfs (journal_path t.root tx.tx_hash);
  register t ~hash:tx.tx_hash { spec; prefix = tx.tx_prefix };
  release_claim t tx.tx_hash

(* Abort never ticks, so typed-failure cleanup always succeeds on a
   live store. *)
let abort t tx =
  ignore (Vfs.remove_prefix t.vfs tx.tx_staging);
  Vfs.remove t.vfs (journal_path t.root tx.tx_hash);
  release_claim t tx.tx_hash

let spec_json = ".spack/spec.json"

let install t ~hash ~prefix ~spec write =
  match claim t ~hash ~prefix with
  | None -> None
  | Some tx -> (
    match
      let v = write (stage t tx) in
      stage t tx spec_json (Vfs.Text (Spec.Codec.to_string ~pretty:true spec));
      commit t tx ~spec;
      v
    with
    | v -> Some v
    | exception (Crashed _ as e) ->
      (* A dead store cannot be cleaned, only recovered. *)
      raise e
    | exception e ->
      abort t tx;
      raise e)

(* Resolve every outstanding journal entry against the VFS. Pure
   repair: no crash ticks (this is the post-reboot path). Returns
   (rolled_back, rolled_forward) hashes. *)
let resolve_journal vfs ~root =
  let entries = Vfs.list_prefix vfs (journal_dir root) in
  let rolled_back = ref [] and rolled_forward = ref [] in
  List.iter
    (fun jpath ->
      let hash =
        let dir = journal_dir root ^ "/" in
        String.sub jpath (String.length dir) (String.length jpath - String.length dir)
      in
      match Vfs.read vfs jpath with
      | Some (Vfs.Text text) -> (
        match parse_journal text with
        | Some (("claimed" | "staged"), _prefix, staging) ->
          (* Never reached commit: the final prefix is untouched. A
             [claimed] entry may have no staging at all — removal is a
             no-op then, which keeps recovery idempotent. *)
          ignore (Vfs.remove_prefix vfs staging);
          Vfs.remove vfs jpath;
          rolled_back := hash :: !rolled_back
        | Some ("committing", prefix, staging) ->
          (* Replay the interrupted publish: every file still in
             staging is copied over (idempotent) and dropped. *)
          List.iter
            (fun spath ->
              let rel =
                let sdir = staging ^ "/" in
                String.sub spath (String.length sdir)
                  (String.length spath - String.length sdir)
              in
              (match Vfs.read vfs spath with
              | Some file -> Vfs.write vfs (prefix ^ "/" ^ rel) file
              | None -> ());
              Vfs.remove vfs spath)
            (Vfs.list_prefix vfs staging);
          Vfs.remove vfs jpath;
          rolled_forward := hash :: !rolled_forward
        | Some (state, _, _) ->
          Errors.raise_error
            (Errors.Recovery_failed
               { reason = Printf.sprintf "journal %s: unknown state %S" hash state })
        | None ->
          Errors.raise_error
            (Errors.Recovery_failed
               { reason = Printf.sprintf "journal %s: unparseable entry" hash }))
      | Some (Vfs.Object _) | None ->
        Errors.raise_error
          (Errors.Recovery_failed
             { reason = Printf.sprintf "journal %s: entry is not text" hash }))
    entries;
  (List.sort String.compare !rolled_back, List.sort String.compare !rolled_forward)

type recovery = {
  rolled_back : string list;
  rolled_forward : string list;
  reregistered : int;
}

let spec_json_suffix = "/" ^ spec_json

let recover ~root vfs =
  let rolled_back, rolled_forward = resolve_journal vfs ~root in
  let t = create ~root vfs in
  let suffix_len = String.length spec_json_suffix in
  let staging = staging_dir root ^ "/" in
  List.iter
    (fun path ->
      let plen = String.length path in
      if
        plen > suffix_len
        && String.sub path (plen - suffix_len) suffix_len = spec_json_suffix
        && not (String.length path >= String.length staging
                && String.sub path 0 (String.length staging) = staging)
      then
        match Vfs.read vfs path with
        | Some (Vfs.Text text) -> (
          match Spec.Codec.of_string text with
          | exception _ ->
            Errors.raise_error
              (Errors.Recovery_failed
                 { reason = Printf.sprintf "unreadable spec.json at %s" path })
          | spec ->
            let prefix = String.sub path 0 (plen - suffix_len) in
            register t ~hash:(Spec.Concrete.dag_hash spec) { spec; prefix })
        | _ -> ())
    (Vfs.list_prefix vfs root);
  ( t,
    { rolled_back; rolled_forward; reregistered = Hashtbl.length t.by_hash } )

let pp_recovery fmt r =
  Format.fprintf fmt "recovered: %d record(s), %d rolled back, %d rolled forward"
    r.reregistered
    (List.length r.rolled_back)
    (List.length r.rolled_forward)

(* ---- fingerprint --------------------------------------------------- *)

let fingerprint t =
  let b = Buffer.create 1024 in
  List.iter
    (fun path ->
      let skip prefix =
        String.length path >= String.length prefix
        && String.sub path 0 (String.length prefix) = prefix
      in
      if not (skip (journal_dir t.root ^ "/") || skip (staging_dir t.root ^ "/"))
      then begin
        Buffer.add_string b path;
        Buffer.add_char b '\n';
        match Vfs.read t.vfs path with
        | Some (Vfs.Text s) ->
          Buffer.add_string b "text\n";
          Buffer.add_string b s;
          Buffer.add_char b '\n'
        | Some (Vfs.Object o) ->
          Buffer.add_string b "object\n";
          Buffer.add_string b (Object_file.canonical o);
          Buffer.add_char b '\n'
        | None -> ()
      end)
    (Vfs.list_prefix t.vfs t.root);
  Chash.hash_string (Buffer.contents b)
