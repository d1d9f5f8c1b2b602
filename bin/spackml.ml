(* spackml — a command-line front end over the library, operating on
   the bundled RADIUSS-like universe.

     spackml concretize "mfem ^mpiabi" --reuse --splice
     spackml install "mfem ^mpiabi" --splice
     spackml splice "app ^zlib@1.2.13" zlib@1.3.1
     spackml buildcache
     spackml solve -e 'a :- not b. b :- not a. :- a.'
     spackml providers mpi *)

open Cmdliner

let repo = Radiuss.Universe.repo ()

let local_cache = lazy (Radiuss.Caches.local ~repo ())

let options ~reuse ~splicing ~old_encoding =
  { Core.Concretizer.default_options with
    Core.Concretizer.reuse =
      (if reuse then Radiuss.Caches.reusable_specs (Lazy.force local_cache) else []);
    splicing;
    encoding = (if old_encoding then Core.Encode.Old else Core.Encode.Hash_attr) }

let concretize_one ~opts text =
  match Core.Concretizer.concretize_spec ~repo ~options:opts text with
  | Ok o -> Ok o
  | Error e -> Error e

(* ---- flags shared by several commands ---- *)

let reuse_flag =
  Arg.(value & flag & info [ "reuse" ] ~doc:"Reuse specs from the bundled local buildcache.")

let splice_flag =
  Arg.(value & flag & info [ "splice" ] ~doc:"Enable automatic splicing in the solver.")

let old_flag =
  Arg.(value & flag & info [ "old-encoding" ]
      ~doc:"Use the pre-splicing encoding of reusable specs (no splicing possible).")

let stats_flag =
  Arg.(value & flag & info [ "stats" ] ~doc:"Print solver statistics.")

let spec_arg = Arg.(required & pos 0 (some string) None & info [] ~docv:"SPEC")

(* ---- tracing (shared by concretize / install / fuzz) ---- *)

let trace_flag =
  Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE"
      ~doc:"Record a trace of the run (spans over a monotonic clock plus \
            solver/mirror metrics) and write it to FILE.")

let trace_format_flag =
  Arg.(value & opt string "chrome" & info [ "trace-format" ] ~docv:"FORMAT"
      ~doc:"Trace rendering: $(b,chrome) (Perfetto-loadable trace_event \
            JSON, the default), $(b,jsonl) (one event per line, input to \
            $(b,spackml trace-report)), or $(b,summary) (human-readable \
            aggregate table).")

(* Run [f] under a tracing context when [--trace] was given: [f]
   receives the context (or [Obs.disabled]) and returns an exit code;
   the trace is rendered afterwards even if [f]'s work failed. *)
let with_trace ~trace ~trace_format f =
  match trace with
  | None -> f Obs.disabled
  | Some file -> (
    match Obs.Sink.of_string trace_format with
    | Error e ->
      Format.eprintf "error: --trace-format: %s@." e;
      2
    | Ok sink ->
      let obs = Obs.create () in
      let code = f obs in
      Obs.Sink.write_file obs sink file;
      Format.eprintf "trace written to %s (%s)@." file trace_format;
      code)

(* ---- concretize ---- *)

let json_flag =
  Arg.(value & flag & info [ "json" ] ~doc:"Emit the concrete spec as spec.json.")

let dot_flag =
  Arg.(value & flag & info [ "dot" ] ~doc:"Emit the concrete spec as a Graphviz digraph.")

let batch_flag =
  Arg.(value & opt (some file) None & info [ "batch" ] ~docv:"FILE"
      ~doc:"Concretize every spec in FILE (one per line, $(b,#) comments) \
            instead of a single positional SPEC. Results print in file \
            order and are identical for any $(b,--jobs) value.")

let jobs_flag =
  Arg.(value & opt int 1 & info [ "jobs" ] ~docv:"N"
      ~doc:"Solve a $(b,--batch) over N parallel domains (default 1).")

let read_batch_file file =
  let ic = open_in file in
  let rec go acc =
    match input_line ic with
    | line ->
      let line = String.trim line in
      if line = "" || line.[0] = '#' then go acc else go (line :: acc)
    | exception End_of_file ->
      close_in ic;
      List.rev acc
  in
  go []

let run_batch ~opts ~jobs ~stats file =
  let texts = read_batch_file file in
  match
    List.map
      (fun t ->
        match Core.Encode.request_of_string t with
        | r -> (t, r)
        | exception Spec.Parser.Parse_error e ->
          failwith (Printf.sprintf "%s: parse error: %s" t e))
      texts
  with
  | exception Failure e ->
    Format.eprintf "error: %s@." e;
    2
  | pairs ->
    let t0 = Obs.Clock.now_s () in
    let results =
      Core.Concretizer.concretize_batch ~repo ~options:opts ~jobs (List.map snd pairs)
    in
    let failures = ref 0 in
    List.iter2
      (fun (text, _) result ->
        match result with
        | Ok (o : Core.Concretizer.outcome) ->
          let spec = List.hd o.Core.Concretizer.solution.Core.Decode.specs in
          Format.printf "%s: %s@." text (Spec.Concrete.to_string spec);
          if stats then
            Format.printf "  %a@." Core.Concretizer.pp_stats
              o.Core.Concretizer.stats
        | Error (f : Core.Concretizer.failure) ->
          incr failures;
          Format.printf "%s: error: %s@." text f.Core.Concretizer.f_message)
      pairs results;
    if stats then
      Format.printf "batch: %d specs, %d failures, jobs=%d, %.3fs@."
        (List.length pairs) !failures jobs
        (Obs.Clock.now_s () -. t0);
    if !failures = 0 then 0 else 1

let concretize_cmd =
  let spec_opt_arg = Arg.(value & pos 0 (some string) None & info [] ~docv:"SPEC") in
  let run reuse splicing old_encoding stats json dot batch jobs trace trace_format
      spec_text =
    with_trace ~trace ~trace_format @@ fun obs ->
    let opts = options ~reuse ~splicing ~old_encoding in
    (* A traced concretize also re-validates its solutions: the verify
       span is part of the pipeline picture. *)
    let opts = { opts with Core.Concretizer.obs; verify = Obs.enabled obs } in
    match (batch, spec_text) with
    | Some file, None -> run_batch ~opts ~jobs ~stats file
    | Some _, Some _ ->
      Format.eprintf "error: give either a SPEC or --batch FILE, not both@.";
      2
    | None, None ->
      Format.eprintf "error: give a SPEC or --batch FILE@.";
      2
    | None, Some spec_text -> (
    match concretize_one ~opts spec_text with
    | Error e ->
      Format.eprintf "error: %s@." e;
      1
    | Ok o when json ->
      let spec = List.hd o.Core.Concretizer.solution.Core.Decode.specs in
      print_endline (Spec.Codec.to_string ~pretty:true spec);
      ignore stats;
      0
    | Ok o when dot ->
      let spec = List.hd o.Core.Concretizer.solution.Core.Decode.specs in
      Format.printf "%a" Spec.Concrete.pp_dot spec;
      0
    | Ok o ->
      let sol = o.Core.Concretizer.solution in
      let spec = List.hd sol.Core.Decode.specs in
      Format.printf "%a" Spec.Concrete.pp_tree spec;
      if sol.Core.Decode.built <> [] then
        Format.printf "to build: %s@." (String.concat ", " sol.Core.Decode.built);
      List.iter
        (fun (s : Core.Decode.splice_record) ->
          Format.printf "splice: %s's %s -> %s@." s.Core.Decode.sp_parent
            s.Core.Decode.sp_old s.Core.Decode.sp_new)
        sol.Core.Decode.splices;
      if stats then Format.printf "%a@." Core.Concretizer.pp_stats o.Core.Concretizer.stats;
      0)
  in
  Cmd.v
    (Cmd.info "concretize"
       ~doc:
         "Resolve an abstract spec to a concrete spec DAG, or a whole file of \
          specs with $(b,--batch) (optionally in parallel with $(b,--jobs)).")
    Term.(const run $ reuse_flag $ splice_flag $ old_flag $ stats_flag $ json_flag
          $ dot_flag $ batch_flag $ jobs_flag $ trace_flag $ trace_format_flag
          $ spec_opt_arg)

(* ---- install ---- *)

(* --mirror NAME[:transient=P,corrupt=P,latency=MS,outage=N,outage-len=K,seed=S]
   a simulated mirror over the bundled local buildcache, with a fault
   plan parsed from the suffix. *)
let parse_mirror_spec s =
  let name, plan_text =
    match String.index_opt s ':' with
    | None -> (s, "")
    | Some i ->
      (String.sub s 0 i, String.sub s (i + 1) (String.length s - i - 1))
  in
  if name = "" then Error "mirror name is empty"
  else if plan_text = "" then Ok (name, Binary.Mirror.no_faults)
  else
    let parse_kv plan kv =
      match plan with
      | Error _ -> plan
      | Ok p -> (
        match String.index_opt kv '=' with
        | None -> Error (Printf.sprintf "expected key=value, got %S" kv)
        | Some i -> (
          let k = String.sub kv 0 i in
          let v = String.sub kv (i + 1) (String.length kv - i - 1) in
          let int_v f =
            match int_of_string_opt v with
            | Some n -> Ok (f n)
            | None -> Error (Printf.sprintf "%s: expected an integer, got %S" k v)
          in
          match k with
          | "transient" -> int_v (fun n -> { p with Binary.Mirror.fp_transient_pct = n })
          | "corrupt" -> int_v (fun n -> { p with Binary.Mirror.fp_corrupt_pct = n })
          | "latency" ->
            int_v (fun n -> { p with Binary.Mirror.fp_latency_ms = float_of_int n })
          | "outage" -> int_v (fun n -> { p with Binary.Mirror.fp_outage_after = Some n })
          | "outage-len" -> int_v (fun n -> { p with Binary.Mirror.fp_outage_len = Some n })
          | "seed" -> int_v (fun n -> { p with Binary.Mirror.fp_seed = n })
          | _ -> Error (Printf.sprintf "unknown fault key %S" k)))
    in
    Result.map
      (fun plan -> (name, plan))
      (List.fold_left parse_kv (Ok Binary.Mirror.no_faults)
         (String.split_on_char ',' plan_text))

let mirror_flag =
  Arg.(value & opt_all string []
      & info [ "mirror" ] ~docv:"NAME[:FAULTS]"
          ~doc:
            "Attach a simulated mirror over the bundled local buildcache \
             (repeatable; consulted in order). FAULTS is a comma-separated \
             fault plan: $(b,transient=P) and $(b,corrupt=P) (percentages), \
             $(b,latency=MS), $(b,outage=N) (go hard-down after N fetches), \
             $(b,outage-len=K), $(b,seed=S).")

let retries_flag =
  Arg.(value & opt (some int) None & info [ "retries" ] ~docv:"N"
      ~doc:"Fetch attempts per mirror before failing over (default 4).")

let no_fallback_flag =
  Arg.(value & flag & info [ "no-fallback" ]
      ~doc:"Fail with a typed error instead of degrading to a source build \
            when no mirror can deliver an entry.")

let crash_at_flag =
  Arg.(value & opt (some int) None & info [ "crash-at" ] ~docv:"K"
      ~doc:"Simulate a crash (power loss) at the K-th store mutation.")

let recover_flag =
  Arg.(value & flag & info [ "recover" ]
      ~doc:"After a simulated crash, replay the write-ahead journal with \
            Store.recover and resume the install on the recovered store.")

let install_jobs_flag =
  Arg.(value & opt int 1 & info [ "j"; "jobs" ] ~docv:"N"
      ~doc:"Install the spec DAG on N domains with ready-set scheduling (a \
            node starts as soon as all its dependencies commit). The report \
            is byte-identical to the serial one.")

let fleet_flag =
  Arg.(value & opt (some int) None & info [ "fleet" ] ~docv:"N"
      ~doc:"Replace explicit $(b,--mirror)s with a simulated fleet of N \
            mirrors over the bundled buildcache, each with its own \
            deterministic fault/latency profile (every fifth one is clean \
            and fast).")

let fleet_seed_flag =
  Arg.(value & opt int 0 & info [ "fleet-seed" ] ~docv:"S"
      ~doc:"Seed for the fleet's fault/latency profiles (with $(b,--fleet)).")

let adaptive_flag =
  Arg.(value & flag & info [ "adaptive" ]
      ~doc:"Order mirrors adaptively — breaker state, consecutive failures, \
            then measured latency — instead of the configured order.")

let install_cmd =
  let run reuse splicing mirror_specs retries no_fallback crash_at recover jobs
      fleet fleet_seed adaptive trace trace_format spec_text =
    with_trace ~trace ~trace_format @@ fun obs ->
    let opts = options ~reuse ~splicing ~old_encoding:false in
    let opts =
      { opts with Core.Concretizer.obs; verify = Obs.enabled obs }
    in
    match
      List.fold_left
        (fun acc s ->
          match (acc, parse_mirror_spec s) with
          | Error e, _ -> Error e
          | Ok ms, Ok m -> Ok (m :: ms)
          | Ok _, Error e -> Error e)
        (Ok []) mirror_specs
    with
    | Error e ->
      Format.eprintf "error: --mirror: %s@." e;
      2
    | Ok mirror_plans -> (
      let mirror_plans = List.rev mirror_plans in
      let policy =
        match retries with
        | None -> Binary.Mirror.default_retry
        | Some n ->
          { Binary.Mirror.default_retry with Binary.Mirror.max_attempts = n }
      in
      let selection =
        if adaptive then Binary.Mirror.Adaptive else Binary.Mirror.Static
      in
      let mirrors =
        match (fleet, mirror_plans) with
        | Some size, _ ->
          Some
            (Binary.Mirror.fleet ~seed:fleet_seed ~policy ~obs ~selection ~size
               (Lazy.force local_cache).Radiuss.Caches.cache)
        | None, [] -> None
        | None, plans ->
          Some
            (Binary.Mirror.group ~policy ~obs ~selection
               (List.map
                  (fun (name, faults) ->
                    Binary.Mirror.create ~faults ~name
                      (Lazy.force local_cache).Radiuss.Caches.cache)
                  plans))
      in
      (* mirrors also feed the solver's reuse pool — only the reachable
         ones contribute, so a dead mirror degrades the solve instead of
         failing it *)
      let opts = { opts with Core.Concretizer.mirrors } in
      match concretize_one ~opts spec_text with
      | Error e ->
        Format.eprintf "error: %s@." e;
        1
      | Ok o ->
        let spec = List.hd o.Core.Concretizer.solution.Core.Decode.specs in
        let root = "/opt/spackml" in
        let vfs = Binary.Vfs.create () in
        let store = Binary.Store.create ~root vfs in
        let caches =
          if reuse then [ (Lazy.force local_cache).Radiuss.Caches.cache ] else []
        in
        Binary.Store.set_crash_after store crash_at;
        let finish store report =
          Format.printf "%a@.%a@." Spec.Concrete.pp_tree spec
            Binary.Installer.pp_report report;
          ignore store;
          match report.Binary.Installer.link_result with Ok _ -> 0 | Error _ -> 1
        in
        let install store =
          Binary.Installer.install store ~repo ~caches ?mirrors
            ~fallback:(not no_fallback) ~obs ~jobs spec
        in
        (match install store with
        | Ok report -> finish store report
        | Error e ->
          Format.eprintf "install failed: %a@." Binary.Errors.pp e;
          1
        | exception Binary.Store.Crashed what ->
          Format.printf "crashed at store mutation: %s@." what;
          if not recover then begin
            Format.printf
              "store left as the crash found it (journal intact); rerun with \
               --recover to replay@.";
            1
          end
          else (
            let recovered, r = Binary.Store.recover ~root vfs in
            Format.printf "%a@." Binary.Store.pp_recovery r;
            match install recovered with
            | Ok report -> finish recovered report
            | Error e ->
              Format.eprintf "resumed install failed: %a@." Binary.Errors.pp e;
              1)))
  in
  Cmd.v
    (Cmd.info "install"
       ~doc:
         "Concretize and install a spec into a fresh store, optionally through \
          fault-injected mirrors with retry, failover and crash recovery.")
    Term.(const run $ reuse_flag $ splice_flag $ mirror_flag $ retries_flag
          $ no_fallback_flag $ crash_at_flag $ recover_flag $ install_jobs_flag
          $ fleet_flag $ fleet_seed_flag $ adaptive_flag $ trace_flag
          $ trace_format_flag $ spec_arg)

(* ---- splice (manual, Fig. 2 mechanics) ---- *)

let splice_cmd =
  let target_arg = Arg.(required & pos 0 (some string) None & info [] ~docv:"TARGET") in
  let repl_arg = Arg.(required & pos 1 (some string) None & info [] ~docv:"REPLACEMENT") in
  let intransitive =
    Arg.(value & flag & info [ "intransitive" ]
        ~doc:"Keep the target's versions of shared dependencies.")
  in
  let run intransitive target_text repl_text =
    let opts = options ~reuse:false ~splicing:false ~old_encoding:false in
    match (concretize_one ~opts target_text, concretize_one ~opts repl_text) with
    | Error e, _ | _, Error e ->
      Format.eprintf "error: %s@." e;
      1
    | Ok t, Ok r ->
      let target = List.hd t.Core.Concretizer.solution.Core.Decode.specs in
      let replacement = List.hd r.Core.Concretizer.solution.Core.Decode.specs in
      (try
         let spliced =
           Core.Splice.splice ~target ~replacement ~transitive:(not intransitive) ()
         in
         Format.printf "%a" Spec.Concrete.pp_tree spliced;
         0
       with Invalid_argument e ->
         Format.eprintf "error: %s@." e;
         1)
  in
  Cmd.v
    (Cmd.info "splice"
       ~doc:
         "Concretize TARGET and REPLACEMENT, then splice REPLACEMENT's root into \
          TARGET (Fig. 2 mechanics).")
    Term.(const run $ intransitive $ target_arg $ repl_arg)

(* ---- buildcache ---- *)

let buildcache_cmd =
  let run () =
    let l = Lazy.force local_cache in
    Format.printf "local buildcache: %d entries@." (Radiuss.Caches.node_count l);
    List.iter
      (fun spec -> Format.printf "  %s@." (Spec.Concrete.to_string spec))
      l.Radiuss.Caches.specs;
    0
  in
  Cmd.v
    (Cmd.info "buildcache" ~doc:"Build and list the bundled local buildcache.")
    Term.(const run $ const ())

(* ---- solve (raw ASP, or raw DIMACS CNF on the bare SAT core) ---- *)

(* DIMACS CNF: "c" comment lines, a "p cnf VARS CLAUSES" header, then
   clauses as whitespace-separated nonzero literals each terminated by
   0; a "%" line (the SATLIB trailer) ends the formula. The whole file
   is validated before the solver allocates anything: every token must
   be a decimal integer and every literal within +-1..VARS. Returns the
   clauses in DIMACS numbering, or [Error "FILE:LINE: reason"]. *)
let parse_dimacs path =
  let ic = open_in path in
  Fun.protect ~finally:(fun () -> close_in ic) @@ fun () ->
  let lineno = ref 0 in
  let bad fmt =
    Printf.ksprintf (fun m -> Error (Printf.sprintf "%s:%d: %s" path !lineno m)) fmt
  in
  let decimal tok =
    let digits = if tok.[0] = '-' then String.sub tok 1 (String.length tok - 1) else tok in
    if digits <> "" && String.for_all (fun c -> c >= '0' && c <= '9') digits
    then int_of_string_opt tok
    else None
  in
  let rec lines nvars clauses clause =
    match input_line ic with
    | exception End_of_file -> finish nvars clauses clause
    | line -> (
      incr lineno;
      let toks =
        String.split_on_char ' ' line
        |> List.concat_map (String.split_on_char '\t')
        |> List.map String.trim
        |> List.filter (( <> ) "")
      in
      match (toks, nvars) with
      | [], _ -> lines nvars clauses clause
      | tok :: _, _ when tok.[0] = 'c' -> lines nvars clauses clause
      | tok :: _, _ when tok.[0] = '%' -> finish nvars clauses clause
      | [ "p"; "cnf"; v; c ], None -> (
        match (decimal v, decimal c) with
        | Some v, Some c when v >= 0 && c >= 0 -> lines (Some v) clauses clause
        | _ -> bad "malformed header %S" (String.trim line))
      | "p" :: _, Some _ -> bad "second header"
      | _, None -> bad "expected a \"p cnf VARS CLAUSES\" header"
      | toks, Some n -> literals n clauses clause toks)
  and literals n clauses clause = function
    | [] -> lines (Some n) clauses clause
    | tok :: rest -> (
      match decimal tok with
      | None -> bad "not an integer: %S" tok
      | Some 0 -> literals n (List.rev clause :: clauses) [] rest
      | Some d when d < -n || d > n -> bad "literal %d outside 1..%d" d n
      | Some d -> literals n clauses (d :: clause) rest)
  and finish nvars clauses clause =
    match nvars with
    | None -> bad "missing \"p cnf VARS CLAUSES\" header"
    | Some _ ->
      let clauses = if clause = [] then clauses else List.rev clause :: clauses in
      Ok (List.rev clauses)
  in
  lines None [] []

let dimacs_lit l =
  let v = Asp.Sat.lit_var l + 1 in
  if Asp.Sat.lit_sign l then v else -v

(* DRUP text: one derived clause per line, deletions as "d" lines;
   input restatements are omitted (the checker reads them from the
   formula). PB steps cannot arise from a pure CNF input. *)
let emit_drup path steps =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) @@ fun () ->
  let line lits =
    List.iter (fun l -> Printf.fprintf oc "%d " (dimacs_lit l)) lits;
    output_string oc "0\n"
  in
  List.iter
    (fun (step : Asp.Sat.proof_step) ->
      match step with
      | Asp.Sat.P_input _ | Asp.Sat.P_pb_input _ -> ()
      | Asp.Sat.P_pb_lemma (_, lits) | Asp.Sat.P_derived lits -> line lits
      | Asp.Sat.P_delete lits ->
        output_string oc "d ";
        line lits)
    steps

let solve_dimacs dimacs proof_file =
  match parse_dimacs dimacs with
  | Error e ->
    Format.eprintf "parse error: %s@." e;
    1
  | Ok clauses ->
  let sat = Asp.Sat.create () in
  if proof_file <> None then Asp.Sat.enable_proof sat;
  (* DIMACS variable v (1-based) is internal variable v-1; only the
     variables the clauses mention are allocated. *)
  List.iter
    (fun clause ->
      Asp.Sat.add_clause sat
        (List.map
           (fun d ->
             let v = abs d - 1 in
             while Asp.Sat.nvars sat <= v do ignore (Asp.Sat.new_var sat) done;
             if d > 0 then Asp.Sat.pos v else Asp.Sat.neg v)
           clause))
    clauses;
  let t0 = Unix.gettimeofday () in
  let res = Asp.Sat.solve sat in
  let dt = Unix.gettimeofday () -. t0 in
  List.iter
    (fun (k, v) -> Printf.printf "c %-13s %d\n" k v)
    (Asp.Sat.stats sat);
  Printf.printf "c solve-seconds %.3f\n" dt;
  if res then begin
    print_endline "s SATISFIABLE";
    let n = Asp.Sat.nvars sat in
    print_string "v";
    for v = 0 to n - 1 do
      Printf.printf " %d" (if Asp.Sat.value sat v then v + 1 else -(v + 1))
    done;
    print_endline " 0";
    10
  end
  else begin
    print_endline "s UNSATISFIABLE";
    let certified =
      match (proof_file, Asp.Sat.proof sat) with
      | None, _ | _, None -> true
      | Some path, Some steps -> (
        emit_drup path steps;
        Printf.printf "c proof written to %s\n" path;
        match Fuzz.Drup.check steps with
        | Ok () ->
          print_endline "c proof certified: ok";
          true
        | Error e ->
          Printf.printf "c proof certification FAILED: %s\n" e;
          false)
    in
    if certified then 20 else 1
  end

let solve_cmd =
  let expr =
    Arg.(value & opt (some string) None & info [ "e" ] ~docv:"PROGRAM"
        ~doc:"Program text (otherwise read the FILE argument).")
  in
  let file = Arg.(value & pos 0 (some file) None & info [] ~docv:"FILE") in
  let dimacs =
    Arg.(value & opt (some file) None & info [ "dimacs" ] ~docv:"FILE"
        ~doc:"Solve a DIMACS CNF file on the bare SAT core instead of \
              an ASP program. Prints an s-line (and a v-line model) in \
              the usual solver format; exits 10 for SAT, 20 for UNSAT.")
  in
  let proof =
    Arg.(value & opt (some string) None & info [ "proof" ] ~docv:"FILE"
        ~doc:"With --dimacs: record a DRUP proof, write it to FILE \
              (derived clauses plus d-lines for learnt-DB deletions), \
              and certify UNSAT answers with the independent checker.")
  in
  let run expr file dimacs proof =
    match dimacs with
    | Some d -> solve_dimacs d proof
    | None ->
    let text =
      match (expr, file) with
      | Some t, _ -> Some t
      | None, Some f ->
        let ic = open_in f in
        let n = in_channel_length ic in
        let s = really_input_string ic n in
        close_in ic;
        Some s
      | None, None -> None
    in
    match text with
    | None ->
      Format.eprintf "error: provide a FILE or -e PROGRAM@.";
      2
    | Some text -> (
      match Asp.parse text with
      | exception Asp.Parser.Parse_error e ->
        Format.eprintf "parse error: %s@." e;
        1
      | program ->
      (* The grounder rejects unsafe rules with [Invalid_argument]. *)
      match Asp.Ground.ground program with
      | exception Invalid_argument e ->
        Format.eprintf "ground error: %s@." e;
        1
      | ground ->
      match Asp.Logic.solve ground with
      | Asp.Logic.Unsat _ ->
        Format.printf "UNSATISFIABLE@.";
        1
      | Asp.Logic.Sat m ->
        Format.printf "Answer:@.";
        List.iter (fun a -> Format.printf "%a " Asp.Ast.pp_atom a) m.Asp.Logic.atoms;
        Format.printf "@.";
        if m.Asp.Logic.costs <> [] then
          Format.printf "Optimization: %s@."
            (String.concat " "
               (List.map (fun (p, c) -> Printf.sprintf "%d@%d" c p) m.Asp.Logic.costs));
        0)
  in
  Cmd.v
    (Cmd.info "solve"
       ~doc:
         "Run the built-in ASP solver on a logic program, or (with \
          --dimacs) the bare CDCL core on a DIMACS CNF file.")
    Term.(const run $ expr $ file $ dimacs $ proof)

(* ---- discover (automatic ABI discovery, the paper's future work) ---- *)

let discover_cmd =
  let run () =
    let l = Lazy.force local_cache in
    let suggestions =
      Core.Discovery.scan ~repo ~specs:l.Radiuss.Caches.specs
        ~store:l.Radiuss.Caches.store
    in
    if suggestions = [] then begin
      Format.printf "no ABI-compatible replacements discovered@.";
      0
    end
    else begin
      List.iter
        (fun (s : Core.Discovery.suggestion) ->
          Format.printf "%s: %s%s@." s.Core.Discovery.replacement
            (Core.Discovery.to_directive s)
            (if s.Core.Discovery.exact then "   (surfaces identical)" else ""))
        suggestions;
      0
    end
  in
  Cmd.v
    (Cmd.info "discover"
       ~doc:
         "Scan the local buildcache's binaries and suggest can_splice directives \
          (automatic ABI discovery).")
    Term.(const run $ const ())

(* ---- fuzz ---- *)

let fuzz_cmd =
  let seed =
    Arg.(value & opt int 42 & info [ "seed" ] ~docv:"N" ~doc:"PRNG seed.")
  in
  let rounds =
    Arg.(value & opt int 100 & info [ "rounds" ] ~docv:"K"
        ~doc:"Number of random package universes to test.")
  in
  let inject =
    Arg.(value & opt (some string) None & info [ "inject" ] ~docv:"FAULT"
        ~doc:"Inject a known solver bug ($(b,pb) drops pseudo-boolean \
              constraints, $(b,unfounded) skips stability checks) to \
              demonstrate that the oracles catch it.")
  in
  let verbose =
    Arg.(value & flag & info [ "verbose" ] ~doc:"Log progress per round.")
  in
  let run seed rounds inject verbose trace trace_format =
    match
      match inject with
      | None -> Ok None
      | Some s -> (
        match Fuzz.Harness.injection_of_string s with
        | Some i -> Ok (Some i)
        | None -> Error s)
    with
    | Error s ->
      Format.eprintf "unknown fault %S (try pb or unfounded)@." s;
      2
    | Ok inject ->
      with_trace ~trace ~trace_format @@ fun obs ->
      let log m = if verbose then Format.eprintf "%s@." m in
      let report = Fuzz.Harness.run ~log ?inject ~obs ~seed ~rounds () in
      Format.printf "%a" Fuzz.Harness.pp_report report;
      if report.Fuzz.Harness.failures = [] then 0 else 1
  in
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:
         "Fuzz the whole stack on random package universes: validate every \
          solution independently, certify every UNSAT with a checked DRUP \
          proof, cross-check small instances by brute force, and shrink any \
          failure to a paste-ready reproducer.")
    Term.(const run $ seed $ rounds $ inject $ verbose $ trace_flag
          $ trace_format_flag)

(* ---- trace-report ---- *)

(* Aggregate a recorded trace (jsonl, or a chrome trace_event object)
   into per-phase totals and duration histograms — the offline
   counterpart of --trace-format summary. *)
let trace_report_cmd =
  let file = Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE") in
  let run file =
    let text =
      let ic = open_in file in
      let n = in_channel_length ic in
      let s = really_input_string ic n in
      close_in ic;
      s
    in
    let num = function
      | Sjson.Float f -> f
      | Sjson.Int n -> float_of_int n
      | _ -> 0.
    in
    (* span name -> duration histogram (ms), in first-seen order *)
    let tbl = Hashtbl.create 32 in
    let order = ref [] in
    let add_span name ms =
      let h =
        match Hashtbl.find_opt tbl name with
        | Some h -> h
        | None ->
          let h = Obs.Hist.create () in
          Hashtbl.replace tbl name h;
          order := name :: !order;
          h
      in
      Obs.Hist.observe h ms
    in
    let metric_lines = ref [] in
    let metric name v = metric_lines := (name, v) :: !metric_lines in
    let chrome_events evs =
      List.iter
        (fun ev ->
          match Sjson.member_opt "ph" ev with
          | Some (Sjson.String "X") ->
            add_span (Sjson.get_string (Sjson.member "name" ev))
              (num (Sjson.member "dur" ev) /. 1e3)
          | Some (Sjson.String "C") ->
            metric
              (Sjson.get_string (Sjson.member "name" ev))
              (string_of_int
                 (Sjson.get_int (Sjson.member "value" (Sjson.member "args" ev))))
          | _ -> ())
        (Sjson.to_list evs)
    in
    let jsonl_line j =
      match Sjson.member_opt "kind" j with
      | Some (Sjson.String "span") ->
        add_span (Sjson.get_string (Sjson.member "name" j))
          (num (Sjson.member "dur_ns" j) /. 1e6)
      | Some (Sjson.String ("counter" | "gauge")) ->
        metric (Sjson.get_string (Sjson.member "name" j))
          (string_of_int (Sjson.get_int (Sjson.member "value" j)))
      | Some (Sjson.String "histogram") ->
        let v = Sjson.member "value" j in
        metric (Sjson.get_string (Sjson.member "name" j))
          (Printf.sprintf "n=%d sum=%.3f p50=%.3f p99=%.3f"
             (Sjson.get_int (Sjson.member "count" v))
             (num (Sjson.member "sum" v))
             (num (Sjson.member "p50" v))
             (num (Sjson.member "p99" v)))
      | _ -> ()
    in
    let total_lines = ref 0 and skipped = ref 0 in
    match
      let trimmed = String.trim text in
      if trimmed = "" then Error "empty trace file"
      else
        match Sjson.of_string trimmed with
        | j -> (
          (* a single JSON document: a chrome trace (or one jsonl line) *)
          match Sjson.member_opt "traceEvents" j with
          | Some evs -> Ok (chrome_events evs)
          | None -> Ok (jsonl_line j))
        | exception Sjson.Parse_error _ ->
          (* One JSON object per line. Unparseable lines are counted
             and skipped, not fatal: a truncated tail (a crashed
             writer) must not hide the rest of the trace. *)
          String.split_on_char '\n' text
          |> List.iter (fun line ->
                 let line = String.trim line in
                 if line <> "" then begin
                   incr total_lines;
                   match Sjson.of_string line with
                   | j -> jsonl_line j
                   | exception Sjson.Parse_error _ -> incr skipped
                 end);
          if !total_lines > 0 && !skipped = !total_lines then
            Error
              (Printf.sprintf "all %d lines of %s failed to parse" !total_lines
                 file)
          else Ok ()
    with
    | exception Failure e ->
      Format.eprintf "error: %s@." e;
      1
    | Error e ->
      Format.eprintf "error: %s@." e;
      1
    | Ok () ->
      if !skipped > 0 then
        Format.eprintf "warning: skipped %d of %d unparseable lines@." !skipped
          !total_lines;
      let names = List.rev !order in
      if names = [] && !metric_lines = [] then begin
        (* Valid input, nothing in it: say so explicitly, succeed. *)
        Format.printf "no events in %s@." file;
        0
      end
      else begin
        if names <> [] then begin
          Format.printf "%-32s %8s %12s %12s %12s %12s@." "phase" "count"
            "total_ms" "p50_ms" "p99_ms" "max_ms";
          List.iter
            (fun name ->
              let h = Hashtbl.find tbl name in
              Format.printf "%-32s %8d %12.3f %12.3f %12.3f %12.3f@." name
                (Obs.Hist.count h) (Obs.Hist.sum h) (Obs.Hist.quantile h 0.5)
                (Obs.Hist.quantile h 0.99) (Obs.Hist.max_value h))
            names
        end;
        if !metric_lines <> [] then begin
          Format.printf "%-44s %s@." "metric" "value";
          List.iter
            (fun (n, v) -> Format.printf "%-44s %s@." n v)
            (List.rev !metric_lines)
        end;
        0
      end
  in
  Cmd.v
    (Cmd.info "trace-report"
       ~doc:
         "Aggregate a trace recorded with $(b,--trace) (jsonl or chrome \
          format) into per-phase totals and duration histograms.")
    Term.(const run $ file)

(* ---- serve / client (resident solve server) ---- *)

let socket_flag =
  Arg.(required & opt (some string) None & info [ "socket" ] ~docv:"PATH"
      ~doc:"Unix socket path the server listens on (or the client \
            connects to).")

let serve_cmd =
  let workers_flag =
    Arg.(value & opt int 4 & info [ "workers" ] ~docv:"N"
        ~doc:"Solver worker domains (default 4).")
  in
  let queue_flag =
    Arg.(value & opt int 256 & info [ "queue" ] ~docv:"N"
        ~doc:"Admission bound: requests beyond N enqueued jobs are \
              rejected with a typed $(b,overloaded) status (default 256).")
  in
  let deadline_flag =
    Arg.(value & opt (some float) None & info [ "deadline-ms" ] ~docv:"MS"
        ~doc:"Default per-request deadline, enforced inside the SAT core; \
              preempted requests answer $(b,timeout).")
  in
  let socket_opt =
    Arg.(value & opt string "/tmp/spackml.sock"
        & info [ "socket" ] ~docv:"PATH"
            ~doc:"Unix socket path (default /tmp/spackml.sock).")
  in
  let horizon_flag =
    Arg.(value & opt float 60.0 & info [ "stats-horizon" ] ~docv:"S"
        ~doc:"Rolling-stats horizon in seconds: the largest window the \
              wire $(b,stats) op (and $(b,spackml top)) can report \
              (default 60).")
  in
  let recorder_flag =
    Arg.(value & opt int 256 & info [ "recorder" ] ~docv:"N"
        ~doc:"Flight-recorder capacity: completed request traces kept \
              for the wire $(b,dump) op, tail-sampled (errors, deadline \
              misses and slowest solves always kept). 0 disables \
              (default 256).")
  in
  let no_live_flag =
    Arg.(value & flag & info [ "no-live-telemetry" ]
        ~doc:"Disable live telemetry entirely: no rolling-window stats, \
              no flight recorder.")
  in
  let run reuse splicing workers queue deadline_ms socket horizon recorder
      no_live trace trace_format =
    with_trace ~trace ~trace_format @@ fun obs ->
    let opts =
      { (options ~reuse ~splicing ~old_encoding:false) with Core.Concretizer.obs }
    in
    let config =
      { Core.Serve.default_config with
        Core.Serve.workers;
        max_queue = queue;
        default_deadline_ms = deadline_ms;
        telemetry =
          (if no_live then None
           else
             Some
               { Core.Serve.default_telemetry with
                 Core.Serve.horizon_s = horizon;
                 recorder_capacity = max 0 recorder });
        reuse_source =
          (if reuse then
             Some (fun () -> Radiuss.Caches.reusable_specs (Lazy.force local_cache))
           else None);
        options = opts }
    in
    match Core.Serve.start ~repo ~config ~socket () with
    | Error e ->
      Format.eprintf "error: %s@." e;
      1
    | Ok t ->
      Format.printf "serving on %s (%d workers, pool %s)@." socket workers
        (Chash.short (Core.Serve.pool_digest_of t));
      Core.Serve.wait t;
      Format.printf "server stopped@.";
      0
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run a resident concretization server: worker domains answering \
          pruned one-shot concretizations with a resident closure cache, \
          bounded admission, per-request deadlines, and a length-prefixed \
          JSON protocol over a Unix socket. Stop it with \
          $(b,spackml client --shutdown).")
    Term.(const run $ reuse_flag $ splice_flag $ workers_flag $ queue_flag
          $ deadline_flag $ socket_opt $ horizon_flag $ recorder_flag
          $ no_live_flag $ trace_flag $ trace_format_flag)

let client_cmd =
  let deadline_flag =
    Arg.(value & opt (some float) None & info [ "deadline-ms" ] ~docv:"MS"
        ~doc:"Per-request deadline.")
  in
  let conflicts_flag =
    Arg.(value & opt (some int) None & info [ "conflicts" ] ~docv:"N"
        ~doc:"Per-request conflict cap.")
  in
  let ping_flag = Arg.(value & flag & info [ "ping" ] ~doc:"Send a ping.") in
  let stats_flag' =
    Arg.(value & flag & info [ "stats" ] ~doc:"Fetch server statistics.")
  in
  let reload_flag =
    Arg.(value & flag & info [ "reload" ]
        ~doc:"Ask the server to re-read its buildcache (evicting cached \
              state if the digest changed).")
  in
  let shutdown_flag =
    Arg.(value & flag & info [ "shutdown" ] ~doc:"Stop the server.")
  in
  let client_retries_flag =
    Arg.(value & opt int 0 & info [ "retries" ] ~docv:"N"
        ~doc:"Retry each request up to N extra times, reconnecting with \
              backoff on mid-request disconnects and backing off on typed \
              $(b,overloaded) responses (default 0: fail fast).")
  in
  let backoff_flag =
    Arg.(value & opt float 5.0 & info [ "retry-backoff-ms" ] ~docv:"MS"
        ~doc:"Base retry delay, doubling per retry (with $(b,--retries)).")
  in
  let specs_arg = Arg.(value & pos_all string [] & info [] ~docv:"SPEC") in
  let run socket deadline_ms conflicts retries backoff_ms ping stats reload
      shutdown specs =
    match Core.Serve.Client.connect ~retries ~backoff_ms socket with
    | Error e ->
      Format.eprintf "error: %s@." e;
      1
    | Ok c ->
      Fun.protect ~finally:(fun () -> Core.Serve.Client.close c) @@ fun () ->
      let failures = ref 0 in
      let show label = function
        | Ok resp -> Format.printf "%s%s@." label (Sjson.to_string ~pretty:true resp)
        | Error e ->
          incr failures;
          Format.eprintf "%serror: %s@." label e
      in
      if ping then show "" (Core.Serve.Client.ping c);
      if stats then show "" (Core.Serve.Client.stats c);
      if reload then show "" (Core.Serve.Client.reload c);
      List.iter
        (fun spec ->
          let label = spec ^ ": " in
          match Core.Serve.Client.solve ?deadline_ms ?conflicts c spec with
          | Error e ->
            incr failures;
            Format.eprintf "%serror: %s@." label e
          | Ok resp ->
            let status =
              match Sjson.member_opt "status" resp with
              | Some (Sjson.String s) -> s
              | _ -> "?"
            in
            if status <> "ok" then incr failures;
            Format.printf "%s%s %s@." label status
              (Sjson.to_string (Sjson.member "result" resp)))
        specs;
      if shutdown then show "" (Core.Serve.Client.shutdown c);
      if (not ping) && (not stats) && (not reload) && (not shutdown)
         && specs = []
      then begin
        Format.eprintf "error: give SPECs or one of --ping/--stats/--reload/--shutdown@.";
        2
      end
      else if !failures = 0 then 0
      else 1
  in
  Cmd.v
    (Cmd.info "client"
       ~doc:
         "Drive a running $(b,spackml serve): solve specs (optionally with \
          per-request deadlines), ping, fetch stats, trigger a buildcache \
          reload, or shut the server down.")
    Term.(const run $ socket_flag $ deadline_flag $ conflicts_flag
          $ client_retries_flag $ backoff_flag $ ping_flag $ stats_flag'
          $ reload_flag $ shutdown_flag $ specs_arg)

(* ---- top (live dashboard over the wire stats/dump ops) ---- *)

let top_cmd =
  let interval_flag =
    Arg.(value & opt float 2.0 & info [ "interval" ] ~docv:"S"
        ~doc:"Refresh interval in seconds (default 2).")
  in
  let window_flag =
    Arg.(value & opt (some float) None & info [ "window" ] ~docv:"S"
        ~doc:"Rolling window to display (default: the server's full \
              horizon; rounded up to the server's sub-window size).")
  in
  let count_flag =
    Arg.(value & opt int 0 & info [ "count" ] ~docv:"N"
        ~doc:"Render N frames then exit; 0 = run until interrupted.")
  in
  let once_flag =
    Arg.(value & flag & info [ "once" ]
        ~doc:"Render a single frame without clearing the screen \
              (shorthand for --count 1; scripts and tests).")
  in
  (* Numeric field at a path into the stats JSON; 0. when absent. *)
  let num path j =
    let rec go j = function
      | [] -> (
        match j with
        | Sjson.Int n -> float_of_int n
        | Sjson.Float f -> f
        | _ -> 0.)
      | k :: rest -> (
        match Sjson.member_opt k j with Some v -> go v rest | None -> 0.)
    in
    go j path
  in
  let str path j =
    let rec go j = function
      | [] -> (match j with Sjson.String s -> s | _ -> "?")
      | k :: rest -> (
        match Sjson.member_opt k j with Some v -> go v rest | None -> "?")
    in
    go j path
  in
  let render ~socket stats dump =
    let n path = num path stats in
    let pct x = 100. *. x in
    Format.printf "spackml top — %s   uptime %.0fs   generation %d@." socket
      (n [ "result"; "uptime_s" ])
      (int_of_float (n [ "result"; "generation" ]));
    Format.printf "workers %d   pending %d   served %d   rejected %d@."
      (int_of_float (n [ "result"; "workers" ]))
      (int_of_float (n [ "result"; "pending" ]))
      (int_of_float (n [ "result"; "served" ]))
      (int_of_float (n [ "result"; "rejected" ]));
    (match Sjson.member_opt "window" (Sjson.member "result" stats) with
    | None ->
      Format.printf "@.(live telemetry disabled on this server)@."
    | Some w ->
      let wn path = num path w in
      Format.printf "@.window %.0fs of %.0fs   %d requests   %.1f rps@."
        (wn [ "window_s" ]) (wn [ "horizon_s" ])
        (int_of_float (wn [ "requests" ]))
        (wn [ "rps" ]);
      Format.printf "%-10s %8s %9s %9s %9s %9s %9s@." "" "count" "mean" "p50"
        "p90" "p99" "max";
      List.iter
        (fun key ->
          Format.printf "%-10s %8d %9.1f %9.1f %9.1f %9.1f %9.1f@." key
            (int_of_float (wn [ key; "count" ]))
            (wn [ key; "mean" ]) (wn [ key; "p50" ]) (wn [ key; "p90" ])
            (wn [ key; "p99" ]) (wn [ key; "max" ]))
        [ "solve_ms"; "queue_ms" ];
      Format.printf
        "rates: overload %.1f%%   deadline-miss %.1f%%   error %.1f%%@."
        (pct (wn [ "overload_rate" ]))
        (pct (wn [ "deadline_miss_rate" ]))
        (pct (wn [ "error_rate" ]));
      Format.printf "caches: closure %.1f%%@." (pct (wn [ "closure_hit_rate" ])));
    match dump with
    | None -> ()
    | Some d ->
      let traces =
        match Sjson.member_opt "traces" (Sjson.member "result" d) with
        | Some (Sjson.Array ts) -> ts
        | _ -> []
      in
      if traces <> [] then begin
        Format.printf "@.recent kept traces (%d of %d seen):@."
          (List.length traces)
          (int_of_float (num [ "result"; "seen" ] d));
        Format.printf "  %-16s %-9s %-9s %9s %9s  %s@." "rid" "keep" "status"
          "dur_ms" "queue_ms" "op";
        List.iter
          (fun tr ->
            Format.printf "  %-16s %-9s %-9s %9.1f %9.1f  %s@."
              (str [ "rid" ] tr) (str [ "keep" ] tr) (str [ "status" ] tr)
              (num [ "dur_ms" ] tr) (num [ "queue_ms" ] tr) (str [ "op" ] tr))
          traces
      end
  in
  let run socket interval window count once =
    let count = if once then 1 else count in
    match Core.Serve.Client.connect socket with
    | Error e ->
      Format.eprintf "error: %s@." e;
      1
    | Ok c ->
      Fun.protect ~finally:(fun () -> Core.Serve.Client.close c) @@ fun () ->
      let rec loop frame =
        match Core.Serve.Client.stats ?window_s:window c with
        | Error e ->
          Format.eprintf "error: %s@." e;
          1
        | Ok stats ->
          let dump =
            match Core.Serve.Client.dump ~n:8 c with
            | Ok d -> Some d
            | Error _ -> None
          in
          if not once then Format.printf "\027[2J\027[H";
          render ~socket stats dump;
          Format.printf "@?";
          if count > 0 && frame + 1 >= count then 0
          else begin
            Unix.sleepf (Float.max 0.05 interval);
            loop (frame + 1)
          end
      in
      loop 0
  in
  Cmd.v
    (Cmd.info "top"
       ~doc:
         "Live dashboard for a running $(b,spackml serve): polls the wire \
          $(b,stats) and $(b,dump) ops and renders rolling-window latency \
          quantiles, queue occupancy, overload/deadline-miss rates, the \
          closure-cache hit rate, and the flight recorder's recent traces.")
    Term.(const run $ socket_flag $ interval_flag $ window_flag $ count_flag
          $ once_flag)

(* ---- providers ---- *)

let providers_cmd =
  let virt = Arg.(required & pos 0 (some string) None & info [] ~docv:"VIRTUAL") in
  let run v =
    match Pkg.Repo.providers repo v with
    | [] ->
      Format.eprintf "no providers for %s@." v;
      1
    | ps ->
      List.iter (fun (p : Pkg.Package.t) -> Format.printf "%s@." p.Pkg.Package.name) ps;
      0
  in
  Cmd.v
    (Cmd.info "providers" ~doc:"List providers of a virtual package.")
    Term.(const run $ virt)

let () =
  let default = Term.(ret (const (`Help (`Pager, None)))) in
  exit
    (Cmd.eval'
       (Cmd.group ~default
          (Cmd.info "spackml" ~version:"1.0.0"
             ~doc:
               "Source and binary package management with ABI-compatible splicing \
                (OCaml reproduction of the SC'25 Spack splicing paper).")
          [ concretize_cmd; install_cmd; splice_cmd; buildcache_cmd; solve_cmd;
            discover_cmd; providers_cmd; serve_cmd; client_cmd; top_cmd;
            fuzz_cmd; trace_report_cmd ]))
