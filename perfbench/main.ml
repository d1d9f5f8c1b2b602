(* The repository's benchmark: one workload per process.

     main.exe --workload NAME --seed N --seconds S --trace 0|1
              --spawned-at T [--setup-only]

   [T] is the caller's CLOCK_MONOTONIC reading, in seconds, taken just
   before it spawned this process. [setup_s] runs from [T] to the first
   timed request, so it covers process start and every module
   initialiser as well as the set-up code below.

   [--trace 0] measures the end-to-end metrics with nothing but the
   user-facing calls in the loop; [--trace 1] is a separate run of the
   same seed that prints the per-layer ledger ([install-local] also
   writes its spans to perfbench/_out/<workload>-seed<N>.trace.json).
   The last line of standard output is the result object.
   [--setup-only] stops after the set-up and prints {"setup_s": ...}
   instead. Run from the checkout root (perfbench/run.py builds this
   program and does so). *)

open Common

let workloads = [ "install-local"; "serve-churn" ]

let out_dir = "perfbench/_out"

let usage () =
  prerr_endline
    ("usage: main.exe --workload " ^ String.concat "|" workloads
   ^ " --seed N --seconds S --trace 0|1 --spawned-at T [--setup-only]");
  exit 2

type args = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  spawned_at : float;
  setup_only : bool;
}

let parse_args () =
  let workload = ref "" and seed = ref None and seconds = ref None
  and trace = ref None and spawned_at = ref None and setup_only = ref false in
  let rec go = function
    | "--workload" :: w :: rest ->
      workload := w;
      go rest
    | "--seed" :: n :: rest ->
      seed := int_of_string_opt n;
      go rest
    | "--seconds" :: s :: rest ->
      seconds := float_of_string_opt s;
      go rest
    | "--trace" :: t :: rest ->
      trace := (match t with "0" -> Some false | "1" -> Some true | _ -> None);
      go rest
    | "--spawned-at" :: t :: rest ->
      spawned_at := float_of_string_opt t;
      go rest
    | "--setup-only" :: rest ->
      setup_only := true;
      go rest
    | [] -> ()
    | _ -> usage ()
  in
  go (List.tl (Array.to_list Sys.argv));
  match (List.mem !workload workloads, !seed, !seconds, !trace, !spawned_at) with
  | true, Some seed, Some seconds, Some trace, Some spawned_at when seconds > 0.0 ->
    { workload = !workload; seed; seconds; trace; spawned_at; setup_only = !setup_only }
  | _ -> usage ()

let () =
  let a = parse_args () in
  if not (Sys.file_exists out_dir) then Sys.mkdir out_dir 0o755;
  let trace_file = Printf.sprintf "%s/%s-seed%d.trace.json" out_dir a.workload a.seed in
  let socket = Printf.sprintf "%s/churn-%d.sock" out_dir (Unix.getpid ()) in
  (* [setup ()] builds everything up to the first timed request,
     [measure] runs the timed phase and its checks, and [teardown]
     releases what the run holds. *)
  let run ~setup ~measure ~teardown =
    let env = setup () in
    let setup_s = now () -. a.spawned_at in
    if not (setup_s > 0.0 && setup_s < 900.0) then
      failwith "--spawned-at is not a CLOCK_MONOTONIC reading from before this process";
    let result =
      Fun.protect ~finally:(fun () -> teardown env) @@ fun () ->
      if a.setup_only then None
      else
        let tally, metrics = measure env in
        let metrics =
          if a.trace then metrics
          else metrics @ [ { name = "setup_s"; value = setup_s; unit_ = "s" } ]
        in
        Some (tally, metrics)
    in
    match result with
    | None ->
      print_endline (Sjson.to_string (Sjson.Object [ ("setup_s", Sjson.Float setup_s) ]))
    | Some (tally, metrics) -> print_result (finish tally metrics)
  in
  let seed = a.seed and seconds = a.seconds in
  match a.workload with
  | "serve-churn" ->
    run
      ~setup:(fun () -> Churn.setup ~seed ~socket)
      ~measure:(fun env ->
        if a.trace then Churn.traced env ~seed ~seconds else Churn.untraced env ~seed ~seconds)
      ~teardown:Churn.teardown
  | _ ->
    run
      ~setup:Oneshot.setup
      ~measure:(fun env ->
        if a.trace then Oneshot.traced env ~seed ~seconds ~trace_file
        else Oneshot.untraced env ~seed ~seconds)
      ~teardown:ignore
