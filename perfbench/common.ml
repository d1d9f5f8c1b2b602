(* Shared pieces of the workloads: the seeded request stream, the
   options every workload concretizes with, sample statistics, and the
   result line. *)

let now = Obs.Clock.now_s

let ms_of_s s = s *. 1000.0

(* Every workload draws the same stream: each pass is a seeded
   permutation of the 32 RADIUSS objectives, and the MPI-dependent ones
   ask for the mpiabi mock so that answers must splice (the paper's
   RQ2). *)
let objective_text name =
  if List.mem name Radiuss.Universe.mpi_dependent then name ^ " ^mpiabi"
  else name

let objectives = Array.of_list (List.map objective_text Radiuss.Universe.top_level)

let wants_splice text = String.ends_with ~suffix:" ^mpiabi" text

module Stream = struct
  type t = {
    rng : Random.State.t;
    order : int array;  (** indexes into [objectives] *)
    mutable next : int;
  }

  let create ~seed =
    let n = Array.length objectives in
    { rng = Random.State.make [| seed; 0x5ea7 |];
      order = Array.init n Fun.id;
      next = n }

  (* Index of the next objective; a new pass starts with a fresh
     Fisher-Yates permutation. *)
  let next t =
    let n = Array.length t.order in
    if t.next >= n then begin
      for i = n - 1 downto 1 do
        let j = Random.State.int t.rng (i + 1) in
        let x = t.order.(i) in
        t.order.(i) <- t.order.(j);
        t.order.(j) <- x
      done;
      t.next <- 0
    end;
    let i = t.order.(t.next) in
    t.next <- t.next + 1;
    i

  (* Runs end on a pass boundary, so every run weighs each objective
     equally whatever its length. *)
  let at_pass_end t = t.next >= Array.length t.order
end

(* What [spackml concretize/install --reuse --splice] runs with: the
   shipped defaults (pruning on, one domain, no portfolio) plus
   splicing and a reuse pool. *)
let options ~reuse =
  { Core.Concretizer.default_options with
    Core.Concretizer.reuse;
    splicing = true }

(* The answer identity the fidelity and serve checks compare: root DAG
   hash, rendered spec and cost vector. *)
let costs_key costs =
  String.concat "," (List.map (fun (p, c) -> Printf.sprintf "%d:%d" p c) costs)

let answer_key spec costs =
  String.concat "\n"
    [ Spec.Concrete.dag_hash spec; Spec.Concrete.to_string spec; costs_key costs ]

(* ---- statistics ----------------------------------------------------- *)

(* Linear-interpolated sample quantile, [q] in [0, 1]. *)
let quantile values q =
  let a = Array.of_list values in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 0 then 0.0
  else
    let pos = q *. float_of_int (n - 1) in
    let lo = int_of_float pos in
    let hi = min (n - 1) (lo + 1) in
    let frac = pos -. float_of_int lo in
    a.(lo) +. (frac *. (a.(hi) -. a.(lo)))

let median values = quantile values 0.5

let mean values =
  match values with
  | [] -> 0.0
  | _ -> List.fold_left ( +. ) 0.0 values /. float_of_int (List.length values)

let ratio num den = if den = 0.0 then 0.0 else num /. den

(* Peak resident set of this process ([VmHWM]), in MiB. *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  Fun.protect ~finally:(fun () -> close_in ic) @@ fun () ->
  let rec scan () =
    match input_line ic with
    | line when String.starts_with ~prefix:"VmHWM:" line ->
      Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.0)
    | _ -> scan ()
    | exception End_of_file -> failwith "VmHWM missing from /proc/self/status"
  in
  scan ()

(* ---- outcome of one run --------------------------------------------- *)

type metric = { name : string; value : float; unit_ : string }

type report = {
  attempted : int;
  failed : int;
  problems : string list;  (** first few failed checks, for stderr *)
  metrics : metric list;
}

(* Failed checks are counted per operation; the first few messages are
   kept so a failing run says why. *)
type tally = {
  mutable t_attempted : int;
  mutable t_failed : int;
  mutable t_problems : string list;
}

let tally () = { t_attempted = 0; t_failed = 0; t_problems = [] }

let attempt t = t.t_attempted <- t.t_attempted + 1

let fail t msg =
  t.t_failed <- t.t_failed + 1;
  if List.length t.t_problems < 8 then t.t_problems <- msg :: t.t_problems

let finish t metrics =
  { attempted = t.t_attempted;
    failed = t.t_failed;
    problems = List.rev t.t_problems;
    metrics }

let print_result r =
  List.iter (fun p -> Printf.eprintf "check failed: %s\n" p) r.problems;
  let json =
    Sjson.Object
      [ ("correct", Sjson.Bool (r.failed = 0 && r.attempted > 0));
        ("attempted", Sjson.Int r.attempted);
        ("failed", Sjson.Int r.failed);
        ( "metrics",
          Sjson.Object
            (List.map
               (fun m ->
                 ( m.name,
                   Sjson.Object
                     [ ("value", Sjson.Float m.value);
                       ("unit", Sjson.String m.unit_) ] ))
               r.metrics) ) ]
  in
  print_endline (Sjson.to_string json)
