(* The observability substrate: histogram algebra, quantile estimates,
   span nesting under concurrency, stat sets, and the Chrome trace a
   real concretization produces. *)

module G = QCheck.Gen

(* Floats spanning many bucket magnitudes, including zero and negatives
   (which land in the underflow bucket). *)
let gen_value = G.map (fun n -> float_of_int n /. 7.0) (G.int_range (-100) 10_000_000)

let gen_values = G.list_size (G.int_range 0 60) gen_value

let hist_of values =
  let h = Obs.Hist.create () in
  List.iter (Obs.Hist.observe h) values;
  h

let arb_values3 =
  QCheck.make
    ~print:(fun (a, b, c) ->
      let p l = "[" ^ String.concat ";" (List.map string_of_float l) ^ "]" in
      p a ^ " " ^ p b ^ " " ^ p c)
    (G.triple gen_values gen_values gen_values)

(* Associativity must hold exactly on the integer bucket counts (float
   sums are not bit-associative, so the property is over buckets). *)
let prop_merge_associative =
  QCheck.Test.make ~name:"histogram merge is associative on buckets" ~count:300
    arb_values3 (fun (a, b, c) ->
      let ha = hist_of a and hb = hist_of b and hc = hist_of c in
      let left = Obs.Hist.merge (Obs.Hist.merge ha hb) hc in
      let right = Obs.Hist.merge ha (Obs.Hist.merge hb hc) in
      Obs.Hist.buckets left = Obs.Hist.buckets right)

let prop_merge_counts =
  QCheck.Test.make ~name:"histogram merge preserves counts" ~count:300
    arb_values3 (fun (a, b, c) ->
      let m = Obs.Hist.merge (hist_of a) (Obs.Hist.merge (hist_of b) (hist_of c)) in
      Obs.Hist.count m = List.length a + List.length b + List.length c)

let prop_quantiles_monotone =
  QCheck.Test.make ~name:"quantile estimates are monotone in q" ~count:300
    (QCheck.make
       ~print:(fun (l, _) -> String.concat ";" (List.map string_of_float l))
       (G.pair gen_values (G.list_size (G.return 10) (G.float_bound_inclusive 1.0))))
    (fun (values, qs) ->
      let h = hist_of values in
      let qs = List.sort compare (0.0 :: 1.0 :: qs) in
      let est = List.map (Obs.Hist.quantile h) qs in
      let rec mono = function
        | a :: (b :: _ as rest) -> a <= b && mono rest
        | _ -> true
      in
      mono est
      && (values = [] || Obs.Hist.quantile h 1.0 <= Obs.Hist.max_value h))

(* Quantile estimates are clamped to the observed range on both sides:
   the bucket upper bound can overshoot the true maximum, and the
   lowest occupied bucket's upper bound can still exceed every
   observation. *)
let prop_quantiles_clamped =
  QCheck.Test.make ~name:"quantile estimates stay within [min, max] observed"
    ~count:300
    (QCheck.make
       ~print:(fun (l, _) -> String.concat ";" (List.map string_of_float l))
       (G.pair gen_values (G.list_size (G.return 10) (G.float_bound_inclusive 1.0))))
    (fun (values, qs) ->
      values = []
      || begin
           let h = hist_of values in
           let lo = Obs.Hist.min_value h and hi = Obs.Hist.max_value h in
           List.for_all
             (fun q ->
               let est = Obs.Hist.quantile h q in
               lo <= est && est <= hi)
             (0.0 :: 0.5 :: 1.0 :: qs)
         end)

(* A rolling window whose horizon covers every observation summarizes
   exactly the same samples as a cumulative histogram: identical
   buckets, counts, and sums. Times are fed in order (the server's
   monotonic clock) and merged at the newest observation. *)
let prop_window_merge_cumulative =
  QCheck.Test.make
    ~name:"windowed merge over a covering horizon equals the cumulative \
           histogram"
    ~count:300
    (QCheck.make
       ~print:(fun l ->
         String.concat ";"
           (List.map (fun (o, v) -> Printf.sprintf "(%d,%f)" o v) l))
       (G.list_size (G.int_range 0 60) (G.pair (G.int_range 0 550) gen_value)))
    (fun raw ->
      (* horizon 60 s in 12 slots of 5 s; offsets within [0, 55] s keep
         every observation inside the merged coverage at the end *)
      let t0 = 1000.0 in
      let obs_list =
        List.sort compare
          (List.map (fun (off, v) -> (float_of_int off /. 10.0, v)) raw)
      in
      let w = Obs.Window.create ~horizon_s:60.0 ~reset:Obs.Hist.reset Obs.Hist.create in
      let cum = Obs.Hist.create () in
      List.iter
        (fun (off, v) ->
          Obs.Window.update ~now_s:(t0 +. off) w (fun h -> Obs.Hist.observe h v);
          Obs.Hist.observe cum v)
        obs_list;
      let now =
        t0 +. match List.rev obs_list with (off, _) :: _ -> off | [] -> 0.0
      in
      let m = Obs.Window.fold ~now_s:now w Obs.Hist.merge (Obs.Hist.create ()) in
      Obs.Hist.buckets m = Obs.Hist.buckets cum
      && Obs.Hist.count m = Obs.Hist.count cum
      (* sums are added in different orders; allow float reassociation *)
      && abs_float (Obs.Hist.sum m -. Obs.Hist.sum cum)
         <= 1e-9 *. (1.0 +. abs_float (Obs.Hist.sum cum)))

(* Across arbitrary rotation (time advances up to two horizons per
   step), a windowed counter never answers a negative total, never
   more than was ever fed, and forgets everything once the horizon has
   fully rotated past. *)
let prop_window_rotation_counts =
  QCheck.Test.make
    ~name:"windowed counter totals stay within [0, fed] across rotation"
    ~count:200
    (QCheck.make
       ~print:(fun l ->
         String.concat ";"
           (List.map (fun (dt, k) -> Printf.sprintf "(%d,%d)" dt k) l))
       (G.list_size (G.int_range 0 40)
          (G.pair (G.int_range 0 200) (G.int_range 0 5))))
    (fun steps ->
      let c = Obs.Window.create ~horizon_s:10.0 ~reset:(fun r -> r := 0) (fun () -> ref 0) in
      let total now_s = Obs.Window.fold ~now_s c (fun acc r -> acc + !r) 0 in
      let t = ref 0.0 and fed = ref 0 and ok = ref true in
      List.iter
        (fun (dt, k) ->
          t := !t +. (float_of_int dt /. 10.0);
          Obs.Window.update ~now_s:!t c (fun r -> r := !r + k);
          fed := !fed + k;
          let tot = total !t in
          if tot < 0 || tot > !fed then ok := false)
        steps;
      !ok && total (!t +. 100.0) = 0)

(* Concurrent domains tracing into one ctx: each domain's spans must be
   well-nested in its own timeline (that is the invariant the Chrome
   rendering relies on). *)
let well_nested_per_domain ctx =
  let by_tid = Hashtbl.create 8 in
  List.iter
    (function
      | Obs.Span { tid; t0_ns; dur_ns; _ } ->
        let l = try Hashtbl.find by_tid tid with Not_found -> [] in
        Hashtbl.replace by_tid tid ((t0_ns, Int64.add t0_ns dur_ns) :: l)
      | Obs.Instant _ -> ())
    (Obs.events ctx);
  Hashtbl.fold
    (fun _tid spans ok ->
      ok
      && List.for_all
           (fun (s1, e1) ->
             List.for_all
               (fun (s2, e2) ->
                 let overlap = compare (max s1 s2) (min e1 e2) < 0 in
                 let contains a b c d = a <= c && d <= b in
                 (not overlap) || contains s1 e1 s2 e2 || contains s2 e2 s1 e1)
               spans)
           spans)
    by_tid true

let prop_concurrent_spans_nest =
  QCheck.Test.make ~name:"concurrent domains produce well-nested span trees"
    ~count:25
    (QCheck.make ~print:string_of_int (G.int_range 1 4))
    (fun domains ->
      let ctx = Obs.create () in
      let work d =
        for i = 0 to 9 do
          Obs.with_span ctx ~cat:"t" (Printf.sprintf "outer-%d-%d" d i)
            (fun _ ->
              Obs.with_span ctx ~cat:"t" "mid" (fun _ ->
                  Obs.with_span ctx ~cat:"t" "inner" (fun _ ->
                      Obs.incr ctx "work")))
        done
      in
      let spawned =
        List.init (domains - 1) (fun d -> Domain.spawn (fun () -> work (d + 1)))
      in
      work 0;
      List.iter Domain.join spawned;
      List.length (Obs.events ctx) = domains * 30 && well_nested_per_domain ctx)

(* ---- unit tests ---- *)

let test_disabled_is_empty () =
  let ctx = Obs.disabled in
  Obs.with_span ctx "x" (fun sp ->
      Obs.set_attr sp "a" (Obs.I 1);
      Obs.incr ctx "c";
      Obs.gauge ctx "g" 7;
      Obs.observe ctx "h" 3.0);
  Alcotest.(check bool) "not enabled" false (Obs.enabled ctx);
  Alcotest.(check int) "no events" 0 (List.length (Obs.events ctx));
  Alcotest.(check int) "no metrics" 0 (List.length (Obs.metrics ctx))

let test_metrics () =
  let ctx = Obs.create () in
  Obs.incr ctx "c";
  Obs.incr ctx ~by:4 "c";
  Obs.gauge ctx "g" 3;
  Obs.gauge ctx "g" 9;
  Obs.observe ctx "h" 2.0;
  Obs.observe ctx "h" 8.0;
  Obs.publish ctx ~prefix:"sat" [ ("conflicts", 5) ];
  let find n = List.assoc n (Obs.metrics ctx) in
  (match find "c" with
  | Obs.Counter 5 -> ()
  | _ -> Alcotest.fail "counter value");
  (match find "g" with
  | Obs.Gauge 9 -> ()
  | _ -> Alcotest.fail "gauge keeps latest");
  (match find "h" with
  | Obs.Histogram h ->
    Alcotest.(check int) "hist count" 2 (Obs.Hist.count h);
    Alcotest.(check (float 1e-9)) "hist sum" 10.0 (Obs.Hist.sum h)
  | _ -> Alcotest.fail "histogram");
  match find "sat.conflicts" with
  | Obs.Counter 5 -> ()
  | _ -> Alcotest.fail "published stat"

(* The rendered trace carries every metric, and [Sink.report] reads it
   back: the span row, the counter and gauge values, the histogram's
   count and sum. Text cut short is an error, a trace with nothing in it
   an empty report. *)
let test_report_reads_render () =
  let ctx = Obs.create () in
  Obs.with_span ctx ~cat:"t" "step" (fun _ -> ());
  Obs.incr ctx ~by:3 "c";
  Obs.gauge ctx "g" 7;
  Obs.observe ctx "h" 2.0;
  Obs.observe ctx "h" 8.0;
  let text = Obs.Sink.render ctx Obs.Sink.Chrome in
  let report =
    match Obs.Sink.report text with
    | Ok r -> r
    | Error e -> Alcotest.fail ("report: " ^ e)
  in
  let rows =
    List.map
      (fun l -> List.filter (( <> ) "") (String.split_on_char ' ' l))
      (String.split_on_char '\n' report)
  in
  let row name =
    match List.find_opt (function n :: _ -> n = name | [] -> false) rows with
    | Some r -> r
    | None -> Alcotest.fail ("no row for " ^ name)
  in
  Alcotest.(check string) "span row counts the span" "1" (List.nth (row "step") 1);
  Alcotest.(check (list string)) "counter" [ "c"; "3" ] (row "c");
  Alcotest.(check (list string)) "gauge" [ "g"; "7" ] (row "g");
  (match row "h" with
  | [ "h"; "n=2"; "sum=10.000"; p50; p99 ] ->
    Alcotest.(check bool) "histogram quantiles" true
      (String.starts_with ~prefix:"p50=" p50 && String.starts_with ~prefix:"p99=" p99)
  | l -> Alcotest.fail ("histogram row: " ^ String.concat " " l));
  (match Obs.Sink.report (String.sub text 0 (String.length text / 2)) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "a truncated trace must be an error");
  Alcotest.(check (result string string)) "empty trace" (Ok "")
    (Obs.Sink.report (Obs.Sink.render (Obs.create ()) Obs.Sink.Chrome))

(* Golden test: a real (small) concretization's Chrome trace must parse
   with Sjson, survive a re-serialize/re-parse round trip, and contain
   the pipeline's phase spans. *)
let test_chrome_roundtrip () =
  let repo =
    Pkg.Repo.of_packages
      Pkg.Package.
        [ make "a" |> version "1.0" |> depends_on "b" |> depends_on "c";
          make "b" |> version "1.0" |> depends_on "c";
          make "c" |> version "1.0" ]
  in
  let obs = Obs.create () in
  let options =
    { Core.Concretizer.default_options with Core.Concretizer.obs; verify = true }
  in
  (match Core.Concretizer.concretize_spec ~repo ~options "a" with
  | Ok _ -> ()
  | Error e -> Alcotest.fail ("concretize: " ^ e));
  let text = Obs.Sink.render obs Obs.Sink.Chrome in
  let json = Sjson.of_string text in
  Alcotest.(check bool) "round-trips through Sjson" true
    (Sjson.of_string (Sjson.to_string json) = json);
  let names =
    List.filter_map
      (fun ev ->
        match Sjson.member_opt "ph" ev with
        | Some (Sjson.String "X") ->
          Some (Sjson.get_string (Sjson.member "name" ev))
        | _ -> None)
      (Sjson.to_list (Sjson.member "traceEvents" json))
  in
  List.iter
    (fun phase ->
      Alcotest.(check bool) ("has " ^ phase ^ " span") true (List.mem phase names))
    [ "concretize"; "encode"; "assemble"; "ground"; "solve"; "decode"; "verify" ]

(* A teed ctx fans every span and metric into both backends; teeing
   with a disabled ctx is the identity (no wrapper allocation). *)
let test_tee () =
  let a = Obs.create () and b = Obs.create () in
  let t = Obs.tee a b in
  Alcotest.(check bool) "tee of enabled ctxs is enabled" true (Obs.enabled t);
  Alcotest.(check bool) "tee with disabled is identity" true
    (Obs.tee a Obs.disabled == a && Obs.tee Obs.disabled b == b);
  (* re-teeing an already-present backend must not double its events *)
  let t = Obs.tee t b in
  Obs.with_span t ~cat:"t" "both" (fun sp -> Obs.set_attr sp "k" (Obs.I 1));
  Obs.incr t "c";
  List.iter
    (fun ctx ->
      Alcotest.(check int) "span in each backend" 1
        (List.length (Obs.events ctx));
      match List.assoc "c" (Obs.metrics ctx) with
      | Obs.Counter 1 -> ()
      | _ -> Alcotest.fail "counter in each backend")
    [ a; b ]

(* Ring eviction drops sampled/slow traces first: after flooding a full
   ring with unremarkable requests, the error and deadline traces are
   still there. *)
let test_recorder_eviction () =
  let r =
    Obs.Recorder.create ~capacity:8 ~sample_every:1 ~slowest_k:0 ~window_s:60.0
      ()
  in
  let record ~rid ~status ~deadline_missed i =
    ignore
      (Obs.Recorder.record r ~rid ~op:"solve" ~status ~deadline_missed
         ~worker:0 ~start_s:(float_of_int i) ~dur_ms:1.0 ~queue_ms:0.1
         ~events:[])
  in
  record ~rid:"err-1" ~status:"error" ~deadline_missed:false 0;
  record ~rid:"dl-1" ~status:"timeout" ~deadline_missed:true 1;
  record ~rid:"err-2" ~status:"error" ~deadline_missed:false 2;
  for i = 3 to 40 do
    record ~rid:(Printf.sprintf "ok-%d" i) ~status:"ok" ~deadline_missed:false i
  done;
  Alcotest.(check int) "ring stays bounded" 8 (Obs.Recorder.kept r);
  Alcotest.(check int) "offered count" 41 (Obs.Recorder.seen r);
  let rids keep =
    List.map
      (fun tr -> tr.Obs.Recorder.tr_rid)
      (Obs.Recorder.traces ?keep r)
  in
  Alcotest.(check (list string)) "errors survive the flood"
    [ "err-2"; "err-1" ]
    (rids (Some Obs.Recorder.Error));
  Alcotest.(check (list string)) "deadline misses survive the flood"
    [ "dl-1" ]
    (rids (Some Obs.Recorder.Deadline));
  (* newest first, and the sampled remainder is the newest sampled *)
  (match rids None with
  | "ok-40" :: _ -> ()
  | l ->
    Alcotest.fail
      ("expected newest trace first, got " ^ String.concat "," l));
  Alcotest.(check int) "n truncates" 3
    (List.length (Obs.Recorder.traces ~n:3 r))

(* [Sink.chrome_events] on a recorded event list produces the same
   self-contained Chrome object shape the Chrome sink renders: it must
   survive an Sjson round trip and contain the span/instant events. *)
let test_chrome_events_roundtrip () =
  let ctx = Obs.create () in
  Obs.with_span ctx ~cat:"serve" "serve.request"
    ~attrs:[ ("rid", Obs.S "r-1") ]
    (fun _ ->
      Obs.instant ctx "serve.dequeued";
      Obs.with_span ctx ~cat:"serve" "solve" (fun _ -> ()));
  let json = Obs.Sink.chrome_events (Obs.events ctx) in
  Alcotest.(check bool) "round-trips through Sjson" true
    (Sjson.of_string (Sjson.to_string json) = json);
  let evs = Sjson.to_list (Sjson.member "traceEvents" json) in
  let phased ph =
    List.filter_map
      (fun ev ->
        match Sjson.member_opt "ph" ev with
        | Some (Sjson.String p) when p = ph ->
          Some (Sjson.get_string (Sjson.member "name" ev))
        | _ -> None)
      evs
  in
  let spans = phased "X" in
  Alcotest.(check bool) "has serve.request span" true
    (List.mem "serve.request" spans);
  Alcotest.(check bool) "has solve span" true (List.mem "solve" spans);
  Alcotest.(check (list string)) "has the instant" [ "serve.dequeued" ]
    (phased "i")

let () =
  Alcotest.run "obs"
    [ ( "histograms",
        [ QCheck_alcotest.to_alcotest prop_merge_associative;
          QCheck_alcotest.to_alcotest prop_merge_counts;
          QCheck_alcotest.to_alcotest prop_quantiles_monotone;
          QCheck_alcotest.to_alcotest prop_quantiles_clamped ] );
      ( "windows",
        [ QCheck_alcotest.to_alcotest prop_window_merge_cumulative;
          QCheck_alcotest.to_alcotest prop_window_rotation_counts ] );
      ("spans", [ QCheck_alcotest.to_alcotest prop_concurrent_spans_nest ]);
      ( "units",
        [ Alcotest.test_case "disabled ctx is free and empty" `Quick
            test_disabled_is_empty;
          Alcotest.test_case "counters, gauges, histograms, publish" `Quick
            test_metrics;
          Alcotest.test_case "report reads the rendered trace back" `Quick
            test_report_reads_render;
          Alcotest.test_case "tee fans out, disabled is identity" `Quick
            test_tee;
          Alcotest.test_case "recorder eviction keeps errors and deadlines"
            `Quick test_recorder_eviction ] );
      ( "golden",
        [ Alcotest.test_case "chrome trace of a concretization round-trips"
            `Quick test_chrome_roundtrip;
          Alcotest.test_case "chrome_events of a recorded span tree round-trips"
            `Quick test_chrome_events_roundtrip ] ) ]
