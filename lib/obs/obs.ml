(* Unified tracing and metrics. See obs.mli for the model. *)

module Clock = struct
  (* bechamel's CLOCK_MONOTONIC stub: nanoseconds as int64. *)
  let now_ns () = Monotonic_clock.now ()

  let now_s () = Int64.to_float (now_ns ()) *. 1e-9
end

type value = I of int | F of float | S of string | B of bool

(* ------------------------------------------------------------------ *)
(* Histograms *)

module Hist = struct
  (* Geometric buckets at quarter powers of two: bucket index of a
     positive v is [ceil (4 * log2 v)], clamped to a fixed range wide
     enough for nanosecond-to-hours durations and byte counts alike.
     Bucket i covers (2^((i-1)/4), 2^(i/4)]. Index 0 is the underflow
     bucket for v <= lowest bound (including non-positive values). *)
  let min_exp = -128 (* 2^(-32) *)

  let max_exp = 255 (* 2^(63.75) *)

  let n_buckets = max_exp - min_exp + 2 (* + underflow slot *)

  type t = {
    counts : int array;
    mutable count : int;
    mutable sum : float;
    mutable vmin : float;
    mutable vmax : float;
  }

  let create () =
    {
      counts = Array.make n_buckets 0;
      count = 0;
      sum = 0.;
      vmin = infinity;
      vmax = neg_infinity;
    }

  let index_of v =
    if v <= 0. then 0
    else
      let e = int_of_float (Float.ceil (4. *. (Float.log v /. Float.log 2.))) in
      if e < min_exp then 0
      else if e > max_exp then n_buckets - 1
      else e - min_exp + 1

  (* Upper bound of bucket i (quantile estimates report this). *)
  let upper_of i =
    if i = 0 then Float.pow 2. (float_of_int min_exp /. 4.)
    else Float.pow 2. (float_of_int (i - 1 + min_exp) /. 4.)

  let lower_of i = if i = 0 then 0. else upper_of (i - 1)

  let observe h v =
    h.counts.(index_of v) <- h.counts.(index_of v) + 1;
    h.count <- h.count + 1;
    h.sum <- h.sum +. v;
    if v < h.vmin then h.vmin <- v;
    if v > h.vmax then h.vmax <- v

  let count h = h.count

  let sum h = h.sum

  let min_value h = if h.count = 0 then 0. else h.vmin

  let max_value h = if h.count = 0 then 0. else h.vmax

  let reset h =
    Array.fill h.counts 0 n_buckets 0;
    h.count <- 0;
    h.sum <- 0.;
    h.vmin <- infinity;
    h.vmax <- neg_infinity

  let merge a b =
    {
      counts = Array.init n_buckets (fun i -> a.counts.(i) + b.counts.(i));
      count = a.count + b.count;
      sum = a.sum +. b.sum;
      vmin = Float.min a.vmin b.vmin;
      vmax = Float.max a.vmax b.vmax;
    }

  let quantile h q =
    if h.count = 0 then 0.
    else begin
      let q = Float.max 0. (Float.min 1. q) in
      let rank = int_of_float (Float.ceil (q *. float_of_int h.count)) in
      let rank = if rank < 1 then 1 else rank in
      let acc = ref 0 and i = ref 0 and found = ref (n_buckets - 1) in
      (try
         while !i < n_buckets do
           acc := !acc + h.counts.(!i);
           if !acc >= rank then begin
             found := !i;
             raise Exit
           end;
           incr i
         done
       with Exit -> ());
      (* Never report beyond the observed extremes: tightens the
         estimate and keeps min_value h <= quantile h q <= max_value h
         for every q (bucket bounds alone could report a p99 above the
         true maximum, or a p0 below the true minimum). *)
      Float.max (Float.min (upper_of !found) h.vmax) h.vmin
    end

  let buckets h =
    let out = ref [] in
    for i = n_buckets - 1 downto 0 do
      if h.counts.(i) > 0 then out := (lower_of i, upper_of i, h.counts.(i)) :: !out
    done;
    !out
end

(* ------------------------------------------------------------------ *)
(* Sliding windows *)

module Window = struct
  (* A horizon of [horizon_s] seconds is split into 12 slots of
     [slot_s] seconds each. Slot [i] holds the data of absolute period
     [p] (p = floor (now / slot_s)) iff p mod 12 = i and the slot was
     last updated during period p. An update that lands on a stale slot
     resets it in place first; a fold skips stale slots. A fold over
     the last [window_s] seconds visits the ceil (window_s / slot_s)
     most recent periods, so the window is rounded up to slot
     granularity and clamped to the horizon. Time must be fed
     monotonically (the default, Clock.now_s, is). *)
  let n_slots = 12

  type 'a t = {
    mu : Mutex.t;
    slot_s : float;
    ids : int array; (* absolute period held by slot i; -1 = empty *)
    slots : 'a array;
    reset : 'a -> unit;
  }

  let create ~horizon_s ~reset make =
    if not (horizon_s > 0.) then invalid_arg "Obs.Window.create: horizon_s <= 0";
    {
      mu = Mutex.create ();
      slot_s = horizon_s /. float_of_int n_slots;
      ids = Array.make n_slots (-1);
      slots = Array.init n_slots (fun _ -> make ());
      reset;
    }

  let horizon_s w = w.slot_s *. float_of_int n_slots

  (* Slots a window of [window_s] spans: rounded up, within [1, 12]. *)
  let span w = function
    | None -> n_slots
    | Some s ->
        let k = Float.ceil (Float.min (s /. w.slot_s) (float_of_int n_slots)) in
        max 1 (int_of_float k)

  let covered_s ?window_s w = w.slot_s *. float_of_int (span w window_s)

  (* Run [f] on the current period under the lock, one clock read. *)
  let at w now_s f =
    let now = match now_s with Some t -> t | None -> Clock.now_s () in
    let p = max 0 (int_of_float (Float.floor (now /. w.slot_s))) in
    Mutex.protect w.mu (fun () -> f p)

  let update ?now_s w f =
    at w now_s (fun p ->
        let i = p mod n_slots in
        if w.ids.(i) <> p then begin
          w.reset w.slots.(i);
          w.ids.(i) <- p
        end;
        f w.slots.(i))

  let fold ?window_s ?now_s w f acc =
    let k = span w window_s in
    at w now_s (fun p ->
        let acc = ref acc in
        for pj = p downto max 0 (p - k + 1) do
          let i = pj mod n_slots in
          if w.ids.(i) = pj then acc := f !acc w.slots.(i)
        done;
        !acc)
end

(* ------------------------------------------------------------------ *)
(* Contexts *)

type event =
  | Span of {
      name : string;
      cat : string;
      tid : int;
      t0_ns : int64;
      dur_ns : int64;
      attrs : (string * value) list;
    }
  | Instant of {
      name : string;
      tid : int;
      t_ns : int64;
      attrs : (string * value) list;
    }

type metric_value = Counter of int | Gauge of int | Histogram of Hist.t

type metric_cell = MCounter of int ref | MGauge of int ref | MHist of Hist.t

type impl = {
  epoch_ns : int64;
  lock : Mutex.t;
  mutable evs : event list; (* newest first *)
  mets : (string, metric_cell) Hashtbl.t;
}

(* A context is a (usually empty or singleton) list of backends. The
   disabled context is the empty list — every operation starts with one
   branch on it and allocates nothing. [tee] concatenates, so spans and
   metrics recorded through a teed context land in every backend: the
   serve layer uses this to feed a per-request flight-recorder context
   and the long-lived --trace context from a single instrumentation
   point. *)
type ctx = impl list

let disabled : ctx = []

let create () : ctx =
  [
    {
      epoch_ns = Clock.now_ns ();
      lock = Mutex.create ();
      evs = [];
      mets = Hashtbl.create 64;
    };
  ]

let enabled = function [] -> false | _ :: _ -> true

let tee (a : ctx) (b : ctx) : ctx =
  match (a, b) with
  | [], c | c, [] -> c
  | _ -> a @ List.filter (fun i -> not (List.memq i a)) b

let locked c f =
  Mutex.lock c.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock c.lock) f

let rel c t = Int64.sub t c.epoch_ns

(* ------------------------------------------------------------------ *)
(* Spans *)

type span_impl = {
  sp_ctx : impl;
  sp_name : string;
  sp_cat : string;
  sp_tid : int;
  sp_t0 : int64;
  mutable sp_attrs : (string * value) list;
}

type span = span_impl list

let dummy_span : span = []

let set_attr sp k v =
  List.iter
    (fun s -> locked s.sp_ctx (fun () -> s.sp_attrs <- (k, v) :: s.sp_attrs))
    sp

let finish_span s =
  let t1 = Clock.now_ns () in
  let c = s.sp_ctx in
  locked c (fun () ->
      c.evs <-
        Span
          {
            name = s.sp_name;
            cat = s.sp_cat;
            tid = s.sp_tid;
            t0_ns = rel c s.sp_t0;
            dur_ns = Int64.sub t1 s.sp_t0;
            attrs = List.rev s.sp_attrs;
          }
        :: c.evs)

let with_span (ctx : ctx) ?(cat = "") ?(attrs = []) name f =
  match ctx with
  | [] -> f dummy_span
  | impls ->
      let tid = (Domain.self () :> int) in
      let t0 = Clock.now_ns () in
      let sps =
        List.map
          (fun c ->
            {
              sp_ctx = c;
              sp_name = name;
              sp_cat = cat;
              sp_tid = tid;
              sp_t0 = t0;
              sp_attrs = List.rev attrs;
            })
          impls
      in
      Fun.protect
        ~finally:(fun () -> List.iter finish_span sps)
        (fun () -> f sps)

let instant (ctx : ctx) ?(attrs = []) name =
  match ctx with
  | [] -> ()
  | impls ->
      let t = Clock.now_ns () in
      let tid = (Domain.self () :> int) in
      List.iter
        (fun c ->
          locked c (fun () ->
              c.evs <- Instant { name; tid; t_ns = rel c t; attrs } :: c.evs))
        impls

(* ------------------------------------------------------------------ *)
(* Metrics *)

let metric c name mk =
  match Hashtbl.find_opt c.mets name with
  | Some cell -> cell
  | None ->
      let cell = mk () in
      Hashtbl.replace c.mets name cell;
      cell

let incr (ctx : ctx) ?(by = 1) name =
  match ctx with
  | [] -> ()
  | impls ->
      List.iter
        (fun c ->
          locked c (fun () ->
              match metric c name (fun () -> MCounter (ref 0)) with
              | MCounter r -> r := !r + by
              | MGauge _ | MHist _ -> ()))
        impls

let gauge (ctx : ctx) name v =
  match ctx with
  | [] -> ()
  | impls ->
      List.iter
        (fun c ->
          locked c (fun () ->
              match metric c name (fun () -> MGauge (ref 0)) with
              | MGauge r -> r := v
              | MCounter _ | MHist _ -> ()))
        impls

let observe (ctx : ctx) name v =
  match ctx with
  | [] -> ()
  | impls ->
      List.iter
        (fun c ->
          locked c (fun () ->
              match metric c name (fun () -> MHist (Hist.create ())) with
              | MHist h -> Hist.observe h v
              | MCounter _ | MGauge _ -> ()))
        impls

let publish (ctx : ctx) ~prefix kvs =
  match ctx with
  | [] -> ()
  | _ -> List.iter (fun (k, v) -> incr ctx ~by:v (prefix ^ "." ^ k)) kvs

(* ------------------------------------------------------------------ *)
(* Introspection *)

let events (ctx : ctx) =
  List.concat_map (fun c -> locked c (fun () -> List.rev c.evs)) ctx

let metrics (ctx : ctx) =
  List.concat_map
    (fun c ->
      locked c (fun () ->
          Hashtbl.fold
            (fun name cell acc ->
              let v =
                match cell with
                | MCounter r -> Counter !r
                | MGauge r -> Gauge !r
                | MHist h -> Histogram h
              in
              (name, v) :: acc)
            c.mets []))
    ctx
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

(* ------------------------------------------------------------------ *)
(* The trace: its one writer and its one reader *)

module Sink = struct
  type t = Chrome

  let jvalue = function
    | I n -> Sjson.Int n
    | F x -> Sjson.Float x
    | S s -> Sjson.String s
    | B b -> Sjson.Bool b

  let jattrs attrs = Sjson.Object (List.map (fun (k, v) -> (k, jvalue v)) attrs)

  let us ns = Int64.to_float ns /. 1e3

  (* Chrome trace_event "JSON object format": Perfetto and
     chrome://tracing both load {"traceEvents": [...]}. Spans are "X"
     complete events with microsecond timestamps. *)
  let chrome_event_json tids = function
    | Span { name; cat; tid; t0_ns; dur_ns; attrs } ->
        Hashtbl.replace tids tid ();
        Sjson.Object
          [
            ("name", Sjson.String name);
            ("cat", Sjson.String (if cat = "" then "spackml" else cat));
            ("ph", Sjson.String "X");
            ("ts", Sjson.Float (us t0_ns));
            ("dur", Sjson.Float (us dur_ns));
            ("pid", Sjson.Int 1);
            ("tid", Sjson.Int tid);
            ("args", jattrs attrs);
          ]
    | Instant { name; tid; t_ns; attrs } ->
        Hashtbl.replace tids tid ();
        Sjson.Object
          [
            ("name", Sjson.String name);
            ("cat", Sjson.String "spackml");
            ("ph", Sjson.String "i");
            ("ts", Sjson.Float (us t_ns));
            ("pid", Sjson.Int 1);
            ("tid", Sjson.Int tid);
            ("s", Sjson.String "t");
            ("args", jattrs attrs);
          ]

  let thread_meta tids =
    Hashtbl.fold
      (fun tid () acc ->
        Sjson.Object
          [
            ("name", Sjson.String "thread_name");
            ("ph", Sjson.String "M");
            ("pid", Sjson.Int 1);
            ("tid", Sjson.Int tid);
            ( "args",
              Sjson.Object
                [ ("name", Sjson.String (Printf.sprintf "domain %d" tid)) ] );
          ]
        :: acc)
      tids []

  (* Render a bare event list (e.g. one flight-recorder trace) as a
     loadable Chrome trace object. *)
  let chrome_events evs =
    let tids = Hashtbl.create 4 in
    let out = List.map (chrome_event_json tids) evs in
    Sjson.Object [ ("traceEvents", Sjson.Array (thread_meta tids @ out)) ]

  (* A metric's final value as the args of a "C" event. A histogram
     carries its summary, not its buckets: [report] reads these back. *)
  let metric_args = function
    | Counter n | Gauge n -> [ ("value", Sjson.Int n) ]
    | Histogram h ->
        [
          ("count", Sjson.Int (Hist.count h));
          ("sum", Sjson.Float (Hist.sum h));
          ("min", Sjson.Float (Hist.min_value h));
          ("max", Sjson.Float (Hist.max_value h));
          ("p50", Sjson.Float (Hist.quantile h 0.5));
          ("p90", Sjson.Float (Hist.quantile h 0.9));
          ("p99", Sjson.Float (Hist.quantile h 0.99));
        ]

  let render ctx Chrome =
    let evs = events ctx in
    let tids = Hashtbl.create 8 in
    let out = List.map (chrome_event_json tids) evs in
    let meta = thread_meta tids in
    (* Final metric values as counter events at the end of the trace. *)
    let t_end =
      List.fold_left
        (fun acc ev ->
          let t =
            match ev with
            | Span { t0_ns; dur_ns; _ } -> Int64.add t0_ns dur_ns
            | Instant { t_ns; _ } -> t_ns
          in
          if Int64.compare t acc > 0 then t else acc)
        0L evs
    in
    let counters =
      List.map
        (fun (name, mv) ->
          Sjson.Object
            [
              ("name", Sjson.String name);
              ("ph", Sjson.String "C");
              ("ts", Sjson.Float (us t_end));
              ("pid", Sjson.Int 1);
              ("args", Sjson.Object (metric_args mv));
            ])
        (metrics ctx)
    in
    Sjson.to_string
      (Sjson.Object [ ("traceEvents", Sjson.Array (meta @ out @ counters)) ])

  let write_file ctx sink path =
    let oc = open_out path in
    Fun.protect
      ~finally:(fun () -> close_out oc)
      (fun () -> output_string oc (render ctx sink))

  let num = function
    | Sjson.Float f -> f
    | Sjson.Int n -> float_of_int n
    | _ -> raise (Sjson.Parse_error "expected a number")

  (* Spans aggregate by name, in first-seen order; metrics print in
     trace order. *)
  let report_events evs =
    let tbl = Hashtbl.create 32 and order = ref [] and mets = ref [] in
    let name_of ev = Sjson.get_string (Sjson.member "name" ev) in
    List.iter
      (fun ev ->
        match Sjson.member_opt "ph" ev with
        | Some (Sjson.String "X") ->
            let name = name_of ev in
            let h =
              match Hashtbl.find_opt tbl name with
              | Some h -> h
              | None ->
                  let h = Hist.create () in
                  Hashtbl.replace tbl name h;
                  order := name :: !order;
                  h
            in
            Hist.observe h (num (Sjson.member "dur" ev) /. 1e3)
        | Some (Sjson.String "C") ->
            let args = Sjson.member "args" ev in
            let field k = num (Sjson.member k args) in
            let v =
              match Sjson.member_opt "value" args with
              | Some v -> string_of_int (Sjson.get_int v)
              | None ->
                  Printf.sprintf "n=%d sum=%.3f p50=%.3f p99=%.3f"
                    (Sjson.get_int (Sjson.member "count" args))
                    (field "sum") (field "p50") (field "p99")
            in
            mets := (name_of ev, v) :: !mets
        | _ -> ())
      evs;
    let b = Buffer.create 2048 in
    if !order <> [] then begin
      Printf.bprintf b "%-32s %8s %12s %12s %12s %12s\n" "phase" "count"
        "total_ms" "p50_ms" "p99_ms" "max_ms";
      List.iter
        (fun name ->
          let h = Hashtbl.find tbl name in
          Printf.bprintf b "%-32s %8d %12.3f %12.3f %12.3f %12.3f\n" name
            (Hist.count h) (Hist.sum h) (Hist.quantile h 0.5)
            (Hist.quantile h 0.99) (Hist.max_value h))
        (List.rev !order)
    end;
    if !mets <> [] then begin
      Printf.bprintf b "%-44s %s\n" "metric" "value";
      List.iter (fun (n, v) -> Printf.bprintf b "%-44s %s\n" n v) (List.rev !mets)
    end;
    Buffer.contents b

  let report text =
    try
      match Sjson.member_opt "traceEvents" (Sjson.of_string text) with
      | None -> Error "not a Chrome trace: no traceEvents"
      | Some evs -> Ok (report_events (Sjson.to_list evs))
    with Sjson.Parse_error e -> Error e
end

(* ------------------------------------------------------------------ *)
(* Flight recorder *)

module Recorder = struct
  (* Bounded ring of completed per-request span trees with tail
     sampling: the keep decision is made after the request finishes, so
     the interesting traces (errors, deadline misses, the slowest K per
     window) are always retained and the steady-state bulk is sampled
     1-in-N. When the ring is full, the oldest sampled/slow entry is
     evicted first; error and deadline-miss traces only fall off the end
     once nothing else is left to evict. *)
  type keep_class = Error | Deadline | Slow | Sampled

  let keep_class_to_string = function
    | Error -> "error"
    | Deadline -> "deadline"
    | Slow -> "slow"
    | Sampled -> "sampled"

  let keep_class_of_string = function
    | "error" -> Some Error
    | "deadline" -> Some Deadline
    | "slow" -> Some Slow
    | "sampled" -> Some Sampled
    | _ -> None

  type trace = {
    tr_rid : string;
    tr_op : string;
    tr_status : string;
    tr_keep : keep_class;
    tr_worker : int;
    tr_start_s : float; (* monotonic clock seconds at request receipt *)
    tr_dur_ms : float;
    tr_queue_ms : float;
    tr_events : event list;
  }

  type t = {
    r_mu : Mutex.t;
    r_cap : int;
    r_sample : int; (* keep 1 in N of unremarkable requests *)
    r_slowk : int; (* slowest K per window always kept *)
    r_window_s : float;
    mutable r_seen : int;
    mutable r_traces : trace list; (* newest first *)
    mutable r_len : int;
    mutable r_slow : float list; (* slow-set durations, ascending *)
    mutable r_slow_period : int;
  }

  let create ?(capacity = 256) ?(sample_every = 16) ?(slowest_k = 8)
      ?(window_s = 60.) () =
    {
      r_mu = Mutex.create ();
      r_cap = max 1 capacity;
      r_sample = max 1 sample_every;
      r_slowk = max 0 slowest_k;
      r_window_s = (if window_s > 0. then window_s else 60.);
      r_seen = 0;
      r_traces = [];
      r_len = 0;
      r_slow = [];
      r_slow_period = -1;
    }

  let locked r f =
    Mutex.lock r.r_mu;
    Fun.protect ~finally:(fun () -> Mutex.unlock r.r_mu) f

  (* Track the K largest durations seen this window; returns true when
     [dur_ms] belongs to the current slow set. *)
  let note_slow r ~start_s ~dur_ms =
    if r.r_slowk = 0 then false
    else begin
      let p = int_of_float (Float.floor (start_s /. r.r_window_s)) in
      if p <> r.r_slow_period then begin
        r.r_slow_period <- p;
        r.r_slow <- []
      end;
      if List.length r.r_slow < r.r_slowk then begin
        r.r_slow <- List.sort Float.compare (dur_ms :: r.r_slow);
        true
      end
      else
        match r.r_slow with
        | mn :: rest when dur_ms > mn ->
            r.r_slow <- List.sort Float.compare (dur_ms :: rest);
            true
        | _ -> false
    end

  let classify r ~status ~deadline_missed ~start_s ~dur_ms =
    match status with
    | "ok" | "unsat" ->
        if note_slow r ~start_s ~dur_ms then Some Slow
        else if (r.r_seen - 1) mod r.r_sample = 0 then Some Sampled
        else None
    | "timeout" when deadline_missed -> Some Deadline
    | _ -> Some Error

  (* Drop the oldest evictable entry: sampled/slow first, then the
     oldest entry of any class. *)
  let evict_one r =
    let oldest_first = List.rev r.r_traces in
    let evictable = function Slow | Sampled -> true | _ -> false in
    let dropped = ref false in
    let kept =
      List.filter
        (fun tr ->
          if (not !dropped) && evictable tr.tr_keep then begin
            dropped := true;
            false
          end
          else true)
        oldest_first
    in
    let kept = if !dropped then kept else List.tl kept in
    r.r_traces <- List.rev kept;
    r.r_len <- r.r_len - 1

  let record r ~rid ~op ~status ~deadline_missed ~worker ~start_s ~dur_ms
      ~queue_ms ~events =
    locked r (fun () ->
        r.r_seen <- r.r_seen + 1;
        match classify r ~status ~deadline_missed ~start_s ~dur_ms with
        | None -> false
        | Some keep ->
            let tr =
              {
                tr_rid = rid;
                tr_op = op;
                tr_status = status;
                tr_keep = keep;
                tr_worker = worker;
                tr_start_s = start_s;
                tr_dur_ms = dur_ms;
                tr_queue_ms = queue_ms;
                tr_events = events;
              }
            in
            if r.r_len >= r.r_cap then evict_one r;
            r.r_traces <- tr :: r.r_traces;
            r.r_len <- r.r_len + 1;
            true)

  let traces ?n ?keep r =
    locked r (fun () ->
        let ts =
          match keep with
          | None -> r.r_traces
          | Some k -> List.filter (fun tr -> tr.tr_keep = k) r.r_traces
        in
        match n with
        | None -> ts
        | Some n ->
            let rec take k = function
              | x :: rest when k > 0 -> x :: take (k - 1) rest
              | _ -> []
            in
            take n ts)

  let seen r = locked r (fun () -> r.r_seen)

  let kept r = locked r (fun () -> r.r_len)

  let capacity r = r.r_cap
end
