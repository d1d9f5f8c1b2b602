(* The per-layer metrics of a traced run ([--trace 1]). *)

(* Every per-layer metric, in the order BENCHMARK.json lists them. A
   workload leaves at 0 the layers it does not run or cannot see from
   outside (the serve workload's solver layers run inside the server). *)
let layer_metrics =
  [ ("encode.busy_ms", "ms");
    ("encode.facts", "count");
    ("encode.keep_ratio", "ratio");
    ("assemble.busy_ms", "ms");
    ("ground.busy_ms", "ms");
    ("ground.atoms", "count");
    ("ground.rules", "count");
    ("ground.index_hit_ratio", "ratio");
    ("logic.busy_ms", "ms");
    ("logic.conflicts", "count");
    ("logic.decisions", "count");
    ("logic.propagations", "count");
    ("logic.stable_checks", "count");
    ("logic.loop_clauses", "count");
    ("logic.loop_yield", "ratio");
    ("logic.inprocess_hits", "count");
    ("decode.busy_ms", "ms");
    ("install.busy_ms", "ms");
    ("install.rewired", "count");
    ("install.from_cache", "count");
    ("install.built", "count");
    ("install.relocs_patched", "count");
    ("install.relocs_grown", "count");
    ("serve.queue_ms", "ms");
    ("serve.service_ms", "ms");
    ("serve.transport_ms", "ms");
    ("serve.rebuild_ms", "ms");
    ("serve.session_share", "ratio");
    ("serve.closure_hit_rate", "ratio");
    ("serve.recycles", "count");
    ("trace.residual_ms", "ms");
    ("trace.overhead", "ratio") ]

let metrics values =
  List.map
    (fun (name, unit_) ->
      { Common.name;
        value = Option.value ~default:0.0 (List.assoc_opt name values);
        unit_ })
    layer_metrics
