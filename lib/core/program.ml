let base =
  {|
%% ---------------- nodes ----------------
attr("node", node(P)) :- attr("root", node(P)).

%% ---------------- condition machinery (5.1.1) ----------------
%% A condition holds unless one of its requirements is refuted.
condition_unsat(Id) :-
    condition_requirement(Id, "node", P),
    not attr("node", node(P)).
condition_unsat(Id) :-
    condition_requirement(Id, "variant", P, Var, Val),
    attr("node", node(P)),
    not attr("variant_value", node(P), Var, Val).
condition_unsat(Id) :-
    condition_requirement(Id, "version_ok", P),
    attr("version", node(P), V),
    not cond_version_ok(Id, V).
condition_holds(Id) :- condition(Id), not condition_unsat(Id).

%% ---------------- dependencies from directives ----------------
%% Link-run dependencies always materialize; build dependencies only
%% matter for nodes that will actually be built (reused binaries shed
%% them, 4.1).
attr("depends_on", node(P), node(D), "link") :-
    condition_holds(Id), imposed_dep(Id, P, D, "link").
attr("depends_on", node(P), node(D), "build") :-
    condition_holds(Id), imposed_dep(Id, P, D, "build"), build(P).

%% Constraints a dependency directive imposes on the dependency.
:- condition_holds(Id), dep_req_version(Id, D),
   attr("version", node(D), V), not dep_version_ok(Id, V).
:- condition_holds(Id), dep_req_variant(Id, D, Var, Val),
   attr("node", node(D)), not attr("variant_value", node(D), Var, Val).

%% ---------------- virtuals and providers ----------------
attr("virtual_node", node(V)) :-
    attr("depends_on", node(P), node(V), DT), virtual(V).
1 { provider(node(Q), node(V)) : provides(Q, V) } 1 :-
    attr("virtual_node", node(V)).
attr("node", node(Q)) :- provider(node(Q), node(V)).
depends_on_actual(P, D, DT) :-
    attr("depends_on", node(P), node(D), DT), not virtual(D).
depends_on_actual(P, Q, DT) :-
    attr("depends_on", node(P), node(V), DT), virtual(V),
    provider(node(Q), node(V)).
attr("node", node(D)) :- depends_on_actual(P, D, DT).

%% ---------------- version selection ----------------
1 { attr("version", node(P), V) : version_decl(P, V) } 1 :-
    attr("node", node(P)).
:- attr("version", node(P), V1), attr("version", node(P), V2), V1 < V2.

%% ---------------- variant selection ----------------
1 { attr("variant_value", node(P), Var, Val) : variant_possible(P, Var, Val) } 1 :-
    attr("node", node(P)), variant_decl(P, Var).
:- attr("variant_value", node(P), Var, V1),
   attr("variant_value", node(P), Var, V2), V1 < V2.

%% ---------------- os / target ----------------
attr("node_os", node(P), OS) :- attr("node", node(P)), host_os(OS), build(P).
attr("node_target", node(P), T) :- attr("node", node(P)), host_target(T), build(P).
:- attr("node_os", node(P), O1), attr("node_os", node(P), O2), O1 < O2.
:- attr("node_target", node(P), T1), attr("node_target", node(P), T2), T1 < T2.
%% Reused binaries must be microarchitecture-compatible with the host.
:- attr("node_target", node(P), T), not target_ok(T).

%% ---------------- reachability ----------------
reach(R, R) :- attr("root", node(R)).
reach(R, D) :- reach(R, P), depends_on_actual(P, D, DT).

%% A DAG may contain at most one provider of any virtual (the link-run
%% single-implementation invariant of 3.1).
:- reach(R, P1), reach(R, P2), provides(P1, V), provides(P2, V), P1 < P2.

%% Every node must serve some root (no dangling satellites).
reached(P) :- reach(R, P).
:- attr("node", node(P)), not reached(P).

%% ---------------- user constraints ----------------
:- user_version_req(P), attr("version", node(P), V), not user_version_ok(P, V).
:- user_variant(P, Var, Val), attr("node", node(P)),
   not attr("variant_value", node(P), Var, Val).
:- user_dep(R, D), not reach(R, D).
:- user_dep_version_req(D), attr("version", node(D), V),
   not user_dep_version_ok(D, V).
:- user_dep_variant(D, Var, Val), attr("node", node(D)),
   not attr("variant_value", node(D), Var, Val).
:- user_forbid(D), attr("node", node(D)).

%% ---------------- conflicts ----------------
:- condition_holds(Id), imposed_conflict(Id).
|}

let reuse =
  {|
%% ---------------- reuse (5.1.2) ----------------
%% Select at most one installed spec per node; chosen specs impose all
%% their recorded attributes.
{ attr("hash", node(P), H) : installed_hash(P, H) } 1 :- attr("node", node(P)).
reused(P) :- attr("hash", node(P), H).
build(P) :- attr("node", node(P)), not reused(P).
impose(H) :- attr("hash", node(P), H).
%% At most one hash per node. Among installed candidates the choice
%% rule's upper bound already enforces this, so the naive pairwise
%% exclusion — quadratic in the number of installed specs per package,
%% and by far the largest rule family at buildcache scale — is only
%% needed where a parent imposes a child hash that is not itself an
%% installed candidate. The encoder marks those as stray_hash facts;
%% conflicts involving a stray ground linearly per stray.
:- stray_hash(P, H1), attr("hash", node(P), H1),
   attr("hash", node(P), H2), H1 != H2.

attr("version", node(P), V) :- impose(H), imposed_constraint(H, "version", P, V).
attr("variant_value", node(P), Var, Val) :-
    impose(H), imposed_constraint(H, "variant", P, Var, Val).
attr("node_os", node(P), OS) :- impose(H), imposed_constraint(H, "node_os", P, OS).
attr("node_target", node(P), T) :-
    impose(H), imposed_constraint(H, "node_target", P, T).
attr("depends_on", node(P), node(C), DT) :-
    impose(H), imposed_constraint(H, "depends_on", P, C, DT).
attr("hash", node(C), CH) :- impose(H), imposed_constraint(H, "hash", C, CH).
|}

let hash_attr_recovery =
  {|
%% ---------------- hash_attr recovery (5.3, Fig. 3b) ----------------
%% The indirection between a reusable spec's attributes and their
%% imposition: everything except the dependency structure is recovered
%% unconditionally; hash and depends_on impositions yield to splices.
imposed_constraint(H, A, N, V) :- hash_attr(H, A, N, V), A != "hash".
imposed_constraint(H, A, N, V1, V2) :- hash_attr(H, A, N, V1, V2), A != "depends_on".
imposed_constraint(H, "hash", C, CH) :-
    hash_attr(H, "hash", C, CH), not splice_child(H, C, CH).
imposed_constraint(H, "depends_on", P, C, DT) :-
    hash_attr(H, "depends_on", P, C, DT), not splice_away(H, C).
|}

let splice_logic =
  {|
%% ---------------- splicing (5.4, Fig. 4b) ----------------
%% For a reused spec's dependency with a declared-compatible
%% replacement, either impose the original (recovery rules above) or
%% splice: suppress the original imposition and wire in a replacement
%% node satisfying a can_splice rule.
splice_possible(H, C, CH) :-
    impose(H), hash_attr(H, "hash", C, CH), can_splice(S, C, CH).
{ splice_child(H, C, CH) } :- splice_possible(H, C, CH).
splice_away(H, C) :- splice_child(H, C, CH).
1 { splice_with(H, C, CH, S) : can_splice(S, C, CH) } 1 :- splice_child(H, C, CH).
attr("node", S) :- splice_with(H, C, CH, S).
attr("depends_on", node(P), S, DT) :-
    splice_with(H, C, CH, S), hash_attr(H, "depends_on", P, C, DT).
attr("splice", node(P), C, CH, S) :-
    splice_with(H, C, CH, S), hash_attr(H, "depends_on", P, C, DT).
|}

let optimization =
  {|
%% ---------------- objectives ----------------
%% Two-band scheme like Spack's concretizer: quality criteria for nodes
%% that will be BUILT outrank the build count (a fresh build should
%% honour defaults and prefer new versions), the build count outranks
%% quality criteria of REUSED nodes (take what is installed), and
%% splices are a last tie-breaker against plain reuse.
#minimize { 1@6, P, Var : attr("variant_value", node(P), Var, Val),
            variant_default(P, Var, DVal), Val != DVal, build(P) }.
#minimize { W@5, P, V : attr("version", node(P), V), version_weight(P, V, W),
            build(P) }.
%% Number of builds (the paper's top reuse objective, weight 100).
#minimize { 100@4, P : build(P) }.
#minimize { W@3, P, V : attr("version", node(P), V), version_weight(P, V, W),
            reused(P) }.
#minimize { 1@2, P, Var : attr("variant_value", node(P), Var, Val),
            variant_default(P, Var, DVal), Val != DVal, reused(P) }.
%% Prefer earlier-listed providers of a virtual.
#minimize { W@1, Q, V : provider(node(Q), node(V)), provider_weight(Q, V, W) }.
%% All else equal, plain reuse beats a splice.
#minimize { 1@0, P, C : attr("splice", node(P), C, CH, S) }.
|}

let assemble ~encoding ~splicing () =
  let sections =
    [ base; reuse ]
    @ (match encoding with
      | Encode.Old -> []
      | Encode.Hash_attr -> [ hash_attr_recovery ])
    @ (if splicing then [ splice_logic ] else [])
    @ [ optimization ]
  in
  String.concat "\n" sections

(* One value per domain and (encoding, splicing) pair, made on first
   use. Per domain because the parser interns constants in the calling
   domain's table, because a prepared base is mutated while it grounds,
   and because an OCaml 5 [Lazy.t] must not be forced from two domains
   at once. *)
let per_domain make =
  let key = Domain.DLS.new_key (fun () -> ref []) in
  fun ~encoding ~splicing ->
    let cache = Domain.DLS.get key in
    match List.assoc_opt (encoding, splicing) !cache with
    | Some v -> v
    | None ->
      let v = make ~encoding ~splicing in
      cache := ((encoding, splicing), v) :: !cache;
      v

let statements =
  per_domain (fun ~encoding ~splicing -> Asp.parse (assemble ~encoding ~splicing ()))

let prepared =
  per_domain (fun ~encoding ~splicing -> Asp.Ground.prepare (statements ~encoding ~splicing))
