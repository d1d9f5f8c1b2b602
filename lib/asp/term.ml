type t =
  | Int of int
  | Sym of string
  | Str of string
  | Var of string
  | App of string * t list

(* ---- constant-string interning ----------------------------------- *)

(* Package names and DAG hashes recur in thousands of facts; interning
   them makes equal constants physically equal, so the equality checks
   saturating the grounder's join loops usually reduce to a pointer
   comparison. Tables are domain-local: no locks on the hot path, and
   each solver domain of a batch concretization owns its own pool. *)
let intern_key : (string, string) Hashtbl.t Domain.DLS.key =
  Domain.DLS.new_key (fun () -> Hashtbl.create 4096)

let intern s =
  let tbl = Domain.DLS.get intern_key in
  match Hashtbl.find_opt tbl s with
  | Some c -> c
  | None ->
    Hashtbl.add tbl s s;
    s

let sym s = Sym (intern s)
let str s = Str (intern s)

let rec is_ground = function
  | Int _ | Sym _ | Str _ -> true
  | Var _ -> false
  | App (_, args) -> List.for_all is_ground args

(* Physical equality first: interned constants mostly hit it. The
   structural order matches [Stdlib.compare] on this type (constructor
   declaration order, then contents), which the grounder's term
   comparisons rely on. *)
let str_cmp a b = if a == b then 0 else String.compare a b

let rec compare a b =
  if a == b then 0
  else
    match (a, b) with
    | Int x, Int y -> Stdlib.Int.compare x y
    | Sym x, Sym y | Str x, Str y | Var x, Var y -> str_cmp x y
    | App (f, xs), App (g, ys) ->
      let c = str_cmp f g in
      if c <> 0 then c else compare_list xs ys
    | Int _, _ -> -1
    | _, Int _ -> 1
    | Sym _, _ -> -1
    | _, Sym _ -> 1
    | Str _, _ -> -1
    | _, Str _ -> 1
    | Var _, _ -> -1
    | _, Var _ -> 1

and compare_list xs ys =
  match (xs, ys) with
  | [], [] -> 0
  | [], _ -> -1
  | _, [] -> 1
  | x :: xs, y :: ys ->
    let c = compare x y in
    if c <> 0 then c else compare_list xs ys

let equal a b = compare a b = 0

(* A cheap content hash: long constants (64-char DAG hashes) are
   sampled rather than walked byte-for-byte — their identifying entropy
   sits in the first few characters — and equality keeps us honest. *)
let hash_string s =
  let n = String.length s in
  let h = ref (n * 0x9e3779b1) in
  if n <= 12 then
    for i = 0 to n - 1 do
      h := (!h * 31) + Char.code (String.unsafe_get s i)
    done
  else begin
    for i = 0 to 7 do
      h := (!h * 31) + Char.code (String.unsafe_get s i)
    done;
    h := (!h * 31) + Char.code (String.unsafe_get s (n - 2));
    h := (!h * 31) + Char.code (String.unsafe_get s (n - 1))
  end;
  !h land max_int

let rec hash = function
  | Int n -> n land max_int
  | Sym s -> (2 * hash_string s) land max_int
  | Str s -> ((2 * hash_string s) + 1) land max_int
  | Var v -> (3 * hash_string v) land max_int
  | App (f, args) ->
    List.fold_left (fun acc t -> ((acc * 131) + hash t) land max_int) (hash_string f) args

let vars t =
  let rec go acc = function
    | Int _ | Sym _ | Str _ -> acc
    | Var v -> if List.mem v acc then acc else v :: acc
    | App (_, args) -> List.fold_left go acc args
  in
  List.rev (go [] t)

let rec pp fmt = function
  | Int n -> Format.pp_print_int fmt n
  | Sym s -> Format.pp_print_string fmt s
  | Str s -> Format.fprintf fmt "%S" s
  | Var v -> Format.pp_print_string fmt v
  | App (f, args) ->
    Format.fprintf fmt "%s(%a)" f
      (Format.pp_print_list
         ~pp_sep:(fun fmt () -> Format.pp_print_char fmt ',')
         pp)
      args

let rec add_to_buffer buf = function
  | Int n -> Buffer.add_string buf (string_of_int n)
  | Sym s | Var s -> Buffer.add_string buf s
  | Str s ->
    Buffer.add_char buf '"';
    Buffer.add_string buf (String.escaped s);
    Buffer.add_char buf '"'
  | App (f, args) ->
    Buffer.add_string buf f;
    Buffer.add_char buf '(';
    List.iteri
      (fun i t ->
        if i > 0 then Buffer.add_char buf ',';
        add_to_buffer buf t)
      args;
    Buffer.add_char buf ')'

let to_string t = Format.asprintf "%a" pp t
