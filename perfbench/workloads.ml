(* The three workloads: seeded data, the statements each one issues,
   and the reference digests its served results are checked against. *)

module Relation = Dqo_data.Relation
module Rng = Dqo_util.Rng

type schedule = {
  phase_len : int;
      (** Requests per phase; [0] for a workload without phases. *)
  tick_at : int;
      (** A forced advisor tick precedes request [tick_at] of every
          phase. *)
  close_every : int;
      (** The window closes only after a multiple of this many
          requests: whole rounds of the statement mix, so the mix and
          the engine's end state do not depend on how far the window
          got. *)
}

type t = {
  name : string;
  clients : int;
  feedback : bool;
  advisor : Dqo_advisor.Advisor.config option;
  tables : (string * Relation.t) list;
  setup_sql : string list;
      (** Prepared during set-up: a request for one of these only
          [exec]s it; any other request [prepare]s and then [exec]s. *)
  request : int -> string;  (** The SQL of request [i] of the seeded stream. *)
  naive_digest : string -> string option;
      (** A reference digest computed without the engine, for
          statements that are not prepared during set-up. *)
  schedule : schedule;
}

let rounds_of n = { phase_len = 0; tick_at = 0; close_every = n }

let data_bytes t =
  List.fold_left
    (fun acc (_, rel) ->
      acc
      + Relation.cardinality rel
        * List.length (Dqo_data.Schema.fields (Relation.schema rel))
        * 8)
    0 t.tables

let int_rel names cols =
  Relation.create
    (Dqo_data.Schema.of_names
       (List.map (fun n -> (n, Dqo_data.Schema.T_int)) names))
    (List.map Dqo_data.Column.of_ints cols)

(* One relation plus one per JOIN clause. *)
let relations_of_sql sql =
  List.length
    (List.filter (String.equal "JOIN") (String.split_on_char ' ' sql))
  + 1

(* ------------------------------------------------------------------ *)
(* serve_43: the paper's §4.3 database, every statement prepared.      *)

let serve_43 ~seed =
  let rng = Rng.create ~seed in
  let pair =
    Dqo_data.Datagen.fk_pair ~rng ~r_rows:25_000 ~s_rows:90_000
      ~r_groups:20_000 ~r_sorted:false ~s_sorted:false ~dense:true
  in
  let stmts =
    [|
      "SELECT a, COUNT(*) AS c FROM R JOIN S ON id = r_id GROUP BY a";
      "SELECT a, COUNT(*) AS c FROM R JOIN S ON id = r_id WHERE b < 250000 \
       GROUP BY a";
      "SELECT b, COUNT(*) AS c FROM S GROUP BY b";
    |]
  in
  {
    name = "serve_43";
    clients = 2;
    feedback = false;
    advisor = None;
    tables = [ ("R", pair.Dqo_data.Datagen.r); ("S", pair.Dqo_data.Datagen.s) ];
    setup_sql = Array.to_list stmts;
    request =
      (fun i ->
        (* Consecutive requests, which the two clients claim side by
           side, run the same statement. *)
        stmts.(i / 2 mod Array.length stmts));
    naive_digest = (fun _ -> None);
    schedule = rounds_of (2 * Array.length stmts);
  }

(* ------------------------------------------------------------------ *)
(* adhoc_joins: a never-repeating stream of chain, star and snowflake  *)
(* joins over a generated fk -> pk schema.                             *)

(* Backbone T0 -> T1 -> ... -> T23: T<i>(k<i>, f<i>) with k<i> a dense
   primary key (shuffled in odd tables, so sortedness varies) and f<i>
   a foreign key into T<i+1>.  Hub D(dk, d1..d7) holds foreign keys
   into the satellites T3, T6, ..., T21.  Columns are named uniquely,
   so unqualified SQL resolves. *)
let backbone = 24
let satellites = 7
let adhoc_rows = 1_000

type table = { tname : string; cols : (string * int array) list }

let adhoc_tables rng =
  let pk i =
    let k = Array.init adhoc_rows Fun.id in
    if i mod 2 = 1 then Rng.shuffle rng k;
    k
  in
  let fk () = Array.init adhoc_rows (fun _ -> Rng.int rng adhoc_rows) in
  let chain =
    List.init backbone (fun i ->
        {
          tname = Printf.sprintf "T%d" i;
          cols =
            (Printf.sprintf "k%d" i, pk i)
            :: (if i < backbone - 1 then [ (Printf.sprintf "f%d" i, fk ()) ]
                else []);
        })
  in
  let hub =
    {
      tname = "D";
      cols =
        ("dk", pk 0)
        :: List.init satellites (fun j -> (Printf.sprintf "d%d" (j + 1), fk ()));
    }
  in
  chain @ [ hub ]

(* A join edge: [left_col] of an already-joined table references the
   primary key of [table]. *)
type edge = { table : string; left_col : string; key : string }

type cond = { ccol : string; pred : Dqo_exec.Filter.predicate }

type query = { root : string; edges : edge list; conds : cond list }

let sat_index j = 3 * j (* satellite j (1-based) is T<3j> *)

let chain_edges ~start ~n =
  List.init (n - 1) (fun d ->
      let i = start + d in
      {
        table = Printf.sprintf "T%d" (i + 1);
        left_col = Printf.sprintf "f%d" i;
        key = Printf.sprintf "k%d" (i + 1);
      })

let sat_edge j =
  let t = sat_index j in
  {
    table = Printf.sprintf "T%d" t;
    left_col = Printf.sprintf "d%d" j;
    key = Printf.sprintf "k%d" t;
  }

(* A snowflake arm: satellite j, then [len - 1] backbone hops. *)
let arm_edges j len = sat_edge j :: chain_edges ~start:(sat_index j) ~n:len

(* Pick [k] distinct satellites in 1..7, ascending. *)
let pick_satellites rng k =
  let s = Rng.sample_distinct rng ~k ~bound:satellites in
  Array.sort compare s;
  Array.to_list (Array.map (fun j -> j + 1) s)

type shape = Chain | Star | Snowflake

let shape_edges rng shape n =
  match shape with
  | Chain ->
    let start = Rng.int rng (backbone - n + 1) in
    (Printf.sprintf "T%d" start, chain_edges ~start ~n)
  | Star -> ("D", List.map sat_edge (pick_satellites rng (n - 1)))
  | Snowflake ->
    (* n - 1 relations over arms of length 1..3, at least two arms. *)
    let arms = max 2 ((n - 1 + 2) / 3) in
    let sats = pick_satellites rng arms in
    let lens = Array.make arms 1 in
    let left = ref (n - 1 - arms) in
    while !left > 0 do
      let a = Rng.int rng arms in
      if lens.(a) < 3 then begin
        lens.(a) <- lens.(a) + 1;
        decr left
      end
    done;
    ("D", List.concat (List.mapi (fun a j -> arm_edges j lens.(a)) sats))

let random_pred rng =
  match Rng.int rng 4 with
  | 0 -> Dqo_exec.Filter.Lt (Rng.int_in_range rng ~lo:300 ~hi:999)
  | 1 -> Dqo_exec.Filter.Ge (Rng.int_in_range rng ~lo:0 ~hi:700)
  | 2 ->
    let lo = Rng.int_in_range rng ~lo:0 ~hi:400 in
    Dqo_exec.Filter.Between (lo, lo + Rng.int_in_range rng ~lo:300 ~hi:599)
  | _ -> Dqo_exec.Filter.Ne (Rng.int rng adhoc_rows)

let columns_of_table tables name =
  (List.find (fun t -> t.tname = name) tables).cols |> List.map fst

let random_query rng tables shape n =
  let root, edges = shape_edges rng shape n in
  let joined = root :: List.map (fun e -> e.table) edges in
  let ncond = 1 + Rng.int rng 2 in
  let conds =
    List.init ncond (fun _ ->
        let t = List.nth joined (Rng.int rng (List.length joined)) in
        let cols = columns_of_table tables t in
        { ccol = List.nth cols (Rng.int rng (List.length cols));
          pred = random_pred rng })
  in
  { root; edges; conds }

let pred_sql = function
  | Dqo_exec.Filter.Eq c -> Printf.sprintf "= %d" c
  | Ne c -> Printf.sprintf "<> %d" c
  | Lt c -> Printf.sprintf "< %d" c
  | Le c -> Printf.sprintf "<= %d" c
  | Gt c -> Printf.sprintf "> %d" c
  | Ge c -> Printf.sprintf ">= %d" c
  | Between (lo, hi) -> Printf.sprintf "BETWEEN %d AND %d" lo hi

let group_key tables q = List.hd (columns_of_table tables q.root)

let query_sql tables q =
  let g = group_key tables q in
  let b = Buffer.create 256 in
  Printf.bprintf b "SELECT %s, COUNT(*) AS c FROM %s" g q.root;
  List.iter
    (fun e -> Printf.bprintf b " JOIN %s ON %s = %s" e.table e.left_col e.key)
    q.edges;
  List.iteri
    (fun i c ->
      Printf.bprintf b " %s %s %s"
        (if i = 0 then "WHERE" else "AND")
        c.ccol (pred_sql c.pred))
    q.conds;
  Printf.bprintf b " GROUP BY %s" g;
  Buffer.contents b

(* Reference result without the engine: every join is fk -> pk over a
   dense key domain, so each root row matches exactly one row of every
   joined table.  Follow the keys row by row, apply the conditions and
   count per group key. *)
let naive_result tables q =
  let find name = List.find (fun t -> t.tname = name) tables in
  let joined = Array.of_list (q.root :: List.map (fun e -> e.table) q.edges) in
  let slot name =
    let rec go i = if joined.(i) = name then i else go (i + 1) in
    go 0
  in
  (* The joined table that owns [col], and its values. *)
  let resolve col =
    let t =
      List.find
        (fun t -> Array.mem t.tname joined && List.mem_assoc col t.cols)
        tables
    in
    (slot t.tname, List.assoc col t.cols)
  in
  let hops =
    List.map
      (fun e ->
        let from, fk = resolve e.left_col in
        let pk = snd (List.hd (find e.table).cols) in
        let position = Array.make adhoc_rows 0 in
        Array.iteri (fun row key -> position.(key) <- row) pk;
        (from, fk, slot e.table, position))
      q.edges
  in
  let conds = List.map (fun c -> (resolve c.ccol, c.pred)) q.conds in
  let keys = snd (List.hd (find q.root).cols) in
  let counts = Array.make adhoc_rows 0 in
  let rowof = Array.make (Array.length joined) 0 in
  for r = 0 to adhoc_rows - 1 do
    rowof.(0) <- r;
    List.iter
      (fun (from, fk, into, position) ->
        rowof.(into) <- position.(fk.(rowof.(from))))
      hops;
    if
      List.for_all
        (fun ((owner, col), pred) -> Dqo_exec.Filter.eval pred col.(rowof.(owner)))
        conds
    then counts.(keys.(r)) <- counts.(keys.(r)) + 1
  done;
  let groups =
    List.filter (fun g -> counts.(g) > 0) (List.init adhoc_rows Fun.id)
  in
  int_rel [ "g"; "c" ]
    [ Array.of_list groups;
      Array.of_list (List.map (fun g -> counts.(g)) groups) ]

(* The fixed shape schedule: one cycle of 40 statements.  The seed
   picks tables, arms and WHERE constants, never the shapes, so the
   latency distribution has the same form on every seed.  The cycle is
   built in bands of similar planning cost so that the median and the
   p95 fall inside a band, not on the edge between two: 13 small joins,
   14 joins of about 5 ms (the median), 8 of 12-25 ms, 4 chain-9s
   (the p95) and one join of more than 16 relations, which plans
   through [Hier]. *)
let cycle =
  [|
    (Chain, 4); (Snowflake, 5); (Star, 4); (Chain, 6); (Chain, 9);
    (Star, 5); (Chain, 5); (Chain, 7); (Snowflake, 4); (Snowflake, 5);
    (Chain, 4); (Chain, 6); (Star, 6); (Star, 5); (Chain, 9);
    (Chain, 5); (Snowflake, 6); (Star, 4); (Snowflake, 5); (Chain, 6);
    (Chain, 4); (Star, 5); (Chain, 8); (Chain, 9); (Snowflake, 4);
    (Chain, 6); (Chain, 5); (Snowflake, 7); (Star, 5); (Star, 4);
    (Snowflake, 5); (Chain, 7); (Chain, 4); (Chain, 9); (Chain, 6);
    (Snowflake, 6); (Chain, 5); (Star, 5); (Star, 6); (Snowflake, 4);
  |]

(* Replaces the cycle's [big_slot] entry, rotating by cycle number. *)
let big = [| (Chain, 17); (Snowflake, 17); (Chain, 24); (Chain, 20) |]
let big_slot = 20

let adhoc_joins ~seed =
  let rng = Rng.create ~seed in
  let tables = adhoc_tables rng in
  let seen = Hashtbl.create 1024 in
  let stream = Hashtbl.create 1024 in
  let digests = Hashtbl.create 1024 in
  (* Statements are generated in order and memoised, so request [i] is
     the same on every call and every run with this seed. *)
  let rec generate upto =
    let i = Hashtbl.length stream in
    if i <= upto then begin
      let shape, n =
        if i mod Array.length cycle = big_slot then
          big.((i / Array.length cycle) mod Array.length big)
        else cycle.(i mod Array.length cycle)
      in
      (* Redraw repeats, and statements whose result is empty: an
         empty intermediate makes the engine's SPH operators raise
         instead of returning no rows (a known defect), and a
         benchmark request must not fail. *)
      let rec fresh () =
        let q = random_query rng tables shape n in
        let sql = query_sql tables q in
        let result = naive_result tables q in
        if Hashtbl.mem seen sql || Relation.cardinality result = 0 then fresh ()
        else (sql, result)
      in
      let sql, result = fresh () in
      Hashtbl.replace seen sql ();
      Hashtbl.replace digests sql (Dqo_serve.Wire.digest result);
      Hashtbl.replace stream i sql;
      generate upto
    end
  in
  {
    name = "adhoc_joins";
    clients = 1;
    feedback = false;
    advisor = None;
    tables =
      List.map
        (fun t -> (t.tname, int_rel (List.map fst t.cols) (List.map snd t.cols)))
        tables;
    setup_sql = [];
    request =
      (fun i ->
        generate i;
        Hashtbl.find stream i);
    naive_digest = Hashtbl.find_opt digests;
    (* Every big statement of the rotation, in each window. *)
    schedule = rounds_of (Array.length cycle * Array.length big);
  }

(* ------------------------------------------------------------------ *)
(* skew_large: Zipf fact table beyond the last-level cache, feedback   *)
(* and the advisor on, hot statement set rotating between phases.      *)

(* Each hot set pairs one statement a materialised view can answer
   (fast once the set's tick has installed it) with two that scan S
   whatever is installed, so both the median and the p95 sit inside the
   scan-bound mode rather than on the edge between the two. *)
let skew_hot =
  [|
    [|
      "SELECT b, COUNT(*) AS c FROM S GROUP BY b";
      "SELECT a, COUNT(*) AS c FROM R JOIN S ON id = r_id WHERE b < 3 GROUP BY a";
      "SELECT b, COUNT(*) AS c FROM S WHERE r_id < 500000 GROUP BY b";
    |];
    [|
      "SELECT a, COUNT(*) AS c FROM R GROUP BY a";
      "SELECT b, COUNT(*) AS c FROM S WHERE b < 100 GROUP BY b";
      "SELECT a, SUM(b) AS t FROM R JOIN S ON id = r_id WHERE b < 10 GROUP BY a";
    |];
  |]

let skew_phase_len = 128
let skew_tick_at = 8

let skew_large ~seed =
  let rng = Rng.create ~seed in
  let pair =
    Dqo_data.Datagen.fk_pair ~rng ~r_rows:1_000_000 ~s_rows:4_000_000
      ~r_groups:1_000 ~r_sorted:false ~s_sorted:false ~dense:true
  in
  let r_id = Relation.int_col pair.Dqo_data.Datagen.s "r_id" in
  let b =
    Dqo_data.Datagen.zipf_keys ~rng ~n:(Dqo_data.Int_col.length r_id)
      ~groups:10_000 ~theta:1.0 ()
  in
  let s =
    Relation.create
      (Relation.schema pair.Dqo_data.Datagen.s)
      [ Dqo_data.Column.of_int_col r_id; Dqo_data.Column.of_int_col b ]
  in
  let all = Array.to_list (Array.concat (Array.to_list skew_hot)) in
  {
    name = "skew_large";
    clients = 2;
    feedback = true;
    advisor =
      Some
        {
          Dqo_advisor.Advisor.budget_bytes = 8_000_000;
          min_observations = 4;
          (* The window holds exactly the requests before a phase's
             tick: each tick sees only the current hot set. *)
          window = skew_tick_at;
        };
    tables = [ ("R", pair.Dqo_data.Datagen.r); ("S", s) ];
    setup_sql = all;
    request =
      (fun i ->
        let set = skew_hot.(i / skew_phase_len mod Array.length skew_hot) in
        set.(i mod Array.length set));
    naive_digest = (fun _ -> None);
    schedule =
      {
        phase_len = skew_phase_len;
        tick_at = skew_tick_at;
        close_every = skew_phase_len * Array.length skew_hot;
      };
  }

let names = [ "serve_43"; "adhoc_joins"; "skew_large" ]

let make ~seed = function
  | "serve_43" -> Some (serve_43 ~seed)
  | "adhoc_joins" -> Some (adhoc_joins ~seed)
  | "skew_large" -> Some (skew_large ~seed)
  | _ -> None
