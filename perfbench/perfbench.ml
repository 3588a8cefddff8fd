(* The repository benchmark: client-side latency of the serving path
   ([Dqo_serve.Server] behind [Dqo_serve.Wire], over pipes, in one
   process) on three workloads, plus a traced pass that attributes a
   request's time to the library layers.

     perfbench.exe --workload NAME --seed N --seconds S --trace 0|1

   The last line of standard output is the result object
   [{"correct", "attempted", "failed", "metrics"}]; with [--trace 0] the
   metrics are the end-to-end ones, with [--trace 1] the per-layer
   ones.  See perfbench/METRICS.md for every metric's definition. *)

module Engine = Dqo_engine.Engine
module Server = Dqo_serve.Server
module Wire = Dqo_serve.Wire
module Metrics = Dqo_obs.Metrics
module Relation = Dqo_data.Relation
module Clock = Dqo_util.Clock

(* ------------------------------------------------------------------ *)
(* Command line.                                                       *)

type args = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  l3_bytes : int;
  git_sha : string;
  out_dir : string option;
  corrupt_reference : bool;
}

let usage =
  "perfbench.exe --workload serve_43|adhoc_joins|skew_large --seed N \
   --seconds S --trace 0|1 [--l3-bytes N] [--git-sha SHA] [--out DIR] \
   [--corrupt-reference]"

let parse_args () =
  let workload = ref "" and seed = ref (-1) and seconds = ref 0.0 in
  let trace = ref (-1) and l3 = ref (32 * 1024 * 1024) and sha = ref "unknown" in
  let out = ref None and corrupt = ref false in
  let spec =
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N seed of the data and the query stream");
      ("--seconds", Arg.Set_float seconds, "S length of the measured window");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end run or traced run");
      ("--l3-bytes", Arg.Set_int l3, "N last-level cache size (default 32 MiB)");
      ("--git-sha", Arg.Set_string sha, "SHA recorded with the result");
      ("--out", Arg.String (fun d -> out := Some d), "DIR write details and spans here");
      ( "--corrupt-reference",
        Arg.Set corrupt,
        " corrupt the first reference digest (self-test of the check)" );
    ]
  in
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  if
    (not (List.mem !workload Workloads.names))
    || !seed < 0 || !seconds <= 0.0
    || (!trace <> 0 && !trace <> 1)
  then begin
    prerr_endline usage;
    exit 2
  end;
  {
    workload = !workload;
    seed = !seed;
    seconds = !seconds;
    trace = !trace = 1;
    l3_bytes = !l3;
    git_sha = !sha;
    out_dir = !out;
    corrupt_reference = !corrupt;
  }

let fail fmt =
  Printf.ksprintf
    (fun msg ->
      prerr_endline ("perfbench: " ^ msg);
      exit 3)
    fmt

(* ------------------------------------------------------------------ *)
(* Small statistics.                                                   *)

let ms_since t0 = Float.of_int (Clock.now_ns () - t0) /. 1e6

let time_ms f =
  let t0 = Clock.now_ns () in
  let r = f () in
  (r, ms_since t0)

(* Nearest-rank quantile of an unsorted array. *)
let quantile values q =
  let a = Array.copy values in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 0 then nan
  else a.(max 0 (min (n - 1) (int_of_float (ceil (q *. Float.of_int n)) - 1)))

let median values = quantile values 0.5
let median_l l = median (Array.of_list l)

let geomean = function
  | [] -> nan
  | l ->
    exp
      (List.fold_left (fun acc x -> acc +. log x) 0.0 l
      /. Float.of_int (List.length l))

(* ------------------------------------------------------------------ *)
(* Set-up: register, start the server, connect, prepare.               *)

let nproc = Domain.recommended_domain_count ()

type served = {
  eng : Engine.t;
  srv : Server.t;
  conns : Wire_client.t array;  (** One per client. *)
  stmt_ids : (string, int) Hashtbl.t;  (** Wire statement id per SQL. *)
  register_ms : float;
}

let served_opts (w : Workloads.t) =
  {
    Engine.default_opts with
    mode = Engine.DQO;
    threads = nproc;
    feedback = w.Workloads.feedback;
  }

let setup (w : Workloads.t) =
  let eng = Engine.create ~opts:(served_opts w) () in
  let (), register_ms =
    time_ms (fun () ->
        List.iter (fun (name, rel) -> Engine.register eng ~name rel) w.tables)
  in
  let srv =
    Server.create ~threads:nproc ?advisor:w.advisor ~advisor_interval:0.0 eng
  in
  let conns = Array.init w.clients (fun _ -> Wire_client.connect srv) in
  let stmt_ids = Hashtbl.create 8 in
  List.iter
    (fun sql ->
      Array.iter
        (fun c ->
          match Wire_client.prepare c sql with
          | Ok id -> Hashtbl.replace stmt_ids sql id
          | Error e -> fail "set-up prepare failed: %s: %s" sql e)
        conns)
    w.setup_sql;
  { eng; srv; conns; stmt_ids; register_ms }

let teardown s =
  Array.iter Wire_client.close s.conns;
  Server.shutdown s.srv

let setup_reps = 3

(* Set up [setup_reps] times and keep the last one.  The first one's
   engine becomes the sequential reference engine: one thread, no AVs,
   feedback off. *)
let setup_all (w : Workloads.t) =
  let rec go i acc reference =
    Gc.full_major ();
    let s, ms = time_ms (fun () -> setup w) in
    let acc = (ms /. 1000.0, s.register_ms /. 1000.0) :: acc in
    if i = setup_reps then (s, List.rev acc, Option.get reference)
    else begin
      teardown s;
      let reference =
        match reference with
        | Some _ -> reference
        | None ->
          Engine.set_opts s.eng
            { (served_opts w) with threads = 1; feedback = false };
          Some s.eng
      in
      go (i + 1) acc reference
    end
  in
  go 1 [] None

let reference_digests (w : Workloads.t) reference =
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun sql ->
      let p = Engine.prepare reference sql in
      let rel = Engine.execute reference (Engine.prepared_entry p).Dqo_opt.Pareto.plan in
      Hashtbl.replace tbl sql (Wire.digest rel))
    w.setup_sql;
  tbl

(* ------------------------------------------------------------------ *)
(* The measured window: closed-loop clients over the wire.             *)

type sample = {
  index : int;
  latency_ms : float;  (** [infinity] for a failed request. *)
  ok : bool;
  mismatch : bool;
  bytes : int;
}

(* Request claiming, with forced advisor ticks as barriers: before a
   tick point is handed out, every earlier request must have completed,
   so each tick sees exactly the requests before it. *)
type gate = {
  mutex : Mutex.t;
  cond : Condition.t;
  mutable next : int;
  mutable completed : int;
  mutable ticking : bool;
  mutable ticked : int; (* tick points done so far, as a request index *)
  mutable closed : bool;
  started_ns : int;
}

let min_requests = 200 (* at least 10 samples beyond the p95 *)

(* The traced pass replays requests for at most this long. *)
let trace_budget_s = 10.0
let max_window_s = 120.0

let window (w : Workloads.t) (s : served) ~seconds ~expected =
  let sch = w.Workloads.schedule in
  let is_tick i =
    sch.Workloads.phase_len > 0 && i mod sch.Workloads.phase_len = sch.Workloads.tick_at
  in
  let g =
    {
      mutex = Mutex.create ();
      cond = Condition.create ();
      next = 0;
      completed = 0;
      ticking = false;
      ticked = -1;
      closed = false;
      started_ns = Clock.now_ns ();
    }
  in
  let ticks = ref [] and tick_errors = ref [] in
  let rec claim conn =
    (* called with the gate locked *)
    let i = g.next in
    let elapsed = Float.of_int (Clock.now_ns () - g.started_ns) /. 1e9 in
    if
      g.closed
      || (elapsed >= seconds && i >= min_requests && i mod sch.Workloads.close_every = 0)
      || elapsed >= max_window_s
    then begin
      g.closed <- true;
      Condition.broadcast g.cond;
      None
    end
    else if is_tick i && g.ticked < i then begin
      if g.completed = i && not g.ticking then begin
        g.ticking <- true;
        Mutex.unlock g.mutex;
        let r, ms = time_ms (fun () -> Wire_client.advise conn) in
        Mutex.lock g.mutex;
        (match r with
        | Ok _ -> ticks := ms :: !ticks
        | Error e -> tick_errors := e :: !tick_errors);
        g.ticking <- false;
        g.ticked <- i;
        Condition.broadcast g.cond
      end
      else Condition.wait g.cond g.mutex;
      claim conn
    end
    else begin
      g.next <- i + 1;
      Some i
    end
  in
  let samples = Array.make w.clients [] in
  let client c =
    let conn = s.conns.(c) in
    let rec loop () =
      Mutex.lock g.mutex;
      let claimed = claim conn in
      Mutex.unlock g.mutex;
      match claimed with
      | None -> ()
      | Some i ->
        let sql = w.request i in
        let t0 = Clock.now_ns () in
        let reply =
          match Hashtbl.find_opt s.stmt_ids sql with
          | Some id -> Wire_client.exec conn id
          | None -> (
            match Wire_client.prepare conn sql with
            | Ok id -> Wire_client.exec conn id
            | Error e -> Wire_client.Error e)
        in
        let latency_ms = ms_since t0 in
        let sample =
          match reply with
          | Wire_client.Result { digest; bytes; _ } ->
            let mismatch = expected sql <> Some digest in
            { index = i; latency_ms = (if mismatch then infinity else latency_ms);
              ok = not mismatch; mismatch; bytes }
          | Wire_client.Error e ->
            Printf.eprintf "perfbench: request %d failed: %s\n  %s\n%!" i e sql;
            { index = i; latency_ms = infinity; ok = false; mismatch = false;
              bytes = 0 }
        in
        samples.(c) <- sample :: samples.(c);
        Mutex.lock g.mutex;
        g.completed <- g.completed + 1;
        Condition.broadcast g.cond;
        Mutex.unlock g.mutex;
        loop ()
    in
    loop ()
  in
  let threads = List.init w.clients (fun c -> Thread.create client c) in
  List.iter Thread.join threads;
  let window_s = Float.of_int (Clock.now_ns () - g.started_ns) /. 1e9 in
  let all =
    Array.to_list samples |> List.concat
    |> List.sort (fun a b -> compare a.index b.index)
  in
  (all, window_s, List.rev !ticks, !tick_errors)

(* ------------------------------------------------------------------ *)
(* Server counters over the window.                                    *)

let counter srv name = Metrics.counter (Server.metrics srv) name

let server_counters =
  [ "serve.requests"; "serve.rejected"; "serve.replans"; "serve.cache_hits";
    "serve.cache_misses"; "advisor.installed"; "advisor.evicted" ]

let snapshot srv = List.map (fun n -> (n, counter srv n)) server_counters

let delta before after name = List.assoc name after - List.assoc name before

(* ------------------------------------------------------------------ *)
(* The traced pass: replay sampled requests through direct calls.      *)

type replayed = {
  exec_ms : float;  (** [Engine.execute_on] at pool size [nproc]. *)
  exec1_ms : float;  (** [Engine.execute] on a one-thread engine. *)
  alloc_words : float;
  rows_materialised : int;
  join_self_ms : float;
  group_self_ms : float;
  scan_self_ms : float;
  candidates : int;
  pruned : int;
  hier_partitions : int;
  cost : float;
  max_q : float;
  digest_ms : float;
  serve_ms : float;  (** [Server.execute]. *)
  prepared_ms : float;  (** [Engine.execute_prepared_on]. *)
  wire_ms : float;  (** Wire round trip of [exec]. *)
}

let rec plan_families (p : Dqo_plan.Physical.t) (a : Dqo_opt.Explain.analyzed) acc =
  let child_ns =
    List.fold_left (fun s (c : Dqo_opt.Explain.analyzed) -> s + c.wall_ns) 0 a.children
  in
  let self = a.Dqo_opt.Explain.wall_ns - child_ns in
  let join, group, scan, rows = acc in
  let acc =
    match p with
    | Dqo_plan.Physical.Join_op _ -> (join + self, group, scan, rows + a.actual_rows)
    | Group_op _ -> (join, group + self, scan, rows + a.actual_rows)
    | Table_scan _ -> (join, group, scan + self, rows)
    | Filter_op _ | Project_op _ | Sort_enforcer _ ->
      (join, group, scan + self, rows + a.actual_rows)
  in
  let subplans =
    match p with
    | Dqo_plan.Physical.Table_scan _ -> []
    | Filter_op (t, _, _) | Project_op (t, _) | Sort_enforcer (t, _)
    | Group_op (t, _, _, _) ->
      [ t ]
    | Join_op (l, r, _, _, _) -> [ l; r ]
  in
  List.fold_left2 (fun acc p a -> plan_families p a acc) acc subplans a.children

(* The wire's row encoding, from public calls: one tab-separated line per
   row. *)
let render rel =
  let b = Buffer.create 4096 in
  List.iter
    (fun row ->
      Buffer.add_string b
        (String.concat "\t" (List.map Dqo_data.Value.to_string row));
      Buffer.add_char b '\n')
    (Relation.rows rel);
  Buffer.length b

let alloc_words f =
  let mi0, pr0, ma0 = Gc.counters () in
  let r = f () in
  let mi1, pr1, ma1 = Gc.counters () in
  (r, mi1 -. mi0 +. (ma1 -. ma0) -. (pr1 -. pr0))

type traced = {
  spans : Span.span list;
  reduction : Span.reduction;
  replays : replayed list;
  tick_call_ms : float;
}

let trace_pass (w : Workloads.t) (s : served) ~stmts ~indices ~budget_s =
  let tr = Span.create () in
  let eng = s.eng in
  let opts = Engine.opts eng in
  let session = Server.open_session s.srv in
  let conn = Wire_client.connect s.srv in
  Dqo_par.Pool.with_pool ~domains:nproc @@ fun pool ->
  (* The set-up prepares, decomposed: a cached workload parses, binds
     and plans only here. *)
  List.iteri
    (fun j sql ->
      Span.with_span tr ~rid:(-1 - j) "prepare" (fun () ->
          let ast = Span.with_span tr "sql.parse" (fun () -> Dqo_sql.Parser.parse sql) in
          let l =
            Span.with_span tr "sql.bind" (fun () ->
                Dqo_sql.Binder.bind (Engine.catalog eng) ast)
          in
          ignore
            (Span.with_span tr "opt.plan" (fun () ->
                 Engine.plan_on eng ~pool opts.Engine.mode l))))
    w.Workloads.setup_sql;
  let started = Clock.now_ns () in
  let replay i =
    let sql = w.request i in
    let cached = Hashtbl.find_opt stmts sql in
    let stmt =
      match cached with Some st -> st | None -> Server.prepare session sql
    in
    let prepared = Server.stmt_prepared stmt in
    let timed name f =
      let t0 = Clock.now_ns () in
      let r = Span.with_span tr name f in
      (r, ms_since t0)
    in
    let entry, exec_ms, digest_ms =
      Span.with_span tr ~rid:i "request" (fun () ->
          let entry =
            if cached <> None then begin
              if Engine.prepared_stale eng prepared then
                Span.with_span tr "opt.plan" (fun () ->
                    Engine.reprepare_on eng ~pool prepared);
              Engine.prepared_entry prepared
            end
            else
              let ast =
                Span.with_span tr "sql.parse" (fun () -> Dqo_sql.Parser.parse sql)
              in
              let l =
                Span.with_span tr "sql.bind" (fun () ->
                    Dqo_sql.Binder.bind (Engine.catalog eng) ast)
              in
              Span.with_span tr "opt.plan" (fun () ->
                  Engine.plan_on eng ~pool opts.mode l)
          in
          let rel, exec_ms =
            timed "exec.execute" (fun () ->
                Engine.execute_on eng ~pool entry.Dqo_opt.Pareto.plan)
          in
          let _, digest_ms = timed "wire.digest" (fun () -> Wire.digest rel) in
          ignore (Span.with_span tr "wire.render" (fun () -> render rel));
          (entry, exec_ms, digest_ms))
    in
    (* Probes: the same request measured through other entry points, in
       a separate tree that the request accounting ignores. *)
    Span.with_span tr ~rid:i "probe" (fun () ->
        Engine.set_opts eng { opts with threads = 1 };
        let logical = Dqo_sql.Binder.plan_of_sql (Engine.catalog eng) sql in
        let a =
          Span.with_span tr "probe.explain_analyze" (fun () ->
              Engine.explain_analyze eng logical)
        in
        let (_, exec1_ms), alloc =
          alloc_words (fun () ->
              time_ms (fun () -> Engine.execute eng entry.Dqo_opt.Pareto.plan))
        in
        Engine.set_opts eng opts;
        let join, group, scan, rows =
          plan_families a.Engine.entry.Dqo_opt.Pareto.plan a.root (0, 0, 0, 0)
        in
        let _, serve_ms = time_ms (fun () -> Server.execute session stmt) in
        let _, prepared_ms =
          time_ms (fun () -> Engine.execute_prepared_on eng ~pool prepared)
        in
        let wire_ms =
          match Wire_client.prepare conn sql with
          | Ok id -> snd (time_ms (fun () -> Wire_client.exec conn id))
          | Error e -> fail "traced prepare failed: %s" e
        in
        {
          exec_ms;
          exec1_ms;
          alloc_words = alloc;
          rows_materialised = rows;
          join_self_ms = Float.of_int join /. 1e6;
          group_self_ms = Float.of_int group /. 1e6;
          scan_self_ms = Float.of_int scan /. 1e6;
          candidates = a.search_stats.Dqo_opt.Search.plans_considered;
          pruned = a.search_stats.Dqo_opt.Search.candidates_pruned;
          hier_partitions =
            (match a.hier with
            | Some h -> List.length h.Dqo_opt.Hier.partitions
            | None -> 0);
          cost = entry.Dqo_opt.Pareto.cost;
          max_q = Dqo_opt.Explain.max_q_error a.root;
          digest_ms;
          serve_ms;
          prepared_ms;
          wire_ms;
        })
  in
  let rec go acc = function
    | [] -> List.rev acc
    | i :: rest ->
      if
        List.length acc >= 3
        && Float.of_int (Clock.now_ns () - started) /. 1e9 >= budget_s
      then List.rev acc
      else go (replay i :: acc) rest
  in
  let replays = go [] indices in
  let _, tick_call_ms =
    time_ms (fun () ->
        Span.with_span tr ~rid:(-1000) "advisor.tick" (fun () ->
            Server.advisor_tick s.srv))
  in
  Wire_client.close conn;
  Server.close_session session;
  let spans = Span.spans tr in
  { spans; reduction = Span.reduce ~root:"request" spans; replays; tick_call_ms }

(* Which window requests the traced pass replays: the first statement
   routed hierarchically (if any), then an even spread of the rest. *)
let traced_indices (w : Workloads.t) eng samples =
  let idx = List.map (fun s -> s.index) samples in
  let hier =
    List.find_opt
      (fun i ->
        Workloads.relations_of_sql (w.request i)
        > (Engine.opts eng).Engine.hier_threshold)
      idx
  in
  let n = List.length idx in
  let stride = max 1 (n / 48) in
  let spread = List.filteri (fun k _ -> k mod stride = 0) idx in
  match hier with
  | Some h -> h :: List.filter (( <> ) h) spread
  | None -> spread

(* ------------------------------------------------------------------ *)
(* Output.                                                             *)

type metric = { mname : string; value : float; unit_ : string }

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

(* A failed request counts as infinitely slow, so a run with failures
   may have no finite tail; such metrics are left out of a result that
   is rejected anyway. *)
let result_line ~correct ~attempted ~failed metrics =
  let ms =
    List.filter_map
      (fun m ->
        if Float.is_finite m.value then
          Some
            (Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" m.mname
               (json_number m.value) m.unit_)
        else if correct && failed = 0 then
          fail "metric %s is not finite (%f)" m.mname m.value
        else None)
      metrics
  in
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    correct attempted failed (String.concat ", " ms)

(* ------------------------------------------------------------------ *)
(* Main.                                                               *)

let () =
  let args = parse_args () in
  let w = Option.get (Workloads.make ~seed:args.seed args.workload) in
  let data_bytes = Workloads.data_bytes w in
  Printf.printf
    "perfbench: workload=%s seed=%d seconds=%g trace=%d nproc=%d l3_bytes=%d \
     ocaml=%s git=%s clients=%d pool=%d data_bytes=%d\n%!"
    w.name args.seed args.seconds
    (if args.trace then 1 else 0)
    nproc args.l3_bytes Sys.ocaml_version args.git_sha w.clients nproc data_bytes;
  let s, setups, reference = setup_all w in
  let refs = reference_digests w reference in
  (* The cached statements' server handles, for the traced pass. *)
  let stmts = Hashtbl.create 8 in
  let bench_session = Server.open_session s.srv in
  List.iter
    (fun sql -> Hashtbl.replace stmts sql (Server.prepare bench_session sql))
    w.setup_sql;
  Server.close_session bench_session;
  (* Generate the stream ahead of the window: statement generation and
     its reference results stay off the measured path. *)
  for i = 0 to 599 do
    ignore (w.request i)
  done;
  let corrupted = if args.corrupt_reference then Some (w.request 0) else None in
  let expected sql =
    if corrupted = Some sql then Some "corrupted-reference"
    else
      match Hashtbl.find_opt refs sql with
      | Some d -> Some d
      | None -> w.naive_digest sql
  in
  Gc.full_major ();
  let heap_mb () =
    Float.of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
    /. 1048576.0
  in
  Printf.printf "set-up: %s s (register %s s); major heap peak %.0f MB\n%!"
    (String.concat " " (List.map (fun (t, _) -> Printf.sprintf "%.3f" t) setups))
    (String.concat " " (List.map (fun (_, r) -> Printf.sprintf "%.3f" r) setups))
    (heap_mb ());
  let before = snapshot s.srv in
  let samples, window_s, ticks, tick_errors =
    window w s ~seconds:args.seconds ~expected
  in
  let after = snapshot s.srv in
  (* Server-side state at the end of the window, before the traced pass
     adds executions of its own. *)
  let qwait =
    match Metrics.find_hist (Server.metrics s.srv) "serve.queue_wait_ms" with
    | Some h when Metrics.hist_count h > 0 -> Metrics.hist_quantile h 0.5
    | Some _ | None -> 0.0
  in
  let corrections = Dqo_cost.Feedback.size (Engine.corrections s.eng) in
  let av_bytes = Engine.av_bytes s.eng in
  Printf.printf "window done; major heap peak %.0f MB\n%!" (heap_mb ());
  let d = delta before after in
  let attempted = List.length samples in
  let failed = List.length (List.filter (fun x -> not x.ok) samples) in
  let mismatches = List.length (List.filter (fun x -> x.mismatch) samples) in
  let lat = Array.of_list (List.map (fun x -> x.latency_ms) samples) in
  let p50 = quantile lat 0.50 and p95 = quantile lat 0.95 in
  let beyond_p95 = Array.fold_left (fun n x -> if x > p95 then n + 1 else n) 0 lat in
  let completed = attempted - failed in
  let throughput = Float.of_int completed /. window_s in
  let error_rate = Float.of_int failed /. Float.of_int (max 1 attempted) in
  (* Plan quality, untimed, against the engine's end state, over the
     distinct statements of one whole round of the mix (every window
     issues it). *)
  let distinct =
    List.sort_uniq compare
      (List.init w.schedule.Workloads.close_every w.request)
  in
  let costs =
    List.map
      (fun sql ->
        (Engine.plan_sql s.eng (Engine.opts s.eng).Engine.mode sql).Dqo_opt.Pareto.cost)
      distinct
  in
  let plan_cost_geomean = geomean costs in
  let setup_s = median_l (List.map fst setups) in
  let register_s = median_l (List.map snd setups) in
  Printf.printf
    "window: %.2f s, %d requests (%d beyond p95), %d failed, %d digest \
     mismatches, error_rate=%g, %d ticks\n\
     latency_p50_ms=%.3f latency_p95_ms=%.3f throughput_qps=%.2f \
     setup_s=%.3f plan_cost_geomean=%.1f (%d statements)\n%!"
    window_s attempted beyond_p95 failed mismatches error_rate
    (List.length ticks) p50 p95 throughput setup_s plan_cost_geomean
    (List.length costs);
  (* Workload validity: fail loudly when a workload stops exercising
     what it claims. *)
  let hier_threshold = (Engine.opts s.eng).Engine.hier_threshold in
  if tick_errors <> [] then fail "advisor tick failed: %s" (List.hd tick_errors);
  if attempted < min_requests then
    fail "only %d requests in the window; p95 needs %d" attempted min_requests;
  (match w.name with
  | "serve_43" ->
    if d "serve.replans" <> 0 then fail "serve_43 replanned inside the window";
    if d "serve.cache_misses" <> 0 then fail "serve_43 planned inside the window"
  | "adhoc_joins" ->
    if d "serve.cache_hits" <> 0 then fail "adhoc_joins hit the statement cache";
    if
      not
        (List.exists
           (fun x -> Workloads.relations_of_sql (w.request x.index) > hier_threshold)
           samples)
    then fail "adhoc_joins issued no statement routed through Hier"
  | _ ->
    if d "advisor.installed" < 1 || d "advisor.evicted" < 1 then
      fail "skew_large: the advisor installed %d and evicted %d views"
        (d "advisor.installed") (d "advisor.evicted");
    if data_bytes < 2 * args.l3_bytes then
      fail "skew_large: %d data bytes are less than twice the L3 (%d)"
        data_bytes args.l3_bytes);
  let correct = mismatches = 0 in
  let e2e =
    [
      { mname = "latency_p50_ms"; value = p50; unit_ = "ms" };
      { mname = "latency_p95_ms"; value = p95; unit_ = "ms" };
      { mname = "throughput_qps"; value = throughput; unit_ = "1/s" };
      { mname = "setup_s"; value = setup_s; unit_ = "s" };
      { mname = "plan_cost_geomean"; value = plan_cost_geomean; unit_ = "cost" };
    ]
  in
  let metrics, spans_json =
    if not args.trace then (e2e, None)
    else begin
      let indices = traced_indices w s.eng samples in
      let t =
        trace_pass w s ~stmts ~indices ~budget_s:(Float.min args.seconds trace_budget_s)
      in
      let r = t.replays in
      let med f = median (Array.of_list (List.map f r)) in
      let mean f =
        List.fold_left (fun a x -> a +. f x) 0.0 r /. Float.of_int (max 1 (List.length r))
      in
      (* Median duration of the spans named [name]; 0 when none ran. *)
      let med_span name =
        let a =
          List.filter_map
            (fun (sp : Span.span) ->
              if sp.name = name then Some (Float.of_int (Span.duration_ns sp) /. 1e6)
              else None)
            t.spans
          |> Array.of_list
        in
        if Array.length a = 0 then 0.0 else median a
      in
      let nreq = List.length r in
      let per_req ns = Float.of_int ns /. 1e6 /. Float.of_int (max 1 nreq) in
      let red = t.reduction in
      let unattributed_share =
        Float.of_int red.unattributed_ns /. Float.of_int (max 1 red.total_ns)
      in
      if (w.name = "serve_43" || w.name = "adhoc_joins") && unattributed_share > 0.10
      then
        fail "named spans cover only %.1f%% of the traced request time"
          (100.0 *. (1.0 -. unattributed_share));
      let requests = max 1 (d "serve.requests") in
      let planned = d "serve.cache_misses" + d "serve.replans" in
      let sum_candidates = List.fold_left (fun a x -> a + x.candidates) 0 r in
      let sum_pruned = List.fold_left (fun a x -> a + x.pruned) 0 r in
      let layers = Span.by_layer red.self_ns in
      let traced_request_ms = med_span "request" in
      Printf.printf "traced pass: %d requests replayed, %d spans\n" nreq
        (List.length t.spans);
      List.iter
        (fun (layer, ns) ->
          Printf.printf "  %-12s %9.3f ms/request  %5.1f%%\n" layer (per_req ns)
            (100.0 *. Float.of_int ns /. Float.of_int (max 1 red.total_ns)))
        (layers @ [ ("unattributed", red.unattributed_ns) ]);
      let m mname value unit_ = { mname; value; unit_ } in
      let pl =
        [
          m "sql.parse_ms" (med_span "sql.parse") "ms";
          m "sql.bind_ms" (med_span "sql.bind") "ms";
          m "opt.plan_ms" (med_span "opt.plan") "ms";
          m "opt.candidates" (med (fun x -> Float.of_int x.candidates)) "count";
          m "opt.pruned_ratio"
            (Float.of_int sum_pruned /. Float.of_int (max 1 sum_candidates))
            "ratio";
          m "opt.hier_partitions"
            (Float.of_int (List.fold_left (fun a x -> max a x.hier_partitions) 0 r))
            "count";
          m "opt.plan_cost" (geomean (List.map (fun x -> x.cost) r)) "cost";
          m "cost.max_qerror" (List.fold_left (fun a x -> Float.max a x.max_q) 1.0 r) "ratio";
          m "cost.corrections" (Float.of_int corrections) "count";
          m "exec.execute_ms" (med (fun x -> x.exec_ms)) "ms";
          m "exec.join_self_ms" (mean (fun x -> x.join_self_ms)) "ms";
          m "exec.group_self_ms" (mean (fun x -> x.group_self_ms)) "ms";
          m "exec.scan_self_ms" (mean (fun x -> x.scan_self_ms)) "ms";
          m "exec.rows_materialised" (mean (fun x -> Float.of_int x.rows_materialised)) "count";
          m "exec.alloc_mwords" (mean (fun x -> x.alloc_words /. 1e6)) "Mwords";
          m "par.speedup" (med (fun x -> x.exec1_ms) /. med (fun x -> x.exec_ms)) "ratio";
          m "data.register_s" register_s "s";
          m "serve.queue_wait_ms" qwait "ms";
          m "serve.overhead_ms" (med (fun x -> x.serve_ms -. x.prepared_ms)) "ms";
          m "serve.cache_hit_ratio"
            (1.0 -. (Float.of_int planned /. Float.of_int requests))
            "ratio";
          m "serve.replans" (Float.of_int (d "serve.replans")) "count";
          m "serve.rejected" (Float.of_int (d "serve.rejected")) "count";
          m "wire.digest_ms" (med (fun x -> x.digest_ms)) "ms";
          m "wire.encode_ms" (med (fun x -> x.wire_ms -. x.serve_ms -. x.digest_ms)) "ms";
          m "wire.bytes_per_request"
            (Float.of_int (List.fold_left (fun a x -> a + x.bytes) 0 samples)
            /. Float.of_int (max 1 attempted))
            "bytes";
          m "advisor.tick_ms"
            (match ticks with [] -> t.tick_call_ms | l -> median_l l)
            "ms";
          m "advisor.installed" (Float.of_int (d "advisor.installed")) "count";
          m "advisor.evicted" (Float.of_int (d "advisor.evicted")) "count";
          m "av.bytes" (Float.of_int av_bytes) "bytes";
          m "trace.request_ms" traced_request_ms "ms";
          m "trace.unattributed_share" unattributed_share "ratio";
          m "trace.vs_untraced" (traced_request_ms /. p50) "ratio";
        ]
      in
      (pl, Some (Span.to_json t.spans))
    end
  in
  teardown s;
  (match args.out_dir with
  | None -> ()
  | Some dir ->
    let module Json = Dqo_obs.Json in
    (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
    let path kind =
      Filename.concat dir
        (Printf.sprintf "%s-seed%d-trace%d-%s.json" w.name args.seed
           (if args.trace then 1 else 0)
           kind)
    in
    let num v = if Float.is_finite v then Json.Float v else Json.Null in
    Json.to_file (path "record")
      (Json.Obj
         [
           ("workload", Json.String w.name);
           ("seed", Json.Int args.seed);
           ("nproc", Json.Int nproc);
           ("l3_bytes", Json.Int args.l3_bytes);
           ("ocaml", Json.String Sys.ocaml_version);
           ("git_sha", Json.String args.git_sha);
           ("clients", Json.Int w.clients);
           ("pool", Json.Int nproc);
           ("data_bytes", Json.Int data_bytes);
           ("window_s", Json.Float window_s);
           ("requests", Json.Int attempted);
           ("beyond_p95", Json.Int beyond_p95);
           ("failed", Json.Int failed);
           ("digest_mismatches", Json.Int mismatches);
           ("error_rate", Json.Float error_rate);
           ("ticks_ms", Json.List (List.map (fun t -> Json.Float t) ticks));
           ( "metrics",
             Json.Obj
               (List.map
                  (fun m ->
                    ( m.mname,
                      Json.Obj [ ("value", num m.value); ("unit", Json.String m.unit_) ] ))
                  metrics) );
           ( "latencies_ms",
             Json.List (List.map (fun x -> num x.latency_ms) samples) );
         ]);
    Option.iter (fun spans -> Json.to_file (path "spans") spans) spans_json);
  if mismatches > 0 then
    Printf.printf "digest mismatches: %d of %d requests\n" mismatches attempted;
  print_endline (result_line ~correct ~attempted ~failed metrics);
  exit (if correct && failed = 0 then 0 else 1)
