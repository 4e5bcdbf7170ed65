(* One socket run of a workload: write the graph, spawn the shipped
   server, warm it up, measure a window, verify the answers against an
   in-process reference engine, stop the server. *)

open Nd_graph
module E = Nd_engine
module Vec = Nd_util.Vec
module W = Workload

type cfg = {
  fodb : string;
  seed : int;
  seconds : float;  (** the measured window *)
  traced : bool;
  smoke : bool;
}

type metric = { name : string; value : float; unit : string; samples : int }

let metric name value unit samples = { name; value; unit; samples }

type outcome = {
  metrics : metric list;  (** the JSON line's: end-to-end, or per-layer when traced *)
  details : metric list;  (** printed beside them, not in the JSON line *)
  attempted : int;
  failed : int;
  notes : string list;
}

let ns_of_s s = int_of_float (s *. 1e9)
let s_of_ns n = float_of_int n *. 1e-9

(* ---------------- accounting ---------------- *)

(* Requests sent and checks made, and those that failed: err replies,
   transport failures and verification mismatches.  Shared by both
   connection threads. *)
type tally = {
  m : Mutex.t;
  mutable attempted : int;
  mutable failed : int;
  mutable notes : string list;
}

let attempt t = Mutex.protect t.m (fun () -> t.attempted <- t.attempted + 1)

let fail t msg =
  Mutex.protect t.m (fun () ->
      t.failed <- t.failed + 1;
      if List.length t.notes < 10 then t.notes <- msg :: t.notes)

let check t ok msg =
  attempt t;
  if not ok then fail t msg

(* One request; [None] when the connection failed, which ends the loop
   that sent it. *)
let request t c line =
  attempt t;
  match Conn.request c line with
  | reply ->
      (match List.rev reply with
      | last :: _ when String.starts_with ~prefix:"err " last -> fail t (line ^ " -> " ^ last)
      | _ -> ());
      Some reply
  | exception Conn.Transport m ->
      fail t (line ^ ": " ^ m);
      None

(* ---------------- passes ---------------- *)

(* A pass over the answer set: count, an order-sensitive hash, and
   whether it was strictly ascending. *)
type pass = { mutable count : int; mutable hash : int; mutable last : int array; mutable ordered : bool }

let new_pass () = { count = 0; hash = 0; last = [||]; ordered = true }

let feed p t =
  if p.count > 0 && Nd_util.Tuple.compare t p.last <= 0 then p.ordered <- false;
  p.last <- t;
  p.count <- p.count + 1;
  p.hash <- Array.fold_left (fun h x -> (h * 1_000_003) + x) ((p.hash * 31) + 1) t

let engine_pass eng =
  let p = new_pass () in
  E.enumerate (feed p) eng;
  p

(* ---------------- per-connection samples ---------------- *)

type col = {
  at : int Vec.t;  (** completion time, ns *)
  dur : int Vec.t;  (** round trip (from the due time for updates), ns *)
  size : int Vec.t;  (** solutions delivered *)
  stamped : (int * int) Vec.t;  (** traced runs: (stamp, round trip ns) *)
}

let new_col () =
  {
    at = Vec.create ~dummy:0 ();
    dur = Vec.create ~dummy:0 ();
    size = Vec.create ~dummy:0 ();
    stamped = Vec.create ~dummy:(0, 0) ();
  }

let record col ~t1 ~rtt ~size ~stamp =
  Vec.push col.at t1;
  Vec.push col.dur rtt;
  Vec.push col.size size;
  Option.iter (fun n -> Vec.push col.stamped (n, rtt)) stamp

(* Traced runs stamp the attributed request class with trace=perf:<n>,
   which the front end records on its request span. *)
let stamps = Atomic.make 0

let stamp traced line =
  if traced then
    let n = Atomic.fetch_and_add stamps 1 + 1 in
    (Printf.sprintf "%s trace=perf:%d" line n, Some n)
  else (line, None)

type ctx = {
  cfg : cfg;
  tally : tally;
  w : W.t;
  stamp_pages : bool;  (** traced runs attribute pages… *)
  stamp_reads : bool;  (** …or reads, never both *)
}

(* ---------------- the three request loops ---------------- *)

(* One page of 1000; [Some complete], or [None] on a broken connection. *)
let page ctx c ~col ~stamped p =
  let line, n = stamp (stamped && ctx.stamp_pages) "enumerate 1000" in
  let t0 = Stat.now_ns () in
  match request ctx.tally c line with
  | None -> None
  | Some reply ->
      let t1 = Stat.now_ns () in
      let sols = ref 0 and complete = ref false in
      List.iter
        (fun l ->
          if String.starts_with ~prefix:"sol " l then begin
            incr sols;
            feed p (Conn.parse_tuple l 4)
          end
          else if String.starts_with ~prefix:"end " l then begin
            complete := String.ends_with ~suffix:" complete" l;
            check ctx.tally
              (Scanf.sscanf_opt l "end %d" Fun.id = Some !sols)
              ("page count mismatch: " ^ l)
          end)
        reply;
      record col ~t1 ~rtt:(t1 - t0) ~size:!sols ~stamp:n;
      Some !complete

(* Pages until the deadline; every completed pass is kept for the
   reference check, then the cursor is rewound. *)
let page_loop ctx c ~until ~col ~passes =
  let rec go p =
    if Stat.now_ns () >= until then check ctx.tally p.ordered "page stream not ascending"
    else
      match page ctx c ~col ~stamped:true p with
      | None -> ()
      | Some false -> go p
      | Some true -> (
          passes := p :: !passes;
          match request ctx.tally c "reset" with None -> () | Some _ -> go (new_pass ()))
  in
  go (new_pass ())

(* A whole pass from a rewound cursor; its duration and the pass. *)
let full_pass ctx c =
  let col = new_col () in
  let p = new_pass () in
  let t0 = Stat.now_ns () in
  let rec go () =
    match page ctx c ~col ~stamped:false p with
    | Some false -> go ()
    | Some true -> Some (s_of_ns (Stat.now_ns () - t0), p)
    | None -> None
  in
  let r = go () in
  ignore (request ctx.tally c "reset");
  r

type answer = Sol of int array | No_sol | Bool of bool

(* Every 1000th reply is kept for the reference check. *)
let read ctx c ~gen ~col ~samples ~k =
  let is_next, t = gen () in
  let base = (if is_next then "next " else "test ") ^ W.tuple_string t in
  let line, n = stamp ctx.stamp_reads base in
  let t0 = Stat.now_ns () in
  match request ctx.tally c line with
  | None -> false
  | Some reply ->
      let t1 = Stat.now_ns () in
      record col ~t1 ~rtt:(t1 - t0) ~size:1 ~stamp:n;
      (if k mod 1000 = 0 then
         let ans =
           match reply with
           | [ d; "ok" ] when String.starts_with ~prefix:"sol " d -> Some (Sol (Conn.parse_tuple d 4))
           | [ "none"; "ok" ] -> Some No_sol
           | [ "true"; "ok" ] -> Some (Bool true)
           | [ "false"; "ok" ] -> Some (Bool false)
           | _ -> None
         in
         match ans with
         | Some a -> samples := (is_next, t, a) :: !samples
         | None -> fail ctx.tally ("malformed reply to " ^ base));
      true

let read_loop ctx c ~gen ~until ~col ~samples =
  let rec go k = if Stat.now_ns () < until && read ctx c ~gen ~col ~samples ~k then go (k + 1) in
  go 0

(* One mutation; the reply must report the next epoch.  [false] on a
   broken connection. *)
let update ctx c m ~applied =
  let want = Printf.sprintf "epoch %d applied 1" (List.length !applied + 1) in
  match request ctx.tally c ("update " ^ Cgraph.mutation_to_string m) with
  | None -> false
  | Some reply ->
      (match reply with
      | l :: _ when String.starts_with ~prefix:want l -> applied := m :: !applied
      | l :: _ -> fail ctx.tally ("unexpected update reply: " ^ l)
      | [] -> fail ctx.tally "empty update reply");
      true

(* Open loop: update i is due at start + i/rate whatever the server
   did with update i-1, and its latency counts from the due time. *)
let writer ctx c ~start ~until ~muts ~col ~late ~applied =
  let period = ns_of_s (1. /. W.update_hz) in
  let rec go i =
    let due = start + (i * period) in
    if due < until then begin
      let wait = due - Stat.now_ns () in
      if wait > 0 then Proc.sleep (s_of_ns wait);
      let t0 = Stat.now_ns () in
      if update ctx c (muts ()) ~applied then begin
        let t1 = Stat.now_ns () in
        Vec.push late (t0 - due);
        record col ~t1 ~rtt:(t1 - due) ~size:0 ~stamp:None;
        go (i + 1)
      end
    end
  in
  go 0

(* Run [f] on its own thread; an escaping exception is a failure, not a
   silently dead connection. *)
let spawn_thread ctx f =
  Thread.create
    (fun () -> try f () with e -> fail ctx.tally ("client thread: " ^ Printexc.to_string e))
    ()

(* ---------------- the server ---------------- *)

type server = { proc : Proc.t; setup_s : float; conn : Conn.t }

(* Spawn at fodb's defaults and wait for the first "health ok": the time
   users wait before the first answer, parsing and prepare included. *)
let start ctx ~dir ~gfile ~tag =
  let sock = Filename.concat dir (tag ^ ".sock") in
  let fleet_dir = Filename.concat dir (tag ^ "-fleet") in
  let events = Filename.concat dir (tag ^ ".events.jsonl") in
  let common = [ "-g"; gfile; "-q"; ctx.w.W.query; "--colors"; "2"; "--socket"; sock ] in
  let args =
    if ctx.w.W.fleet then
      ("cluster" :: common)
      @ [ "--shards"; "2"; "--replicas"; "1"; "--dir"; fleet_dir ]
      @ if ctx.cfg.traced then [ "--trace"; "--event-log"; events ] else []
    else
      ("serve" :: common)
      @
      if ctx.cfg.traced then
        [ "--event-log"; events; "--trace"; Filename.concat dir (tag ^ ".trace.json") ]
      else []
  in
  let t0 = Stat.now_ns () in
  let proc = Proc.spawn ~log:(Filename.concat dir (tag ^ ".log")) ctx.cfg.fodb args in
  let deadline = t0 + ns_of_s 150. in
  let rec ready () =
    if Proc.exited proc then
      failwith (Printf.sprintf "%s exited during start-up (log: %s/%s.log)" ctx.cfg.fodb dir tag);
    if Stat.now_ns () > deadline then failwith "server not ready within 150 s";
    let retry c =
      Option.iter Conn.close c;
      Proc.sleep 0.002;
      ready ()
    in
    if not (Sys.file_exists sock) then retry None
    else
      match Conn.connect sock with
      | exception Unix.Unix_error _ -> retry None
      | c -> (
          match Conn.request c "health" with
          | l :: _ when String.starts_with ~prefix:"health ok" l -> c
          | _ | (exception Conn.Transport _) -> retry (Some c))
  in
  let conn = ready () in
  { proc; setup_s = s_of_ns (Stat.now_ns () - t0); conn }

let stop ctx s =
  Conn.close s.conn;
  if not (Proc.stop ~grace:(if ctx.cfg.traced then 30. else 10.) s.proc) then
    fail ctx.tally "server ignored SIGTERM and was killed"

(* ---------------- reference checks ---------------- *)

let reference_engine g phi =
  Nd_util.Metrics.disable ();
  E.prepare ~cache_limit:0 g phi

let check_passes ctx ~what ref_pass passes =
  List.iter
    (fun p ->
      check ctx.tally p.ordered (what ^ ": pass not strictly ascending");
      check ctx.tally
        (p.count = ref_pass.count && p.hash = ref_pass.hash)
        (Printf.sprintf "%s: pass of %d solutions differs from the reference (%d)" what p.count
           ref_pass.count))
    passes

(* Sampled replies against the reference engine; the first few also
   against the naive evaluator. *)
let check_reads ctx eng g phi samples =
  let naive = Nd_eval.Naive.ctx g in
  List.iteri
    (fun i (is_next, t, ans) ->
      let ok =
        match (is_next, ans) with
        | true, Sol s -> E.next eng t = Some s && (i >= 3 || Nd_eval.Naive.holds naive phi s)
        | true, No_sol -> E.next eng t = None
        | false, Bool b -> E.test eng t = b && (i >= 3 || Nd_eval.Naive.holds naive phi t = b)
        | _ -> false
      in
      check ctx.tally ok
        (Printf.sprintf "%s %s: reply disagrees with the reference"
           (if is_next then "next" else "test")
           (W.tuple_string t)))
    samples

(* ---------------- the run ---------------- *)

(* Solutions (or requests) per one-second slice of the window, each
   reply's count spread evenly over its round trip so a slice's rate is
   not quantised to whole pages. *)
let slices ~start ~until col =
  let width = ns_of_s 1. in
  let nb = max 1 ((until - start + width - 1) / width) in
  let acc = Array.make nb 0. in
  Vec.iteri
    (fun i t1 ->
      let t0 = t1 - Vec.get col.dur i and size = float_of_int (Vec.get col.size i) in
      let a = max t0 start and b = min t1 until in
      if b > a then
        for k = (a - start) / width to (b - 1 - start) / width do
          let lo = max a (start + (k * width)) and hi = min b (start + ((k + 1) * width)) in
          acc.(k) <- acc.(k) +. (size *. float_of_int (hi - lo) /. float_of_int (max 1 (t1 - t0)))
        done)
    col.at;
  (* a short last slice is scaled to a full second *)
  let last = s_of_ns (until - start - ((nb - 1) * width)) in
  acc.(nb - 1) <- acc.(nb - 1) /. last;
  acc

let latencies ~start ~until col =
  let v = ref [] in
  Vec.iteri
    (fun i t1 -> if t1 >= start && t1 < until then v := float_of_int (Vec.get col.dur i) :: !v)
    col.at;
  Array.of_list !v

type result = {
  outcome : outcome;
  graph : Cgraph.t;
  run_dir : string;
  stamped : (int * int) list;
  ping_us : float;
  traced_setup_s : float;
  served_prepare_s : float option;  (** the server's engine.prepare phase *)
}

let run cfg w =
  let ctx =
    {
      cfg;
      tally = { m = Mutex.create (); attempted = 0; failed = 0; notes = [] };
      w;
      stamp_pages = cfg.traced && W.traced_stream w = W.Pages;
      stamp_reads = cfg.traced && W.traced_stream w = W.Reads;
    }
  in
  let dir = Proc.fresh_dir () in
  let seed = cfg.seed in
  let g = W.graph w ~smoke:cfg.smoke ~seed in
  let phi = W.query w in
  let n = Cgraph.n g and arity = Nd_logic.Fo.arity phi in
  let gfile = Filename.concat dir "graph.txt" in
  W.write_graph gfile g;
  let passes = ref [] and samples = ref [] in
  (* warm-up reads come from stream 0, window reads from stream 1, which
     is the stream the in-process layer pass replays *)
  let gen stream = W.reads ~seed ~stream ~n ~arity in
  let warm_gen = gen 0 and read_gen = gen 1 in
  let warm_reads = if cfg.smoke then 2_000 else 50_000 in
  (* warm-up: the first full pass, or a fixed number of reads *)
  let warm_up c =
    match w.W.conn0 with
    | W.Pages -> (
        match full_pass ctx c with
        | Some (s, p) ->
            passes := p :: !passes;
            s
        | None -> failwith "first pass failed")
    | _ ->
        let t0 = Stat.now_ns () and col = new_col () and sink = ref [] in
        for k = 1 to warm_reads do
          ignore (read ctx c ~gen:warm_gen ~col ~samples:sink ~k)
        done;
        s_of_ns (Stat.now_ns () - t0)
  in
  (* set-up and warm-up are each the median over three servers outside
     traced runs; the last one goes on into the window *)
  let spawns = if cfg.traced then 1 else 3 in
  let rec spawn i acc =
    let s = start ctx ~dir ~gfile ~tag:(if i = spawns then "server" else Printf.sprintf "probe%d" i) in
    let acc = (s.setup_s, warm_up s.conn) :: acc in
    if i = spawns then (s, acc)
    else begin
      stop ctx s;
      spawn (i + 1) acc
    end
  in
  let srv, starts = spawn 1 [] in
  let setups = Array.of_list (List.map fst starts) and warmups = Array.of_list (List.map snd starts) in
  let c0 = srv.conn in
  let c1 = Option.map (fun _ -> Conn.connect (Filename.concat dir "server.sock")) w.W.conn1 in
  (* update-mix warms up with one add/remove pair as well: the first
     update after the first pass evicts the whole 100 000-solution cache
     (over a second on enum-scan's graph), a one-off that would
     otherwise set the window's tail *)
  let applied = ref [] in
  let muts = W.mutations g ~spec:(W.spec w ~smoke:cfg.smoke) ~seed in
  if w.W.conn1 = Some W.Updates then
    for _ = 1 to 2 do
      ignore (update ctx (Option.get c1) (muts ()) ~applied)
    done;
  (* the server's own prepare timer, which [setup.other_s] is taken
     against; the router reports no engine phases *)
  let served_prepare_s =
    if cfg.traced && not w.W.fleet then
      match request ctx.tally c0 "stats" with
      | Some (doc :: _) -> (
          match Nd_trace.Json.parse doc with
          | Ok j -> (
              match Option.bind (Nd_trace.Json.member "phases_s" j) (Nd_trace.Json.member "engine.prepare") with
              | Some (Nd_trace.Json.Num s) -> Some s
              | _ -> None)
          | Error _ -> None)
      | _ -> None
    else None
  in
  let ping_us =
    if cfg.traced then
      Stat.median
        (Array.init 200 (fun _ ->
             let t0 = Stat.now_ns () in
             ignore (request ctx.tally c0 "epoch");
             float_of_int (Stat.now_ns () - t0) /. 1e3))
    else Float.nan
  in
  (* the measured window *)
  let window = if cfg.traced then Float.min cfg.seconds 5. else cfg.seconds in
  let col0 = new_col () and col1 = new_col () in
  let late = Vec.create ~dummy:0 () in
  let start_ns = Stat.now_ns () in
  let until = start_ns + ns_of_s window in
  let th =
    Option.map
      (fun s ->
        let c = Option.get c1 in
        spawn_thread ctx (fun () ->
            match s with
            | W.Updates -> writer ctx c ~start:start_ns ~until ~muts ~col:col1 ~late ~applied
            | _ -> read_loop ctx c ~gen:read_gen ~until ~col:col1 ~samples))
      w.W.conn1
  in
  (match w.W.conn0 with
  | W.Pages -> page_loop ctx c0 ~until ~col:col0 ~passes
  | _ -> read_loop ctx c0 ~gen:read_gen ~until ~col:col0 ~samples);
  Option.iter Thread.join th;
  let rss, procs = Proc.rss_mb srv.proc in
  (* verification phase: the final graph, by one full pass — or, in a
     traced run, by reads, since a pass would flush the window's spans
     out of the ring *)
  let updating = w.W.conn1 = Some W.Updates in
  let final_pass, final_samples =
    if not updating then (None, [])
    else if cfg.traced then begin
      let col = new_col () and sink = ref [] in
      let gen = gen 2 in
      for k = 0 to 199 do
        ignore (read ctx c0 ~gen ~col ~samples:sink ~k:(k * 1000))
      done;
      (None, !sink)
    end
    else begin
      ignore (request ctx.tally c0 "reset");
      ((match full_pass ctx c0 with Some (_, p) -> Some p | None -> None), [])
    end
  in
  Option.iter Conn.close c1;
  stop ctx srv;
  (* reference checks, after the server is gone so they cannot slow it *)
  let reference = reference_engine g phi in
  (* update-mix passes in the window span several epochs: only their
     order is checked (in [page_loop]); the warm-up passes precede every
     update *)
  let checked = if updating then List.filteri (fun i _ -> i >= List.length !passes - spawns) !passes else !passes in
  if checked <> [] then check_passes ctx ~what:"pass" (engine_pass reference) checked;
  check_reads ctx reference g phi !samples;
  if updating then begin
    let final = reference_engine (List.fold_left Cgraph.apply g (List.rev !applied)) phi in
    match final_pass with
    | Some p -> check_passes ctx ~what:"post-update pass" (engine_pass final) [ p ]
    | None when cfg.traced -> check_reads ctx final (E.graph final) phi final_samples
    | None -> fail ctx.tally "post-update pass failed"
  end;
  (* metrics *)
  let col_of = function
    | W.Pages -> col0
    | W.Reads -> if w.W.conn0 = W.Reads then col0 else col1
    | W.Updates -> col1
  in
  let lat_of stream = latencies ~start:start_ns ~until (col_of stream) in
  let rate_slices = slices ~start:start_ns ~until col0 in
  let rate = Stat.median rate_slices in
  let nslices = Array.length rate_slices in
  let head = lat_of w.W.headline in
  let nhead = Array.length head in
  let ms x = x *. 1e-6 and us x = x *. 1e-3 in
  let e2e =
    [
      metric "setup_s" (Stat.median setups) "s" spawns;
      metric "warmup_s" (Stat.median warmups) "s" spawns;
      metric "rate_per_s" rate "1/s" nslices;
      metric "p50_ms" (ms (Stat.percentile head 50.)) "ms" nhead;
      metric "tail_ms" (ms (Stat.percentile head 95.)) "ms" nhead;
      metric "rss_mb" rss "MB" procs;
    ]
  in
  let warmup_s = Stat.median warmups in
  let details =
    (match w.W.conn0 with
    | W.Pages ->
        let pages = lat_of W.Pages in
        let np = Array.length pages in
        [
          metric "first_scan_s" warmup_s "s" spawns;
          metric "sols_per_s" rate "solutions/s" nslices;
          metric "page_p50_ms" (ms (Stat.percentile pages 50.)) "ms" np;
          metric "page_p95_ms" (ms (Stat.percentile pages 95.)) "ms" np;
        ]
    | _ -> [])
    @ (if w.W.conn0 = W.Reads || w.W.conn1 = Some W.Reads then
         let reads = lat_of W.Reads in
         let nr = Array.length reads in
         [
           metric "reads_per_s" (Stat.median (slices ~start:start_ns ~until (col_of W.Reads))) "requests/s" nslices;
           metric "read_p50_us" (us (Stat.percentile reads 50.)) "us" nr;
           metric "read_p99_us" (us (Stat.percentile reads 99.)) "us" nr;
         ]
       else [])
    @ (if updating then
         let ups = lat_of W.Updates in
         let nu = Array.length ups in
         [
           metric "update_p50_ms" (ms (Stat.percentile ups 50.)) "ms" nu;
           metric "update_p95_ms" (ms (Stat.percentile ups 95.)) "ms" nu;
           metric "client.writer_late_p99_ms"
             (ms (Stat.percentile (Array.map float_of_int (Vec.to_array late)) 99.))
             "ms" (Vec.length late);
         ]
       else [])
  in
  let stamped = Vec.to_list col0.stamped @ Vec.to_list col1.stamped in
  let t = ctx.tally in
  let outcome =
    {
      metrics = e2e;
      details =
        details
        @ [
            metric "failed_frac"
              (float_of_int t.failed /. float_of_int (max 1 t.attempted))
              "failed/attempted" t.attempted;
          ];
      attempted = t.attempted;
      failed = t.failed;
      notes = List.rev t.notes;
    }
  in
  { outcome; graph = g; run_dir = dir; stamped; ping_us; traced_setup_s = srv.setup_s; served_prepare_s }
