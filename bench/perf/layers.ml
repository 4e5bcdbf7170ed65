(* Per-layer metrics measured in process (source (b) in the README): the
   workload's graph, query and seeded read stream replayed through each
   layer's public functions, each call timed from outside with tracing
   off unless the metric is about tracing. *)

open Nd_graph
module E = Nd_engine
module M = Nd_util.Metrics
module W = Workload

let metric = Drive.metric

(* Solutions enumerated by one "pass": the whole answer set when it is
   smaller (every workload but point-mix). *)
let cap = 600_000

let ns = Stat.now_ns

let time f =
  let t0 = ns () in
  let r = f () in
  (r, ns () - t0)

(* Median per-call microseconds of [f] over [xs], timed in blocks of 64
   calls so the clock's own cost stays out of sub-microsecond calls. *)
let per_call_us f xs =
  let b = 64 in
  let nb = Array.length xs / b in
  Stat.median
    (Array.init nb (fun i ->
         let t0 = ns () in
         for j = 0 to b - 1 do
           f xs.((i * b) + j)
         done;
         float_of_int (ns () - t0) /. float_of_int b /. 1e3))

let counter name = M.value (M.counter name)

(* A capped pass timing every delivery; also the start tuple of every
   1000-solution page and a sample of the solutions it met. *)
type pass = { secs : float; delays : float array; starts : int array array; sols : int array array }

let timed_pass eng =
  let n = Cgraph.n (E.graph eng) in
  let delays = Nd_util.Vec.create ~dummy:0. () in
  let starts = Nd_util.Vec.create ~dummy:[||] () in
  let sols = Nd_util.Vec.create ~dummy:[||] () in
  let t0 = ns () in
  let rec go a i =
    if i < cap then begin
      if i mod 1000 = 0 then Nd_util.Vec.push starts a;
      let t = ns () in
      match E.next eng a with
      | None -> ()
      | Some s -> (
          Nd_util.Vec.push delays (float_of_int (ns () - t));
          if i mod 97 = 0 then Nd_util.Vec.push sols s;
          match Nd_util.Tuple.succ ~n s with Some a' -> go a' (i + 1) | None -> ())
    end
  in
  go (Nd_util.Tuple.min (E.arity eng)) 0;
  {
    secs = Drive.s_of_ns (ns () - t0);
    delays = Nd_util.Vec.to_array delays;
    starts = Nd_util.Vec.to_array starts;
    sols = Nd_util.Vec.to_array sols;
  }

(* 1000 steps of enumeration from [start]. *)
let page eng start =
  let n = Cgraph.n (E.graph eng) in
  let rec go a i =
    if i < 1000 then
      match E.next eng a with
      | Some s -> ( match Nd_util.Tuple.succ ~n s with Some a' -> go a' (i + 1) | None -> ())
      | None -> ()
  in
  go start 0

let pick k a =
  let n = Array.length a in
  if n <= k then a else Array.init k (fun i -> a.(i * n / k))

type input = {
  w : W.t;
  smoke : bool;
  seed : int;
  g : Cgraph.t;
  phi : Nd_logic.Fo.t;
  nexts : int array array;  (** the read stream's next tuples… *)
  tests : int array array;  (** …and its test tuples *)
}

let next e t = ignore (Sys.opaque_identity (E.next e t))
let test e t = ignore (Sys.opaque_identity (E.test e t))

(* The handle fodb serve runs (metrics on, 100 000-solution cache):
   set-up phases, snapshot, first pass, warm reads and pages with and
   without instrumentation, the store behind the cache, updates.
   Returns the metrics plus what the live-pipeline pass compares
   against: the first pass's time, the warm page time and the sampled
   page starts. *)
let served i ~dir =
  let { w; smoke; seed; g; phi; nexts; tests } = i in
  let reads = Array.length nexts + Array.length tests in
  M.reset ();
  let eng = E.prepare ~metrics:true g phi in
  let phases = M.phases () in
  let phase p = Option.value ~default:0. (List.assoc_opt p phases) in
  let snap = Filename.concat dir "layers.snap" in
  let bytes, save_ns = time (fun () -> Nd_snapshot.save ~path:snap eng) in
  let loaded, load_ns = time (fun () -> Nd_snapshot.load_routed ~path:snap g phi) in
  ignore (Sys.opaque_identity loaded);
  Proc.rm_rf snap;
  let first = timed_pass eng in
  let starts = pick (if smoke then 4 else 24) first.starts in
  let hits0 = counter "engine.cache_hits" in
  let next_us = per_call_us (next eng) nexts in
  let test_us = per_call_us (test eng) tests in
  let hit_frac = float_of_int (counter "engine.cache_hits" - hits0) /. float_of_int reads in
  (* paired arms on the same warm handle: metrics on, off, and on with
     tracing, alternating their order page by page *)
  M.disable ();
  let next_off_us = per_call_us (next eng) nexts in
  let on = ref [] and off = ref [] and traced = ref [] in
  let arms =
    [ ((fun () -> M.enable ()), on); ((fun () -> M.disable ()), off); ((fun () -> M.enable (); Nd_trace.enable ()), traced) ]
  in
  Array.iteri
    (fun k s ->
      List.iter
        (fun (enable, acc) ->
          enable ();
          acc := (Drive.s_of_ns (snd (time (fun () -> page eng s))) *. 1e3) :: !acc;
          Nd_trace.disable ())
        (if k mod 2 = 0 then arms else List.rev arms))
    starts;
  Nd_trace.clear ();
  M.enable ();
  let med l = Stat.median (Array.of_list !l) in
  let page_ms = med on in
  (* the Theorem 3.1 store behind the cache *)
  let store = Option.map (fun i -> i.E.Persist.si_store) (E.Persist.export_image eng) in
  let store_ns f keys =
    match store with
    | Some st when Array.length keys > 0 -> per_call_us (fun k -> ignore (Sys.opaque_identity (f st k))) keys *. 1e3
    | _ -> 0.
  in
  let cached =
    match store with
    | Some st -> Array.of_list (List.filter (Nd_ram.Store.mem st) (Array.to_list first.sols))
    | None -> [||]
  in
  let succ_geq_ns = store_ns Nd_ram.Store.succ_geq nexts in
  let find_ns = store_ns Nd_ram.Store.find (Array.init 4096 (fun k -> cached.(k mod max 1 (Array.length cached)))) in
  let registers = match store with Some st -> float_of_int (Nd_ram.Store.space st) | None -> 0. in
  (* updates on the warm handle: a chord added, then removed *)
  let nup = if smoke then 2 else 4 in
  let muts = W.mutations g ~spec:(W.spec w ~smoke) ~seed in
  let ev0 = counter "engine.cache_evicted" and bags0 = counter "answer.update_bags" in
  let apply_us = ref [] and engine_ms = ref [] in
  for _ = 1 to nup do
    let m = muts () in
    let _, a = time (fun () -> Cgraph.apply (E.graph eng) m) in
    let (), u = time (fun () -> E.update eng m) in
    apply_us := (float_of_int a /. 1e3) :: !apply_us;
    engine_ms := (float_of_int u /. 1e6) :: !engine_ms
  done;
  let per_up c0 name = float_of_int (counter name - c0) /. float_of_int nup in
  let nn = Array.length nexts and nt = Array.length tests and np = Array.length starts in
  let nd = Array.length first.delays in
  ( [
      metric "engine.next_us" next_us "us" nn;
      metric "engine.test_us" test_us "us" nt;
      metric "engine.page_ms" page_ms "ms" np;
      metric "engine.first_pass_s" first.secs "s" nd;
      metric "engine.delay_p50_us" (Stat.median first.delays /. 1e3) "us" nd;
      metric "engine.delay_p99_us" (Stat.percentile first.delays 99. /. 1e3) "us" nd;
      metric "cache.hit_frac" hit_frac "fraction" reads;
      metric "cache.evicted_per_update" (per_up ev0 "engine.cache_evicted") "count" nup;
      metric "store.succ_geq_ns" succ_geq_ns "ns" nn;
      metric "store.find_ns" find_ns "ns" 4096;
      metric "store.registers" registers "count" 1;
      metric "update.engine_ms" (Stat.median (Array.of_list !engine_ms)) "ms" nup;
      metric "update.apply_us" (Stat.median (Array.of_list !apply_us)) "us" nup;
      metric "update.dirty_bags" (per_up bags0 "answer.update_bags") "count" nup;
      metric "obs.metrics_cost_scan" (page_ms /. med off) "ratio" np;
      metric "obs.metrics_cost_point" (next_us /. next_off_us) "ratio" nn;
      metric "obs.trace_cost" (med traced /. page_ms) "ratio" np;
      metric "setup.prepare_s" (phase "engine.prepare") "s" 1;
      metric "setup.compile_s" (phase "compile") "s" 1;
      metric "setup.cover_s" (phase "cover.compute") "s" 1;
      metric "setup.dist_index_s" (phase "dist_index.build") "s" 1;
      metric "setup.local_eval_s" (phase "answer.local_eval") "s" 1;
      (* self time: kernels, labels, skip pointers and sentences *)
      metric "setup.answer_build_s"
        (phase "answer.build" -. phase "cover.compute" -. phase "dist_index.build" -. phase "answer.local_eval")
        "s" 1;
      metric "setup.snapshot_save_s" (Drive.s_of_ns save_ns) "s" 1;
      metric "setup.snapshot_load_s" (Drive.s_of_ns load_ns) "s" 1;
      metric "setup.snapshot_mb" (float_of_int bytes /. 1048576.) "MB" 1;
    ],
    first.secs,
    page_ms,
    starts )

(* The live Theorem 2.3 pipeline: a cache_limit:0 handle, metrics off;
   the work counters come from a separate metrics-on replay. *)
let live i ~core ~first_s ~page_ms ~starts =
  let { w; smoke; seed; phi; nexts; tests; _ } = i in
  M.disable ();
  let pass = timed_pass core in
  let core_page_ms = Stat.median (Array.map (fun s -> Drive.s_of_ns (snd (time (fun () -> page core s))) *. 1e3) starts) in
  let next_us = per_call_us (next core) nexts in
  let test_us = per_call_us (test core) tests in
  let small = E.prepare ~cache_limit:0 (W.graph_of_spec (if smoke then "grid:10x10" else w.W.small_spec) ~seed) phi in
  let growth = Stat.percentile pass.delays 99. /. Stat.percentile (timed_pass small).delays 99. in
  M.enable ();
  let c0 = List.map counter [ "answer.scan_steps"; "dist.tests"; "answer.skip_queries" ] in
  Array.iter (next core) nexts;
  let per_next = List.map2 (fun c name -> float_of_int (counter name - c) /. float_of_int (Array.length nexts)) c0 in
  let work = per_next [ "answer.scan_steps"; "dist.tests"; "answer.skip_queries" ] in
  let first_on = (timed_pass core).secs in
  M.disable ();
  let nn = Array.length nexts and np = Array.length starts in
  [
    metric "engine.delay_growth" growth "ratio" (Array.length pass.delays);
    metric "cache.first_pass_cost" (first_s /. first_on) "ratio" 1;
    metric "cache.warm_gain" (core_page_ms /. page_ms) "ratio" np;
    metric "core.next_us" next_us "us" nn;
    metric "core.test_us" test_us "us" (Array.length tests);
    metric "core.page_ms" core_page_ms "ms" np;
    metric "core.scan_steps" (List.nth work 0) "count" nn;
    metric "core.dist_tests" (List.nth work 1) "count" nn;
    metric "core.skip_queries" (List.nth work 2) "count" nn;
  ]

(* The router over two in-process shards of one handle; the transport
   times Nd_server.handle, so the rest of a page is the router's own. *)
let router i ~core =
  let { smoke; g; phi; nexts; _ } = i in
  let own = Nd_cluster.Ownership.compute g ~shards:2 in
  let calls = ref 0 and pulled = ref 0 and shard_ns = ref 0 in
  let endpoint s =
    let owner = Some (Nd_cluster.Ownership.owner own ~shard:s) in
    let srv = Nd_server.create ~config:{ Nd_server.default_config with owner } core in
    Nd_cluster.Router.endpoint ~shard:s ~label:(string_of_int s) (fun () ->
        let sess = Nd_server.session srv in
        Ok
          {
            Nd_cluster.Router.transport =
              (fun line ->
                incr calls;
                let r, t = time (fun () -> Nd_server.handle sess line) in
                shard_ns := !shard_ns + t;
                List.iter (fun l -> if String.starts_with ~prefix:"sol " l then incr pulled) r;
                r);
            read_reply = (fun _ -> None);
            close = ignore;
          })
  in
  let rt = Nd_cluster.Router.create ~ownership:own ~arity:(Nd_logic.Fo.arity phi) [ endpoint 0; endpoint 1 ] in
  ignore (Nd_cluster.Router.handle rt "epoch");
  let pages = if smoke then 3 else 20 in
  let delivered = ref 0 in
  calls := 0;
  pulled := 0;
  shard_ns := 0;
  let (), page_ns =
    time (fun () ->
        for _ = 1 to pages do
          List.iter
            (fun l -> if String.starts_with ~prefix:"sol " l then incr delivered)
            (Nd_cluster.Router.handle rt "enumerate 1000")
        done)
  in
  let page_calls = !calls and page_pulled = !pulled and page_shard = !shard_ns in
  calls := 0;
  let rnexts = pick 256 nexts in
  Array.iter (fun t -> ignore (Nd_cluster.Router.handle rt ("next " ^ W.tuple_string t))) rnexts;
  let per_page x = float_of_int x /. float_of_int pages in
  [
    metric "router.page_ms" (Drive.s_of_ns page_ns *. 1e3 /. float_of_int pages) "ms" pages;
    metric "router.self_frac" (1. -. (float_of_int page_shard /. float_of_int page_ns)) "fraction" pages;
    metric "router.calls_per_page" (per_page page_calls) "count" pages;
    metric "router.calls_per_next" (float_of_int !calls /. float_of_int (Array.length rnexts)) "count" (Array.length rnexts);
    metric "router.pulled_per_delivered" (float_of_int page_pulled /. float_of_int (max 1 !delivered)) "ratio" pages;
  ]

(* Each stage starts from a compacted heap, so the handles of the one
   before (and the socket run's reference engine) cannot tax it. *)
let measure ~(w : W.t) ~smoke ~seed ~g ~dir =
  let phi = W.query w in
  let reads =
    let gen = W.reads ~seed ~stream:1 ~n:(Cgraph.n g) ~arity:(Nd_logic.Fo.arity phi) in
    Array.init (if smoke then 1_024 else 20_480) (fun _ -> gen ())
  in
  let pick_kind b = Array.of_list (List.filter_map (fun (k, t) -> if k = b then Some t else None) (Array.to_list reads)) in
  let i = { w; smoke; seed; g; phi; nexts = pick_kind true; tests = pick_kind false } in
  Nd_trace.disable ();
  Gc.compact ();
  let served_metrics, first_s, page_ms, starts = served i ~dir in
  Gc.compact ();
  let core = E.prepare ~cache_limit:0 g phi in
  let live_metrics = live i ~core ~first_s ~page_ms ~starts in
  served_metrics @ live_metrics @ router i ~core
