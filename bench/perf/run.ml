(* Wall-clock serving benchmark: drives the shipped [fodb serve --socket]
   and [fodb cluster --socket] binaries with five seeded workloads and
   prints every metric as "workload metric value unit samples", then one
   JSON summary line.  See README.md for the workloads, the metrics and
   how to read them.

     dune exec ./bench/perf/run.exe -- --seed 1 [--workload W]
       [--seconds S] [--traced | --trace 0|1] [--aa N] [--smoke]
       [--json FILE] [--fodb PATH] [--benchmark FILE]

   Run from the repository root: without --fodb it builds bin/fodb.exe
   with dune first.  Exits 1 when a request or correctness check
   failed, 2 on a usage or environment error. *)

module W = Workload
module J = Nd_trace.Json

let workload = ref None
let seed = ref 1
let seconds = ref 10.
let traced = ref false
let aa = ref 0
let smoke = ref false
let json_file = ref None
let fodb = ref None
let benchmark = ref "BENCHMARK.json"

let usage = "run.exe --seed S [--workload W] [--seconds S] [--traced] [--aa N] [--smoke] [--json FILE]"

let spec =
  [
    ("--workload", Arg.String (fun s -> workload := Some s), "W  one of " ^ String.concat ", " (List.map (fun w -> w.W.name) W.all));
    ("--seed", Arg.Set_int seed, "S  input seed (default 1)");
    ("--seconds", Arg.Set_float seconds, "S  measured window (default 10; traced runs use at most 5)");
    ("--trace", Arg.Int (fun i -> traced := i <> 0), "0|1  per-layer traced run instead of end-to-end");
    ("--traced", Arg.Set traced, " same as --trace 1");
    ("--aa", Arg.Set_int aa, "N  A/A calibration: every workload N times, interleaved");
    ("--smoke", Arg.Set smoke, " tiny graphs, 0.5 s windows, check names against BENCHMARK.json");
    ("--json", Arg.String (fun s -> json_file := Some s), "FILE  also write every result as JSON");
    ("--fodb", Arg.String (fun s -> fodb := Some s), "PATH  fodb binary (default: dune build ./bin/fodb.exe)");
    ("--benchmark", Arg.Set_string benchmark, "FILE  BENCHMARK.json for bounds and the smoke check");
  ]

let die fmt = Printf.ksprintf (fun m -> prerr_endline ("perf: " ^ m); exit 2) fmt

(* ---------------- environment ---------------- *)

let git_sha () =
  try
    let ic = Unix.open_process_in "git rev-parse HEAD 2>/dev/null" in
    let l = try input_line ic with End_of_file -> "" in
    ignore (Unix.close_process_in ic);
    if l = "" then "unknown" else l
  with _ -> "unknown"

let host = lazy (Domain.recommended_domain_count (), Sys.ocaml_version, git_sha ())

let fodb_binary () =
  match !fodb with
  | Some p -> p
  | None ->
      if Sys.command "dune build --root . --display=quiet ./bin/fodb.exe" <> 0 then
        die "could not build bin/fodb.exe (run from the repository root, or pass --fodb)";
      "_build/default/bin/fodb.exe"

(* A stray server (a 650 MB fleet worker, say) competes for the cores
   and skews every number, so its presence is an error, not a warning. *)
let refuse_stale () =
  (match Proc.stale () with
  | (pid, cmd) :: _ -> die "refusing to start: pid %d from an earlier run is still alive: %s" pid cmd
  | [] -> ());
  (match Proc.live_sockets () with
  | s :: _ -> die "refusing to start: %s still accepts connections" s
  | [] -> ());
  Proc.rm_rf Proc.marker

(* ---------------- results ---------------- *)

type result = { w : W.t; seed : int; traced : bool; o : Drive.outcome }

let one cfg w =
  let r = if w.W.one_cpu then Proc.on_one_cpu (fun () -> Drive.run cfg w) else Drive.run cfg w in
  let o = r.Drive.outcome in
  let o =
    if not cfg.Drive.traced then o
    else begin
      let dir = r.Drive.run_dir in
      let fleet_dir = Filename.concat dir "server-fleet" in
      let read = Spans.read in
      let workers = List.map (fun s -> read (Filename.concat fleet_dir (Printf.sprintf "w-%d-0.trace.json" s))) [ 0; 1 ] in
      let front, front_doc, others =
        if w.W.fleet then ("router.request", read (Filename.concat fleet_dir "router.trace.json"), workers)
        else ("server.request", read (Filename.concat dir "server.trace.json"), [])
      in
      let sock =
        Spans.analyse ~front ~front_doc ~other_docs:others
          ~events:(Filename.concat dir "server.events.jsonl")
          ~stamped:r.Drive.stamped ~ping_us:r.Drive.ping_us
      in
      let layers =
        Layers.measure ~w ~smoke:cfg.Drive.smoke ~seed:cfg.Drive.seed ~g:r.Drive.graph ~dir
      in
      (* set-up beyond prepare, against the server's own prepare timer
         where it reports one (the fleet does not) *)
      let prepare =
        match r.Drive.served_prepare_s with
        | Some s -> s
        | None -> (List.find (fun m -> m.Drive.name = "setup.prepare_s") layers).Drive.value
      in
      let other = Drive.metric "setup.other_s" (r.Drive.traced_setup_s -. prepare) "s" 1 in
      {
        o with
        Drive.metrics = sock @ (other :: layers);
        details =
          (if w.W.fleet then Spans.fleet_details ~router_doc:front_doc ~worker_docs:workers else [])
          @ o.Drive.details;
      }
    end
  in
  if o.Drive.failed = 0 then Proc.rm_rf r.Drive.run_dir;
  { w; seed = cfg.Drive.seed; traced = cfg.Drive.traced; o }

let fmt_float v = if Float.is_finite v then Printf.sprintf "%.17g" v else "null"

let print_result r =
  let line (m : Drive.metric) =
    Printf.printf "%s %s %.6g %s %d\n" r.w.W.name m.Drive.name m.Drive.value m.Drive.unit m.Drive.samples
  in
  List.iter line r.o.Drive.metrics;
  List.iter line r.o.Drive.details;
  List.iter (fun n -> Printf.printf "# %s failed: %s\n" r.w.W.name n) r.o.Drive.notes;
  flush stdout

let json_metrics ~prefix rs =
  String.concat ","
    (List.concat_map
       (fun r ->
         List.map
           (fun (m : Drive.metric) ->
             Printf.sprintf "\"%s%s\":{\"value\":%s,\"unit\":\"%s\"}"
               (if prefix then r.w.W.name ^ "." else "")
               m.Drive.name (fmt_float m.Drive.value) m.Drive.unit)
           r.o.Drive.metrics)
       rs)

let summary rs =
  let attempted = List.fold_left (fun a r -> a + r.o.Drive.attempted) 0 rs in
  let failed = List.fold_left (fun a r -> a + r.o.Drive.failed) 0 rs in
  Printf.printf "{\"correct\":%b,\"attempted\":%d,\"failed\":%d,\"metrics\":{%s}}\n" (failed = 0)
    (max 1 attempted) failed
    (json_metrics ~prefix:(List.length rs > 1) rs);
  failed

let write_json path rs =
  let cores, ocaml, sha = Lazy.force host in
  let metric (m : Drive.metric) =
    Printf.sprintf "{\"name\":\"%s\",\"value\":%s,\"unit\":\"%s\",\"samples\":%d}" m.Drive.name
      (fmt_float m.Drive.value) m.Drive.unit m.Drive.samples
  in
  let result r =
    Printf.sprintf
      "{\"workload\":\"%s\",\"seed\":%d,\"traced\":%b,\"attempted\":%d,\"failed\":%d,\"metrics\":[%s]}"
      r.w.W.name r.seed r.traced r.o.Drive.attempted r.o.Drive.failed
      (String.concat "," (List.map metric (r.o.Drive.metrics @ r.o.Drive.details)))
  in
  let oc = open_out path in
  Printf.fprintf oc "{\"host_cores\":%d,\"ocaml\":\"%s\",\"git_sha\":\"%s\",\"results\":[%s]}\n" cores ocaml sha
    (String.concat ",\n" (List.map result rs));
  close_out oc

(* ---------------- BENCHMARK.json ---------------- *)

let declared file =
  let doc = match Proc.read_file file with Some s -> s | None -> die "cannot read %s" file in
  let j = match J.parse doc with Ok j -> j | Error e -> die "%s: %s" file e in
  let section k =
    match J.member k j with
    | Some (J.Arr l) ->
        List.filter_map
          (fun m ->
            match (J.member "name" m, J.member "unit" m, J.member "bound" m) with
            | Some (J.Str n), Some (J.Str u), b ->
                Some (n, (u, match b with Some (J.Num f) -> Some f | _ -> None))
            | _ -> None)
          l
    | _ -> []
  in
  (section "end_to_end", section "per_layer")

(* ---------------- A/A calibration ---------------- *)

(* Every metric's median, quartiles and spread over the runs, and the
   difference between the medians of the two interleaved halves (even
   and odd repetitions) against the metric's bound. *)
let aa_report rs =
  let bounds = if Sys.file_exists !benchmark then fst (declared !benchmark) else [] in
  List.iter
    (fun w ->
      let mine = List.filter (fun r -> r.w == w) rs in
      let names = match mine with r :: _ -> List.map (fun m -> m.Drive.name) (r.o.Drive.metrics @ r.o.Drive.details) | [] -> [] in
      List.iter
        (fun name ->
          let vals =
            List.filter_map
              (fun r -> List.find_opt (fun m -> m.Drive.name = name) (r.o.Drive.metrics @ r.o.Drive.details))
              mine
            |> List.map (fun m -> m.Drive.value)
          in
          let a = Array.of_list vals in
          let half p = Array.of_list (List.filteri (fun i _ -> i mod 2 = p) vals) in
          let q1, q3 = Stat.quartiles a in
          let ma = Stat.median (half 0) and mb = Stat.median (half 1) in
          let bound = match List.assoc_opt name bounds with Some (_, Some b) -> Printf.sprintf "%.3g" b | _ -> "-" in
          Printf.printf "aa %s %s median=%.6g q1=%.6g q3=%.6g spread=%.4f halves=%.6g,%.6g diff=%.4f bound=%s\n"
            w.W.name name (Stat.median a) q1 q3 (Stat.spread a) ma mb
            (Float.abs (ma -. mb) /. Float.abs ma)
            bound)
        names)
    (List.filter (fun w -> List.exists (fun r -> r.w == w) rs) W.all)

(* ---------------- smoke ---------------- *)

let smoke_check rs =
  let e2e, layers = declared !benchmark in
  let problems = ref [] in
  let problem fmt = Printf.ksprintf (fun m -> problems := m :: !problems) fmt in
  List.iter
    (fun r ->
      let want = if r.traced then layers else e2e in
      let got = List.map (fun (m : Drive.metric) -> (m.Drive.name, m.Drive.unit)) r.o.Drive.metrics in
      let sort l = List.sort compare l in
      if sort (List.map fst got) <> sort (List.map fst want) then
        problem "%s%s: metric names differ from BENCHMARK.json" r.w.W.name (if r.traced then " (traced)" else "");
      List.iter
        (fun (n, u) ->
          match List.assoc_opt n want with
          | Some (u', _) when u' <> u -> problem "%s %s: unit %s, declared %s" r.w.W.name n u u'
          | _ -> ())
        got;
      if r.o.Drive.failed <> 0 then problem "%s: failed_frac > 0" r.w.W.name)
    rs;
  List.iter (fun p -> prerr_endline ("smoke: " ^ p)) (List.rev !problems);
  !problems = []

(* ---------------- main ---------------- *)

let () =
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  if !seconds <= 0. then die "--seconds must be positive";
  let ws =
    match !workload with
    | None -> W.all
    | Some n -> ( match W.find n with Some w -> [ w ] | None -> die "unknown workload %s" n)
  in
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let interrupted _ =
    Proc.stop_all ();
    exit 130
  in
  Sys.set_signal Sys.sigint (Sys.Signal_handle interrupted);
  Sys.set_signal Sys.sigterm (Sys.Signal_handle interrupted);
  at_exit Proc.stop_all;
  refuse_stale ();
  let fodb = fodb_binary () in
  let cores, ocaml, sha = Lazy.force host in
  Printf.printf "# host_cores=%d ocaml=%s git_sha=%s\n%!" cores ocaml sha;
  let cfg traced seed =
    { Drive.fodb; seed; seconds = (if !smoke then 0.5 else !seconds); traced; smoke = !smoke }
  in
  let run traced seed w =
    let r =
      try one (cfg traced seed) w
      with e ->
        Proc.stop_all ();
        die "%s: %s" w.W.name (Printexc.to_string e)
    in
    print_result r;
    r
  in
  let rs =
    if !smoke then List.concat_map (fun w -> [ run false !seed w; run true !seed w ]) ws
    else if !aa > 0 then List.concat (List.init !aa (fun i -> List.map (run false (!seed + i)) ws))
    else List.map (run !traced !seed) ws
  in
  if !aa > 0 then aa_report rs;
  Option.iter (fun f -> write_json f rs) !json_file;
  let smoke_ok = (not !smoke) || smoke_check rs in
  (try Unix.rmdir Proc.marker with Unix.Unix_error _ -> ());
  let failed = summary rs in
  if failed > 0 || not smoke_ok then exit 1
