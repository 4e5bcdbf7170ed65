(* The five socket workloads: their graphs, queries, connection roles,
   and the seeded request generators shared by the socket load and the
   in-process replay. *)

open Nd_graph

type stream = Pages | Reads | Updates

type t = {
  name : string;
  spec : string;  (** full-size generator spec *)
  smoke_spec : string;
  small_spec : string;
      (** the same family at half the side: the base of
          [engine.delay_growth] *)
  query : string;
  fleet : bool;  (** [fodb cluster --shards 2 --replicas 1] instead of serve *)
  one_cpu : bool;  (** server and client share one CPU (see [Proc.on_one_cpu]) *)
  conn0 : stream;  (** Pages or Reads, closed loop *)
  conn1 : stream option;
      (** Reads (closed loop) or Updates (open loop at [update_hz]) *)
  headline : stream;  (** the request class behind [p50_ms]/[tail_ms] *)
}

let near = "dist(x,y) <= 2"

let all =
  [
    (* Corollary 2.5 at serve's defaults with 516 004 solutions, 5.2x the
       100 000-solution cache: per-delivery engine, metrics and
       cache-overflow costs dominate. *)
    {
      name = "enum-scan";
      spec = "grid:200x200";
      smoke_spec = "grid:20x20";
      small_spec = "grid:100x100";
      query = near;
      fleet = false;
      one_cpu = false;
      conn0 = Pages;
      conn1 = None;
      headline = Pages;
    };
    (* 81 604 solutions fit the cache: after the first pass every read is
       a Theorem 3.1 store hit, queued on the engine lock behind pages. *)
    {
      name = "cache-mix";
      spec = "grid:80x80";
      smoke_spec = "grid:20x20";
      small_spec = "grid:40x40";
      query = near;
      fleet = false;
      one_cpu = false;
      conn0 = Pages;
      conn1 = Some Reads;
      headline = Reads;
    };
    (* About 2.5e8 solutions: no cache holds them, so this is the control
       on which a cache or scan change must show no change; tiny requests
       make transport and the live Theorem 2.3 pipeline dominate. *)
    {
      name = "point-mix";
      spec = "planar:150x150";
      smoke_spec = "planar:20x20";
      small_spec = "planar:75x75";
      query = "dist(x,y) > 2 & C1(y)";
      fleet = false;
      one_cpu = true;
      conn0 = Reads;
      conn1 = None;
      headline = Reads;
    };
    (* Writes beside reads: each update holds the engine lock, runs
       bounded maintenance and evicts cached solutions. *)
    {
      name = "update-mix";
      spec = "grid:200x200";
      smoke_spec = "grid:20x20";
      small_spec = "grid:100x100";
      query = near;
      fleet = false;
      one_cpu = false;
      conn0 = Pages;
      conn1 = Some Updates;
      headline = Updates;
    };
    (* cache-mix's graph and load through the router and two workers, so
       fan-out, k-way merge and fencing are the only difference. *)
    {
      name = "fleet-mix";
      spec = "grid:80x80";
      smoke_spec = "grid:20x20";
      small_spec = "grid:40x40";
      query = near;
      fleet = true;
      one_cpu = false;
      conn0 = Pages;
      conn1 = Some Reads;
      headline = Reads;
    };
  ]

let find name = List.find_opt (fun w -> w.name = name) all

(* The class the traced run attributes per layer: updates drown in the
   span ring behind page traffic, so update-mix is attributed on its
   pages. *)
let traced_stream w = match w.headline with Updates -> Pages | s -> s

let update_hz = 20.

let spec w ~smoke = if smoke then w.smoke_spec else w.spec

let graph_of_spec spec ~seed = Gen.randomly_color ~seed ~colors:2 (Gen.of_spec ~seed spec)

let graph w ~smoke ~seed = graph_of_spec (spec w ~smoke) ~seed

let query w = Nd_logic.Parse.formula w.query

(* Edge list plus "c COLOR VERTEX" lines: the input format every fodb
   verb accepts in place of a generator spec. *)
let write_graph path g =
  let oc = open_out path in
  Cgraph.fold_edges (fun u v () -> Printf.fprintf oc "%d %d\n" u v) g ();
  for c = 0 to Cgraph.color_count g - 1 do
    Array.iter (fun v -> Printf.fprintf oc "c %d %d\n" c v) (Cgraph.color_members g ~color:c)
  done;
  close_out oc

let dims spec =
  match String.split_on_char ':' spec with
  | [ _; wh ] -> (
      match String.split_on_char 'x' wh with
      | [ w; h ] -> (int_of_string w, int_of_string h)
      | _ -> invalid_arg spec)
  | _ -> invalid_arg spec

let tuple_string t = String.concat "," (Array.to_list (Array.map string_of_int t))

(* The read stream: uniform random tuples, next and test half each. *)
let reads ~seed ~stream ~n ~arity =
  let rng = Random.State.make [| seed; stream; 0x7ead |] in
  fun () ->
    let t = Array.init arity (fun _ -> Random.State.int rng n) in
    (Random.State.bool rng, t)

(* The update stream: add a diagonal chord of a face, remove it again,
   repeat.  Chord costs differ several-fold by position, and a median
   over randomly placed chords moved by up to a quarter between seeds,
   so the positions are fixed: the grid is cut into up to 10x10 blocks and each
   run of that many chords visits every block's centre once, in a seeded
   order.  The planar family carries one diagonal per face, so the chord
   is whichever diagonal is missing.  Adding then removing it returns
   the graph to its base. *)
let mutations g ~spec ~seed =
  let w, h = dims spec in
  let rng = Random.State.make [| seed; 0x0bda7e |] in
  let kx = min 10 (w - 1) and ky = min 10 (h - 1) in
  let order = Array.init (kx * ky) Fun.id in
  let i = ref 0 and pending = ref None in
  let centre k b side = ((2 * b) + 1) * (side - 1) / (2 * k) in
  fun () ->
    match !pending with
    | Some (u, v) ->
        pending := None;
        Cgraph.Remove_edge (u, v)
    | None ->
        let nb = Array.length order in
        if !i mod nb = 0 then
          for j = nb - 1 downto 1 do
            let r = Random.State.int rng (j + 1) in
            let t = order.(j) in
            order.(j) <- order.(r);
            order.(r) <- t
          done;
        let b = order.(!i mod nb) in
        incr i;
        let v = (centre ky (b / kx) h * w) + centre kx (b mod kx) w in
        let u, v = if Cgraph.has_edge g v (v + w + 1) then (v + 1, v + w) else (v, v + w + 1) in
        pending := Some (u, v);
        Cgraph.Add_edge (u, v)
