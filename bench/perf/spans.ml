(* Per-layer attribution of a traced socket run (source (a) in the
   README): the client's stamped requests joined to the front end's
   request spans ([server.request], or [router.request] on the fleet)
   and to its event-log rows.

   Join keys: a stamped request carries trace=perf:<n>, which the front
   end records as the span attributes ctx.trace = "perf", ctx.span = n;
   the span's id is the "span" field of the request's event-log row.
   Only requests whose span is still in the bounded span ring join. *)

module J = Nd_trace.Json

type span = { sid : int; parent : int; name : string; dur : int; stamp : int option }

let num = function Some (J.Num f) -> Some (int_of_float f) | _ -> None
let str = function Some (J.Str s) -> Some s | _ -> None

let read path = Option.value ~default:"" (Proc.read_file path)

(* Spans of one Chrome export, and how many the ring dropped (ids are
   dense from 1, so the newest id minus the spans kept). *)
let spans_of_doc doc =
  match J.parse doc with
  | Error _ -> ([], 0)
  | Ok j ->
      let evs = match J.member "traceEvents" j with Some (J.Arr l) -> l | _ -> [] in
      let spans =
        List.filter_map
          (fun ev ->
            let args = J.member "args" ev in
            let arg k = Option.bind args (J.member k) in
            match (str (J.member "name" ev), num (J.member "dur" ev), num (arg "sid")) with
            | Some name, Some dur, Some sid ->
                let stamp =
                  match str (arg "ctx.trace") with
                  | Some "perf" -> Option.bind (str (arg "ctx.span")) int_of_string_opt
                  | _ -> None
                in
                Some { sid; parent = Option.value ~default:0 (num (arg "parent")); name; dur; stamp }
            | _ -> None)
          evs
      in
      let top = List.fold_left (fun m s -> max m s.sid) 0 spans in
      (spans, top - List.length spans)

(* span id -> latency_us, from an event log *)
let event_latencies path =
  let h = Hashtbl.create 4096 in
  List.iter
    (fun line ->
      match J.parse line with
      | Ok row -> (
          match (num (J.member "span" row), num (J.member "latency_us" row)) with
          | Some sp, Some lat when sp > 0 -> Hashtbl.replace h sp lat
          | _ -> ())
      | Error _ -> ())
    (String.split_on_char '\n' (read path));
  h

type joined = { rtt_us : float; event_us : float; span_us : float; self_us : float }

let analyse ~front ~front_doc ~other_docs ~events ~stamped ~ping_us =
  let spans, dropped = spans_of_doc front_doc in
  let dropped = List.fold_left (fun a d -> a + snd (spans_of_doc d)) dropped other_docs in
  let child = Hashtbl.create 4096 in
  List.iter
    (fun s ->
      Hashtbl.replace child s.parent (s.dur + Option.value ~default:0 (Hashtbl.find_opt child s.parent)))
    spans;
  let rtt = Hashtbl.create 4096 in
  List.iter (fun (n, ns) -> Hashtbl.replace rtt n (float_of_int ns /. 1e3)) stamped;
  let lat = event_latencies events in
  let joined =
    List.filter_map
      (fun s ->
        match s.stamp with
        | Some n when s.name = front -> (
            match (Hashtbl.find_opt rtt n, Hashtbl.find_opt lat s.sid) with
            | Some rtt_us, Some ev ->
                let d = float_of_int s.dur in
                Some
                  {
                    rtt_us;
                    event_us = float_of_int ev;
                    span_us = d;
                    self_us = d -. float_of_int (Option.value ~default:0 (Hashtbl.find_opt child s.sid));
                  }
            | _ -> None)
        | _ -> None)
      spans
    |> Array.of_list
  in
  let col f = Array.map f joined in
  let queue = col (fun j -> j.event_us -. j.span_us) in
  let m = Stat.mean in
  let nj = Array.length joined in
  let mk name v unit = Drive.metric name v unit nj in
  [
    Drive.metric "server.ping_us" ping_us "us" 200;
    mk "server.io_us" (Stat.median (col (fun j -> j.rtt_us -. j.event_us))) "us";
    mk "server.queue_p50_us" (Stat.percentile queue 50.) "us";
    mk "server.queue_p99_us" (Stat.percentile queue 99.) "us";
    mk "server.handle_us" (Stat.median (col (fun j -> j.span_us))) "us";
    mk "server.handle_self_us" (Stat.median (col (fun j -> j.self_us))) "us";
    mk "obs.spans_joined" (float_of_int nj) "count";
    Drive.metric "obs.spans_dropped" (float_of_int dropped) "count" 1;
    mk "layers.residual_frac"
      ((m (col (fun j -> j.rtt_us)) -. m (col (fun j -> j.event_us)) -. ping_us)
      /. m (col (fun j -> j.rtt_us)))
      "fraction";
  ]

(* Fleet only: the router's upstream calls and the stitched timeline. *)
let fleet_details ~router_doc ~worker_docs =
  let spans, _ = spans_of_doc router_doc in
  let calls =
    Array.of_list
      (List.filter_map (fun s -> if s.name = "router.call" then Some (float_of_int s.dur) else None) spans)
  in
  let linked =
    match Nd_obs.Merge.merge (router_doc :: worker_docs) with
    | Ok (_, r) -> r.Nd_obs.Merge.r_linked
    | Error _ -> 0
  in
  [
    Drive.metric "router.call_us" (Stat.median calls) "us" (Array.length calls);
    Drive.metric "obs.linked" (float_of_int linked) "count" 1;
  ]
