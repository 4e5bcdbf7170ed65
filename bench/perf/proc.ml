(* Server processes under test.

   Every server runs in its own session, so its process-group id is its
   pid and one signal to the group reaches the whole tree: [fodb
   cluster] spawns its workers with create_process, and they inherit
   the group.  Stopping sends SIGTERM first, because [fodb serve] and
   [fodb cluster] write their trace files only on a clean shutdown, and
   escalates to SIGKILL after a grace period.  Every started group is
   registered in [live] until it is stopped, so the exit and signal
   paths of [run.ml] can stop whatever is still running. *)

let marker = "_perf_runs"
(* Directory (relative to the working directory) holding one
   subdirectory per workload run; every server argument naming a file
   lies under it, which is how stale servers of an earlier run are
   recognised. *)

type t = { pid : int; mutable reaped : bool }

let live : t list ref = ref []

external get_affinity : unit -> int = "perf_get_affinity"
external set_affinity : int -> bool = "perf_set_affinity"

(* Run [f] with the calling thread, and so every server it forks, on
   the lowest CPU it may use; the mask is restored afterwards. *)
let on_one_cpu f =
  let mask = get_affinity () in
  if mask = 0 || not (set_affinity (mask land -mask)) then f ()
  else Fun.protect ~finally:(fun () -> ignore (set_affinity mask)) f

let rec sleep s =
  try Unix.sleepf s with Unix.Unix_error (Unix.EINTR, _, _) -> sleep s

let read_file path =
  try Some (In_channel.with_open_bin path In_channel.input_all) with Sys_error _ -> None

let pids () =
  Array.to_list (try Sys.readdir "/proc" with Sys_error _ -> [||])
  |> List.filter_map int_of_string_opt

(* State letter and process group of a pid, from /proc/PID/stat; the
   command name may hold spaces and parentheses, so fields are counted
   from the last ')'. *)
let stat pid =
  match read_file (Printf.sprintf "/proc/%d/stat" pid) with
  | None -> None
  | Some s -> (
      match String.rindex_opt s ')' with
      | None -> None
      | Some i -> (
          let rest = String.sub s (i + 2) (String.length s - i - 2) in
          match String.split_on_char ' ' rest with
          | state :: _ppid :: pgrp :: _ -> (
              match int_of_string_opt pgrp with
              | Some g when state <> "" -> Some (state.[0], g)
              | _ -> None)
          | _ -> None))

(* Members of a process group that have not exited (zombies left for an
   init that never reaps are not running anything). *)
let members pgid =
  List.filter
    (fun pid ->
      match stat pid with Some (st, g) -> g = pgid && st <> 'Z' | None -> false)
    (pids ())

let spawn ~log prog args =
  let out = Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  match Unix.fork () with
  | 0 -> (
      try
        ignore (Unix.setsid ());
        Unix.dup2 null Unix.stdin;
        Unix.dup2 out Unix.stdout;
        Unix.dup2 out Unix.stderr;
        Unix.execv prog (Array.of_list (prog :: args))
      with _ -> Unix._exit 127)
  | pid ->
      Unix.close out;
      Unix.close null;
      let p = { pid; reaped = false } in
      live := p :: !live;
      p

let reap p =
  if not p.reaped then
    match Unix.waitpid [ Unix.WNOHANG ] p.pid with
    | 0, _ -> ()
    | _ -> p.reaped <- true
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> p.reaped <- true
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()

let exited p =
  reap p;
  p.reaped

let signal p s = try Unix.kill (-p.pid) s with Unix.Unix_error _ -> ()

(* Stop the group; [true] when it went down on SIGTERM within [grace]
   seconds, [false] when it had to be killed. *)
let stop ?(grace = 15.) p =
  signal p Sys.sigterm;
  let deadline = Unix.gettimeofday () +. grace in
  let rec wait () =
    reap p;
    if p.reaped && members p.pid = [] then true
    else if Unix.gettimeofday () > deadline then false
    else (
      sleep 0.01;
      wait ())
  in
  let clean = wait () in
  if not clean then begin
    signal p Sys.sigkill;
    (if not p.reaped then
       try ignore (Unix.waitpid [] p.pid) with Unix.Unix_error _ -> ());
    p.reaped <- true;
    let d = Unix.gettimeofday () +. 5. in
    while members p.pid <> [] && Unix.gettimeofday () < d do
      sleep 0.01
    done
  end;
  live := List.filter (fun q -> q != p) !live;
  clean

let stop_all () = List.iter (fun p -> ignore (stop ~grace:5. p)) !live

(* Peak resident set (VmHWM) summed over the group, in MB, and the
   number of processes summed. *)
let rss_mb p =
  let kb pid =
    match read_file (Printf.sprintf "/proc/%d/status" pid) with
    | None -> 0
    | Some s ->
        List.fold_left
          (fun acc line ->
            match String.split_on_char ':' line with
            | [ "VmHWM"; v ] -> (
                match String.split_on_char ' ' (String.trim v) with
                | n :: _ -> Option.value ~default:acc (int_of_string_opt n)
                | [] -> acc)
            | _ -> acc)
          0
          (String.split_on_char '\n' s)
  in
  let ms = members p.pid in
  (float_of_int (List.fold_left (fun a pid -> a + kb pid) 0 ms) /. 1024., List.length ms)

let contains s sub =
  let ls = String.length s and lb = String.length sub in
  let rec at i = i + lb <= ls && (String.sub s i lb = sub || at (i + 1)) in
  at 0

(* fodb processes left behind by an earlier run: their arguments name
   files under [marker]. *)
let stale () =
  let self = Unix.getpid () in
  List.filter_map
    (fun pid ->
      if pid = self then None
      else
        match (stat pid, read_file (Printf.sprintf "/proc/%d/cmdline" pid)) with
        | Some (st, _), Some cl when st <> 'Z' -> (
            match String.split_on_char '\000' cl with
            | argv0 :: args
              when String.starts_with ~prefix:"fodb" (Filename.basename argv0)
                   && List.exists (fun a -> contains a (marker ^ "/")) args ->
                Some (pid, String.concat " " (argv0 :: args))
            | _ -> None)
        | _ -> None)
    (pids ())

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error _ -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      (try Unix.rmdir path with Unix.Unix_error _ -> ())
  | _ -> ( try Unix.unlink path with Unix.Unix_error _ -> ())

(* Sockets under [marker] that still accept connections belong to a
   server some other run left behind. *)
let live_sockets () =
  let found = ref [] in
  let rec walk d =
    match Sys.readdir d with
    | exception Sys_error _ -> ()
    | fs ->
        Array.iter
          (fun f ->
            let p = Filename.concat d f in
            match Unix.lstat p with
            | { Unix.st_kind = Unix.S_DIR; _ } -> walk p
            | { Unix.st_kind = Unix.S_SOCK; _ } ->
                let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
                (match Unix.connect fd (Unix.ADDR_UNIX p) with
                | () -> found := p :: !found
                | exception Unix.Unix_error _ -> ());
                Unix.close fd
            | _ -> ()
            | exception Unix.Unix_error _ -> ())
          fs
  in
  walk marker;
  !found

let counter = ref 0

let fresh_dir () =
  (try Unix.mkdir marker 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  incr counter;
  let d = Filename.concat marker (Printf.sprintf "%d-%d" (Unix.getpid ()) !counter) in
  rm_rf d;
  Unix.mkdir d 0o755;
  d
