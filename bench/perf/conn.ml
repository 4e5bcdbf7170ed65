(* One client connection speaking the serve/router line protocol. *)

type t = { ic : in_channel; oc : out_channel }

exception Transport of string

let connect path =
  let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.connect fd (Unix.ADDR_UNIX path) with
  | () -> { ic = Unix.in_channel_of_descr fd; oc = Unix.out_channel_of_descr fd }
  | exception e ->
      Unix.close fd;
      raise e

let close c = close_in_noerr c.ic

let terminator l = l = "ok" || l = "bye" || String.starts_with ~prefix:"err " l

(* Send one request line; the reply's data lines and its terminator. *)
let request c line =
  try
    output_string c.oc line;
    output_char c.oc '\n';
    flush c.oc;
    let rec go acc =
      let l = input_line c.ic in
      if terminator l then List.rev (l :: acc) else go (l :: acc)
    in
    go []
  with
  | End_of_file -> raise (Transport "connection closed mid-reply")
  | Sys_error m -> raise (Transport m)

(* "a,b,…" at offset [off] of [s]. *)
let parse_tuple s off =
  let parts = String.split_on_char ',' (String.sub s off (String.length s - off)) in
  Array.of_list (List.map int_of_string parts)
