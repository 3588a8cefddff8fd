type t = {
  to_server : out_channel;
  from_server : in_channel;
  loop : Thread.t;
  mutable sid : int;
}

type reply =
  | Result of { rows : int; digest : string; bytes : int }
  | Error of string

let send t line =
  output_string t.to_server line;
  output_char t.to_server '\n';
  flush t.to_server

let recv t = input_line t.from_server

let starts_with ~prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

(* The [key=value] operand of a reply line. *)
let field line key =
  let prefix = key ^ "=" in
  List.find_map
    (fun tok ->
      if starts_with ~prefix tok then
        Some
          (String.sub tok (String.length prefix)
             (String.length tok - String.length prefix))
      else None)
    (String.split_on_char ' ' line)

let int_field line key =
  match Option.bind (field line key) int_of_string_opt with
  | Some n -> n
  | None -> failwith ("wire reply without " ^ key ^ ": " ^ line)

let connect server =
  let req_r, req_w = Unix.pipe ~cloexec:true () in
  let resp_r, resp_w = Unix.pipe ~cloexec:true () in
  let loop =
    Thread.create
      (fun () ->
        let ic = Unix.in_channel_of_descr req_r in
        let oc = Unix.out_channel_of_descr resp_w in
        Dqo_serve.Wire.serve server ic oc;
        close_out oc;
        close_in ic)
      ()
  in
  let t =
    {
      to_server = Unix.out_channel_of_descr req_w;
      from_server = Unix.in_channel_of_descr resp_r;
      loop;
      sid = 0;
    }
  in
  send t "open";
  let line = recv t in
  (match String.split_on_char ' ' line with
  | [ "ok"; "session"; sid ] -> t.sid <- int_of_string sid
  | _ -> failwith ("wire open failed: " ^ line));
  t

let session t = t.sid

let prepare t sql =
  send t (Printf.sprintf "prepare %d %s" t.sid sql);
  let line = recv t in
  match String.split_on_char ' ' line with
  | [ "ok"; "stmt"; id ] -> Ok (int_of_string id)
  | _ -> Error line

let exec t stmt =
  send t (Printf.sprintf "exec %d %d" t.sid stmt);
  let header = recv t in
  if starts_with ~prefix:"result " header then begin
    let rows = int_field header "rows" in
    let digest = Option.value (field header "sum") ~default:"" in
    let bytes = ref (String.length header + 1) in
    for _ = 1 to rows do
      bytes := !bytes + String.length (recv t) + 1
    done;
    let last = recv t in
    bytes := !bytes + String.length last + 1;
    if last = "end" then Result { rows; digest; bytes = !bytes }
    else Error ("reply not terminated by end: " ^ last)
  end
  else Error header

let advise t =
  send t "advise";
  let line = recv t in
  if starts_with ~prefix:"ok advisor " line then
    Ok (int_field line "installed", int_field line "evicted")
  else Error line

let close t =
  send t "quit";
  (match recv t with _ -> () | exception End_of_file -> ());
  Thread.join t.loop;
  close_out t.to_server;
  close_in t.from_server
