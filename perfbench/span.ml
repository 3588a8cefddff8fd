type span = {
  id : int;
  name : string;
  rid : int;
  parent : int;
  start_ns : int;
  end_ns : int;
}

type frame = { f_id : int; f_rid : int }

type t = {
  mutable recorded : span list; (* newest first *)
  mutable open_frames : frame list; (* innermost first *)
  mutable next_id : int;
}

let create () = { recorded = []; open_frames = []; next_id = 0 }

let with_span t ?rid name f =
  let parent, inherited =
    match t.open_frames with
    | fr :: _ -> (fr.f_id, fr.f_rid)
    | [] -> (-1, -1)
  in
  let rid = Option.value rid ~default:inherited in
  let id = t.next_id in
  t.next_id <- id + 1;
  t.open_frames <- { f_id = id; f_rid = rid } :: t.open_frames;
  let start_ns = Dqo_util.Clock.now_ns () in
  let close () =
    let end_ns = Dqo_util.Clock.now_ns () in
    t.open_frames <- List.tl t.open_frames;
    t.recorded <- { id; name; rid; parent; start_ns; end_ns } :: t.recorded
  in
  Fun.protect ~finally:close f

let spans t = List.sort (fun a b -> compare a.id b.id) t.recorded
let duration_ns s = s.end_ns - s.start_ns

type reduction = {
  self_ns : (string * int) list;
  unattributed_ns : int;
  total_ns : int;
}

(* Length of the union of [intervals], each clipped to [lo, hi]. *)
let covered ~lo ~hi intervals =
  let clipped =
    List.filter_map
      (fun (a, b) ->
        let a = max a lo and b = min b hi in
        if b > a then Some (a, b) else None)
      intervals
  in
  let sorted = List.sort compare clipped in
  let total, last =
    List.fold_left
      (fun (acc, cur) (a, b) ->
        match cur with
        | None -> (acc, Some (a, b))
        | Some (ca, cb) when a <= cb -> (acc, Some (ca, max cb b))
        | Some (ca, cb) -> (acc + (cb - ca), Some (a, b)))
      (0, None) sorted
  in
  match last with Some (a, b) -> total + (b - a) | None -> total

(* Sum [v] into the association list [acc] under [k], keeping
   first-seen order. *)
let bump acc k v =
  if List.mem_assoc k acc then
    List.map (fun (k', x) -> if k' = k then (k', x + v) else (k', x)) acc
  else acc @ [ (k, v) ]

let reduce ~root spans =
  let children = Hashtbl.create 64 in
  List.iter
    (fun s -> if s.parent >= 0 then Hashtbl.add children s.parent s)
    spans;
  let self s =
    let kids = Hashtbl.find_all children s.id in
    duration_ns s
    - covered ~lo:s.start_ns ~hi:s.end_ns
        (List.map (fun c -> (c.start_ns, c.end_ns)) kids)
  in
  let rec walk acc s =
    List.fold_left
      (fun acc c -> walk (bump acc c.name (self c)) c)
      acc
      (List.rev (Hashtbl.find_all children s.id))
  in
  let roots = List.filter (fun s -> s.parent < 0 && s.name = root) spans in
  List.fold_left
    (fun r s ->
      {
        self_ns = walk r.self_ns s;
        unattributed_ns = r.unattributed_ns + self s;
        total_ns = r.total_ns + duration_ns s;
      })
    { self_ns = []; unattributed_ns = 0; total_ns = 0 }
    roots

let layer name =
  match String.index_opt name '.' with
  | Some i -> String.sub name 0 i
  | None -> name

let by_layer self_ns =
  List.fold_left (fun acc (name, ns) -> bump acc (layer name) ns) [] self_ns

let to_json spans =
  let module Json = Dqo_obs.Json in
  Json.Obj
    [
      ( "spans",
        Json.List
          (List.map
             (fun s ->
               Json.Obj
                 [
                   ("id", Json.Int s.id);
                   ("name", Json.String s.name);
                   ("rid", Json.Int s.rid);
                   ("parent", Json.Int s.parent);
                   ("start_ns", Json.Int s.start_ns);
                   ("end_ns", Json.Int s.end_ns);
                 ])
             spans) );
    ]
