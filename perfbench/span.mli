(** In-memory span recorder and the self-time reducer of the traced pass.

    A span is one timed call into a library layer: a name such as
    ["sql.parse"], start and end on the monotonic clock, the span that
    enclosed it, and the request id shared by every span of one traced
    request.  Spans are kept in memory and written out once, when the
    run ends.  The recorder is single-threaded: the traced pass replays
    requests one at a time. *)

type span = {
  id : int;
  name : string;
  rid : int;  (** Request id; every span of one request shares it. *)
  parent : int;  (** Enclosing span's id, or [-1] for a root. *)
  start_ns : int;
  end_ns : int;
}

type t

val create : unit -> t

val with_span : t -> ?rid:int -> string -> (unit -> 'a) -> 'a
(** [with_span t name f] runs [f ()] inside a new span.  The span's
    parent is the innermost open span; its request id is [rid], or the
    parent's when omitted.  The span is closed on exception too. *)

val spans : t -> span list
(** Every recorded span, in the order the spans were opened. *)

val duration_ns : span -> int

type reduction = {
  self_ns : (string * int) list;
      (** Self time per span name, summed over every request, in
          first-seen order.  Root self time is not listed here. *)
  unattributed_ns : int;
      (** Root self time: time inside a request covered by no named
          span. *)
  total_ns : int;  (** Summed duration of the root spans. *)
}

val reduce : root:string -> span list -> reduction
(** Reduce the trees rooted at spans named [root].  A span's self time
    is its duration minus the part of its interval that its children
    cover; spans under other roots are ignored. *)

val by_layer : (string * int) list -> (string * int) list
(** Sum self times by layer, the part of a span name before its first
    ['.'], in first-seen order. *)

val to_json : span list -> Dqo_obs.Json.t
(** [{"spans": [{"id", "name", "rid", "parent", "start_ns",
    "end_ns"}, ...]}]. *)
