(** One in-process client connection to a [Dqo_serve.Server]: a pipe
    pair, with the server side run by [Dqo_serve.Wire.serve] on a thread
    of its own, exactly as [dqo serve] drives it from stdin/stdout. *)

type t

val connect : Dqo_serve.Server.t -> t
(** Open the pipes, start the [Wire.serve] loop and open a wire
    session ([open]). *)

val session : t -> int

type reply =
  | Result of { rows : int; digest : string; bytes : int }
      (** [result ... sum=<digest>], [rows] row lines and [end];
          [bytes] counts every byte read for the reply. *)
  | Error of string  (** An [error ...] line. *)

val prepare : t -> string -> (int, string) result
(** [prepare <sid> <sql>]: the statement id, or the error line. *)

val exec : t -> int -> reply
(** [exec <sid> <stmt>]: send the line, then read the whole reply. *)

val advise : t -> (int * int, string) result
(** [advise]: [(installed, evicted)] of the forced advisor round. *)

val close : t -> unit
(** [quit], wait for the server loop to return, close every pipe end. *)
