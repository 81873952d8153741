(** Compatibility stub for the frozen [e2e/] harness.

    The IR is not hash-consed: a repeated problem is recognised by its
    content digest ({!Canon.digest}) alone (DESIGN.md §14).  These two
    functions exist only because [e2e/workloads.ml] still calls them;
    no library code may call them. *)

val nest : Nest.t -> Nest.t
(** The identity. *)

val clear : unit -> unit
(** Does nothing. *)
