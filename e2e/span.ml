(* Spans recorded by the benchmark itself around its calls into each
   layer.  The library's own Obs sink stays off, so a traced repetition
   runs the same library code as an untraced one; only the calls are
   split and timed here.

   An op span is the root of one unit of work (a nest, a request, a
   fuzz run); layer spans nest under it.  A layer's self time is its
   duration minus the time its child spans cover.  Spans stay in memory
   until [to_chrome] writes them out. *)

module Json = Ujam_obs.Json

let now_ns () = Monotonic_clock.now ()
let seconds_between t0 t1 = Int64.to_float (Int64.sub t1 t0) *. 1e-9

type t = {
  id : int;
  name : string;
  is_op : bool;
  op : int;  (** id of the enclosing op span; -1 outside any op *)
  parent : int;  (** -1 for a root *)
  t0 : int64;
  mutable t1 : int64;
  mutable words : float;  (** minor-heap words allocated, children included *)
}

let recorded : t list ref = ref []
let count = ref 0
let open_spans : t list ref = ref []

let clear () =
  recorded := [];
  count := 0;
  open_spans := []

let record ~is_op name f =
  let parent, enclosing =
    match !open_spans with p :: _ -> (p.id, p.op) | [] -> (-1, -1)
  in
  let id = !count in
  incr count;
  let w0 = Gc.minor_words () in
  let s =
    { id;
      name;
      is_op;
      op = (if is_op then id else enclosing);
      parent;
      t0 = now_ns ();
      t1 = 0L;
      words = 0.0 }
  in
  open_spans := s :: !open_spans;
  let finish () =
    s.t1 <- now_ns ();
    s.words <- Gc.minor_words () -. w0;
    open_spans := List.tl !open_spans;
    recorded := s :: !recorded
  in
  match f () with
  | v ->
      finish ();
      v
  | exception e ->
      finish ();
      raise e

let op name f = record ~is_op:true name f
let layer name f = record ~is_op:false name f

let spans () = List.sort (fun a b -> compare a.id b.id) !recorded
let dur s = seconds_between s.t0 s.t1

type self = { self_s : float; calls : int; self_words : float }

(* Every span with its self time and self allocation. *)
let with_self () =
  let spans = Array.of_list (spans ()) in
  let child_s = Array.make (Array.length spans) 0.0 in
  let child_w = Array.make (Array.length spans) 0.0 in
  Array.iter
    (fun s ->
      if s.parent >= 0 then begin
        child_s.(s.parent) <- child_s.(s.parent) +. dur s;
        child_w.(s.parent) <- child_w.(s.parent) +. s.words
      end)
    spans;
  Array.map (fun s -> (s, dur s -. child_s.(s.id), s.words -. child_w.(s.id))) spans

(* Per-name totals over layer spans (op spans excluded). *)
let self_by_name () =
  let tbl = Hashtbl.create 32 in
  Array.iter
    (fun (s, self_s, self_words) ->
      if not s.is_op then begin
        let prev =
          Option.value (Hashtbl.find_opt tbl s.name)
            ~default:{ self_s = 0.0; calls = 0; self_words = 0.0 }
        in
        Hashtbl.replace tbl s.name
          { self_s = prev.self_s +. self_s;
            calls = prev.calls + 1;
            self_words = prev.self_words +. self_words }
      end)
    (with_self ());
  tbl

(* 1 - (layer self time inside ops) / (op wall time), i.e. the op
   spans' own self time over their duration: the share of op time no
   layer span accounts for. *)
let unattributed_ratio () =
  let self, wall =
    Array.fold_left
      (fun (self, wall) (s, self_s, _) ->
        if s.is_op then (self +. self_s, wall +. dur s) else (self, wall))
      (0.0, 0.0) (with_self ())
  in
  if wall <= 0.0 then 1.0 else self /. wall

let to_chrome () =
  let base = match spans () with s :: _ -> s.t0 | [] -> 0L in
  let us t0 t1 = Json.Int (Int64.to_int (Int64.div (Int64.sub t1 t0) 1000L)) in
  Json.Obj
    [ ( "traceEvents",
        Json.List
          (List.map
             (fun s ->
               Json.Obj
                 [ ("name", Json.Str s.name);
                   ("cat", Json.Str (if s.is_op then "op" else "layer"));
                   ("ph", Json.Str "X");
                   ("ts", us base s.t0);
                   ("dur", us s.t0 s.t1);
                   ("pid", Json.Int 1);
                   ("tid", Json.Int 1);
                   ( "args",
                     Json.Obj
                       [ ("id", Json.Int s.id);
                         ("op", Json.Int s.op);
                         ("parent", Json.Int s.parent);
                         ("minor_words", Json.Float s.words) ] ) ])
             (spans ())) );
      ("displayTimeUnit", Json.Str "ms") ]
