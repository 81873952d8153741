let max_coefficient = 2
let max_constant = 1 lsl 20

(* Not [abs c > m]: [abs min_int] is negative. *)
let outside m c = c > m || c < -m

type violation =
  | Bad_step of Loop.t
  | Bad_bound of { loop : Loop.t; bound : int }
  | Bad_coefficient of { site : Site.t; dim : int; coef : int }
  | Bad_constant of { site : Site.t; dim : int; const : int }

let violations nest =
  let out = ref [] in
  let add v = out := v :: !out in
  Array.iter
    (fun (l : Loop.t) ->
      if l.Loop.step <> 1 then add (Bad_step l);
      List.iter
        (fun (b : Affine.t) ->
          if outside max_constant b.Affine.const then
            add (Bad_bound { loop = l; bound = b.Affine.const }))
        [ l.Loop.lo; l.Loop.hi ])
    (Nest.loops nest);
  List.iter
    (fun (s : Site.t) ->
      Array.iteri
        (fun dim (sub : Affine.t) ->
          Array.iter
            (fun c ->
              if outside max_coefficient c then
                add (Bad_coefficient { site = s; dim; coef = c }))
            sub.Affine.coefs;
          if outside max_constant sub.Affine.const then
            add (Bad_constant { site = s; dim; const = sub.Affine.const }))
        s.Site.ref_.Aref.subs)
    (Site.of_nest nest);
  List.rev !out

let find_violation nest =
  match violations nest with [] -> None | v :: _ -> Some v

let message nest = function
  | Bad_step l ->
      Printf.sprintf "%s: loop %s has step %d; only unit-step loops are modelled"
        (Nest.name nest) l.Loop.var l.Loop.step
  | Bad_bound { loop; bound } ->
      Printf.sprintf
        "%s: loop %s has bound %d outside the modelled constant range (|b| <= \
         %d)"
        (Nest.name nest) loop.Loop.var bound max_constant
  | Bad_coefficient { site; dim; coef } ->
      Printf.sprintf
        "%s: subscript %d of %s has coefficient %d beyond the modelled stride \
         range (|c| <= %d)"
        (Nest.name nest) dim
        (Aref.base site.Site.ref_)
        coef max_coefficient
  | Bad_constant { site; dim; const } ->
      Printf.sprintf
        "%s: subscript %d of %s has constant %d outside the modelled constant \
         range (|c| <= %d)"
        (Nest.name nest) dim
        (Aref.base site.Site.ref_)
        const max_constant

let check nest =
  match find_violation nest with
  | None -> Ok ()
  | Some v -> Error (message nest v)
