let max_coefficient = 2

type violation =
  | Bad_step of Loop.t
  | Bad_coefficient of { site : Site.t; dim : int; coef : int }

let find_violation nest =
  match
    Array.find_opt (fun (l : Loop.t) -> l.Loop.step <> 1) (Nest.loops nest)
  with
  | Some l -> Some (Bad_step l)
  | None ->
      List.find_map
        (fun (s : Site.t) ->
          let subs = s.Site.ref_.Aref.subs in
          let bad = ref None in
          Array.iteri
            (fun dim (sub : Affine.t) ->
              if !bad = None then
                Array.iter
                  (fun c ->
                    if !bad = None && abs c > max_coefficient then
                      bad := Some (Bad_coefficient { site = s; dim; coef = c }))
                  sub.Affine.coefs)
            subs;
          !bad)
        (Site.of_nest nest)

let message nest = function
  | Bad_step l ->
      Printf.sprintf "%s: loop %s has step %d; only unit-step loops are modelled"
        (Nest.name nest) l.Loop.var l.Loop.step
  | Bad_coefficient { site; dim; coef } ->
      Printf.sprintf
        "%s: subscript %d of %s has coefficient %d beyond the modelled stride \
         range (|c| <= %d)"
        (Nest.name nest) dim
        (Aref.base site.Site.ref_)
        coef max_coefficient

let check nest =
  match find_violation nest with
  | None -> Ok ()
  | Some v -> Error (message nest v)
