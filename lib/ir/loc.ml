type t = {
  nest : string option;
  line : int option;
  level : int option;
  stmt : int option;
  site : int option;
}

let none = { nest = None; line = None; level = None; stmt = None; site = None }

let nest n = { none with nest = Some n }
let line ?nest n = { none with nest; line = Some n }
let level ?nest k = { none with nest; level = Some k }
let stmt ?nest ?site k = { none with nest; stmt = Some k; site }

let with_nest t n =
  match t.nest with Some _ -> t | None -> { t with nest = Some n }

let is_none t = t = none

let to_fields t =
  List.filter_map
    (fun (k, v) -> Option.map (fun v -> (k, v)) v)
    [ ("line", t.line); ("level", t.level); ("stmt", t.stmt); ("site", t.site) ]

let pp ppf t =
  if is_none t then Format.pp_print_string ppf "<no location>"
  else begin
    let first = ref true in
    let sep () =
      if !first then first := false else Format.pp_print_char ppf ':'
    in
    Option.iter
      (fun n ->
        sep ();
        Format.pp_print_string ppf n)
      t.nest;
    (* "line 3" reads better than "line3" when it stands alone *)
    Option.iter
      (fun l ->
        sep ();
        Format.fprintf ppf "line %d" l)
      t.line;
    List.iter
      (fun (k, v) ->
        if k <> "line" then begin
          sep ();
          Format.fprintf ppf "%s%d" (if k = "level" then "loop" else k) v
        end)
      (to_fields t)
  end

let to_string t = Format.asprintf "%a" pp t
