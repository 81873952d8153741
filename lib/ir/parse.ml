type error = { loc : Loc.t; message : string }

let pp_error ppf e =
  if Loc.is_none e.loc then Format.pp_print_string ppf e.message
  else Format.fprintf ppf "%a: %s" Loc.pp e.loc e.message

exception Fail of error

let fail line fmt =
  Format.kasprintf (fun message -> raise (Fail { loc = Loc.line line; message })) fmt

(* ------------------------------------------------------------------ *)
(* Lexer                                                               *)

type token =
  | Ident of string
  | Int of int
  | Float of float
  | Lparen
  | Rparen
  | Comma
  | Equal
  | Plus
  | Minus
  | Star
  | Slash

let is_ident_char c =
  (c >= 'A' && c <= 'Z') || (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') || c = '_'

let is_digit c = c >= '0' && c <= '9'

let tokenize ~line s =
  let n = String.length s in
  let toks = ref [] in
  let i = ref 0 in
  while !i < n do
    let c = s.[!i] in
    if c = ' ' || c = '\t' || c = '\r' then incr i
    else if c = '!' then i := n (* comment *)
    else if is_digit c then begin
      let start = !i in
      while !i < n && is_digit s.[!i] do incr i done;
      let is_float =
        !i < n
        && (s.[!i] = '.'
           || ((s.[!i] = 'e' || s.[!i] = 'E')
              && !i + 1 < n
              && (is_digit s.[!i + 1] || s.[!i + 1] = '-' || s.[!i + 1] = '+')))
      in
      if is_float then begin
        if !i < n && s.[!i] = '.' then begin
          incr i;
          while !i < n && is_digit s.[!i] do incr i done
        end;
        if !i < n && (s.[!i] = 'e' || s.[!i] = 'E') then begin
          incr i;
          if !i < n && (s.[!i] = '-' || s.[!i] = '+') then incr i;
          while !i < n && is_digit s.[!i] do incr i done
        end;
        let lit = String.sub s start (!i - start) in
        match float_of_string_opt lit with
        | Some x -> toks := Float x :: !toks
        | None -> fail line "malformed number %s" lit
      end
      else begin
        let lit = String.sub s start (!i - start) in
        match int_of_string_opt lit with
        | Some k -> toks := Int k :: !toks
        | None -> fail line "integer literal %s out of range" lit
      end
    end
    else if is_ident_char c && not (is_digit c) then begin
      let start = !i in
      while !i < n && is_ident_char s.[!i] do incr i done;
      toks := Ident (String.sub s start (!i - start)) :: !toks
    end
    else begin
      incr i;
      toks :=
        (match c with
        | '(' -> Lparen
        | ')' -> Rparen
        | ',' -> Comma
        | '=' -> Equal
        | '+' -> Plus
        | '-' -> Minus
        | '*' -> Star
        | '/' -> Slash
        | _ -> fail line "unexpected character %C" c)
        :: !toks
    end
  done;
  List.rev !toks

(* ------------------------------------------------------------------ *)
(* Token-stream helpers                                                *)

type stream = { mutable toks : token list; line : int }

let peek st = match st.toks with [] -> None | t :: _ -> Some t

let advance st =
  match st.toks with
  | [] -> fail st.line "unexpected end of line"
  | t :: rest ->
      st.toks <- rest;
      t

let expect st tok what =
  let got = advance st in
  if got <> tok then fail st.line "expected %s" what

(* ------------------------------------------------------------------ *)
(* Affine subscript / bound expressions over loop variables            *)

(* term := [-] (int [* ident] | ident [* int] | int)
   affine := term ((+|-) term)* *)
let parse_affine st ~depth ~level_of =
  let term sign =
    match advance st with
    | Int k -> (
        match peek st with
        | Some Star -> (
            ignore (advance st);
            match advance st with
            | Ident v -> (
                match level_of v with
                | Some level ->
                    Affine.scale (sign * k) (Affine.var ~depth level)
                | None -> fail st.line "unknown loop variable %s" v)
            | _ -> fail st.line "expected loop variable after %d*" k)
        | _ -> Affine.const ~depth (sign * k))
    | Ident v -> (
        let base =
          match level_of v with
          | Some level -> Affine.var ~depth level
          | None -> fail st.line "unknown loop variable %s in subscript" v
        in
        match peek st with
        | Some Star -> (
            ignore (advance st);
            match advance st with
            | Int k -> Affine.scale (sign * k) base
            | _ -> fail st.line "expected integer after %s*" v)
        | _ -> Affine.scale sign base)
    | Minus -> fail st.line "double sign in subscript"
    | _ -> fail st.line "expected subscript term"
  in
  let first =
    match peek st with
    | Some Minus ->
        ignore (advance st);
        term (-1)
    | _ -> term 1
  in
  (* A sum that wraps would hand the analysis numbers the text does not
     say, so it is a located error like an out-of-range literal. *)
  let plus a b =
    let s = a + b in
    if (a >= 0) = (b >= 0) && (s >= 0) <> (a >= 0) then
      fail st.line "subscript arithmetic overflows"
    else s
  in
  let add acc (t : Affine.t) =
    Affine.make
      ~coefs:(Array.map2 plus acc.Affine.coefs t.Affine.coefs)
      ~const:(plus acc.Affine.const t.Affine.const)
  in
  let rec more acc =
    match peek st with
    | Some Plus ->
        ignore (advance st);
        more (add acc (term 1))
    | Some Minus ->
        ignore (advance st);
        more (add acc (term (-1)))
    | _ -> acc
  in
  more first

(* ------------------------------------------------------------------ *)
(* Right-hand-side expressions                                         *)

let rec parse_expr st ~depth ~level_of =
  let lhs = parse_term st ~depth ~level_of in
  let rec more acc =
    match peek st with
    | Some Plus ->
        ignore (advance st);
        more (Expr.Bin (Expr.Add, acc, parse_term st ~depth ~level_of))
    | Some Minus ->
        ignore (advance st);
        more (Expr.Bin (Expr.Sub, acc, parse_term st ~depth ~level_of))
    | _ -> acc
  in
  more lhs

and parse_term st ~depth ~level_of =
  let lhs = parse_factor st ~depth ~level_of in
  let rec more acc =
    match peek st with
    | Some Star ->
        ignore (advance st);
        more (Expr.Bin (Expr.Mul, acc, parse_factor st ~depth ~level_of))
    | Some Slash ->
        ignore (advance st);
        more (Expr.Bin (Expr.Div, acc, parse_factor st ~depth ~level_of))
    | _ -> acc
  in
  more lhs

and parse_factor st ~depth ~level_of =
  match advance st with
  | Minus -> Expr.Neg (parse_factor st ~depth ~level_of)
  | Float f -> Expr.Const f
  | Int k -> Expr.Const (float_of_int k)
  | Lparen ->
      let e = parse_expr st ~depth ~level_of in
      expect st Rparen "')'";
      e
  | Ident name -> (
      match peek st with
      | Some Lparen ->
          ignore (advance st);
          Expr.Read (Aref.make name (parse_subscripts st ~depth ~level_of))
      | _ -> Expr.Scalar name)
  | _ -> fail st.line "expected expression"

and parse_subscripts st ~depth ~level_of =
  let first = parse_affine st ~depth ~level_of in
  let rec more acc =
    match advance st with
    | Comma -> more (parse_affine st ~depth ~level_of :: acc)
    | Rparen -> List.rev acc
    | _ -> fail st.line "expected ',' or ')' in subscript list"
  in
  more [ first ]

(* ------------------------------------------------------------------ *)
(* Lines and structure                                                 *)

type parsed_line =
  | L_do of string * token list  (* var, tokens after '=' *)
  | L_enddo
  | L_assign of token list
  | L_blank

let classify ~line toks =
  match toks with
  | [] -> L_blank
  | Ident kw :: rest when String.uppercase_ascii kw = "DO" -> (
      match rest with
      | Ident v :: Equal :: bounds -> L_do (v, bounds)
      | _ -> fail line "malformed DO header")
  | [ Ident kw ] when String.uppercase_ascii kw = "ENDDO" -> L_enddo
  | toks -> L_assign toks

let split_bounds ~line toks =
  (* bounds: affine , affine [, int] — split at top-level commas *)
  let rec go depth acc cur = function
    | [] -> List.rev (List.rev cur :: acc)
    | Comma :: rest when depth = 0 -> go depth (List.rev cur :: acc) [] rest
    | (Lparen as t) :: rest -> go (depth + 1) acc (t :: cur) rest
    | (Rparen as t) :: rest -> go (depth - 1) acc (t :: cur) rest
    | t :: rest -> go depth acc (t :: cur) rest
  in
  match go 0 [] [] toks with
  | [ lo; hi ] -> (lo, hi, None)
  | [ lo; hi; [ Int s ] ] -> (lo, hi, Some s)
  | _ -> fail line "expected 'DO var = lo, hi[, step]'"

let nest ?(name = "parsed") text =
  try
    let lines =
      String.split_on_char '\n' text
      |> List.mapi (fun i l -> (i + 1, l))
      |> List.map (fun (ln, l) -> (ln, classify ~line:ln (tokenize ~line:ln l)))
      |> List.filter (fun (_, c) -> c <> L_blank)
    in
    (* headers *)
    let rec take_headers acc = function
      | (ln, L_do (v, bounds)) :: rest -> take_headers ((ln, v, bounds) :: acc) rest
      | rest -> (List.rev acc, rest)
    in
    let headers, rest = take_headers [] lines in
    let depth = List.length headers in
    if depth = 0 then
      fail (match lines with (ln, _) :: _ -> ln | [] -> 1) "no DO header found";
    let vars = List.map (fun (_, v, _) -> v) headers in
    (match List.sort_uniq compare vars with
    | unique when List.length unique <> depth ->
        fail 1 "duplicate loop variable"
    | _ -> ());
    let level_of_upto k v =
      let rec go i = function
        | [] -> None
        | v' :: _ when String.equal v v' && i < k -> Some i
        | _ :: rest -> go (i + 1) rest
      in
      go 0 vars
    in
    let level_of v =
      let rec go i = function
        | [] -> None
        | v' :: _ when String.equal v v' -> Some i
        | _ :: rest -> go (i + 1) rest
      in
      go 0 vars
    in
    let loops =
      List.mapi
        (fun k (ln, v, bounds) ->
          let lo_t, hi_t, step = split_bounds ~line:ln bounds in
          let parse_bound toks =
            let st = { toks; line = ln } in
            let a = parse_affine st ~depth ~level_of:(level_of_upto k) in
            if st.toks <> [] then fail ln "trailing tokens in loop bound";
            a
          in
          Loop.make ~var:v ~level:k ~lo:(parse_bound lo_t) ~hi:(parse_bound hi_t)
            ~step:(Option.value step ~default:1))
        headers
    in
    (* body, then exactly [depth] ENDDOs *)
    let rec take_body acc = function
      | (ln, L_assign toks) :: rest ->
          let st = { toks; line = ln } in
          let stmt =
            match advance st with
            | Ident name -> (
                match advance st with
                | Lparen ->
                    let subs = parse_subscripts st ~depth ~level_of in
                    expect st Equal "'='";
                    let rhs = parse_expr st ~depth ~level_of in
                    if st.toks <> [] then fail ln "trailing tokens after statement";
                    Stmt.store (Aref.make name subs) rhs
                | Equal ->
                    let rhs = parse_expr st ~depth ~level_of in
                    if st.toks <> [] then fail ln "trailing tokens after statement";
                    Stmt.set_scalar name rhs
                | _ -> fail ln "expected '(' or '=' after identifier")
            | _ -> fail ln "statement must start with an identifier"
          in
          take_body (stmt :: acc) rest
      | rest -> (List.rev acc, rest)
    in
    let body, rest = take_body [] rest in
    if body = [] then fail 1 "empty loop body";
    let rec take_enddos k = function
      | (_, L_enddo) :: rest -> take_enddos (k + 1) rest
      | rest -> (k, rest)
    in
    let closed, rest = take_enddos 0 rest in
    if closed <> depth then
      fail 1 "expected %d ENDDO, found %d" depth closed;
    (match rest with
    | (ln, _) :: _ -> fail ln "trailing input after the nest"
    | [] -> ());
    Ok (Nest.make ~name ~loops ~body)
  with
  | Fail e -> Error { e with loc = Loc.with_nest e.loc name }
  | Invalid_argument m -> Error { loc = Loc.nest name; message = m }

let nest_exn ?name text =
  match nest ?name text with
  | Ok n -> n
  | Error e -> invalid_arg (Format.asprintf "Parse.nest: %a" pp_error e)
