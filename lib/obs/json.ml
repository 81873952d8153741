type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

let escape buf s =
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s

let float_repr f =
  (* JSON has no Infinity/NaN literals; the balance of a flop-free nest
     is infinite, so render non-finite values as null. *)
  if Float.is_finite f then
    let s = Printf.sprintf "%.6g" f in
    (* "%.6g" may yield "1e+06"-style exponents, valid JSON as-is. *)
    if String.contains s '.' || String.contains s 'e' || String.contains s 'n'
    then s
    else s ^ ".0"
  else "null"

let rec emit buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int i -> Buffer.add_string buf (string_of_int i)
  | Float f -> Buffer.add_string buf (float_repr f)
  | Str s ->
      Buffer.add_char buf '"';
      escape buf s;
      Buffer.add_char buf '"'
  | List xs ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i x ->
          if i > 0 then Buffer.add_char buf ',';
          emit buf x)
        xs;
      Buffer.add_char buf ']'
  | Obj fields ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char buf ',';
          Buffer.add_char buf '"';
          escape buf k;
          Buffer.add_string buf "\":";
          emit buf v)
        fields;
      Buffer.add_char buf '}'

let to_string t =
  let buf = Buffer.create 256 in
  emit buf t;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Parsing.  A recursive-descent reader for the dialect the emitter
   above produces (standard JSON; \uXXXX escapes decode to UTF-8).
   Needed so the serve daemon can read requests and its cache file and
   `ujc trace` can round-trip-validate the trace it just wrote. *)

exception Parse_error of string

let of_string s =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg =
    raise (Parse_error (Printf.sprintf "%s at offset %d" msg !pos))
  in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
        advance ();
        skip_ws ()
    | _ -> ()
  in
  let expect c =
    match peek () with
    | Some c' when c' = c -> advance ()
    | _ -> fail (Printf.sprintf "expected '%c'" c)
  in
  let literal lit v =
    let l = String.length lit in
    if !pos + l <= n && String.sub s !pos l = lit then begin
      pos := !pos + l;
      v
    end
    else fail (Printf.sprintf "invalid literal (expected %s)" lit)
  in
  let utf8_add buf code =
    (* Good enough for the traces and reports we emit: encode the code
       point; surrogate pairs are not recombined. *)
    if code < 0x80 then Buffer.add_char buf (Char.chr code)
    else if code < 0x800 then begin
      Buffer.add_char buf (Char.chr (0xC0 lor (code lsr 6)));
      Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
    end
    else begin
      Buffer.add_char buf (Char.chr (0xE0 lor (code lsr 12)));
      Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
      Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
    end
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string"
      else
        let c = s.[!pos] in
        advance ();
        match c with
        | '"' -> Buffer.contents buf
        | '\\' -> (
            if !pos >= n then fail "unterminated escape";
            let e = s.[!pos] in
            advance ();
            match e with
            | '"' | '\\' | '/' ->
                Buffer.add_char buf e;
                go ()
            | 'n' -> Buffer.add_char buf '\n'; go ()
            | 'r' -> Buffer.add_char buf '\r'; go ()
            | 't' -> Buffer.add_char buf '\t'; go ()
            | 'b' -> Buffer.add_char buf '\b'; go ()
            | 'f' -> Buffer.add_char buf '\012'; go ()
            | 'u' ->
                if !pos + 4 > n then fail "truncated \\u escape";
                let hex = String.sub s !pos 4 in
                pos := !pos + 4;
                (match int_of_string_opt ("0x" ^ hex) with
                | Some code -> utf8_add buf code
                | None -> fail "bad \\u escape");
                go ()
            | _ -> fail "unknown escape")
        | c -> Buffer.add_char buf c; go ()
    in
    go ()
  in
  let parse_number () =
    let start = !pos in
    let is_num_char c =
      match c with
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while !pos < n && is_num_char s.[!pos] do
      advance ()
    done;
    let tok = String.sub s start (!pos - start) in
    let is_float =
      String.contains tok '.' || String.contains tok 'e'
      || String.contains tok 'E'
    in
    if is_float then
      match float_of_string_opt tok with
      | Some f -> Float f
      | None -> fail (Printf.sprintf "bad number %S" tok)
    else
      match int_of_string_opt tok with
      | Some i -> Int i
      | None -> (
          match float_of_string_opt tok with
          | Some f -> Float f
          | None -> fail (Printf.sprintf "bad number %S" tok))
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | None -> fail "unexpected end of input"
    | Some '"' -> Str (parse_string ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some '{' -> parse_obj ()
    | Some '[' -> parse_list ()
    | Some ('-' | '0' .. '9') -> parse_number ()
    | Some c -> fail (Printf.sprintf "unexpected character '%c'" c)
  and parse_obj () =
    expect '{';
    skip_ws ();
    if peek () = Some '}' then begin
      advance ();
      Obj []
    end
    else
      let rec fields acc =
        skip_ws ();
        let k = parse_string () in
        skip_ws ();
        expect ':';
        let v = parse_value () in
        skip_ws ();
        match peek () with
        | Some ',' ->
            advance ();
            fields ((k, v) :: acc)
        | Some '}' ->
            advance ();
            Obj (List.rev ((k, v) :: acc))
        | _ -> fail "expected ',' or '}'"
      in
      fields []
  and parse_list () =
    expect '[';
    skip_ws ();
    if peek () = Some ']' then begin
      advance ();
      List []
    end
    else
      let rec elems acc =
        let v = parse_value () in
        skip_ws ();
        match peek () with
        | Some ',' ->
            advance ();
            elems (v :: acc)
        | Some ']' ->
            advance ();
            List (List.rev (v :: acc))
        | _ -> fail "expected ',' or ']'"
      in
      elems []
  in
  match
    let v = parse_value () in
    skip_ws ();
    if !pos <> n then fail "trailing garbage";
    v
  with
  | v -> Ok v
  | exception Parse_error msg -> Error msg

(* Accessors used by the compare gate and the trace validator. *)

let member k = function
  | Obj fields -> List.assoc_opt k fields
  | _ -> None

let to_float_opt = function
  | Float f -> Some f
  | Int i -> Some (float_of_int i)
  | _ -> None

let ints l = List (List.map (fun i -> Int i) l)
