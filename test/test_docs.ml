(* DESIGN.md's source layout (section 6) against the library tree: every
   lib/*/*.ml file is listed, and every listed file exists. *)

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* The lib/<dir> rows of section 6's code block, continuation lines
   included, as "lib/<dir>/<file>.ml" paths. *)
let listed design =
  let rec drop_through p = function
    | [] -> []
    | l :: rest -> if p l then rest else drop_through p rest
  in
  let fence = String.starts_with ~prefix:"```" in
  let words l = List.filter (( <> ) "") (String.split_on_char ' ' l) in
  let rec rows dir acc = function
    | [] -> acc
    | l :: _ when fence l -> acc
    | l :: rest ->
        let dir, files =
          match words l with d :: fs when l.[0] <> ' ' -> (d, fs) | ws -> (dir, ws)
        in
        let files = List.filter (fun f -> Filename.check_suffix f ".ml") files in
        let acc =
          if String.starts_with ~prefix:"lib/" dir then
            List.map (fun f -> dir ^ "/" ^ f) files @ acc
          else acc
        in
        rows dir acc rest
  in
  String.split_on_char '\n' design
  |> drop_through (String.starts_with ~prefix:"## 6. Source layout")
  |> drop_through fence
  |> rows "" []
  |> List.sort_uniq compare

let on_disk root =
  Sys.readdir (Filename.concat root "lib")
  |> Array.to_list
  |> List.concat_map (fun d ->
         let dir = Filename.concat (Filename.concat root "lib") d in
         if Sys.is_directory dir then
           Sys.readdir dir |> Array.to_list
           |> List.filter (fun f -> Filename.check_suffix f ".ml")
           |> List.map (fun f -> "lib/" ^ d ^ "/" ^ f)
         else [])
  |> List.sort_uniq compare

let test_source_layout () =
  (* [dune test] runs in _build/default/test; [dune exec] at the root *)
  let root = if Sys.file_exists "../DESIGN.md" then ".." else "." in
  let listed = listed (read_file (Filename.concat root "DESIGN.md")) in
  let actual = on_disk root in
  Alcotest.(check bool) "section 6 found" true (listed <> []);
  Alcotest.(check (list string)) "lib files missing from DESIGN.md section 6" []
    (List.filter (fun f -> not (List.mem f listed)) actual);
  Alcotest.(check (list string)) "DESIGN.md section 6 names files that do not exist" []
    (List.filter (fun f -> not (List.mem f actual)) listed)

let suite =
  [ Alcotest.test_case "DESIGN.md source layout = lib tree" `Quick test_source_layout ]
