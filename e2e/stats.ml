(* Order statistics and process measurements. *)

(* Linearly interpolated quantile of a sample (q in [0, 1]). *)
let quantile samples q =
  let a = Array.copy samples in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 0 then Float.nan
  else
    let pos = q *. float_of_int (n - 1) in
    let i = int_of_float pos in
    let frac = pos -. float_of_int i in
    if i + 1 >= n then a.(n - 1) else a.(i) +. (frac *. (a.(i + 1) -. a.(i)))

let median samples = quantile samples 0.5

(* Peak resident set size of a process (default: this one) in MB:
   VmHWM from /proc/PID/status.  Where that is missing, this process's
   top heap size stands in. *)
let peak_rss_mb ?(pid = 0) () =
  let from_proc =
    try
      let ic =
        open_in
          (Printf.sprintf "/proc/%s/status" (if pid = 0 then "self" else string_of_int pid))
      in
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () ->
          let rec scan () =
            match input_line ic with
            | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
                Scanf.sscanf
                  (String.sub line 6 (String.length line - 6))
                  " %d kB"
                  (fun kb -> Some (float_of_int kb /. 1024.0))
            | _ -> scan ()
            | exception End_of_file -> None
          in
          scan ())
    with Sys_error _ | Scanf.Scan_failure _ | End_of_file -> None
  in
  match from_proc with
  | Some mb -> mb
  | None ->
      float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
      /. 1048576.0
