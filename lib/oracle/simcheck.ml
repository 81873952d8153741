open Ujam_ir
open Ujam_core
open Ujam_machine

type outcome = { simulated : int; mismatches : Mismatch.t list }

let nothing = { simulated = 0; mismatches = [] }

(* Up to [n] indices spread evenly over [0 .. len-1], endpoints
   included: the predicted-best, predicted-worst and interior points. *)
let spread ~n len =
  if len <= n then List.init len Fun.id
  else
    List.sort_uniq compare
      (List.init n (fun i -> i * (len - 1) / (n - 1)))

(* Candidates replayed, significance margins (relative; absolute in
   misses per original iteration), largest replay in references. *)
let candidates = 4 and rel_tol = 0.5 and abs_tol = 0.02 and max_accesses = 150_000

let run s =
  let nest = Subject.nest s and machine = Subject.machine s in
  match Nest.iterations nest with
  | None -> nothing (* affine bounds: trip counts unknown, cannot replay *)
  | Some iterations ->
      let ctx = Subject.ctx s in
      let bal = Analysis_ctx.balance ctx in
      let space = Analysis_ctx.space ctx in
      let rate u =
        Balance.misses bal u /. float_of_int (Unroll_space.copies u)
      in
      let ranked =
        Unroll_space.fold space [] (fun acc u ->
            if Unroll.divides nest u then (u, rate u) :: acc else acc)
        |> List.sort (fun (ua, ra) (ub, rb) ->
               let c = Float.compare ra rb in
               if c <> 0 then c else Ujam_linalg.Vec.compare ua ub)
      in
      if List.length ranked < 2 then nothing
      else
        let picked =
          List.filteri
            (fun i _ -> List.mem i (spread ~n:candidates (List.length ranked)))
            ranked
        in
        let measured =
          List.filter_map
            (fun (u, predicted) ->
              let unrolled = Transform.apply_exn (Transform.Unroll u) nest in
              let plan = Scalar_replace.plan unrolled in
              let accesses =
                iterations / Unroll_space.copies u * List.length plan.Scalar_replace.kept
              in
              if accesses > max_accesses then None
              else
                let r = Ujam_sim.Runner.run ~machine ~plan unrolled in
                Some
                  (u, predicted,
                   float_of_int r.Ujam_sim.Runner.misses
                   /. float_of_int iterations))
            picked
        in
        let clearly_above a b =
          a -. b > abs_tol +. (rel_tol *. Float.max a b)
        in
        let mismatches = ref [] in
        let rec pairs = function
          | [] -> ()
          | (u_b, pred_b, meas_b) :: rest ->
              List.iter
                (fun (u_w, pred_w, meas_w) ->
                  (* [rest] is predicted no better than the head; flag the
                     pair when the prediction gap and the measured
                     inversion are both significant. *)
                  if clearly_above pred_w pred_b && clearly_above meas_b meas_w
                  then
                    mismatches :=
                      Mismatch.make ~nest:(Nest.name nest)
                        ~machine:machine.Machine.name
                        (Mismatch.Sim_order
                           { u_better = u_b;
                             u_worse = u_w;
                             predicted_better = pred_b;
                             predicted_worse = pred_w;
                             measured_better = meas_b;
                             measured_worse = meas_w })
                      :: !mismatches)
                rest;
              pairs rest
        in
        pairs measured;
        { simulated = List.length measured; mismatches = List.rev !mismatches }

let check ?bound ?max_loops ~machine nest = run (Subject.make ?bound ?max_loops ~machine nest)
