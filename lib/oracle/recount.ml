open Ujam_ir
open Ujam_core
open Ujam_machine

let run ?perturb s =
  let bal = Analysis_ctx.balance (Subject.ctx s) in
  let mismatches = ref [] in
  Unroll_space.iter (Analysis_ctx.space (Subject.ctx s)) (fun u ->
      let predicted = Counts.predicted bal u in
      let predicted =
        match perturb with None -> predicted | Some f -> f u predicted
      in
      let measured = Counts.of_metrics (Subject.metrics s u) in
      if not (Counts.equal predicted measured) then
        List.iter
          (fun (field, get) ->
            if get predicted <> get measured then
              mismatches :=
                Mismatch.make ~nest:(Nest.name (Subject.nest s))
                  ~machine:(Subject.machine s).Machine.name
                  (Mismatch.Recount
                     { u;
                       field;
                       predicted = get predicted;
                       measured = get measured })
                :: !mismatches)
          Counts.fields);
  List.rev !mismatches

let check ?bound ?max_loops ?perturb ~machine nest =
  run ?perturb (Subject.make ?bound ?max_loops ~machine nest)
