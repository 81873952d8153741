open Ujam_core

type t = {
  ctx : Analysis_ctx.t;
  measure : Ujam_linalg.Vec.t -> Bruteforce.metrics;
  sweep : Bruteforce.metrics array Lazy.t;
}

let make ?(bound = 4) ?(max_loops = 2) ?metrics ~machine nest =
  let ctx = Analysis_ctx.create ~bound ~max_loops ~machine nest in
  let measure = Option.value metrics ~default:(Bruteforce.metrics ~machine) nest in
  let vectors () = Unroll_space.vectors (Analysis_ctx.space ctx) in
  { ctx; measure; sweep = lazy (Array.of_list (List.map measure (vectors ()))) }

let nest t = Analysis_ctx.nest t.ctx
let machine t = Analysis_ctx.machine t.ctx
let ctx t = t.ctx
let sweep t = Lazy.force t.sweep

let metrics t u =
  let space = Analysis_ctx.space t.ctx in
  if Unroll_space.mem space u then (sweep t).(Unroll_space.index space u) else t.measure u
