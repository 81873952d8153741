let nest n = n
let clear () = ()
