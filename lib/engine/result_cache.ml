module Obs = Ujam_obs.Obs
module Machine = Ujam_machine.Machine

(* Intrusive doubly-linked recency list over hash-table nodes: head is
   most recent, tail is next to evict.  A sentinel-free list with
   option links keeps the node type self-contained. *)
type 'v node = {
  key : string;
  mutable value : 'v;
  mutable prev : 'v node option;  (* towards head / more recent *)
  mutable next : 'v node option;  (* towards tail / less recent *)
}

type 'v t = {
  capacity : int;
  table : (string, 'v node) Hashtbl.t;
  mutable head : 'v node option;
  mutable tail : 'v node option;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
  m_hits : Obs.Counter.t option;
  m_misses : Obs.Counter.t option;
  m_evictions : Obs.Counter.t option;
}

let create ?metrics_prefix ~capacity () =
  if capacity <= 0 then
    invalid_arg "Result_cache.create: capacity must be positive";
  let counter suffix =
    Option.map (fun p -> Obs.counter (p ^ suffix)) metrics_prefix
  in
  { capacity;
    table = Hashtbl.create (min capacity 1024);
    head = None;
    tail = None;
    hits = 0;
    misses = 0;
    evictions = 0;
    m_hits = counter ".hits";
    m_misses = counter ".misses";
    m_evictions = counter ".evictions" }

let bump c = if Obs.enabled () then Option.iter Obs.Counter.incr c

let unlink t node =
  (match node.prev with
  | Some p -> p.next <- node.next
  | None -> t.head <- node.next);
  (match node.next with
  | Some n -> n.prev <- node.prev
  | None -> t.tail <- node.prev);
  node.prev <- None;
  node.next <- None

let push_front t node =
  node.next <- t.head;
  node.prev <- None;
  (match t.head with Some h -> h.prev <- Some node | None -> ());
  t.head <- Some node;
  if t.tail = None then t.tail <- Some node

let find t key =
  match Hashtbl.find_opt t.table key with
  | Some node ->
      t.hits <- t.hits + 1;
      bump t.m_hits;
      if t.head != Some node then begin
        unlink t node;
        push_front t node
      end;
      Some node.value
  | None ->
      t.misses <- t.misses + 1;
      bump t.m_misses;
      None

let store t key value =
  match Hashtbl.find_opt t.table key with
  | Some node ->
      node.value <- value;
      if t.head != Some node then begin
        unlink t node;
        push_front t node
      end
  | None ->
      if Hashtbl.length t.table >= t.capacity then begin
        match t.tail with
        | Some lru ->
            unlink t lru;
            Hashtbl.remove t.table lru.key;
            t.evictions <- t.evictions + 1;
            bump t.m_evictions
        | None -> ()
      end;
      let node = { key; value; prev = None; next = None } in
      Hashtbl.replace t.table key node;
      push_front t node

let fold t ~init ~f =
  let rec go acc = function
    | None -> acc
    | Some node -> go (f acc node.key node.value) node.next
  in
  go init t.head

type stats = {
  hits : int;
  misses : int;
  evictions : int;
  size : int;
  capacity : int;
}

let stats (t : _ t) =
  { hits = t.hits;
    misses = t.misses;
    evictions = t.evictions;
    size = Hashtbl.length t.table;
    capacity = t.capacity }

let fingerprint ~op ~(machine : Machine.t) ~bound ~max_loops ~model ~seq
    ?(extra = "") nest =
  let buf = Buffer.create 160 in
  let str s =
    Buffer.add_string buf (string_of_int (String.length s));
    Buffer.add_char buf ':';
    Buffer.add_string buf s
  in
  let int i =
    Buffer.add_string buf (string_of_int i);
    Buffer.add_char buf ';'
  in
  str op;
  (* every machine field the analysis reads; the name is advisory but
     two same-name machines with different geometry must not collide *)
  str machine.Machine.name;
  int machine.Machine.mem_issue;
  int machine.Machine.fp_issue;
  int machine.Machine.fp_latency;
  int machine.Machine.fp_registers;
  int machine.Machine.cache_size;
  int machine.Machine.cache_line;
  int machine.Machine.associativity;
  int machine.Machine.cache_access;
  int machine.Machine.miss_penalty;
  Buffer.add_string buf
    (Printf.sprintf "%Lx;" (Int64.bits_of_float machine.Machine.prefetch_bandwidth));
  (* the hierarchy, when present: two machines differing only in their
     levels must not share analysis results *)
  List.iter
    (fun (l : Machine.Level.t) ->
      str l.Machine.Level.name;
      int l.Machine.Level.size;
      int l.Machine.Level.line;
      int l.Machine.Level.assoc;
      int l.Machine.Level.access;
      int l.Machine.Level.penalty;
      Buffer.add_char buf
        (match l.Machine.Level.write with
        | Machine.Level.Write_allocate -> 'A'
        | Machine.Level.Write_through -> 'T'))
    machine.Machine.levels;
  int bound;
  int max_loops;
  str model;
  Buffer.add_char buf (if seq then 'S' else '-');
  str extra;
  Buffer.add_string buf (Ujam_ir.Canon.digest nest);
  Digest.to_hex (Digest.string (Buffer.contents buf))
