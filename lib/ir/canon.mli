(** Canonical forms and content digests of loop nests.

    Two nests that differ only in loop-variable names, the nest label,
    or the operand order of commutative floating-point operations
    describe the same optimization problem: every analysis in the
    library addresses loops by {e level} and references by their
    [H]-matrix/constant structure, never by spelling.  [canon] maps a
    nest to the representative of its equivalence class — loop
    variables alpha-renamed to [i0..i{d-1}], the name dropped, and the
    operand pairs of [+] and [*] sorted under a total structural order
    (IEEE addition and multiplication are commutative, so the
    representative computes the same values) — and [digest] hashes a
    self-delimiting encoding of that representative.

    The digest is the content address used by the serve daemon's
    result cache ({!Ujam_engine.Result_cache}), the engine's
    corpus-level work deduplication, and the fuzz harness's duplicate
    skipping: equal digests mean the cached analysis transfers
    verbatim.  Collisions beyond structural equality would require an
    MD5 collision between two valid encodings; the property suite pins
    digest stability under alpha-renaming and idempotence of [canon]. *)

val canon : Nest.t -> Nest.t
(** The canonical representative: variables renamed to [i0..i{d-1}],
    name set to [""], commutative operand pairs sorted.  Idempotent;
    the result is only meant for hashing and equality, never for
    further transformation (the spelling of the original is lost). *)

val encode : Nest.t -> string
(** A stable, self-delimiting encoding of a nest {e as given} (no
    canonicalization): loop headers with exact affine coefficients,
    statements in order, float literals by their IEEE bit pattern.
    [encode a = encode b] iff the two nests are structurally equal
    including names. *)

val digest : Nest.t -> string
(** [digest n] is the MD5 hex digest of [encode (canon n)] — stable
    under alpha-renaming, relabeling, and commutative operand order.
    Memoized per nest {e object} (identity-keyed, weak, Domain-safe):
    the first call on a given value pays the full canonicalize+hash
    cost, later calls on the same value are O(1).  A structurally
    equal but distinct value is digested afresh; nothing interns nests
    (DESIGN.md §14). *)

val memo_clear : unit -> unit

val equal : Nest.t -> Nest.t -> bool
(** Structural equality of canonical forms: [digest a = digest b]
    without the hashing.  Physically equal nests short-circuit. *)
