(** Two-qubit block re-synthesis (Qiskit's Collect2qBlocks +
    UnitarySynthesis, Section III of the paper).

    Each collected block's 4x4 unitary is re-synthesized by the KAK
    decomposer; the new body replaces the block when it spends fewer CNOTs
    (or the same CNOTs with fewer total gates).  This is the optimization
    that can make an inserted SWAP cost 2, 1 or even 0 extra CNOTs.

    Decisions are memoized for the length of one {!run} call, keyed on the
    block's exact signature: every op's [Gate.add_signature] bits plus the
    block-local wire (0 = lo, 1 = hi) of each operand.  Blocks with equal
    keys have equal unitaries and costs, so a repeated block is decided
    once and its replacement mapped onto its own wires.  No state survives
    the call.

    Observability: [synth.blocks_considered] counts every block,
    [synth.blocks_resynthesized] every replaced block, and
    [synth2q.kak_decompositions] only the distinct blocks of the call. *)

val run : Qcircuit.Circuit.t -> Qcircuit.Circuit.t

val resynth_gain : Blocks.block -> int
(** CNOTs saved by re-synthesizing the block ([current - optimal], >= 0). *)
