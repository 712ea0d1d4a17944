(** Two-qubit unitary synthesis into {1q gates + CX} with the minimal CNOT
    count (Qiskit's [TwoQubitBasisDecomposer] analog).

    Emitted ops act on local qubits 0 (most significant) and 1; the caller
    maps them onto circuit qubits.  Output is correct up to global phase. *)

val synthesize : Mathkit.Mat.t -> (Qgate.Gate.t * int list) list
(** Synthesize a 4x4 unitary with 0-3 CNOTs according to its Weyl chamber
    position.  One-qubit factors are emitted as [U(theta,phi,lam)] gates
    (identities dropped).  Each call counts one
    [synth2q.kak_decompositions]; since {!Unitary_synthesis.run} memoizes
    its decisions per call, in the pipeline that counter is the number of
    distinct blocks per pass.
    @raise Invalid_argument if the input is not a 4x4 unitary. *)

val cnot_count : Mathkit.Mat.t -> int
(** Same as {!Weyl.cnot_cost}. *)

val ops_unitary : int -> (Qgate.Gate.t * int list) list -> Mathkit.Mat.t
(** Dense unitary of an op list over [n] qubits; exposed for reuse in tests
    and in block resynthesis. *)
