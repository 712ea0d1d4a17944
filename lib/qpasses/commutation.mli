(** Commutation analysis (Qiskit's CommutationAnalysis analog).

    For every wire, the ops touching that wire are grouped into maximal runs
    of pairwise-commuting instructions ("commute sets", Section IV-E of the
    paper).  Two instructions commute when their embedded unitaries commute
    on the union of their qubits.

    Two memos sit in front of that matrix check:
    - {!commute} caches results per gate pair in a per-domain cache (no
      lock), keyed on exact gate signatures plus the relative qubit layout;
      it outlives calls and serves {!analyze}, NASSC's bonus and the
      [Qlint] audit alike.
    - {!analyze} keeps its own pair-verdict memo for the length of one
      call: each op's signature is interned to an integer once, and a pair
      is keyed on the two integers plus a packed relative-layout code.  A
      miss falls through to {!commute}.  Nothing of it survives the call,
      so it needs no reset and its hit count is a pure function of the
      circuit.

    {!analyze} builds the per-wire op lists in one pass over the circuit
    and records set indices in per-op arrays, so it runs in time linear in
    the circuit plus the pairwise checks inside each set.

    Observability: cache traffic is counted on the current {!Qobs}
    collector as [commutation.cache_lookups] / [cache_hits] /
    [cache_misses] (hits + misses = lookups), plus
    [commutation.uncached_evals] for [Unitary2] operands that bypass the
    per-domain cache, and [commutation.pair_verdicts_reused] for pairs the
    per-analysis memo answered. *)

type t

val analyze : Qcircuit.Circuit.t -> t

val sets_on_wire : t -> int -> int list list
(** [sets_on_wire t q] lists the commute sets on wire [q] in circuit order;
    each set is the list of instruction indices (circuit order). *)

val set_index : t -> wire:int -> op:int -> int
(** Index of the commute set holding instruction [op] on [wire].
    @raise Not_found if [op] does not touch [wire]. *)

val commute :
  Qgate.Gate.t * int list -> Qgate.Gate.t * int list -> bool
(** Pairwise commutation check between two instructions (exact, matrix
    based).  Instructions on disjoint qubits always commute. *)

val reset_cache : unit -> unit
(** Empty the calling domain's commutation cache.  The trial engine resets
    at the start of every traced trial so the cache counters above are a
    pure function of the trial's work, independent of domain reuse. *)
