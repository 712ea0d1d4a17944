(** Exact SWAP-minimization oracle.

    Routing-to-adjacency is token swapping (Wagner et al., arXiv:2206.01294;
    Ito et al., arXiv:2305.02059): tokens (logical qubits) sit on the
    vertices of the coupling graph, a SWAP exchanges two adjacent tokens,
    and the goal is to bring designated token pairs next to each other with
    as few SWAPs as possible.  This module solves that exactly, with no
    external solver dependency: IDA* / branch-and-bound over mapping states,
    the admissible bound {!lower_bound} read from the flat
    {!Topology.Distmat}, and canonical state hashing for transposition
    pruning.

    {!min_swaps} is the minimal total SWAP count to route a whole (small)
    circuit, from a fixed initial layout or minimized over {e all}
    injective layouts: the ground truth of the optimality-gap harness and
    of the [audit.optimality] lint rule.

    The search is budgeted by expanded nodes only and reports
    {!Route_budget_exceeded} instead of running away.  With no clock in
    the loop, the result is a pure function of its inputs: deterministic
    across runs, machines, and worker counts.

    Observability: [exact.nodes_expanded], [exact.solved] and
    [exact.budget_trips] counters, plus the [exact.min_swaps] span. *)

type budget = { max_nodes : int  (** search-node expansions before giving up *) }

val default_budget : budget
(** 200k nodes. *)

type route_outcome =
  | Routed of { n_swaps : int; initial_layout : int array }
  | Route_budget_exceeded

val lower_bound : dist:Topology.Distmat.t -> (int * int) list -> int
(** Admissible lower bound on the SWAPs needed to make every pair
    adjacent: [max (max_i (d_i - 1)) (ceil (sum_i (d_i - 1) / 2))] over the
    pairs' hop distances [d_i].  Pairs must be pairwise disjoint (a routing
    front layer always is).  {!min_swaps} prunes with it; exposed for the
    admissibility property tests.
    @raise Invalid_argument on an unreachable pair. *)

val min_swaps :
  ?budget:budget ->
  ?init_layout:int array ->
  Topology.Coupling.t ->
  Qcircuit.Circuit.t ->
  route_outcome
(** [min_swaps coupling circuit] is the provably minimal number of SWAPs
    that routes [circuit] (lowered to <=2-qubit gates; only the two-qubit
    structure constrains the answer) on [coupling].  With [init_layout]
    the optimum is relative to that fixed logical->physical placement;
    without it the oracle minimizes over {e every} injective initial
    layout (branch-and-bound with a shared incumbent), which is the true
    circuit-level optimum every heuristic router — layout search included —
    is compared against.  Circuits with more than 62 two-qubit gates
    report {!Route_budget_exceeded} immediately (the executed set is a
    bitmask). *)
