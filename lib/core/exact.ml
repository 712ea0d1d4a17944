open Topology

(* Optimal SWAP minimization as token swapping (Wagner et al. 2206.01294,
   Ito et al. 2305.02059): IDA* / branch-and-bound over mapping states with
   an admissible distance lower bound and canonical state hashing for
   transposition pruning.  Dependency-free by construction — no ILP solver,
   just the flat Topology.Distmat and the coupling edge list. *)

type budget = { max_nodes : int }

let default_budget = { max_nodes = 200_000 }

type route_outcome =
  | Routed of { n_swaps : int; initial_layout : int array }
  | Route_budget_exceeded

let c_nodes = Qobs.counter "exact.nodes_expanded"
let c_trips = Qobs.counter "exact.budget_trips"
let c_solved = Qobs.counter "exact.solved"

exception Out_of_budget

(* per-solve node budget, shared by every layout a free-layout solve tries *)
type gas = { mutable nodes : int; limit : int }

let gas_of b = { nodes = 0; limit = b.max_nodes }

let burn gas =
  gas.nodes <- gas.nodes + 1;
  Qobs.incr c_nodes;
  if gas.nodes > gas.limit then raise Out_of_budget

(* ---- the admissible lower bound ----

   For pairwise-disjoint pairs at hop distances d_i, any solution needs at
   least max_i (d_i - 1) swaps (one pair's distance drops by at most 1 per
   swap) and at least ceil(sum_i (d_i - 1) / 2) swaps (a swap moves two
   physical qubits; with disjoint pairs it touches at most two pairs, each
   by at most 1).  Both remain valid when gates execute one at a time: a
   pair leaves the sum only once its term is already 0. *)

let lower_bound ~dist pairs =
  let d = Distmat.raw dist and dn = Distmat.n dist in
  let mx = ref 0 and sum = ref 0 in
  List.iter
    (fun (a, b) ->
      let dd = d.((a * dn) + b) in
      if not (Float.is_finite dd) then invalid_arg "Exact.lower_bound: unreachable pair";
      let need = max 0 (int_of_float dd - 1) in
      if need > !mx then mx := need;
      sum := !sum + need)
    pairs;
  max !mx ((!sum + 1) / 2)

(* ---- whole-circuit optimum ----

   Only the two-qubit structure constrains routing: one-qubit gates and
   directives execute under any mapping.  A gate is ready once its per-wire
   predecessors have executed; ready gates whose mapped qubits are adjacent
   are executed greedily (execution never changes the mapping, so eager
   execution preserves optimality).  The search state is therefore
   (mapping, executed set), with the executed set a bitmask — circuits with
   more than 62 two-qubit gates are out of scope for the oracle and report
   Route_budget_exceeded immediately. *)

type problem = {
  gates : (int * int) array;  (** logical qubit pairs, circuit order *)
  prev : (int * int) array;  (** per-gate (prev on wire a, prev on wire b), -1 = none *)
  n_log : int;
}

let problem_of_circuit circuit =
  let n_log = Qcircuit.Circuit.n_qubits circuit in
  let gates =
    List.filter_map
      (fun (i : Qcircuit.Circuit.instr) ->
        if Qgate.Gate.is_two_qubit i.gate then
          match i.qubits with [ a; b ] -> Some (a, b) | _ -> None
        else begin
          if Qgate.Gate.arity i.gate > 2 && not (Qgate.Gate.is_directive i.gate) then
            invalid_arg "Exact.min_swaps: lower gates to <=2 qubits first";
          None
        end)
      (Qcircuit.Circuit.instrs circuit)
    |> Array.of_list
  in
  let last = Array.make n_log (-1) in
  let prev =
    Array.mapi
      (fun i (a, b) ->
        let pa = last.(a) and pb = last.(b) in
        last.(a) <- i;
        last.(b) <- i;
        (pa, pb))
      gates
  in
  { gates; prev; n_log }

(* ready = unexecuted with both wire predecessors executed *)
let front_gates pb mask =
  let ready = ref [] in
  Array.iteri
    (fun i (pa, pb') ->
      if
        mask land (1 lsl i) = 0
        && (pa < 0 || mask land (1 lsl pa) <> 0)
        && (pb' < 0 || mask land (1 lsl pb') <> 0)
      then ready := i :: !ready)
    pb.prev;
  List.rev !ready

let solve_fixed ~gas ~coupling ~dist pb l2p0 ~best_bound =
  let n_gates = Array.length pb.gates in
  let all_done = (1 lsl n_gates) - 1 in
  let edges = Coupling.edges coupling in
  let l2p = Array.copy l2p0 in
  let n_phys = Coupling.n_qubits coupling in
  let occupied = Array.make n_phys false in
  Array.iter (fun p -> occupied.(p) <- true) l2p;
  let apply (u, v) =
    Array.iteri (fun l p -> if p = u then l2p.(l) <- v else if p = v then l2p.(l) <- u) l2p;
    let ou = occupied.(u) in
    occupied.(u) <- occupied.(v);
    occupied.(v) <- ou
  in
  (* drain: execute every ready gate whose mapped pair is adjacent *)
  let rec drain mask =
    let progressed = ref false in
    let mask = ref mask in
    List.iter
      (fun i ->
        let a, b = pb.gates.(i) in
        if Coupling.connected coupling l2p.(a) l2p.(b) then begin
          mask := !mask lor (1 lsl i);
          progressed := true
        end)
      (front_gates pb !mask);
    if !progressed then drain !mask else !mask
  in
  let front_pairs mask =
    List.filter_map
      (fun i ->
        let a, b = pb.gates.(i) in
        if Coupling.connected coupling l2p.(a) l2p.(b) then None
        else Some (l2p.(a), l2p.(b)))
      (front_gates pb mask)
  in
  let h mask =
    try lower_bound ~dist (front_pairs mask) with Invalid_argument _ -> raise Exit
  in
  let key mask = (String.init pb.n_log (fun l -> Char.chr l2p.(l)), mask) in
  let seen = Hashtbl.create 4096 in
  let mask0 = drain 0 in
  let rec dfs g mask bound =
    if mask = all_done then Some g
    else begin
      let hh = h mask in
      if g + hh > bound then None
      else begin
        burn gas;
        let rec try_edges best = function
          | [] -> best
          | ((u, v) as e) :: rest ->
              if (not occupied.(u)) && not occupied.(v) then try_edges best rest
              else begin
                apply e;
                let mask' = drain mask in
                let k = key mask' in
                let worth =
                  match Hashtbl.find_opt seen k with
                  | Some g' when g' <= g + 1 -> false
                  | _ ->
                      Hashtbl.replace seen k (g + 1);
                      true
                in
                let r = if worth then dfs (g + 1) mask' bound else None in
                apply e;
                match r with Some _ -> r | None -> try_edges best rest
              end
        in
        try_edges None edges
      end
    end
  in
  if mask0 = all_done then Some 0
  else
    (* [h] raising [Exit] anywhere means some front gate's qubits sit in
       different components under this placement: component membership is
       invariant under swaps, so the layout is unroutable outright *)
    let rec deepen bound =
      if bound > best_bound then None
      else begin
        Hashtbl.reset seen;
        Hashtbl.replace seen (key mask0) 0;
        match dfs 0 mask0 bound with
        | Some g -> Some g
        | None -> deepen (bound + 1)
        | exception Exit -> None
      end
    in
    match h mask0 with exception Exit -> None | h0 -> deepen h0

(* enumerate injective layouts (logical -> physical), calling [f] on each;
   the scratch array is reused, so [f] must copy if it keeps the layout *)
let iter_layouts ~n_log ~n_phys f =
  let layout = Array.make n_log 0 in
  let used = Array.make n_phys false in
  let rec go l =
    if l = n_log then f layout
    else
      for p = 0 to n_phys - 1 do
        if not used.(p) then begin
          used.(p) <- true;
          layout.(l) <- p;
          go (l + 1);
          used.(p) <- false
        end
      done
  in
  go 0

let min_swaps ?(budget = default_budget) ?init_layout coupling circuit =
  Qobs.span "exact.min_swaps" @@ fun () ->
  let n_phys = Coupling.n_qubits coupling in
  let pb = problem_of_circuit circuit in
  if pb.n_log > n_phys then invalid_arg "Exact.min_swaps: circuit larger than device";
  if n_phys > 255 then invalid_arg "Exact.min_swaps: device too large for the oracle";
  if Array.length pb.gates > 62 then Route_budget_exceeded
  else begin
    let dist = Distmat.hops coupling in
    let gas = gas_of budget in
    match init_layout with
    | Some l2p ->
        if Array.length l2p <> pb.n_log then
          invalid_arg "Exact.min_swaps: layout size mismatch";
        begin
          match solve_fixed ~gas ~coupling ~dist pb l2p ~best_bound:max_int with
          | Some n ->
              Qobs.incr c_solved;
              Routed { n_swaps = n; initial_layout = Array.copy l2p }
          | None ->
              Qobs.incr c_trips;
              Route_budget_exceeded
          | exception Out_of_budget ->
              Qobs.incr c_trips;
              Route_budget_exceeded
        end
    | None ->
        (* free-layout optimum: branch-and-bound over every injective
           placement, sharing one budget; the incumbent tightens the bound
           so most layouts are cut off at their root h *)
        let best = ref None in
        let best_layout = ref [||] in
        begin
          match
            iter_layouts ~n_log:pb.n_log ~n_phys (fun l2p ->
                let bound =
                  match !best with None -> max_int | Some b -> b - 1
                in
                if bound >= 0 then
                  match solve_fixed ~gas ~coupling ~dist pb l2p ~best_bound:bound with
                  | Some n ->
                      best := Some n;
                      best_layout := Array.copy l2p
                  | None -> ())
          with
          | () -> begin
              match !best with
              | Some n ->
                  Qobs.incr c_solved;
                  Routed { n_swaps = n; initial_layout = !best_layout }
              | None ->
                  Qobs.incr c_trips;
                  Route_budget_exceeded
            end
          | exception Out_of_budget ->
              Qobs.incr c_trips;
              Route_budget_exceeded
        end
  end
