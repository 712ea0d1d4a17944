open Mathkit
open Qgate

(* cache of pairwise commutation results, keyed by gate pair + qubit overlap
   pattern.  One cache per domain (DLS), so the trials engine's parallel
   optimization passes never contend on a lock; entries are pure functions
   of the key, so a cold cache costs only recomputes.  [reset_cache] empties
   the calling domain's cache — the trial engine calls it at the start of
   every traced trial so cache hit/miss counters are a pure function of the
   trial's own work (deterministic across worker counts). *)
let cache_key : (string, bool) Hashtbl.t Domain.DLS.key =
  Domain.DLS.new_key (fun () -> Hashtbl.create 256)

let reset_cache () = Hashtbl.reset (Domain.DLS.get cache_key)

let c_lookups = Qobs.counter "commutation.cache_lookups"
let c_hits = Qobs.counter "commutation.cache_hits"
let c_misses = Qobs.counter "commutation.cache_misses"
let c_uncached = Qobs.counter "commutation.uncached_evals"

(* cache key: exact binary gate signatures (Gate.add_signature — injective,
   no Format round-trips on the hot path) plus the relative qubit layout of
   the two operand lists *)
let key (g1, qs1) (g2, qs2) =
  let all = List.sort_uniq compare (qs1 @ qs2) in
  let buf = Buffer.create 32 in
  let rel qs =
    List.iter
      (fun q ->
        Buffer.add_char buf
          (Char.chr (Option.get (List.find_index (( = ) q) all))))
      qs;
    Buffer.add_char buf '\255'
  in
  Gate.add_signature buf g1;
  rel qs1;
  Gate.add_signature buf g2;
  rel qs2;
  Buffer.contents buf

let compute_commute (g1, qs1) (g2, qs2) =
  let all = List.sort_uniq compare (qs1 @ qs2) in
  let n = List.length all in
  let local qs = List.map (fun q -> Option.get (List.find_index (( = ) q) all)) qs in
  let u1 = Qcircuit.Circuit.embed ~n (Unitary.of_gate g1) (local qs1) in
  let u2 = Qcircuit.Circuit.embed ~n (Unitary.of_gate g2) (local qs2) in
  Mat.frobenius_distance (Mat.mul u1 u2) (Mat.mul u2 u1) < 1e-9

let commute (g1, qs1) (g2, qs2) =
  if Gate.is_directive g1 || Gate.is_directive g2 then false
  else if not (List.exists (fun q -> List.mem q qs2) qs1) then true
  else
    match ((g1 : Gate.t), (g2 : Gate.t)) with
    | Gate.Unitary2 _, _ | _, Gate.Unitary2 _ ->
        Qobs.incr c_uncached;
        compute_commute (g1, qs1) (g2, qs2)
    | _ ->
        let k = key (g1, qs1) (g2, qs2) in
        let cache = Domain.DLS.get cache_key in
        Qobs.incr c_lookups;
        (match Hashtbl.find_opt cache k with
        | Some v ->
            Qobs.incr c_hits;
            v
        | None ->
            Qobs.incr c_misses;
            let v = compute_commute (g1, qs1) (g2, qs2) in
            Hashtbl.replace cache k v;
            v)

type t = {
  wire_sets : int list list array;  (* per wire: sets in order, ops in order *)
  op_wires : int array array;  (* per op: its wires, operand order *)
  op_sets : int array array;  (* per op: set index on each of its wires *)
}

let c_pair_reuses = Qobs.counter "commutation.pair_verdicts_reused"

let rec mem_from (qs : int array) q k =
  k < Array.length qs && (qs.(k) = q || mem_from qs q (k + 1))

(* Relative layout of two operand lists, packed into one int: the two
   arities, then the rank of every operand in the sorted union, 4 bits a
   slot.  -1 when the slots would not fit (more than 13 operands). *)
let layout_code (qs1 : int array) (qs2 : int array) =
  let n1 = Array.length qs1 and n2 = Array.length qs2 in
  if n1 + n2 > 13 then -1
  else begin
    let rank q =
      let r = ref 0 in
      for k = 0 to n1 - 1 do
        if qs1.(k) < q then incr r
      done;
      for k = 0 to n2 - 1 do
        if qs2.(k) < q && not (mem_from qs1 qs2.(k) 0) then incr r
      done;
      !r
    in
    let code = ref ((n1 * 16) + n2) in
    for k = 0 to n1 - 1 do
      code := (!code * 16) + rank qs1.(k)
    done;
    for k = 0 to n2 - 1 do
      code := (!code * 16) + rank qs2.(k)
    done;
    !code
  end

module Pair_memo = Hashtbl.Make (struct
  type t = int * int * int

  let equal (a1, b1, c1) (a2, b2, c2) = a1 = a2 && b1 = b2 && c1 = c2
  let hash (a, b, c) = (((a * 65599) + b) * 65599) + c
end)

(* Pairwise verdicts memoized within one analysis.  [commute] is a pure
   function of the two gates (exact signatures) and their relative qubit
   layout, so the memo keys on interned per-op signature ids plus
   [layout_code] and falls through to [commute] on a miss.  It lives only
   as long as the analysis: no state outlives the call. *)
let pair_verdicts (instrs : Qcircuit.Circuit.instr array) op_wires =
  let interned = Hashtbl.create 64 in
  let buf = Buffer.create 32 in
  let sig_id =
    Array.map
      (fun (i : Qcircuit.Circuit.instr) ->
        Buffer.clear buf;
        Gate.add_signature buf i.gate;
        let s = Buffer.contents buf in
        match Hashtbl.find_opt interned s with
        | Some id -> id
        | None ->
            let id = Hashtbl.length interned in
            Hashtbl.add interned s id;
            id)
      instrs
  in
  let memo = Pair_memo.create 256 in
  fun a b ->
    let eval () =
      commute (instrs.(a).gate, instrs.(a).qubits) (instrs.(b).gate, instrs.(b).qubits)
    in
    let layout = layout_code op_wires.(a) op_wires.(b) in
    if layout < 0 then eval ()
    else begin
      let k = (sig_id.(a), sig_id.(b), layout) in
      match Pair_memo.find_opt memo k with
      | Some v ->
          Qobs.incr c_pair_reuses;
          v
      | None ->
          let v = eval () in
          Pair_memo.add memo k v;
          v
    end

let slot t ~wire ~op =
  if op < 0 || op >= Array.length t.op_wires then raise Not_found;
  let ws = t.op_wires.(op) in
  let rec find k =
    if k = Array.length ws then raise Not_found else if ws.(k) = wire then k else find (k + 1)
  in
  find 0

let analyze c =
  let n = Qcircuit.Circuit.n_qubits c in
  let instrs = Array.of_list (Qcircuit.Circuit.instrs c) in
  let op_wires = Array.map (fun (i : Qcircuit.Circuit.instr) -> Array.of_list i.qubits) instrs in
  let t =
    {
      wire_sets = Array.make (max n 1) [];
      op_wires;
      op_sets = Array.map (fun ws -> Array.make (Array.length ws) 0) op_wires;
    }
  in
  (* per-wire op lists in circuit order, built in one pass *)
  let ops_on = Array.make (max n 1) [] in
  for id = Array.length instrs - 1 downto 0 do
    Array.iter (fun q -> ops_on.(q) <- id :: ops_on.(q)) op_wires.(id)
  done;
  let commutes = pair_verdicts instrs op_wires in
  for q = 0 to n - 1 do
    (* group consecutive ops: a new op joins the current set iff it commutes
       with every member *)
    let sets = ref [] and current = ref [] in
    let close () =
      if !current <> [] then begin
        sets := List.rev !current :: !sets;
        current := []
      end
    in
    List.iter
      (fun id ->
        if Gate.is_directive instrs.(id).gate then begin
          close ();
          current := [ id ];
          close ()
        end
        else if List.for_all (fun m -> commutes m id) !current then current := id :: !current
        else begin
          close ();
          current := [ id ]
        end)
      ops_on.(q);
    close ();
    let in_order = List.rev !sets in
    t.wire_sets.(q) <- in_order;
    List.iteri
      (fun si set -> List.iter (fun id -> t.op_sets.(id).(slot t ~wire:q ~op:id) <- si) set)
      in_order
  done;
  t

let sets_on_wire t q = t.wire_sets.(q)

let set_index t ~wire ~op = t.op_sets.(op).(slot t ~wire ~op)
