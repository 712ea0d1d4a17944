open Qgate

let c_considered = Qobs.counter "synth.blocks_considered"
let c_accepted = Qobs.counter "synth.blocks_resynthesized"

let resynth_gain b =
  let current = Blocks.block_cx_cost b in
  let optimal = Weyl.cnot_cost (Blocks.block_unitary b) in
  max 0 (current - optimal)

(* What to do with a block, in block-local wires (0 = lo, 1 = hi). *)
type decision = Keep | Replace of (Gate.t * int list) list

(* Exact block signature: every op's [Gate.add_signature] bits and the local
   wire of each operand.  Blocks with equal keys have equal unitaries, costs
   and op counts, hence equal decisions. *)
let block_key (b : Blocks.block) =
  let lo, _ = b.pair in
  let buf = Buffer.create 64 in
  List.iter
    (fun (i : Qcircuit.Circuit.instr) ->
      Gate.add_signature buf i.gate;
      List.iter (fun q -> Buffer.add_char buf (if q = lo then '\000' else '\001')) i.qubits;
      Buffer.add_char buf '\255')
    b.ops;
  Buffer.contents buf

(* The new body replaces the block when it spends fewer CNOTs, or the same
   CNOTs with fewer gates. *)
let decide (b : Blocks.block) =
  let ops = Synth2q.synthesize (Blocks.block_unitary b) in
  let new_cx = List.fold_left (fun acc (g, _) -> acc + Blocks.gate_cx_cost g) 0 ops in
  let old_cx = Blocks.block_cx_cost b in
  if new_cx < old_cx || (new_cx = old_cx && List.length ops < List.length b.ops) then
    Replace ops
  else Keep

let run c =
  (* decisions memoized for this call only: a repeated block costs one
     hash lookup instead of a KAK decomposition *)
  let memo = Hashtbl.create 64 in
  let improve = function
    | Blocks.Single i -> [ i ]
    | Blocks.Block b -> (
        Qobs.incr c_considered;
        let k = block_key b in
        let d =
          match Hashtbl.find_opt memo k with
          | Some d -> d
          | None ->
              let d = decide b in
              Hashtbl.add memo k d;
              d
        in
        match d with
        | Keep -> b.ops
        | Replace ops ->
            Qobs.incr c_accepted;
            let lo, hi = b.pair in
            List.map
              (fun (g, qs) ->
                {
                  Qcircuit.Circuit.gate = g;
                  qubits = List.map (fun q -> if q = 0 then lo else hi) qs;
                })
              ops)
  in
  Qcircuit.Circuit.create (Qcircuit.Circuit.n_qubits c)
    (List.concat_map improve (Blocks.collect c))
