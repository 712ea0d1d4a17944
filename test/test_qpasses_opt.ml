open Mathkit
open Qcircuit
open Qgate
open Qpasses

let check = Alcotest.(check bool)
let checki = Alcotest.(check int)

let preserves_unitary pass c =
  let u = Circuit.unitary c and u' = Circuit.unitary (pass c) in
  Mat.equal_up_to_phase u u'

(* random circuit generator over a small gate set *)
let random_circuit rng n len =
  let b = Circuit.Builder.create n in
  for _ = 1 to len do
    match Rng.int rng 8 with
    | 0 -> Circuit.Builder.add b Gate.H [ Rng.int rng n ]
    | 1 -> Circuit.Builder.add b (Gate.RZ (Rng.float rng 6.28)) [ Rng.int rng n ]
    | 2 -> Circuit.Builder.add b Gate.T [ Rng.int rng n ]
    | 3 -> Circuit.Builder.add b Gate.X [ Rng.int rng n ]
    | 4 -> Circuit.Builder.add b Gate.SX [ Rng.int rng n ]
    | 5 | 6 ->
        let a = Rng.int rng n in
        let c = (a + 1 + Rng.int rng (n - 1)) mod n in
        Circuit.Builder.add b Gate.CX [ a; c ]
    | _ ->
        let a = Rng.int rng n in
        let c = (a + 1 + Rng.int rng (n - 1)) mod n in
        Circuit.Builder.add b (Gate.CP (Rng.float rng 3.0)) [ a; c ]
  done;
  Circuit.Builder.circuit b

(* ---------- Optimize_1q ---------- *)

let test_zsx_identity () =
  (* the zsx rewrite must reproduce the U gate exactly up to phase *)
  let rng = Rng.create 5 in
  for _ = 1 to 50 do
    let theta = Rng.float rng 6.28
    and phi = Rng.float rng 6.28 -. 3.14
    and lam = Rng.float rng 6.28 -. 3.14 in
    let u = Euler.u_mat theta phi lam in
    let ops = Optimize_1q.zsx_ops theta phi lam in
    let v =
      List.fold_left (fun acc g -> Mat.mul (Unitary.of_gate g) acc) (Mat.identity 2) ops
    in
    check "zsx reproduces u" true (Mat.equal_up_to_phase u v)
  done

let test_zsx_special_cases () =
  (* theta = 0 costs no sx; theta = pi/2 costs one *)
  let count_sx ops = List.length (List.filter (( = ) Gate.SX) ops) in
  checki "theta=0 no sx" 0 (count_sx (Optimize_1q.zsx_ops 0.0 0.4 0.3));
  checki "theta=pi/2 one sx" 1 (count_sx (Optimize_1q.zsx_ops (Float.pi /. 2.0) 0.4 0.3));
  checki "generic two sx" 2 (count_sx (Optimize_1q.zsx_ops 1.0 0.4 0.3))

let test_optimize_1q_merges () =
  let c =
    Circuit.create 1
      [
        { gate = Gate.H; qubits = [ 0 ] };
        { gate = Gate.T; qubits = [ 0 ] };
        { gate = Gate.H; qubits = [ 0 ] };
        { gate = Gate.S; qubits = [ 0 ] };
      ]
  in
  let c' = Optimize_1q.run Optimize_1q.U_gate c in
  checki "merged into one u" 1 (Circuit.size c');
  check "unitary preserved" true (preserves_unitary (Optimize_1q.run Optimize_1q.U_gate) c)

let test_optimize_1q_cancels_inverse () =
  let c =
    Circuit.create 1
      [ { gate = Gate.H; qubits = [ 0 ] }; { gate = Gate.H; qubits = [ 0 ] } ]
  in
  checki "hh vanishes" 0 (Circuit.size (Optimize_1q.run Optimize_1q.U_gate c))

let test_optimize_1q_stops_at_2q () =
  let c =
    Circuit.create 2
      [
        { gate = Gate.H; qubits = [ 0 ] };
        { gate = Gate.CX; qubits = [ 0; 1 ] };
        { gate = Gate.H; qubits = [ 0 ] };
      ]
  in
  let c' = Optimize_1q.run Optimize_1q.U_gate c in
  checki "h cx h stays 3 ops" 3 (Circuit.size c')

let test_optimize_1q_random () =
  let rng = Rng.create 77 in
  for _ = 1 to 15 do
    let c = random_circuit rng 3 25 in
    check "1q merge preserves unitary (U)" true
      (preserves_unitary (Optimize_1q.run Optimize_1q.U_gate) c);
    check "1q merge preserves unitary (zsx)" true
      (preserves_unitary (Optimize_1q.run Optimize_1q.Zsx) c)
  done

(* ---------- Commutation ---------- *)

let test_commute_pairs () =
  check "cx shares control" true (Commutation.commute (Gate.CX, [ 0; 1 ]) (Gate.CX, [ 0; 2 ]));
  check "cx shares target" true (Commutation.commute (Gate.CX, [ 0; 2 ]) (Gate.CX, [ 1; 2 ]));
  check "cx chained do not commute" false
    (Commutation.commute (Gate.CX, [ 0; 1 ]) (Gate.CX, [ 1; 2 ]));
  check "rz on control commutes" true (Commutation.commute (Gate.RZ 0.3, [ 0 ]) (Gate.CX, [ 0; 1 ]));
  check "rz on target does not" false
    (Commutation.commute (Gate.RZ 0.3, [ 1 ]) (Gate.CX, [ 0; 1 ]));
  check "x on target commutes" true (Commutation.commute (Gate.X, [ 1 ]) (Gate.CX, [ 0; 1 ]));
  check "x on control does not" false (Commutation.commute (Gate.X, [ 0 ]) (Gate.CX, [ 0; 1 ]));
  check "disjoint always" true (Commutation.commute (Gate.H, [ 0 ]) (Gate.CX, [ 1; 2 ]));
  check "cz diagonal chain commutes" true (Commutation.commute (Gate.CZ, [ 0; 1 ]) (Gate.CZ, [ 1; 2 ]));
  check "cz same pair" true (Commutation.commute (Gate.CZ, [ 0; 1 ]) (Gate.CZ, [ 1; 0 ]))

let test_commutation_sets () =
  (* cx(0,1); cx(0,2); cx(0,1): all share control 0 -> one set on wire 0 *)
  let c =
    Circuit.create 3
      [
        { gate = Gate.CX; qubits = [ 0; 1 ] };
        { gate = Gate.CX; qubits = [ 0; 2 ] };
        { gate = Gate.CX; qubits = [ 0; 1 ] };
      ]
  in
  let an = Commutation.analyze c in
  checki "one set on control wire" 1 (List.length (Commutation.sets_on_wire an 0));
  (* wire 1 sees ops 0 and 2, which commute (same gate) -> one set *)
  checki "one set on wire 1" 1 (List.length (Commutation.sets_on_wire an 1));
  (* h breaks the set *)
  let c2 =
    Circuit.create 2
      [
        { gate = Gate.CX; qubits = [ 0; 1 ] };
        { gate = Gate.H; qubits = [ 0 ] };
        { gate = Gate.CX; qubits = [ 0; 1 ] };
      ]
  in
  let an2 = Commutation.analyze c2 in
  checki "h splits sets" 3 (List.length (Commutation.sets_on_wire an2 0))

(* The per-wire-scan analysis that [Commutation.analyze] replaced, kept as a
   reference: one scan of the whole circuit per wire, and a direct
   [Commutation.commute] call per (member, candidate) pair. *)
let reference_sets c =
  let instrs = Array.of_list (Circuit.instrs c) in
  Array.init (Circuit.n_qubits c) (fun q ->
      let on_wire =
        List.filter
          (fun id -> List.mem q instrs.(id).Circuit.qubits)
          (List.init (Array.length instrs) Fun.id)
      in
      let pair id = (instrs.(id).Circuit.gate, instrs.(id).Circuit.qubits) in
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
          else if List.for_all (fun m -> Commutation.commute (pair m) (pair id)) !current then
            current := id :: !current
          else begin
            close ();
            current := [ id ]
          end)
        on_wire;
      close ();
      List.rev !sets)

(* Angles that exercise exact signatures: values one ulp apart, and both
   signed zeros. *)
let angle_pool = [ 0.0; -0.0; 0.5; Float.succ 0.5; Float.pi; Float.pred Float.pi; 1.25 ]

(* Random circuits over a gate pool with multi-wire barriers, measures,
   repeated [Unitary2] payloads (one of them diagonal, so it commutes with
   z rotations), and parameterized gates drawn from [angle_pool]. *)
let analysis_circuit seed =
  let rng = Rng.create seed in
  let n = 2 + Rng.int rng 4 in
  let angle () = Rng.pick rng angle_pool in
  let diag =
    Synth2q.ops_unitary 2 [ (Gate.CX, [ 0; 1 ]); (Gate.RZ 0.7, [ 1 ]); (Gate.CX, [ 0; 1 ]) ]
  in
  let dense = Randmat.su4 (Rng.create (seed + 1)) in
  let distinct k =
    let perm = Rng.permutation rng n in
    Array.to_list (Array.sub perm 0 k)
  in
  let b = Circuit.Builder.create n in
  for _ = 1 to Rng.int rng 40 do
    let one g = Circuit.Builder.add b g (distinct 1) in
    let two g = Circuit.Builder.add b g (distinct 2) in
    match Rng.int rng 16 with
    | 0 -> one Gate.H
    | 1 -> one (Gate.RZ (angle ()))
    | 2 -> one (Gate.RX (angle ()))
    | 3 -> one (Gate.P (angle ()))
    | 4 -> one (Rng.pick rng [ Gate.X; Gate.Z; Gate.S; Gate.T; Gate.SX ])
    | 5 -> one (Gate.U (angle (), angle (), angle ()))
    | 6 | 7 -> two Gate.CX
    | 8 -> two (Rng.pick rng [ Gate.CZ; Gate.SWAP ])
    | 9 -> two (Gate.CP (angle ()))
    | 10 -> two (Rng.pick rng [ Gate.CRZ (angle ()); Gate.RZZ (angle ()) ])
    | 11 -> two (Gate.Unitary2 diag)
    | 12 -> two (Gate.Unitary2 dense)
    | 13 ->
        let k = 1 + Rng.int rng n in
        Circuit.Builder.add b (Gate.Barrier k) (distinct k)
    | 14 -> one Gate.Measure
    | _ -> if n >= 3 then Circuit.Builder.add b Gate.CCX (distinct 3) else two Gate.CX
  done;
  Circuit.Builder.circuit b

let prop_analyze_matches_reference =
  QCheck.Test.make ~name:"analyze = per-wire-scan reference" ~count:300
    (QCheck.make ~print:string_of_int (QCheck.Gen.int_range 0 1_000_000))
    (fun seed ->
      let c = analysis_circuit seed in
      let an = Commutation.analyze c and expected = reference_sets c in
      let instrs = Array.of_list (Circuit.instrs c) in
      Array.for_all Fun.id
        (Array.mapi
           (fun q sets ->
             Commutation.sets_on_wire an q = sets
             && List.for_all Fun.id
                  (List.mapi
                     (fun si set ->
                       List.for_all (fun op -> Commutation.set_index an ~wire:q ~op = si) set)
                     sets)
             && Array.for_all Fun.id
                  (Array.mapi
                     (fun op (i : Circuit.instr) ->
                       List.mem q i.qubits
                       ||
                       match Commutation.set_index an ~wire:q ~op with
                       | _ -> false
                       | exception Not_found -> true)
                     instrs))
           expected))

(* ---------- Cancellation ---------- *)

let test_cancel_adjacent_cx () =
  let c =
    Circuit.create 2
      [ { gate = Gate.CX; qubits = [ 0; 1 ] }; { gate = Gate.CX; qubits = [ 0; 1 ] } ]
  in
  checki "cx cx cancels" 0 (Circuit.size (Cancellation.run c))

let test_cancel_through_commuting_cx () =
  (* the motivating example: cx(0,1) and cx(0,1) separated by cx(0,2)
     (shared control) still cancel *)
  let c =
    Circuit.create 3
      [
        { gate = Gate.CX; qubits = [ 0; 1 ] };
        { gate = Gate.CX; qubits = [ 0; 2 ] };
        { gate = Gate.CX; qubits = [ 0; 1 ] };
      ]
  in
  let c' = Cancellation.run c in
  checki "one cx survives" 1 (Circuit.cx_count c');
  check "unitary preserved" true (preserves_unitary Cancellation.run c)

let test_cancel_through_shared_target () =
  (* paper Figure 4: cx(1,2); cx(0,2) commute (same target) *)
  let c =
    Circuit.create 3
      [
        { gate = Gate.CX; qubits = [ 1; 2 ] };
        { gate = Gate.CX; qubits = [ 0; 2 ] };
        { gate = Gate.CX; qubits = [ 1; 2 ] };
      ]
  in
  checki "shared target cancel" 1 (Circuit.cx_count (Cancellation.run c))

let test_cancel_blocked () =
  (* cx(0,1); h 0; cx(0,1) must NOT cancel *)
  let c =
    Circuit.create 2
      [
        { gate = Gate.CX; qubits = [ 0; 1 ] };
        { gate = Gate.H; qubits = [ 0 ] };
        { gate = Gate.CX; qubits = [ 0; 1 ] };
      ]
  in
  checki "blocked by h" 2 (Circuit.cx_count (Cancellation.run c))

let test_cancel_rz_merge () =
  let c =
    Circuit.create 2
      [
        { gate = Gate.RZ 0.3; qubits = [ 0 ] };
        { gate = Gate.CX; qubits = [ 0; 1 ] };
        { gate = Gate.RZ 0.4; qubits = [ 0 ] };
      ]
  in
  (* rz commutes with cx control: both rz merge into one *)
  let c' = Cancellation.run c in
  checki "rz merged" 1 (Circuit.gate_count c' "rz");
  check "unitary preserved" true (preserves_unitary Cancellation.run c)

let test_cancel_t_gates_merge () =
  let c =
    Circuit.create 1
      [
        { gate = Gate.T; qubits = [ 0 ] };
        { gate = Gate.T; qubits = [ 0 ] };
        { gate = Gate.T; qubits = [ 0 ] };
        { gate = Gate.T; qubits = [ 0 ] };
      ]
  in
  let c' = Cancellation.run c in
  (* four T = S^2 = Z: merged into a single rz *)
  checki "t gates merged" 1 (Circuit.size c');
  check "unitary preserved" true (preserves_unitary Cancellation.run c)

let test_cancel_random_preserves () =
  let rng = Rng.create 123 in
  for _ = 1 to 15 do
    let c = random_circuit rng 4 30 in
    check "cancellation preserves unitary" true
      (preserves_unitary (Cancellation.run_fixpoint ~max_rounds:4) c)
  done

(* ---------- Blocks ---------- *)

let test_collect_single_block () =
  let c =
    Circuit.create 3
      [
        { gate = Gate.H; qubits = [ 0 ] };
        { gate = Gate.CX; qubits = [ 0; 1 ] };
        { gate = Gate.RZ 0.3; qubits = [ 1 ] };
        { gate = Gate.CX; qubits = [ 0; 1 ] };
        { gate = Gate.CX; qubits = [ 1; 2 ] };
      ]
  in
  let segs = Blocks.collect c in
  let blocks = List.filter_map (function Blocks.Block b -> Some b | _ -> None) segs in
  checki "two blocks" 2 (List.length blocks);
  (match blocks with
  | [ b1; b2 ] ->
      check "first pair" true (b1.pair = (0, 1));
      checki "first block ops (h cx rz cx)" 4 (List.length b1.ops);
      check "second pair" true (b2.pair = (1, 2))
  | _ -> Alcotest.fail "expected two blocks");
  check "roundtrip" true
    (Mat.equal_up_to_phase
       (Circuit.unitary (Blocks.to_circuit 3 segs))
       (Circuit.unitary c))

let test_collect_roundtrip_random () =
  let rng = Rng.create 321 in
  for _ = 1 to 15 do
    let c = random_circuit rng 4 25 in
    let segs = Blocks.collect c in
    check "collect preserves unitary" true
      (Mat.equal_up_to_phase
         (Circuit.unitary (Blocks.to_circuit 4 segs))
         (Circuit.unitary c))
  done

let test_block_unitary () =
  let c =
    Circuit.create 2
      [ { gate = Gate.H; qubits = [ 0 ] }; { gate = Gate.CX; qubits = [ 0; 1 ] } ]
  in
  match Blocks.collect c with
  | [ Blocks.Block b ] ->
      check "block unitary equals circuit" true
        (Mat.equal_up_to_phase (Blocks.block_unitary b) (Circuit.unitary c))
  | _ -> Alcotest.fail "expected a single block"

(* ---------- Unitary synthesis ---------- *)

let test_resynth_swap_absorption () =
  (* cx cx cx (= swap) followed by cx: block is cx-equivalent: resynthesize
     to <= 2 cx.  swap . cx = 2-cx class *)
  let c =
    Circuit.create 2
      [
        { gate = Gate.CX; qubits = [ 0; 1 ] };
        { gate = Gate.CX; qubits = [ 1; 0 ] };
        { gate = Gate.CX; qubits = [ 0; 1 ] };
        { gate = Gate.CX; qubits = [ 0; 1 ] };
      ]
  in
  let c' = Unitary_synthesis.run c in
  check "unitary preserved" true (preserves_unitary Unitary_synthesis.run c);
  check "cx reduced" true (Circuit.cx_count c' <= 2)

let test_resynth_free_swap () =
  (* paper: "some SWAP gates can be inserted for free" - a generic 3-cx
     block followed by a swap still needs only 3 cx *)
  let rng = Rng.create 55 in
  let u = Randmat.su4 rng in
  let c =
    Circuit.create 2
      [
        { gate = Gate.Unitary2 u; qubits = [ 0; 1 ] };
        { gate = Gate.SWAP; qubits = [ 0; 1 ] };
      ]
  in
  let c' = Unitary_synthesis.run c in
  let final = Basis.run c' in
  check "unitary preserved" true
    (Mat.equal_up_to_phase (Circuit.unitary final) (Circuit.unitary c));
  check "swap absorbed for free" true (Circuit.cx_count final <= 3)

let test_resynth_gain () =
  (* swap . cx block: 4 cx spent, 2 needed -> gain 2 *)
  let b =
    {
      Blocks.pair = (0, 1);
      ops =
        [
          { Circuit.gate = Gate.SWAP; qubits = [ 0; 1 ] };
          { Circuit.gate = Gate.CX; qubits = [ 0; 1 ] };
        ];
    }
  in
  checki "gain swap+cx" 2 (Unitary_synthesis.resynth_gain b)

let test_resynth_random_preserves () =
  let rng = Rng.create 99 in
  for _ = 1 to 10 do
    let c = random_circuit rng 4 30 in
    check "resynthesis preserves unitary" true (preserves_unitary Unitary_synthesis.run c)
  done

(* The per-block decision without the memo: synthesize every block and keep
   the new body when it spends fewer CNOTs, or equal CNOTs in fewer gates. *)
let reference_resynth c =
  let improve = function
    | Blocks.Single i -> [ i ]
    | Blocks.Block b ->
        let lo, hi = b.pair in
        let body =
          List.map
            (fun (g, qs) ->
              { Circuit.gate = g; qubits = List.map (fun q -> if q = 0 then lo else hi) qs })
            (Synth2q.synthesize (Blocks.block_unitary b))
        in
        let cx ops =
          List.fold_left (fun acc (i : Circuit.instr) -> acc + Blocks.gate_cx_cost i.gate) 0 ops
        in
        if
          cx body < cx b.ops
          || (cx body = cx b.ops && List.length body < List.length b.ops)
        then body
        else b.ops
  in
  Circuit.create (Circuit.n_qubits c) (List.concat_map improve (Blocks.collect c))

(* bit-exact circuit equality: same wires and same gate signatures *)
let signature (i : Circuit.instr) =
  let buf = Buffer.create 16 in
  Gate.add_signature buf i.gate;
  (Buffer.contents buf, i.qubits)

let same_circuit a b =
  Circuit.n_qubits a = Circuit.n_qubits b
  && List.equal ( = ) (List.map signature (Circuit.instrs a)) (List.map signature (Circuit.instrs b))

let counters f =
  let root = Qobs.Collector.create ~label:"synth-test" () in
  let r = Qobs.with_collector root f in
  (r, Qobs.Trace.counters_total (Qobs.Trace.of_root root))

let counter name totals = Option.value ~default:0 (List.assoc_opt name totals)

let test_resynth_memo_counts () =
  (* k copies of one reducible block on disjoint wire pairs (i, i + k),
     same orientation: one decomposition serves all of them *)
  let k = 5 in
  let copy lo hi =
    [
      { Circuit.gate = Gate.H; qubits = [ lo ] };
      { gate = Gate.CX; qubits = [ lo; hi ] };
      { gate = Gate.RZ 0.3; qubits = [ hi ] };
      { gate = Gate.CX; qubits = [ lo; hi ] };
      { gate = Gate.CX; qubits = [ lo; hi ] };
    ]
  in
  let c = Circuit.create (2 * k) (List.concat (List.init k (fun i -> copy i (i + k)))) in
  let out, totals = counters (fun () -> Unitary_synthesis.run c) in
  checki "blocks considered" k (counter "synth.blocks_considered" totals);
  checki "one KAK decomposition" 1 (counter "synth2q.kak_decompositions" totals);
  checki "every copy resynthesized" k (counter "synth.blocks_resynthesized" totals);
  check "equals the unmemoized decisions" true (same_circuit out (reference_resynth c))

(* Random circuits built from a few block templates: exact repeats on
   random wire pairs in either orientation, near repeats (one angle moved
   by one ulp or a zero's sign flipped), separated by stray gates and
   barriers. *)
let block_circuit seed =
  let rng = Rng.create seed in
  let n = 2 + Rng.int rng 4 in
  let templates =
    [
      [ (Gate.CX, [ 0; 1 ]); (Gate.RZ 0.5, [ 1 ]); (Gate.CX, [ 0; 1 ]) ];
      [ (Gate.H, [ 0 ]); (Gate.CX, [ 0; 1 ]); (Gate.CX, [ 1; 0 ]); (Gate.CX, [ 0; 1 ]) ];
      [ (Gate.CX, [ 0; 1 ]); (Gate.CX, [ 0; 1 ]); (Gate.RX 0.0, [ 0 ]) ];
      [ (Gate.CP 1.25, [ 0; 1 ]); (Gate.U (0.5, 0.0, Float.pi), [ 1 ]); (Gate.CX, [ 1; 0 ]) ];
    ]
  in
  let nudge = function
    | Gate.RZ a -> Gate.RZ (Float.succ a)
    | Gate.RX a -> Gate.RX (-.a)
    | Gate.CP a -> Gate.CP (Float.pred a)
    | Gate.U (t, p, l) -> Gate.U (t, -.p, l)
    | g -> g
  in
  let b = Circuit.Builder.create n in
  for _ = 1 to 1 + Rng.int rng 12 do
    let perm = Rng.permutation rng n in
    let wire q = perm.(q) in
    if Rng.int rng 6 = 0 then begin
      let k = 1 + Rng.int rng n in
      Circuit.Builder.add b (Gate.Barrier k) (Array.to_list (Array.sub perm 0 k))
    end;
    let template = Rng.pick rng templates in
    let near = Rng.int rng 3 = 0 in
    List.iter
      (fun (g, qs) ->
        Circuit.Builder.add b (if near then nudge g else g) (List.map wire qs))
      template;
    if Rng.bool rng then Circuit.Builder.add b Gate.T [ wire (Rng.int rng n) ]
  done;
  Circuit.Builder.circuit b

let prop_resynth_matches_reference =
  QCheck.Test.make ~name:"memoized resynthesis = per-block reference" ~count:150
    (QCheck.make ~print:string_of_int (QCheck.Gen.int_range 0 1_000_000))
    (fun seed ->
      let c = block_circuit seed in
      same_circuit (Unitary_synthesis.run c) (reference_resynth c))

(* ---------- Basis ---------- *)

let test_basis_output_is_basis () =
  let rng = Rng.create 1010 in
  for _ = 1 to 10 do
    let c = random_circuit rng 3 20 in
    let c' = Basis.run c in
    check "all ops in basis" true (Basis.check c');
    check "unitary preserved" true
      (Mat.equal_up_to_phase (Circuit.unitary c') (Circuit.unitary c))
  done

let test_basis_handles_high_level () =
  let c =
    Circuit.create 4
      [
        { gate = Gate.CCX; qubits = [ 0; 1; 2 ] };
        { gate = Gate.MCZ 3; qubits = [ 0; 1; 2; 3 ] };
        { gate = Gate.CP 0.7; qubits = [ 2; 3 ] };
      ]
  in
  let c' = Basis.run c in
  check "basis" true (Basis.check c');
  check "unitary preserved" true
    (Mat.equal_up_to_phase (Circuit.unitary c') (Circuit.unitary c))

let () =
  Alcotest.run "qpasses_opt"
    [
      ( "optimize_1q",
        [
          Alcotest.test_case "zsx identity" `Quick test_zsx_identity;
          Alcotest.test_case "zsx special cases" `Quick test_zsx_special_cases;
          Alcotest.test_case "merges runs" `Quick test_optimize_1q_merges;
          Alcotest.test_case "cancels inverses" `Quick test_optimize_1q_cancels_inverse;
          Alcotest.test_case "stops at 2q" `Quick test_optimize_1q_stops_at_2q;
          Alcotest.test_case "random preserves" `Quick test_optimize_1q_random;
        ] );
      ( "commutation",
        [
          Alcotest.test_case "pairs" `Quick test_commute_pairs;
          Alcotest.test_case "sets" `Quick test_commutation_sets;
          QCheck_alcotest.to_alcotest prop_analyze_matches_reference;
        ] );
      ( "cancellation",
        [
          Alcotest.test_case "adjacent cx" `Quick test_cancel_adjacent_cx;
          Alcotest.test_case "through commuting cx" `Quick test_cancel_through_commuting_cx;
          Alcotest.test_case "shared target" `Quick test_cancel_through_shared_target;
          Alcotest.test_case "blocked" `Quick test_cancel_blocked;
          Alcotest.test_case "rz merge" `Quick test_cancel_rz_merge;
          Alcotest.test_case "t merge" `Quick test_cancel_t_gates_merge;
          Alcotest.test_case "random preserves" `Quick test_cancel_random_preserves;
        ] );
      ( "blocks",
        [
          Alcotest.test_case "single block" `Quick test_collect_single_block;
          Alcotest.test_case "random roundtrip" `Quick test_collect_roundtrip_random;
          Alcotest.test_case "block unitary" `Quick test_block_unitary;
        ] );
      ( "unitary_synthesis",
        [
          Alcotest.test_case "swap absorption" `Quick test_resynth_swap_absorption;
          Alcotest.test_case "free swap" `Quick test_resynth_free_swap;
          Alcotest.test_case "gain" `Quick test_resynth_gain;
          Alcotest.test_case "random preserves" `Quick test_resynth_random_preserves;
          Alcotest.test_case "memo counts" `Quick test_resynth_memo_counts;
          QCheck_alcotest.to_alcotest prop_resynth_matches_reference;
        ] );
      ( "basis",
        [
          Alcotest.test_case "random output basis" `Quick test_basis_output_is_basis;
          Alcotest.test_case "high level gates" `Quick test_basis_handles_high_level;
        ] );
    ]
