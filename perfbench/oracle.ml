(* The correctness oracle behind [ok_frac] / [failed_frac].  Every check
   runs outside the timed region.  Structural checks apply to every
   output; the semantic check is a statevector comparison from a seeded
   random product input where the output is narrow enough, and the
   symbolic [Qverify] certifier otherwise.  [Unknown] verdicts are counted
   apart from failures. *)

open Qcircuit
module Gate = Qgate.Gate

type verdict = Pass | Fail of string | Unknown of string

let routed_basis (i : Circuit.instr) =
  match (i.gate, i.qubits) with
  | (Gate.Barrier _ | Gate.Measure), _ -> true
  | Gate.CX, [ _; _ ] -> true
  | _, [ _ ] -> true
  | _ -> false

let hardware_basis (i : Circuit.instr) =
  match i.gate with
  | Gate.RZ _ | Gate.SX | Gate.X | Gate.CX | Gate.Barrier _ | Gate.Measure -> true
  | _ -> false

(* every two-qubit gate on a coupled pair, every gate in the promised
   basis: the hardware basis after post-optimization, one-qubit gates plus
   CX on the streaming path that skips it *)
let structural ~hardware coupling (o : Workload.outcome) =
  let in_basis = if hardware then hardware_basis else routed_basis in
  if Circuit.n_qubits o.output <> Topology.Coupling.n_qubits coupling then
    Fail "output width differs from the device"
  else if not (Qroute.Sabre.check_routed coupling o.output) then
    Fail "two-qubit gate on an uncoupled pair"
  else
    match List.find_opt (fun i -> not (in_basis i)) (Circuit.instrs o.output) with
    | Some i -> Fail ("gate outside the basis: " ^ Gate.name i.gate)
    | None -> Pass

let of_qverify = function
  | Qverify.Equivalent _ -> Pass
  | Qverify.Not_equivalent { reason; _ } -> Fail ("not equivalent: " ^ reason)
  | Qverify.Unknown { reason } -> Unknown reason

(* the commutation-scan budget of every [Qverify] call.  At budget 64
   the certifier answered [Not_equivalent] on routed QFT 20 outputs that
   are correct (10 of 150 routing seeds, and seed 2081792965, whose output
   a 22-wire statevector comparison matches); at 256 it certified every
   one of them equivalent *)
let budget = 256

let certify ~original (o : Workload.outcome) =
  of_qverify
    (Qverify.verify_routed ~budget ~original ~routed:o.output ~initial_layout:o.initial_layout
       ~final_layout:o.final_layout ())

(* widest statevector the check simulates: 2^15 amplitudes, a few seconds
   for the largest RevLib outputs (up to 70k gates) *)
let max_wires = 15
let eps = 1e-6

(* Run [logical] and [o.output] from the same random product state (one
   random U on each logical qubit, placed on its initial physical wire)
   and compare the final states amplitude by amplitude, up to one global
   phase, with logical qubit [l] read from its final physical wire and
   every other wire back in |0>.  Only wires the output touches or a
   layout names are simulated. *)
let statevector ~rng ~logical (o : Workload.outcome) =
  let n_log = Circuit.n_qubits logical in
  let n_phys = Circuit.n_qubits o.output in
  let used = Array.make n_phys false in
  List.iter
    (fun (i : Circuit.instr) -> List.iter (fun q -> used.(q) <- true) i.qubits)
    (Circuit.instrs o.output);
  let mark layout = Array.iteri (fun l p -> if l < n_log then used.(p) <- true) layout in
  mark o.initial_layout;
  mark o.final_layout;
  let where = Array.make n_phys (-1) and k = ref 0 in
  Array.iteri
    (fun q u ->
      if u then begin
        where.(q) <- !k;
        incr k
      end)
    used;
  let k = !k in
  if n_log > max_wires || k > max_wires then None
  else begin
    let inputs =
      Array.init n_log (fun _ ->
          let a () = Mathkit.Rng.float rng (2.0 *. Float.pi) in
          Gate.U (a (), a (), a ()))
    in
    let s_log = Qsim.State.create n_log in
    Array.iteri (fun l g -> Qsim.State.apply_gate s_log g [ l ]) inputs;
    Qsim.State.apply_circuit s_log (Circuit.drop_measures logical);
    let s_phys = Qsim.State.create k in
    Array.iteri (fun l g -> Qsim.State.apply_gate s_phys g [ where.(o.initial_layout.(l)) ]) inputs;
    let compact =
      Circuit.create k
        (List.map
           (fun (i : Circuit.instr) -> { i with qubits = List.map (fun q -> where.(q)) i.qubits })
           (Circuit.instrs (Circuit.drop_measures o.output)))
    in
    Qsim.State.apply_circuit s_phys compact;
    (* State index convention: qubit q is bit (width - 1 - q) *)
    let scatter x =
      let idx = ref 0 in
      for l = 0 to n_log - 1 do
        if (x lsr (n_log - 1 - l)) land 1 = 1 then
          idx := !idx lor (1 lsl (k - 1 - where.(o.final_layout.(l))))
      done;
      !idx
    in
    let best = ref 0 in
    for x = 1 to (1 lsl n_log) - 1 do
      if Qsim.State.probability s_log x > Qsim.State.probability s_log !best then best := x
    done;
    let open Mathkit in
    let phase =
      Cx.(Qsim.State.amplitude s_phys (scatter !best) / Qsim.State.amplitude s_log !best)
    in
    let mass = ref 0.0 and worst = ref 0.0 in
    for x = 0 to (1 lsl n_log) - 1 do
      let a = Qsim.State.amplitude s_phys (scatter x) in
      let d = Cx.abs Cx.(a - (phase * Qsim.State.amplitude s_log x)) in
      if d > !worst then worst := d;
      mass := !mass +. Qsim.State.probability s_phys (scatter x)
    done;
    Some
      (if Float.abs (Cx.abs phase -. 1.0) > eps then Fail "global phase is not unit"
       else if !worst > eps then Fail (Printf.sprintf "amplitude off by %.3g" !worst)
       else if Float.abs (!mass -. 1.0) > eps then Fail "ancilla wires left excited"
       else Pass)
  end

(* outputs too wide for the statevector check go to the symbolic
   certifier only while they are this small: on the routed RevLib circuits
   it can run for minutes and still answer [Unknown] *)
let certify_max_gates = 5000

(* the semantic check a workload's outputs get, by the kind of input its
   jobs take; [None] where no check is affordable (the timed stream, whose
   warm-up is certified instead) *)
let semantic ~rng (spec : Workload.spec) (o : Workload.outcome) =
  match (spec.warmup.input, o.logical) with
  | Workload.Stream _, _ | _, None -> None
  | Workload.Batch _, Some original -> Some (certify ~original o)
  | Workload.Qasm _, Some logical -> (
      match statevector ~rng ~logical o with
      | Some v -> Some v
      | None when Circuit.size o.output <= certify_max_gates ->
          Some (certify ~original:logical o)
      | None -> None)
