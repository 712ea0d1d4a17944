open Qgate

let is_z_rotation = function Gate.RZ _ | Gate.P _ | Gate.Z | Gate.S | Gate.Sdg | Gate.T | Gate.Tdg -> true | _ -> false

let z_angle = function
  | Gate.RZ a -> a
  | Gate.P a -> a
  | Gate.Z -> Float.pi
  | Gate.S -> Float.pi /. 2.0
  | Gate.Sdg -> -.Float.pi /. 2.0
  | Gate.T -> Float.pi /. 4.0
  | Gate.Tdg -> -.Float.pi /. 4.0
  | _ -> invalid_arg "Cancellation.z_angle"

let two_pi = 2.0 *. Float.pi

let c_cancelled = Qobs.counter "cancellation.gates_cancelled"
let c_merged = Qobs.counter "cancellation.z_rotations_merged"
let c_rounds = Qobs.counter "cancellation.rounds"

let norm a =
  let a = Float.rem a two_pi in
  if a > Float.pi then a -. two_pi else if a <= -.Float.pi then a +. two_pi else a

let run c =
  let an = Commutation.analyze c in
  let n = Qcircuit.Circuit.n_qubits c in
  let instrs = Array.of_list (Qcircuit.Circuit.instrs c) in
  let out = Array.copy instrs in
  let drop = Array.make (Array.length instrs) false in
  (* commute sets numbered across all wires, so one number names a wire
     and a set on it *)
  let first_set = Array.make (n + 1) 0 in
  for q = 0 to n - 1 do
    first_set.(q + 1) <- first_set.(q) + List.length (Commutation.sets_on_wire an q)
  done;
  let set_id id q = first_set.(q) + Commutation.set_index an ~wire:q ~op:id in
  (* Group candidate ops.  Ops are interchangeable (cancellable in pairs /
     angle mergeable) when they are the same gate on the same qubits and
     share a commute set on EVERY wire they touch.  Groups are bucketed by
     the set on the op's first wire; within a bucket a self-inverse group
     is told apart by its gate name and its sets on the other wires.  Ids
     accumulate newest first. *)
  let groups = Array.make first_set.(n) [] in
  let zgroups = Array.make first_set.(n) [] in
  Array.iteri
    (fun id (i : Qcircuit.Circuit.instr) ->
      if Gate.is_self_inverse i.gate && not (Gate.is_directive i.gate) then begin
        let q = List.hd i.qubits in
        let b = set_id id q and name = Gate.name i.gate in
        let rest = List.map (set_id id) (List.tl i.qubits) in
        match
          List.find_opt
            (fun (name', rest', _) -> String.equal name name' && List.equal Int.equal rest rest')
            groups.(b)
        with
        | Some (_, _, ids) -> ids := id :: !ids
        | None -> groups.(b) <- (name, rest, ref [ id ]) :: groups.(b)
      end
      else if is_z_rotation i.gate then begin
        let b = set_id id (List.hd i.qubits) in
        zgroups.(b) <- id :: zgroups.(b)
      end)
    instrs;
  (* self-inverse gates: cancel in pairs (keep the last one when odd) *)
  Array.iter
    (List.iter (fun (_, _, ids) ->
         match !ids with
         | _ :: (_ :: _ as earlier) as all ->
             List.iter (fun id -> drop.(id) <- true)
               (if List.length all mod 2 = 1 then earlier else all)
         | _ -> ()))
    groups;
  (* z rotations: merge angles, in circuit order, into the last op *)
  Array.iter
    (function
      | last :: (_ :: _ as earlier) as newest_first ->
          Qobs.incr c_merged;
          let total =
            List.fold_left
              (fun acc id -> acc +. z_angle instrs.(id).Qcircuit.Circuit.gate)
              0.0 (List.rev newest_first)
          in
          List.iter (fun id -> drop.(id) <- true) earlier;
          let total = norm total in
          if Float.abs total < 1e-10 then drop.(last) <- true
          else out.(last) <- { instrs.(last) with Qcircuit.Circuit.gate = Gate.RZ total }
      | _ -> ())
    zgroups;
  Qobs.add c_cancelled (Array.fold_left (fun acc d -> if d then acc + 1 else acc) 0 drop);
  let kept = ref [] in
  for id = Array.length out - 1 downto 0 do
    if not drop.(id) then kept := out.(id) :: !kept
  done;
  Qcircuit.Circuit.create n !kept

let rec run_fixpoint ?(max_rounds = 5) c =
  if max_rounds = 0 then c
  else begin
    Qobs.incr c_rounds;
    let c' = run c in
    if Qcircuit.Circuit.size c' = Qcircuit.Circuit.size c then c'
    else run_fixpoint ~max_rounds:(max_rounds - 1) c'
  end
