(* Extra experiment: all routers side by side (SABRE, NASSC and the
   Zulehner-style A* baseline from the paper's related work), montreal. *)

let run ~seeds () =
  let coupling = Topology.Devices.montreal in
  Printf.printf "=== Router comparison (added CNOTs, ibmq_montreal) ===\n";
  Printf.printf "%-22s %10s %10s %10s\n" "name" "A*-layers" "SABRE" "NASSC";
  Printf.printf "%s\n" (String.make 55 '-');
  List.iter
    (fun (e : Qbench.Suite.entry) ->
      let circuit = e.build () in
      let seed_list = Runs.seeds_for ~seeds e in
      let base =
        Runs.run_router ~seeds:[ 1 ] ~coupling ~router:Qroute.Pipeline.Full_connectivity
          circuit
      in
      let add router =
        (Runs.run_router ~seeds:seed_list ~coupling ~router circuit).cx -. base.cx
      in
      Printf.printf "%-22s %10.1f %10.1f %10.1f\n%!" e.name
        (add Qroute.Pipeline.Astar_router)
        (add Qroute.Pipeline.Sabre_router)
        (add (Qroute.Pipeline.Nassc_router Qroute.Nassc.default_config)))
    Qbench.Suite.small_suite;
  print_newline ()
