(* Figure 11: the routing algorithms under the montreal noise model.
   (a) additional CNOT count, (b) success rate (Monte-Carlo, 8192 paper
   shots; default here 2048 for runtime).  The paper's four routers. *)

let routers =
  [
    ("SABRE", Qroute.Pipeline.Sabre_router);
    ("SABRE+HA", Qroute.Pipeline.Sabre_ha);
    ("NASSC", Qroute.Pipeline.Nassc_router Qroute.Nassc.default_config);
    ("NASSC+HA", Qroute.Pipeline.Nassc_ha Qroute.Nassc.default_config);
  ]

let entries () = List.filter (fun e -> e.Qbench.Suite.noise_subset) Qbench.Suite.paper_suite

let cnot_counts ~seeds () =
  let coupling = Topology.Devices.montreal in
  let cal = Topology.Calibration.generate coupling in
  Printf.printf "=== Figure 11a: additional CNOT count on ibmq_montreal noise setup ===\n";
  Printf.printf "%-18s" "name";
  List.iter (fun (n, _) -> Printf.printf " %10s" n) routers;
  Printf.printf "\n%s\n" (String.make 62 '-');
  List.iter
    (fun (e : Qbench.Suite.entry) ->
      let circuit = e.build () in
      let seed_list = Runs.seeds_for ~seeds e in
      let base =
        Runs.run_router ~seeds:[ 1 ] ~coupling ~router:Qroute.Pipeline.Full_connectivity
          circuit
      in
      let adds =
        List.map
          (fun (_, router) ->
            let results =
              List.map
                (fun seed ->
                  let params = { Qroute.Engine.default_params with seed } in
                  Qroute.Pipeline.transpile ~params ~calibration:cal ~router coupling
                    circuit)
                seed_list
            in
            (Runs.average_results results).cx -. base.cx)
          routers
      in
      Printf.printf "%-18s" e.name;
      List.iter (fun a -> Printf.printf " %10.1f" a) adds;
      Printf.printf "\n%!")
    (entries ());
  print_newline ()

let success_rates ~shots () =
  let coupling = Topology.Devices.montreal in
  let cal = Topology.Calibration.generate coupling in
  Printf.printf "=== Figure 11b: success rate under the montreal noise model (%d shots) ===\n"
    shots;
  Printf.printf "%-18s" "name";
  List.iter (fun (n, _) -> Printf.printf " %12s" n) routers;
  Printf.printf "   (ESP in parentheses)\n%s\n" (String.make 93 '-');
  List.iter
    (fun (e : Qbench.Suite.entry) ->
      let circuit = e.build () in
      let cells =
        List.map
          (fun (_, router) ->
            let params = { Qroute.Engine.default_params with seed = 1 } in
            let r = Qroute.Pipeline.transpile ~params ~calibration:cal ~router coupling circuit in
            match r.final_layout with
            | None -> (0.0, 0.0)
            | Some fl ->
                let o =
                  Qsim.Success.routed_success ~shots ~cal ~ideal:circuit ~routed:r.circuit
                    ~final_layout:fl ()
                in
                (o.success_rate, o.esp))
          routers
      in
      Printf.printf "%-18s" e.name;
      List.iter (fun (sr, esp) -> Printf.printf " %6.3f(%.3f)" sr esp) cells;
      Printf.printf "\n%!")
    (entries ());
  print_newline ()
