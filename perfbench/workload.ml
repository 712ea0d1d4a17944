(* The three benchmark workloads: their seeded inputs, their devices, and
   the untraced compile call each job makes.  Everything here is a pure
   function of the workload seed. *)

open Qcircuit
module Pipeline = Qroute.Pipeline
module Engine = Qroute.Engine

type input =
  | Qasm of string  (** QASM text, parsed inside the job *)
  | Batch of Circuit.t  (** a circuit handed to [Pipeline.transpile] as is *)
  | Stream of (unit -> Source.t)  (** a fresh pull source per job *)

type job = {
  label : string;
  size : int;  (** input instructions handed to the compiler *)
  seed : int;  (** routing seed ([Engine.params.seed]) *)
  input : input;
}

type spec = {
  name : string;
  router : Pipeline.router;
  trials : int;
  device : unit -> Topology.Coupling.t;  (** builds a fresh device *)
  jobs : job list;  (** one pass of the closed loop *)
  warmup : job;  (** the untimed job inside set-up *)
  job_size : int option;  (** every job's size, when the seed must not change it *)
  per_job_latency : bool;
      (** latency percentiles over single jobs; otherwise over whole passes,
          where the job list is too short or too mixed for a percentile *)
  hardware_basis : bool;  (** outputs end in {rz, sx, x, cx} *)
}

type outcome = {
  logical : Circuit.t option;  (** the circuit the batch compiler received *)
  output : Circuit.t;  (** compiled circuit on physical qubits *)
  cx : int;
  depth : int;
  swaps : int;
  initial_layout : int array;
  final_layout : int array;
}

let nassc = Pipeline.Nassc_router Qroute.Nassc.default_config
let params seed = { Engine.default_params with Engine.seed }

(* a fresh copy of a device, so set-up rebuilds it instead of reusing the
   memoized instance and its cached BFS rows *)
let fresh c = Topology.Coupling.create (Topology.Coupling.n_qubits c) (Topology.Coupling.edges c)

(* the warm-up job does not depend on the workload seed, so [setup_s]
   measures the same work whatever seed a run gets *)
let warmup_seed = 0

(* ---- paper-nassc: the paper's fifteen circuits as QASM text ---- *)

let paper_nassc seed =
  let jobs =
    List.map
      (fun (e : Qbench.Suite.entry) ->
        let text = Qasm.to_string (e.build ()) in
        let size = Circuit.size (Qasm_parser.parse text) in
        { label = e.name; size; seed; input = Qasm text })
      Qbench.Suite.paper_suite
  in
  {
    name = "paper-nassc";
    router = nassc;
    trials = 1;
    device = (fun () -> fresh Topology.Devices.montreal);
    jobs;
    warmup = { (List.find (fun j -> j.label = "sqn_258") jobs) with seed = warmup_seed };
    job_size = None;
    per_job_latency = false;
    hardware_basis = true;
  }

(* ---- families-sabre: seeded draws sharing one lowered-gate budget ---- *)

let draws = 120
let budget = 240

(* lower [make k] for growing [k] until it has at least [budget] gates,
   then keep exactly the first [budget]: every draw hands the compiler the
   same number of instructions, whatever the seed *)
let fit n make =
  let rec grow k =
    let l = Circuit.instrs (Pipeline.lower_to_2q (make k)) in
    if List.length l >= budget then List.filteri (fun i _ -> i < budget) l else grow (2 * k)
  in
  Circuit.create n (grow 1)

let repeat c k =
  let rec go acc k = if k = 0 then acc else go (Circuit.concat acc c) (k - 1) in
  go (Circuit.empty (Circuit.n_qubits c)) k

let families =
  [| "random"; "qaoa-er"; "brickwork"; "ladder"; "ghz"; "qft"; "vqe"; "bv"; "qpe"; "adder" |]

(* draw [i]: the family cycles with [i] and the width sweeps 10..20, so
   every seed gets the same mix; the seed picks generator seeds, densities,
   a wire relabeling and the routing seed *)
let draw seed i =
  let module G = Qbench.Generators in
  let rng = Mathkit.Rng.create ((seed * 7919) + i) in
  let family = families.(i mod Array.length families) in
  let n = 10 + (i / Array.length families mod 11) in
  let even = n / 2 * 2 in
  let gseed = Mathkit.Rng.int rng 1_000_000 in
  let frac lo hi = lo +. Mathkit.Rng.float rng (hi -. lo) in
  let permuted c = Circuit.remap c (Mathkit.Rng.permutation rng (Circuit.n_qubits c)) in
  let c =
    match family with
    | "random" ->
        let density = frac 0.3 0.7 in
        fit n (fun k -> G.random_density ~seed:gseed ~gates:(k * budget) ~density n)
    | "qaoa-er" ->
        let edge_prob = frac 0.3 0.7 in
        fit n (fun p -> G.qaoa_erdos_renyi ~seed:gseed ~p ~edge_prob n)
    | "brickwork" -> fit n (fun k -> G.supremacy_brickwork ~seed:gseed ~cycles:(4 * k) n)
    | "ladder" -> fit n (fun rounds -> permuted (G.cx_ladder ~rounds even))
    | "ghz" -> fit n (repeat (permuted (G.ghz_chain n)))
    | "qft" -> fit n (repeat (permuted (G.qft n)))
    | "vqe" -> fit n (repeat (permuted (G.vqe n)))
    | "bv" -> fit n (repeat (permuted (G.bernstein_vazirani n)))
    | "qpe" -> fit n (repeat (permuted (G.qpe n)))
    | _ -> fit n (repeat (permuted (G.adder even)))
  in
  {
    label = Printf.sprintf "%s-%dq-%d" family n i;
    size = Circuit.size c;
    seed = (seed * 1000) + i;
    input = Batch c;
  }

let families_sabre seed =
  let jobs = List.init draws (draw seed) in
  {
    name = "families-sabre";
    router = Pipeline.Sabre_router;
    trials = 4;
    device = (fun () -> fresh Topology.Devices.montreal);
    jobs;
    warmup = draw warmup_seed 0;
    job_size = Some budget;
    per_job_latency = true;
    hardware_basis = true;
  }

(* ---- stream-osprey: one random-density stream on all 433 qubits ---- *)

let stream_gates = 6000
let warmup_gates = 400
let osprey () = Topology.Devices.heavy_hex_ibm ~distance:6

let stream_job ~label ~gates seed =
  let n = 433 in
  {
    label;
    size = gates;
    seed;
    input =
      Stream (fun () -> Qbench.Generators.random_density_stream ~seed ~gates ~density:0.5 n);
  }

let stream_osprey seed =
  {
    name = "stream-osprey";
    router = nassc;
    trials = 1;
    device = osprey;
    jobs = [ stream_job ~label:"random-density-433q" ~gates:stream_gates seed ];
    warmup = stream_job ~label:"warm-up" ~gates:warmup_gates warmup_seed;
    job_size = Some stream_gates;
    per_job_latency = false;
    hardware_basis = false;
  }

let workloads =
  [
    ("paper-nassc", paper_nassc);
    ("families-sabre", families_sabre);
    ("stream-osprey", stream_osprey);
  ]

let names = List.map fst workloads
let make name seed = Option.map (fun spec -> spec seed) (List.assoc_opt name workloads)

(* ---- the untraced compile: exactly what a user of the library calls ---- *)

let of_result logical (r : Pipeline.result) =
  {
    logical = Some logical;
    output = r.circuit;
    cx = r.cx_total;
    depth = r.depth;
    swaps = r.n_swaps;
    initial_layout = Option.get r.initial_layout;
    final_layout = Option.get r.final_layout;
  }

let transpile spec coupling job c =
  of_result c
    (Pipeline.transpile ~params:(params job.seed) ~trials:spec.trials ~workers:1
       ~router:spec.router coupling c)

let compile spec coupling job =
  match job.input with
  | Qasm text -> transpile spec coupling job (Qasm_parser.parse text)
  | Batch c -> transpile spec coupling job c
  | Stream source ->
      let chunks = ref [] in
      let r =
        Pipeline.transpile_stream ~params:(params job.seed) ~optimize:false ~router:spec.router
          ~sink:(fun c -> chunks := c :: !chunks)
          coupling (source ())
      in
      {
        logical = None;
        output =
          Circuit.create (Topology.Coupling.n_qubits coupling)
            (List.concat_map Circuit.instrs (List.rev !chunks));
        cx = r.sr_cx_out;
        depth = r.sr_depth_out;
        swaps = r.sr_n_swaps;
        initial_layout = r.sr_initial_layout;
        final_layout = r.sr_final_layout;
      }
