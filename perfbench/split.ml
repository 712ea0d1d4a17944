(* The traced run's layer split.  It recompiles a job through the same
   public calls [Pipeline.transpile] / [Pipeline.transpile_stream] make
   internally — lowering, each pre-routing stage, [Dag.of_circuit],
   [Engine.find_layout], [Engine.route_once] or [Engine.route_stream],
   SWAP finalization, each post-routing stage — timing each call from
   here, so no tracing is added inside the library.  The caller checks
   that the result equals the untraced compile of the same job. *)

open Qcircuit
module Pipeline = Qroute.Pipeline
module Engine = Qroute.Engine
module Nassc = Qroute.Nassc

(* per-layer sums by metric name: milliseconds, or counts *)
type acc = (string, float) Hashtbl.t

let get (acc : acc) name = Option.value ~default:0.0 (Hashtbl.find_opt acc name)
let add (acc : acc) name v = Hashtbl.replace acc name (get acc name +. v)
let now = Unix.gettimeofday

let timed acc name f =
  let t0 = now () in
  let r = f () in
  add acc name ((now () -. t0) *. 1e3);
  r

(* "optimize_1q.zsx" in phase "post" -> "post.optimize_1q_ms" *)
let stage_metric phase name =
  let base = match String.index_opt name '.' with Some i -> String.sub name 0 i | None -> name in
  Printf.sprintf "%s.%s_ms" phase base

let run_stages acc phase stages c =
  List.fold_left (fun c (name, f) -> timed acc (stage_metric phase name) (fun () -> f c)) c stages

let size c = float_of_int (Circuit.size c)

(* one routing trial: what [Sabre.route] + [Sabre.decompose_swaps] or
   [Nassc.route] do, call by call *)
let route acc (spec : Workload.spec) coupling logical seed =
  let params = Workload.params seed in
  let n_phys = Topology.Coupling.n_qubits coupling in
  let dist = timed acc "distmat.hops_ms" (fun () -> Qroute.Sabre.hop_distance coupling) in
  let dag = timed acc "dag.of_circuit_ms" (fun () -> Dag.of_circuit logical) in
  let layout =
    timed acc "engine.find_layout_ms" (fun () ->
        Engine.find_layout params coupling ~rng:(Engine.layout_rng params) ~dist
          ~bonus:Engine.zero_bonus ~dag logical)
  in
  let bonus =
    match spec.router with
    | Pipeline.Nassc_router config -> Nassc.bonus config
    | _ -> Engine.zero_bonus
  in
  let r =
    timed acc "engine.route_ms" (fun () ->
        Engine.route_once params coupling ~rng:(Engine.route_rng params) ~dist ~bonus ~dag
          logical layout)
  in
  let routed =
    match spec.router with
    | Pipeline.Nassc_router _ ->
        timed acc "nassc.finalize_ms" (fun () ->
            Circuit.create n_phys (Nassc.finalize r.Engine.routed))
    | _ ->
        timed acc "sabre.decompose_ms" (fun () ->
            Qroute.Sabre.decompose_swaps (Engine.to_circuit ~n_phys r.Engine.routed))
  in
  (routed, r)

(* [Pipeline.transpile] with [workers = 1]: trial [k] routes with
   [Trials.trial_seed ~base k], and the winner is the least cx count,
   then the least depth, then the earliest trial *)
let transpile acc (spec : Workload.spec) coupling c seed : Workload.outcome =
  let lowered = timed acc "lower_to_2q.ms" (fun () -> Pipeline.lower_to_2q c) in
  let logical = run_stages acc "pre" Pipeline.pre_stages lowered in
  add acc "gates_after.pre" (size logical);
  let best = ref None in
  for k = 0 to spec.trials - 1 do
    let routed, r = route acc spec coupling logical (Qroute.Trials.trial_seed ~base:seed k) in
    add acc "gates_after.route" (size routed);
    let final = run_stages acc "post" Pipeline.post_stages routed in
    add acc "gates_after.post" (size final);
    let key = (Circuit.cx_count final, Circuit.depth final) in
    match !best with
    | Some (best_key, _, _) when compare best_key key <= 0 -> ()
    | _ -> best := Some (key, final, r)
  done;
  let (cx, depth), final, r = Option.get !best in
  {
    logical = Some c;
    output = final;
    cx;
    depth;
    swaps = r.Engine.n_swaps;
    initial_layout = r.Engine.initial_layout;
    final_layout = r.Engine.final_layout;
  }

(* the streaming lowering, exactly as [Pipeline.transpile_stream] maps it *)
let lower (i : Circuit.instr) =
  Qgate.Decompose.to_cx_basis [ (i.gate, i.qubits) ]
  |> List.map (fun (g, qs) -> { Circuit.gate = g; qubits = qs })

(* [Pipeline.transpile_stream] with its default window and
   [optimize = false]: layout search on the window-sized prefix, then
   [Engine.route_stream] feeding [Nassc.Streaming] *)
let stream acc (spec : Workload.spec) coupling source seed : Workload.outcome =
  let config =
    match spec.router with
    | Pipeline.Nassc_router config -> config
    | _ -> invalid_arg "Split.stream: the streaming workload routes with NASSC"
  in
  let params = Workload.params seed in
  let n_phys = Topology.Coupling.n_qubits coupling in
  let window = 4096 in
  let dist = Topology.Distmat.hops_lazy coupling in
  let keep = max 64 (config.Nassc.scan_limit + 8) in
  let layout, lowered =
    timed acc "engine.find_layout_ms" (fun () ->
        let prefix, lowered = Source.prefix (Source.map source lower) window in
        let prefix = Circuit.create (Source.n_qubits lowered) prefix in
        ( Engine.find_layout params coupling ~rng:(Engine.layout_rng params) ~dist
            ~bonus:Engine.zero_bonus prefix,
          lowered ))
  in
  (* the finalizer's output, with cx count and depth kept by the same
     per-wire level recurrence the pipeline uses *)
  let out = ref [] and cx = ref 0 and depth = ref 0 in
  let level = Array.make n_phys 0 in
  let emit (i : Circuit.instr) =
    out := i :: !out;
    match i.gate with
    | Qgate.Gate.Barrier _ -> ()
    | g ->
        (match g with Qgate.Gate.CX -> incr cx | _ -> ());
        let d = 1 + List.fold_left (fun m q -> max m level.(q)) 0 i.qubits in
        List.iter (fun q -> level.(q) <- d) i.qubits;
        if d > !depth then depth := d
  in
  let fin = Nassc.Streaming.create ~emit in
  let sink_s = ref 0.0 in
  let sink op =
    let t0 = now () in
    Nassc.Streaming.push fin op;
    sink_s := !sink_s +. (now () -. t0)
  in
  let t0 = now () in
  let st =
    Engine.route_stream params coupling ~rng:(Engine.route_rng params) ~dist
      ~bonus:(Nassc.bonus config) ~window ~keep ~sink lowered layout
  in
  add acc "engine.route_stream_ms" ((now () -. t0 -. !sink_s) *. 1e3);
  add acc "nassc.streaming_ms" (!sink_s *. 1e3);
  timed acc "nassc.streaming_ms" (fun () -> Nassc.Streaming.flush fin);
  add acc "distmat.rows_materialized" (float_of_int (Topology.Distmat.rows_materialized dist));
  Hashtbl.replace acc "streamdag.peak_resident"
    (Float.max (get acc "streamdag.peak_resident") (float_of_int st.Engine.st_peak_resident));
  let output = Circuit.create n_phys (List.rev !out) in
  add acc "gates_after.route" (size output);
  {
    logical = None;
    output;
    cx = !cx;
    depth = !depth;
    swaps = st.Engine.st_n_swaps;
    initial_layout = st.Engine.st_initial_layout;
    final_layout = st.Engine.st_final_layout;
  }

(* generating and lowering the stream alone, with no routing *)
let drain_source acc source =
  timed acc "source.ms" (fun () ->
      let s = Source.map source lower in
      let rec go n = match Source.pull s with None -> n | Some _ -> go (n + 1) in
      ignore (go 0))

let compile acc (spec : Workload.spec) coupling (job : Workload.job) =
  match job.input with
  | Workload.Qasm text ->
      let c = timed acc "qasm_parser.ms" (fun () -> Qasm_parser.parse text) in
      transpile acc spec coupling c job.seed
  | Workload.Batch c -> transpile acc spec coupling c job.seed
  | Workload.Stream source -> stream acc spec coupling (source ()) job.seed
