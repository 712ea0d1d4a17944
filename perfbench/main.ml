(* The repository benchmark: one workload per process, one closed-loop
   client (the next job starts only after the previous one returns),
   [workers = 1] throughout.

     bash perfbench/run.sh --workload paper-nassc --seed 1 --seconds 30 --trace 0

   The last line of standard output is one JSON object with the keys
   [correct], [attempted], [failed] and [metrics]: the end-to-end metrics
   with [--trace 0], the per-layer metrics of the traced layer split with
   [--trace 1].  NOTES.md beside this file explains the workloads and
   what each metric is expected to move. *)

open Qcircuit

let now = Unix.gettimeofday

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* nearest-rank percentile *)
let percentile p xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  a.(max 0 (min (n - 1) (int_of_float (Float.ceil (p /. 100.0 *. float_of_int n)) - 1)))

let ratio a b = if b = 0.0 then 0.0 else a /. b

(* VmHWM: the process's resident high-water mark, in kB *)
let peak_rss_kb () =
  let ic = open_in "/proc/self/status" in
  let rec scan () =
    match input_line ic with
    | line when String.starts_with ~prefix:"VmHWM:" line ->
        Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d" Fun.id
    | _ -> scan ()
    | exception End_of_file -> failwith "no VmHWM line in /proc/self/status"
  in
  Fun.protect ~finally:(fun () -> close_in ic) scan

let print_result ~correct ~attempted ~failed metrics =
  let field (name, unit, value) =
    if not (Float.is_finite value) then failwith ("metric " ^ name ^ " is not finite");
    Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" name value unit
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed
    (String.concat ", " (List.map field metrics))

type args = { workload : string; seed : int; seconds : float; trace : bool }

let parse_args () =
  let workload = ref "" and seed = ref 1 and seconds = ref 30 and trace = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, " " ^ String.concat " | " Workload.names);
      ("--seed", Arg.Set_int seed, " workload seed");
      ("--seconds", Arg.Set_int seconds, " length of the timed region");
      ("--trace", Arg.Set_int trace, " 1: report the per-layer split instead");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "perfbench --workload NAME --seed N --seconds S --trace 0|1";
  if !seconds < 1 then raise (Arg.Bad "--seconds must be at least 1");
  if !trace <> 0 && !trace <> 1 then raise (Arg.Bad "--trace must be 0 or 1");
  { workload = !workload; seed = !seed; seconds = float_of_int !seconds; trace = !trace = 1 }

(* ---- set-up: device, distance table, one warm-up job ---- *)

(* at least [min_setups] set-ups, and more until they have taken
   [setup_floor_s] in all: a 0.08 s set-up (families-sabre) then gets a
   median over some 25 samples instead of 5 *)
let min_setups = 5
let max_setups = 50
let setup_floor_s = 2.0

(* every set-up starts from empty per-domain caches and a fresh device,
   so the repeats measure the same work; the last one's device is kept *)
let setup (spec : Workload.spec) =
  Qpasses.Commutation.reset_cache ();
  Qroute.Nassc.reset_weyl_cache ();
  let t0 = now () in
  let coupling = spec.device () in
  (* the streaming path reads lazy rows, which the warm-up fills *)
  (match spec.warmup.input with
  | Workload.Stream _ -> ()
  | _ -> ignore (Topology.Distmat.hops coupling));
  let warm = Workload.compile spec coupling spec.warmup in
  (now () -. t0, coupling, warm)

(* ---- the closed loop ---- *)

type run = {
  first : (Workload.outcome, string) result array;  (** pass 1, by job *)
  bad : bool array;  (** a later pass differed from pass 1 *)
  walls : float list;  (** seconds per job, every pass *)
  pass_s : float list;  (** seconds per pass, in order *)
  instrs : int;
  swaps : int;
  passes : int;
}

let same (a : Workload.outcome) (b : Workload.outcome) =
  a.cx = b.cx && a.depth = b.depth && a.swaps = b.swaps
  && a.initial_layout = b.initial_layout
  && a.final_layout = b.final_layout
  && Circuit.equal a.output b.output

(* whole passes over the job list, as many as bring the timed total
   nearest to [seconds] (at least one); only the compile calls are timed *)
let closed_loop ~seconds (spec : Workload.spec) coupling =
  let jobs = Array.of_list spec.jobs in
  let first = Array.make (Array.length jobs) (Error "not run") in
  let bad = Array.make (Array.length jobs) false in
  let walls = ref [] and pass_s = ref [] and instrs = ref 0 and swaps = ref 0 in
  let pass () =
    let spent = ref 0.0 in
    Array.iteri
      (fun i (job : Workload.job) ->
        let t0 = now () in
        let r =
          try Ok (Workload.compile spec coupling job) with e -> Error (Printexc.to_string e)
        in
        let wall = now () -. t0 in
        walls := wall :: !walls;
        spent := !spent +. wall;
        instrs := !instrs + job.size;
        (match r with Ok o -> swaps := !swaps + o.swaps | Error _ -> ());
        if !pass_s = [] then first.(i) <- r
        else
          match (first.(i), r) with
          | Ok a, Ok b when same a b -> ()
          | _ -> bad.(i) <- true)
      jobs;
    pass_s := !spent :: !pass_s
  in
  pass ();
  let total () = List.fold_left ( +. ) 0.0 !pass_s in
  while total () *. (1.0 +. (0.5 /. float_of_int (List.length !pass_s))) < seconds do
    pass ()
  done;
  {
    first;
    bad;
    walls = !walls;
    pass_s = List.rev !pass_s;
    instrs = !instrs;
    swaps = !swaps;
    passes = List.length !pass_s;
  }

(* ---- the correctness oracle over pass 1 and the kept warm-up ---- *)

type checked = {
  why : string option array;  (** per job: why its pass-1 output failed *)
  warm_why : string option;  (** ... and the kept warm-up's *)
  unknown : int;
  verify_ms : float;
}

let check ~seed (spec : Workload.spec) coupling run warm =
  let t0 = now () in
  let rng = Mathkit.Rng.create (seed + 104729) in
  let unknown = ref 0 in
  let examine semantic_check (o : Workload.outcome) =
    let verdict =
      match Oracle.structural ~hardware:spec.hardware_basis coupling o with
      | Oracle.Pass -> semantic_check o
      | v -> Some v
    in
    match verdict with
    | Some (Oracle.Fail why) -> Some why
    | Some Oracle.Pass -> None
    | Some (Oracle.Unknown _) | None ->
        incr unknown;
        None
  in
  let why =
    Array.mapi
      (fun i r ->
        match r with
        | Error e -> Some ("raised " ^ e)
        | Ok o -> (
            match examine (Oracle.semantic ~rng spec) o with
            | Some why -> Some why
            | None when run.bad.(i) -> Some "a repeat differed from the first pass"
            | None -> None))
      run.first
  in
  (* for the stream the warm-up is the output small enough for the
     symbolic certifier, checked against its materialized source *)
  let warm_why =
    match spec.warmup.input with
    | Workload.Stream source ->
        let original = Source.to_circuit (source ()) in
        examine (fun o -> Some (Oracle.certify ~original o)) warm
    | _ -> examine (Oracle.semantic ~rng spec) warm
  in
  { why; warm_why; unknown = !unknown; verify_ms = (now () -. t0) *. 1e3 }

(* the benchmark's own input check: where the workload fixes the job
   size, no seed may change it *)
let sizes_fixed (spec : Workload.spec) =
  match spec.job_size with
  | Some size -> List.for_all (fun (j : Workload.job) -> j.size = size) spec.jobs
  | None -> true

(* ---- the traced run ---- *)

let counter trace name = float_of_int (Qobs.Trace.counter_total trace name)

(* one traced pass, from the state pass 1 started in: empty caches
   filled by the warm-up job *)
let traced_pass (spec : Workload.spec) coupling run =
  Qpasses.Commutation.reset_cache ();
  Qroute.Nassc.reset_weyl_cache ();
  ignore (Workload.compile spec coupling spec.warmup);
  let acc : Split.acc = Hashtbl.create 64 in
  let collector = Qobs.Collector.create ~label:"perfbench" () in
  let wall = ref 0.0 and mismatches = ref [] in
  Qobs.with_collector collector (fun () ->
      List.iteri
        (fun i (job : Workload.job) ->
          let t0 = now () in
          let o = try Ok (Split.compile acc spec coupling job) with e -> Error e in
          wall := !wall +. (now () -. t0);
          match (run.first.(i), o) with
          | Ok a, Ok b when same a b -> ()
          | _ -> mismatches := i :: !mismatches)
        spec.jobs);
  List.iter
    (fun (job : Workload.job) ->
      match job.input with Workload.Stream source -> Split.drain_source acc (source ()) | _ -> ())
    spec.jobs;
  (acc, Qobs.Trace.of_root collector, !wall, List.rev !mismatches)

let per_layer (acc : Split.acc) trace ~overhead ~(checked : checked) ~failed_frac =
  let ms name = (name, "ms", Split.get acc name) in
  let count name v = (name, "count", v) in
  let steps = counter trace "engine.swaps_emitted" in
  let engine_ms =
    Split.get acc "engine.find_layout_ms" +. Split.get acc "engine.route_ms"
    +. Split.get acc "engine.route_stream_ms"
  in
  let weyl_hits = counter trace "nassc.weyl_cache_hits" in
  [
    ms "qasm_parser.ms";
    ms "lower_to_2q.ms";
    ms "pre.peephole_ms";
    ms "pre.optimize_1q_ms";
    ms "pre.cancellation_ms";
    ms "pre.unitary_synthesis_ms";
    ms "post.peephole_ms";
    ms "post.cancellation_ms";
    ms "post.unitary_synthesis_ms";
    ms "post.basis_ms";
    ms "post.optimize_1q_ms";
    count "synth2q.kak_decompositions" (counter trace "synth2q.kak_decompositions");
    ( "synth.accept_ratio",
      "ratio",
      ratio (counter trace "synth.blocks_resynthesized") (counter trace "synth.blocks_considered")
    );
    count "gates_after.pre" (Split.get acc "gates_after.pre");
    count "gates_after.route" (Split.get acc "gates_after.route");
    count "gates_after.post" (Split.get acc "gates_after.post");
    ms "distmat.hops_ms";
    ms "dag.of_circuit_ms";
    ms "engine.find_layout_ms";
    ms "engine.route_ms";
    count "engine.swap_steps" steps;
    count "engine.candidates_scored" (counter trace "engine.swap_candidates_scored");
    ("engine.us_per_step", "us", ratio (engine_ms *. 1e3) steps);
    ms "nassc.finalize_ms";
    ms "sabre.decompose_ms";
    ( "commutation.hit_ratio",
      "ratio",
      ratio (counter trace "commutation.cache_hits") (counter trace "commutation.cache_lookups") );
    ( "nassc.weyl_hit_ratio",
      "ratio",
      ratio weyl_hits (weyl_hits +. counter trace "nassc.weyl_cache_misses") );
    ms "source.ms";
    ms "engine.route_stream_ms";
    ms "nassc.streaming_ms";
    count "distmat.rows_materialized" (Split.get acc "distmat.rows_materialized");
    count "streamdag.peak_resident" (Split.get acc "streamdag.peak_resident");
    ("verify.ms", "ms", checked.verify_ms);
    count "verify.unknown" (float_of_int checked.unknown);
    ("trace_overhead", "ratio", overhead);
    ("failed_frac", "ratio", failed_frac);
  ]

let () =
  let args =
    try parse_args ()
    with Arg.Bad msg ->
      prerr_endline msg;
      exit 2
  in
  let spec =
    match Workload.make args.workload args.seed with
    | Some spec -> spec
    | None ->
        Printf.eprintf "unknown workload %S (expected %s)\n" args.workload
          (String.concat ", " Workload.names);
        exit 2
  in
  let rec setups acc n spent =
    if n >= max_setups || (n >= min_setups && spent >= setup_floor_s) then List.rev acc
    else
      let ((t, _, _) as r) = setup spec in
      setups (r :: acc) (n + 1) (spent +. t)
  in
  let setup_runs = setups [] 0 0.0 in
  let setup_s = median (List.map (fun (t, _, _) -> t) setup_runs) in
  let _, coupling, warm = List.nth setup_runs (List.length setup_runs - 1) in
  Gc.compact ();
  let run = closed_loop ~seconds:args.seconds spec coupling in
  let rss_mb = float_of_int (peak_rss_kb ()) /. 1024.0 in
  let traced = if args.trace then Some (traced_pass spec coupling run) else None in
  let checked = check ~seed:args.seed spec coupling run warm in
  let why = checked.why in
  (match traced with
  | Some (_, _, _, mismatches) ->
      List.iter
        (fun i -> if why.(i) = None then why.(i) <- Some "the traced split differs")
        mismatches
  | None -> ());
  (* every timed job plus the checked warm-up; a job whose pass-1 output
     failed fails in every pass *)
  let attempted = List.length run.walls + 1 in
  let bad_jobs = Array.fold_left (fun n w -> if w = None then n else n + 1) 0 why in
  let failed = (bad_jobs * run.passes) + if checked.warm_why = None then 0 else 1 in
  let failed_frac = float_of_int failed /. float_of_int attempted in
  let correct = failed = 0 && sizes_fixed spec in
  let outcomes = Array.to_list run.first |> List.filter_map Result.to_option in
  let total f = float_of_int (List.fold_left (fun a o -> a + f o) 0 outcomes) in
  Printf.printf
    "workload %s seed %d: %d jobs in %d passes (%s s), set-up %.3f s (median of %d), %d \
     unknown verdicts\n"
    spec.name args.seed (List.length run.walls) run.passes
    (String.concat " + " (List.map (Printf.sprintf "%.2f") run.pass_s))
    setup_s (List.length setup_runs) checked.unknown;
  Printf.printf "set-ups: %s s\n"
    (String.concat " " (List.map (fun (t, _, _) -> Printf.sprintf "%.4f" t) setup_runs));
  let jobs = Array.of_list spec.jobs in
  Array.iteri
    (fun i w -> Option.iter (Printf.printf "FAILED %s: %s\n" jobs.(i).Workload.label) w)
    why;
  Option.iter (Printf.printf "FAILED warm-up: %s\n") checked.warm_why;
  if not (sizes_fixed spec) then print_endline "FAILED a job size depends on the seed";
  let metrics =
    match traced with
    | Some (acc, trace, wall, _) ->
        let overhead = wall /. List.hd run.pass_s in
        per_layer acc trace ~overhead ~checked ~failed_frac
    | None ->
        (* every pass repeats the same work: rate metrics use the median
           pass, which a one-pass slowdown of the host does not move *)
        let pass_s = median run.pass_s in
        let pass_instrs = run.instrs / run.passes and pass_swaps = run.swaps / run.passes in
        let latency = if spec.per_job_latency then run.walls else run.pass_s in
        let job_ms = List.map (fun w -> w *. 1e3) latency in
        [
          ("compile_gps", "instr/s", float_of_int pass_instrs /. pass_s);
          ("job_ms_p50", "ms", percentile 50.0 job_ms);
          ("job_ms_p90", "ms", percentile 90.0 job_ms);
          ("swap_step_us", "us", pass_s *. 1e6 /. float_of_int (max 1 pass_swaps));
          ("setup_s", "s", setup_s);
          ("peak_rss_mb", "MB", rss_mb);
          ("cx_total", "count", total (fun o -> o.Workload.cx));
          ("depth_total", "count", total (fun o -> o.Workload.depth));
          ("swaps_total", "count", total (fun o -> o.Workload.swaps));
          ("ok_frac", "ratio", 1.0 -. failed_frac);
        ]
  in
  print_result ~correct ~attempted ~failed metrics
