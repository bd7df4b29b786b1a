(* The benchmark program: runs one workload for a given time and prints its
   metrics. A human-readable report goes to stderr; the last line of
   stdout is one JSON object {correct, attempted, failed, metrics}, with
   the end-to-end metrics (--trace 0) or the per-layer metrics (--trace 1).

   Usage: sbbench --workload dp_warm|dp_flood|ctl_epochs --seed N
                  --seconds S --trace 0|1 [--smoke]

   A traced run makes the same passes as an untraced one, with spans on
   for every other stretch of steps; it reports the per-layer numbers of
   the traced stretches and their difference from the untraced ones as
   the tracing overhead. --smoke runs the same checks at a tiny size. *)

let workloads = [ "dp_warm"; "dp_flood"; "ctl_epochs" ]

(* Every workload reports every metric; a layer a workload never calls
   reads 0. The gated step times are relative to the reference probe
   (see probe.ml): on a shared host the other tenants slow this program
   by up to 40 % for seconds or minutes at a time, and the raw times of
   ten runs spread more than any bound a regression gate could use. The
   raw times are in the report. *)
let end_to_end =
  [ ("setup_s", "s"); ("step_p50_rel", "x_probe"); ("step_p90_rel", "x_probe");
    ("peak_heap_mb", "MB") ]

let per_layer =
  List.map (fun l -> (l ^ ".self_us", "us/step")) (Array.to_list Trace.layer_names)
  @ [
      ("trace.overhead_pct", "%");
      ("plane.mpps", "Mpps");
      ("plane.drive_ns", "ns/pkt");
      ("plane.new_flow_ns", "ns/pkt");
      ("plane.expire_ms", "ms/sweep");
      ("plane.expired", "conns/sweep");
      ("plane.entries_peak", "count");
      ("plane.load_factor", "ratio");
      ("plane.max_probe", "count");
      ("plane.heap_bytes_per_conn", "B/conn");
      ("plane.mutations_per_epoch", "count/epoch");
      ("gc.minor_words_per_pkt", "words/pkt");
      ("gc.minor_words_per_epoch", "words/epoch");
      ("gc.major_collections", "count");
      ("traffic_gen.ns_per_pkt", "ns/pkt");
      ("engine.report_ms", "ms/epoch");
      ("telemetry.aggregate_us", "us/epoch");
      ("model.rebuild_ms", "ms/rebuild");
      ("dp_routing.resolve_ms", "ms/epoch");
      ("dp_routing.considered", "count/epoch");
      ("dp_routing.over_threshold", "count/epoch");
      ("dp_routing.rerouted", "count/epoch");
      ("dp_routing.move_share", "ratio");
      ("dp_routing.satisfied", "share");
      ("system.rollout_ms", "ms/epoch");
      ("system.rollout_sim_ms", "sim_ms");
      ("system.txns", "count/epoch");
      ("system.updates_failed", "count");
      ("system.probe_us", "us/probe");
      ("bus.published", "msgs/epoch");
      ("bus.delivered", "msgs/epoch");
      ("bus.dropped", "msgs/epoch");
      ("bus.wan_bytes_per_epoch", "B/epoch");
      ("bus.latency_sim_ms_p99", "sim_ms");
      ("compile.nodes_per_stage", "ratio");
    ]

type args = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  smoke : bool;
}

let usage () =
  prerr_endline
    "usage: sbbench --workload dp_warm|dp_flood|ctl_epochs --seed N --seconds S \
     --trace 0|1 [--smoke]";
  exit 2

let parse argv =
  let workload = ref None and seed = ref None and seconds = ref None in
  let trace = ref None and smoke = ref false in
  let int_of s = match int_of_string_opt s with Some n -> n | None -> usage () in
  let rec go = function
    | "--workload" :: w :: rest when List.mem w workloads ->
      workload := Some w;
      go rest
    | "--seed" :: n :: rest ->
      seed := Some (int_of n);
      go rest
    | "--seconds" :: s :: rest -> (
      match float_of_string_opt s with
      | Some x when x > 0. ->
        seconds := Some x;
        go rest
      | _ -> usage ())
    | "--trace" :: ("0" | "1" as t) :: rest ->
      trace := Some (t = "1");
      go rest
    | "--smoke" :: rest ->
      smoke := true;
      go rest
    | [] -> ()
    | _ -> usage ()
  in
  go (List.tl (Array.to_list argv));
  match (!workload, !seed, !seconds, !trace) with
  | Some workload, Some seed, Some seconds, Some trace ->
    if seed < 0 then usage ();
    { workload; seed; seconds; trace; smoke = !smoke }
  | _ -> usage ()

let ns_of_s s = int_of_float (s *. 1e9)
let div a b = if b = 0 then 0. else float_of_int a /. float_of_int b

(* ------------------------------------------------------------------ *)

let overhead_pct (traced : Out.Sample.t) (plain : Out.Sample.t) =
  let base = Out.Sample.mean plain in
  if base > 0. then 100. *. ((Out.Sample.mean traced /. base) -. 1.) else 0.

let set_steps out ~setups ~steps ~busy_ns ~probe =
  Out.set out "setup_s" ~samples:(Out.Sample.count setups)
    (Out.s_of_ns (Out.Sample.percentile setups 50.));
  let n = Out.Sample.count steps in
  let rel = Probe.relative probe steps in
  Out.set out "step_p50_rel" ~samples:n (Probe.percentile rel 50.);
  Out.set out "step_p90_rel" ~samples:n (Probe.percentile rel 90.);
  Out.set out "step_p99_rel" ~samples:n (Probe.percentile rel 99.);
  Out.set out "probe_us" ~samples:(Probe.count probe) (Out.us_of_ns (Probe.median_ns probe));
  Out.set out "step_us_p50" ~samples:n (Out.us_of_ns (Out.Sample.percentile steps 50.));
  Out.set out "step_us_p90" ~samples:n (Out.us_of_ns (Out.Sample.percentile steps 90.));
  Out.set out "step_us_p99" ~samples:n (Out.us_of_ns (Out.Sample.percentile steps 99.));
  Out.set out "steps_per_s" ~samples:n (div n busy_ns *. 1e9)

let set_self_times out tr ~steps =
  Array.iteri
    (fun l name ->
      Out.set out (name ^ ".self_us")
        (Out.us_of_ns (Trace.self_ns tr l) /. float_of_int (max 1 steps)))
    Trace.layer_names

let run_dp args tr out =
  let a = Dp.acc () in
  (* Five passes, each a fresh set-up measured for a fifth of the time:
     setup_s is the median of five set-ups. *)
  let passes = 5 in
  let measure_ns = ns_of_s (args.seconds /. float_of_int passes) in
  let fingerprints =
    List.init passes (fun _ ->
        if args.workload = "dp_warm" then
          Dp.warm_pass tr out a ~seed:args.seed
            ~conns:(if args.smoke then 4096 else 262_144)
            ~measure_ns
        else
          Dp.flood_pass tr out a ~seed:args.seed
            ~window:(if args.smoke then 4096 else 65_536)
            ~measure_ns)
  in
  (* Passes run for a time, not a count: compare what both reached. *)
  let rec agree a b =
    match (a, b) with x :: xs, y :: ys -> x = y && agree xs ys | _ -> true
  in
  List.iter
    (fun f ->
      Out.check out (agree f (List.hd fingerprints))
        (Printf.sprintf "%s: passes of one seed differ" args.workload))
    fingerprints;
  Out.check out (out.Out.failed = 0)
    (Printf.sprintf "%s: %d of %d packets were not delivered" args.workload out.Out.failed
       out.Out.attempted);
  set_steps out ~setups:a.Dp.setups ~steps:a.Dp.steps ~busy_ns:a.Dp.busy_ns
    ~probe:a.Dp.probe;
  set_self_times out tr ~steps:(Out.Sample.count a.Dp.traced);
  Out.set out "trace.overhead_pct" (overhead_pct a.Dp.traced a.Dp.plain);
  Out.set out "plane.mpps" (div a.Dp.packets a.Dp.busy_ns *. 1e3);
  Out.set out "plane.drive_ns" (div a.Dp.est_ns a.Dp.est_pkts);
  Out.set out "plane.new_flow_ns" (div a.Dp.new_ns a.Dp.new_pkts);
  Out.set out "plane.expire_ms" (Out.Sample.mean a.Dp.sweeps /. 1e6);
  Out.set out "plane.expired" (div a.Dp.expired (Out.Sample.count a.Dp.sweeps));
  let n, cap, probe = a.Dp.peak in
  Out.set out "plane.entries_peak" (float_of_int n);
  Out.set out "plane.load_factor" (div n cap);
  Out.set out "plane.max_probe" (float_of_int probe);
  Out.set out "plane.heap_bytes_per_conn" a.Dp.heap_per_conn;
  Out.set out "gc.minor_words_per_pkt" (a.Dp.minor_words /. float_of_int (max 1 a.Dp.packets));
  Out.set out "gc.major_collections" (float_of_int a.Dp.majors);
  Out.set out "traffic_gen.ns_per_pkt" (div a.Dp.gen_ns a.Dp.gen_pkts)

(* ------------------------------------------------------------------ *)

let run_ctl args tr out =
  let model = Setup.build_model (Trace.create false) in
  let links = Ctl.core_link model in
  let truth =
    {
      Ctl.base = model;
      failed = Setup.Model.with_failed_links model links;
      links;
      demand =
        Setup.Loop.diurnal_demand ~seed:Setup.substrate_seed (Setup.Model.num_chains model);
    }
  in
  let epochs = if args.smoke then 8 else Ctl.epochs_per_pass in
  let a = Ctl.acc () in
  (* Passes until the time is up, at least two; tracing runs trace every
     other pass. *)
  let t0 = Trace.now () in
  (* Only the first pass's fingerprint is kept: holding one per pass would
     grow the heap with the run's length. *)
  let first = ref None in
  let k = ref 0 in
  while !k < 2 || Out.s_of_ns (Trace.now () - t0) < args.seconds do
    Trace.set_active tr (!k land 1 = 1);
    incr k;
    let fp = Ctl.pass tr out a truth ~seed:args.seed ~epochs in
    match !first with
    | None -> first := Some fp
    | Some f -> Out.check out (fp = f) "ctl_epochs: passes of one seed differ"
  done;
  Trace.set_active tr true;
  let steps = a.Ctl.steps in
  set_steps out ~setups:a.Ctl.setups ~steps ~busy_ns:(Out.Sample.sum steps)
    ~probe:a.Ctl.probe;
  Out.set out "epoch_ms_p95" ~samples:(Out.Sample.count steps)
    (Out.ms_of_ns (Out.Sample.percentile steps 95.));
  let ep = max 1 a.Ctl.epochs in
  let fep x = float_of_int x /. float_of_int ep in
  Out.set out "dp_routing.satisfied" ~samples:a.Ctl.epochs (a.Ctl.satisfied /. float_of_int ep);
  Out.set out "system.rollout_sim_ms" ~samples:(Out.Sample.count a.Ctl.rollout_sim_us)
    (float_of_int (Out.Sample.percentile a.Ctl.rollout_sim_us 50.) /. 1e3);
  set_self_times out tr ~steps:(Out.Sample.count a.Ctl.traced);
  Out.set out "trace.overhead_pct" (overhead_pct a.Ctl.traced a.Ctl.plain);
  Out.set out "plane.mutations_per_epoch" (fep a.Ctl.mutations);
  Out.set out "gc.minor_words_per_epoch" (a.Ctl.minor_words /. float_of_int ep);
  Out.set out "gc.major_collections" (float_of_int a.Ctl.majors);
  Out.set out "traffic_gen.ns_per_pkt" (div a.Ctl.gen_ns a.Ctl.probes);
  let med s = Out.ms_of_ns (Out.Sample.percentile s 50.) in
  Out.set out "engine.report_ms" (med a.Ctl.report_ns);
  Out.set out "telemetry.aggregate_us" (1e3 *. med a.Ctl.aggregate_ns);
  Out.set out "model.rebuild_ms" (med a.Ctl.rebuild_ns);
  Out.set out "dp_routing.resolve_ms" (med a.Ctl.resolve_ns);
  Out.set out "dp_routing.considered" (fep a.Ctl.considered);
  Out.set out "dp_routing.over_threshold" (fep a.Ctl.over_threshold);
  Out.set out "dp_routing.rerouted" (fep a.Ctl.rerouted);
  Out.set out "dp_routing.move_share" (div a.Ctl.rerouted a.Ctl.considered);
  Out.set out "system.rollout_ms" (med a.Ctl.rollout_ns);
  Out.set out "system.txns" (fep a.Ctl.txns);
  Out.set out "system.updates_failed" (float_of_int a.Ctl.updates_failed);
  Out.set out "system.probe_us" (1e-3 *. div a.Ctl.probe_ns a.Ctl.probes);
  Out.set out "bus.published" (fep a.Ctl.published);
  Out.set out "bus.delivered" (fep a.Ctl.delivered);
  Out.set out "bus.dropped" (fep a.Ctl.dropped);
  Out.set out "bus.wan_bytes_per_epoch" (fep a.Ctl.wan_bytes);
  Out.set out "bus.latency_sim_ms_p99" (1e3 *. a.Ctl.latency_p99);
  Out.set out "compile.nodes_per_stage" a.Ctl.nodes_per_stage

(* ------------------------------------------------------------------ *)

let json_number v =
  if not (Float.is_finite v) then "0.0"
  else if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.1f" v
  else Printf.sprintf "%.17g" v

let report args out tr =
  let p = Printf.eprintf in
  p "perfbench %s seed=%d seconds=%g trace=%d%s | %d cores, OCaml %s\n" args.workload
    args.seed args.seconds
    (if args.trace then 1 else 0)
    (if args.smoke then " smoke" else "")
    (Domain.recommended_domain_count ()) Sys.ocaml_version;
  let line (name, unit) =
    let n = match Out.samples out name with Some n -> Printf.sprintf "  (n=%d)" n | None -> "" in
    p "  %-28s %14.4f %-12s%s\n" name (Out.get out name) unit n
  in
  p "end to end:\n";
  List.iter line end_to_end;
  let extra =
    [ ("step_p99_rel", "x_probe"); ("step_us_p50", "us"); ("step_us_p90", "us");
      ("step_us_p99", "us"); ("probe_us", "us"); ("steps_per_s", "1/s") ]
    @
    if args.workload = "ctl_epochs" then
      [ ("epoch_ms_p95", "ms"); ("dp_routing.satisfied", "share");
        ("system.rollout_sim_ms", "sim_ms (model)") ]
    else [ ("plane.mpps", "Mpps") ]
  in
  List.iter line extra;
  p "  %-28s %14.6f %-12s  (%d of %d)\n" "fail_share"
    (div out.Out.failed (max 1 out.Out.attempted)) "share" out.Out.failed out.Out.attempted;
  if args.trace then begin
    p "per layer:\n";
    List.iter line per_layer;
    p "self time in traced steps:\n";
    let total = Array.fold_left ( + ) 0 (Array.init Trace.num_layers (Trace.self_ns tr)) in
    Array.iteri
      (fun l name ->
        let ns = Trace.self_ns tr l in
        p "  %-12s %12.3f ms %6.2f %%\n" name (Out.ms_of_ns ns)
          (100. *. div ns (max 1 total)))
      Trace.layer_names;
    p "  tracing overhead %.2f %% (traced steps against untraced steps of the run)\n"
      (Out.get out "trace.overhead_pct");
    p "  spans stored %d, dropped %d\n" (Trace.stored tr) (Trace.dropped tr)
  end;
  List.iter (fun b -> p "CHECK FAILED: %s\n" b) (List.rev out.Out.broken);
  flush stderr;
  let metrics = if args.trace then per_layer else end_to_end in
  let body =
    String.concat ", "
      (List.map
         (fun (name, unit) ->
           Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" name
             (json_number (Out.get out name)) unit)
         metrics)
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    (out.Out.broken = []) out.Out.attempted out.Out.failed body

let () =
  let args = parse Sys.argv in
  let out = Out.create () in
  let tr = Trace.create args.trace in
  if args.workload = "ctl_epochs" then run_ctl args tr out else run_dp args tr out;
  Out.set out "peak_heap_mb" (Out.peak_heap_mb ());
  List.iter
    (fun (name, _) ->
      Out.check out (Float.is_finite (Out.get out name)) (name ^ " is not a finite number"))
    (end_to_end @ per_layer);
  (if Trace.enabled tr then
     let dir = ".bench_out" in
     (try Sys.mkdir dir 0o755 with Sys_error _ -> ());
     let path = Printf.sprintf "%s/spans-%s-seed%d.jsonl" dir args.workload args.seed in
     Trace.write tr path;
     Printf.eprintf "spans written to %s\n" path);
  report args out tr;
  exit (if out.Out.broken = [] then 0 else 1)
