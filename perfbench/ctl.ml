(* The control workload: Sb_adapt.Loop's closed loop run by the benchmark
   one epoch at a time through the same public calls, so every layer
   boundary is a call it can time. Each epoch:

   1. probes go in through [System.probe_chain], at Loop's injection
      instant (5 % into the epoch), outside the timed step;
   2. the engine runs until the exporters' reports are delivered;
   3. the aggregator is read and the measured model rebuilt;
   4. [Dp_routing.resolve] runs (Loop's default hysteresis and churn
      budget);
   5. [System.update_routes] rolls out the moved chains and the engine is
      drained until no transaction is in flight.

   The next epoch starts when the previous one has drained. Demand is
   Loop's per-chain diurnal curve, with phases fixed by the substrate; one
   core link fails for 4 epochs in every 16, so some epochs move a burst
   of chains. The seed drives the probe packets and the balancer draws,
   so every seed does the same control work. A pass is a fresh set-up
   plus 32 epochs; a run repeats passes until its time is up, and every
   pass of a seed must reproduce the first one exactly. *)

module System = Setup.System
module Engine = Setup.Engine
module Model = Setup.Model
module Routing = Setup.Routing
module Loop = Setup.Loop
module Tel = Sb_adapt.Telemetry
module Compile = Sb_ctrl.Compile
module Bus = Sb_msgbus.Bus
module Packet = Sb_dataplane.Packet
module Shard = Sb_dataplane.Shard
module Topology = Sb_net.Topology
module Rng = Sb_util.Rng
module Sample = Out.Sample

let epochs_per_pass = 32

(* Simulated seconds per epoch: long enough for an epoch's rollout to
   settle before the next epoch's reports are due. *)
let epoch_len = 5.0
let fail_period = 16
let fail_from = 5
let fail_len = 4

type acc = {
  steps : Sample.t;  (* ns per epoch, steps 2-5 *)
  traced : Sample.t;  (* tracing runs: whole epochs, root spans included,
                         of passes with spans on ... *)
  plain : Sample.t;  (* ... and with spans off *)
  setups : Sample.t;
  report_ns : Sample.t;  (* step 2 *)
  aggregate_ns : Sample.t;  (* step 3, aggregator reads *)
  rebuild_ns : Sample.t;  (* step 3, model rebuilds with failed links *)
  resolve_ns : Sample.t;  (* step 4 *)
  rollout_ns : Sample.t;  (* step 5 *)
  rollout_sim_us : Sample.t;  (* simulated update-to-settled time *)
  mutable probe_ns : int;
  mutable probes : int;
  mutable gen_ns : int;
  mutable epochs : int;
  mutable considered : int;
  mutable over_threshold : int;
  mutable rerouted : int;
  mutable txns : int;
  mutable updates_failed : int;
  mutable mutations : int;
  mutable minor_words : float;  (* allocated during timed epochs *)
  mutable majors : int;
  mutable satisfied : float;  (* sum over epochs *)
  mutable published : int;
  mutable delivered : int;
  mutable dropped : int;
  mutable wan_bytes : int;
  mutable latency_p99 : float;  (* simulated, last pass *)
  mutable nodes_per_stage : float;
  probe : Probe.t;  (* run after every epoch *)
}

let acc () =
  {
    steps = Sample.create ();
    traced = Sample.create ();
    plain = Sample.create ();
    setups = Sample.create ();
    report_ns = Sample.create ();
    aggregate_ns = Sample.create ();
    rebuild_ns = Sample.create ();
    resolve_ns = Sample.create ();
    rollout_ns = Sample.create ();
    rollout_sim_us = Sample.create ();
    probe_ns = 0;
    probes = 0;
    gen_ns = 0;
    epochs = 0;
    considered = 0;
    over_threshold = 0;
    rerouted = 0;
    txns = 0;
    updates_failed = 0;
    mutations = 0;
    minor_words = 0.;
    majors = 0;
    satisfied = 0.;
    published = 0;
    delivered = 0;
    dropped = 0;
    wan_bytes = 0;
    latency_p99 = 0.;
    nodes_per_stage = 0.;
    probe = Probe.create ();
  }

(* Both directions of the core ring link between core routers 2 and 3 of
   the substrate: at base demand its loss moves 5 of the 40 chains, as
   many as any core link's. *)
let core_link model =
  Array.to_list (Topology.links (Model.topology model))
  |> List.filter (fun l ->
         (l.Topology.src = 2 && l.Topology.dst = 3) || (l.Topology.src = 3 && l.Topology.dst = 2))
  |> List.map (fun l -> l.Topology.id)
  |> List.sort compare

let failed_at links e =
  let k = e mod fail_period in
  if k >= fail_from && k < fail_from + fail_len then links else []

(* Ground truth of one epoch: the failed links (if any) and the epoch's
   demand factors. *)
type truth = {
  base : Model.t;
  failed : Model.t;  (* [base] without [links] *)
  links : int list;
  demand : epoch:int -> chain:int -> float;
}

let truth_model t e =
  let n = Model.num_chains t.base in
  let m = match failed_at t.links e with [] -> t.base | _ -> t.failed in
  Model.with_chain_traffic_factors m (Array.init n (fun c -> t.demand ~epoch:e ~chain:c))

(* min(1, max alpha) of the committed routes on the epoch's true demand. *)
let satisfied tm st =
  let inst = Sb_core.Instance.compile tm in
  let r = Routing.of_instance inst in
  Array.iteri
    (fun c id ->
      List.iter
        (fun (rt : Setup.Ct.route) ->
          if rt.Setup.Ct.weight > 0. then
            Routing.add_path r ~chain:c
              ~nodes:(Array.map (Model.site_node tm) rt.Setup.Ct.element_sites)
              ~frac:rt.Setup.Ct.weight)
        (System.chain_routes st.Setup.sys ~chain:id))
    st.Setup.ids;
  Float.min 1. (Routing.max_alpha_into (Sb_core.Load_state.of_instance inst) r)

(* Names the layer an engine event belonged to, from public counters
   read before and after it. *)
type classifier = { before : unit -> unit; after : unit -> int }

(* Fire one engine event. While spans are on the event is a span of its
   own, charged to the layer the classifier names once it has run. *)
let step_event tr eng cl =
  if Trace.active tr then begin
    cl.before ();
    Trace.enter_leaf tr;
    let fired = Engine.step eng in
    Trace.leave_leaf_as tr (cl.after ());
    fired
  end
  else Engine.step eng

(* Run events up to [horizon], which a sentinel event marks. *)
let advance tr eng horizon cl =
  if horizon > Engine.now eng then begin
    let reached = ref false in
    ignore (Engine.schedule_at eng ~time:horizon (fun () -> reached := true));
    while (not !reached) && step_event tr eng cl do
      ()
    done
  end

let pass tr out a truth ~seed ~epochs =
  let p = Setup.params in
  Gc.compact ();
  let t_setup = Trace.now () in
  Trace.enter_root tr ~step:false;
  let model = Setup.build_model tr in
  let n = Model.num_chains model in
  let num_sites = Model.num_sites model in
  Trace.enter tr Trace.dp_routing;
  let r0 = Setup.Dp.solve (truth_model truth 0) in
  Trace.leave tr;
  let st = Setup.establish tr ~seed model r0 in
  let sys = st.Setup.sys in
  let eng = System.engine sys in
  let sh = System.shard sys in
  let ids = st.Setup.ids in
  Out.check out (Setup.admission_failures st = 0) "ctl_epochs: admission did not commit";
  let failed_now = ref [] in
  Trace.enter tr Trace.telemetry;
  let exporters =
    Array.init num_sites (fun s ->
        let node = Model.site_node model s in
        Tel.Exporter.start ~system:sys ~site:s ~period:epoch_len
          ~down_links:(fun () ->
            List.filter
              (fun l ->
                let lk = Topology.link (Model.topology model) l in
                lk.Topology.src = node || lk.Topology.dst = node)
              !failed_now)
          ())
  in
  let agg =
    Tel.Aggregator.create ~system:sys ~site:0 ~chains:(Array.to_list ids) ~num_sites
      ~staleness:p.Loop.staleness ()
  in
  Trace.leave tr;
  (* Traced runs replay every committed route set through Compile, the
     work the Global Switchboard does inside the 2PC, to time it alone. *)
  let comp = ref (Compile.empty ()) in
  let replay chain routes =
    match System.chain_spec sys ~chain with
    | Some spec when routes <> [] ->
      Trace.enter tr Trace.compile;
      let pr = Compile.prepare !comp ~chain ~spec ~routes in
      ignore (Compile.delta_from_committed !comp pr);
      ignore
        (Compile.transitions_of_routes ~nstages:(List.length spec.Setup.Ct.vnfs + 1) routes);
      comp := Compile.commit !comp ~chain pr;
      Trace.leave tr
    | _ -> ()
  in
  let bus = System.bus sys in
  Bus.reset_stats bus;
  Trace.leave tr;
  Sample.add a.setups (Trace.now () - t_setup);
  (* Collected outside the timed set-up, so no major GC work left over
     from it runs in the epochs. *)
  Gc.full_major ();
  if Trace.active tr then Array.iteri (fun c id -> replay id st.Setup.initial.(c)) ids;
  (* An event that changed the data plane's rules was a rule install; one
     at an export instant or that fed the aggregator was telemetry;
     anything else was a bus delivery and the controller handler it ran. *)
  let t_start = Engine.now eng in
  let ev_mutations = ref 0 and ev_reports = ref 0 in
  let cl =
    {
      before =
        (fun () ->
          ev_mutations := Shard.mutations sh;
          ev_reports := Tel.Aggregator.reports agg);
      after =
        (fun () ->
          let k = Float.round ((Engine.now eng -. t_start) /. epoch_len) in
          if Shard.mutations sh <> !ev_mutations then Trace.plane
          else if
            Tel.Aggregator.reports agg <> !ev_reports
            || (k >= 1. && Float.abs (Engine.now eng -. t_start -. (k *. epoch_len)) < 1e-6)
          then Trace.telemetry
          else Trace.bus);
    }
  in
  let rng = Rng.split ~stream:1 (Rng.create seed) in
  let factors = Array.make n 1.0 in
  let cur = ref r0 in
  let t0 = Engine.now eng in
  let fp = Buffer.create 1024 in
  (* 1: an epoch's probes, proportional to its true demand, go in at 5 %
     of the epoch: Loop's injection instant, after the previous epoch's
     rollout has settled and before its control tick. They are not part
     of any timed step. *)
  let probe_failures = ref 0 in
  let inject e =
    failed_now := failed_at truth.links e;
    Trace.enter_root tr ~step:false;
    for c = 0 to n - 1 do
      let units = truth.demand ~epoch:e ~chain:c *. Model.fwd_traffic model ~chain:c ~stage:0 in
      let count = max 1 (int_of_float (Float.round (float_of_int p.Loop.pkts_per_unit *. units))) in
      for _ = 1 to count do
        let g0 = Trace.now () in
        let tp = Packet.random_tuple rng in
        let g1 = Trace.now () in
        Trace.enter tr Trace.system;
        let ok = Result.is_ok (System.probe_chain sys ~chain:ids.(c) tp) in
        Trace.leave tr;
        let g2 = Trace.now () in
        a.gen_ns <- a.gen_ns + (g1 - g0);
        a.probe_ns <- a.probe_ns + (g2 - g1);
        a.probes <- a.probes + 1;
        out.Out.attempted <- out.Out.attempted + 1;
        if not ok then begin
          out.Out.failed <- out.Out.failed + 1;
          incr probe_failures
        end
      done
    done;
    Trace.leave tr
  in
  advance tr eng (t0 +. (0.05 *. epoch_len)) cl;
  inject 0;
  let majors0 = (Gc.quick_stat ()).Gc.major_collections in
  for e = 0 to epochs - 1 do
    let te = t0 +. (float_of_int e *. epoch_len) in
    let mut0 = Shard.mutations sh in
    (* 2: deliver the exporters' reports for this epoch; the next epoch's
       probes go in on the way, outside the timed step *)
    let whole0 = Trace.now () in
    Trace.enter_root tr ~step:true;
    let w0 = Gc.minor_words () in
    let t_ep = Trace.now () in
    Trace.enter tr Trace.engine;
    advance tr eng (te +. (1.05 *. epoch_len)) cl;
    Trace.leave tr;
    let t_pause = Trace.now () in
    let w_pause = Gc.minor_words () in
    Trace.leave tr;
    let whole1 = Trace.now () in
    probe_failures := 0;
    if e + 1 < epochs then inject (e + 1);
    let whole2 = Trace.now () in
    Trace.enter_root ~same_group:true tr ~step:true;
    let w_resume = Gc.minor_words () in
    let t_resume = Trace.now () in
    Trace.enter tr Trace.engine;
    advance tr eng (te +. epoch_len +. p.Loop.control_lag) cl;
    Trace.leave tr;
    let t2 = Trace.now () in
    (* 3: read the aggregator, rebuild the measured model *)
    Trace.enter tr Trace.telemetry;
    for c = 0 to n - 1 do
      match Tel.Aggregator.chain_packets agg ~epoch:e ~chain:ids.(c) with
      | Some pkts ->
        let base = float_of_int p.Loop.pkts_per_unit *. Model.fwd_traffic model ~chain:c ~stage:0 in
        if base > 0. then factors.(c) <- float_of_int pkts /. base
      | None -> ()
    done;
    let down = Tel.Aggregator.down_links agg ~epoch:e in
    Trace.leave tr;
    let t3a = Trace.now () in
    Trace.enter tr Trace.model;
    let base = match down with [] -> model | _ -> Model.with_failed_links model down in
    let t3b = Trace.now () in
    let measured = Model.with_chain_traffic_factors base (Array.copy factors) in
    Trace.leave tr;
    let t3 = Trace.now () in
    (* 4: resolve *)
    Trace.enter tr Trace.dp_routing;
    let r', stats =
      Setup.Dp.resolve ~util_weight:p.Loop.util_weight ~hysteresis:p.Loop.hysteresis
        ~churn_budget:p.Loop.churn_budget ~prev:!cur measured
    in
    Trace.leave tr;
    cur := r';
    let t4 = Trace.now () in
    (* 5: roll out and drain *)
    let sent = ref [] in
    Trace.enter tr Trace.system;
    List.iter
      (fun c ->
        match Setup.routes_of model r' c with
        | [] -> ()
        | routes ->
          System.update_routes sys ~chain:ids.(c) routes;
          sent := (c, routes) :: !sent)
      stats.Setup.Dp.rerouted;
    Trace.leave tr;
    let sim0 = Engine.now eng in
    Trace.enter tr Trace.engine;
    let stalled = ref false in
    while System.txns_in_flight sys > 0 && not !stalled do
      if not (step_event tr eng cl) then stalled := true
    done;
    Trace.leave tr;
    let t5 = Trace.now () in
    Trace.leave tr;
    let whole3 = Trace.now () in
    a.minor_words <- a.minor_words +. (w_pause -. w0) +. (Gc.minor_words () -. w_resume);
    let step_ns = t_pause - t_ep + (t5 - t_resume) in
    Sample.add a.steps step_ns;
    Probe.run a.probe ~steps:(Sample.count a.steps);
    (* The overhead compares whole epochs, root spans included. *)
    if Trace.enabled tr then
      Sample.add
        (if Trace.active tr then a.traced else a.plain)
        (whole1 - whole0 + (whole3 - whole2));
    Sample.add a.report_ns (t_pause - t_ep + (t2 - t_resume));
    Sample.add a.aggregate_ns (t3a - t2);
    if down <> [] then Sample.add a.rebuild_ns (t3b - t3a);
    Sample.add a.resolve_ns (t4 - t3);
    Sample.add a.rollout_ns (t5 - t4);
    let sim_us = if !sent = [] then 0 else int_of_float ((Engine.now eng -. sim0) *. 1e6) in
    if !sent <> [] then Sample.add a.rollout_sim_us sim_us;
    (* checks: every requested route set committed, nothing in flight *)
    Out.check out (not !stalled) "ctl_epochs: engine ran dry with a transaction in flight";
    Out.check out (System.txns_in_flight sys = 0) "ctl_epochs: transactions left in flight";
    List.iter
      (fun (c, routes) ->
        out.Out.attempted <- out.Out.attempted + 1;
        a.txns <- a.txns + 1;
        if System.chain_routes sys ~chain:ids.(c) <> routes then begin
          out.Out.failed <- out.Out.failed + 1;
          a.updates_failed <- a.updates_failed + 1;
          Out.check out false
            (Printf.sprintf "ctl_epochs: epoch %d: committed routes of chain %d differ from those sent"
               e c)
        end)
      !sent;
    if Trace.active tr && !sent <> [] then begin
      Trace.enter_root tr ~step:true;
      List.iter (fun (c, routes) -> replay ids.(c) routes) (List.rev !sent);
      Trace.leave tr
    end;
    let moved = List.length stats.Setup.Dp.rerouted in
    a.epochs <- a.epochs + 1;
    a.considered <- a.considered + stats.Setup.Dp.considered;
    a.over_threshold <- a.over_threshold + stats.Setup.Dp.over_threshold;
    a.rerouted <- a.rerouted + moved;
    a.mutations <- a.mutations + (Shard.mutations sh - mut0);
    let sat = satisfied (truth_model truth e) st in
    a.satisfied <- a.satisfied +. sat;
    Printf.bprintf fp "%d:%d:%.9f:%d:%d;" e moved sat sim_us !probe_failures
  done;
  a.majors <- a.majors + ((Gc.quick_stat ()).Gc.major_collections - majors0);
  Array.iter Tel.Exporter.stop exporters;
  let bs = Bus.stats bus in
  a.published <- a.published + bs.Bus.published;
  a.delivered <- a.delivered + bs.Bus.delivered;
  a.dropped <- a.dropped + bs.Bus.dropped;
  a.wan_bytes <- a.wan_bytes + bs.Bus.wan_bytes;
  a.latency_p99 <- Sb_util.Stats.percentile 99. bs.Bus.latencies;
  let cs = System.compile_stats sys in
  a.nodes_per_stage <-
    (if cs.Compile.stages_total > 0 then
       float_of_int cs.Compile.nodes /. float_of_int cs.Compile.stages_total
     else 0.);
  Printf.bprintf fp "wan=%d" bs.Bus.wan_bytes;
  Buffer.contents fp
