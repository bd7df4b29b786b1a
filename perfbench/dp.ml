(* The data-plane workloads: closed loops of 256-packet, 64 B batches driven
   through the control plane's 1-lane shard ([Shard.drive_batch] runs
   [Plane] inline), one chain per batch; the next batch is sent when the
   previous one returns.

   dp_warm: every packet hits an established connection, drawn uniformly
   over 262,144 connections (about 2 M flow-table entries, more than the
   caches hold). No inserts, no expiry; the control plane is idle.

   dp_flood: streaming windows, 65,536 live flows in total; each tick
   replaces half of every chain's window, so three packets in four are a
   connection's first (a miss, a balancer draw and an insert at every hop),
   and each tick ends with an idle-flow sweep. *)

module Shard = Sb_dataplane.Shard
module Tg = Sb_dataplane.Traffic_gen
module Rng = Sb_util.Rng
module Sample = Out.Sample

let batch = 256
let size = 64

(* Run-wide accumulators, shared by every pass (set-up plus measurement on
   a fresh system) of one run. *)
type acc = {
  steps : Sample.t;  (* ns per step: one 256-packet batch *)
  traced : Sample.t;  (* tracing runs: whole steps, generator and root span
                         included, taken with spans on ... *)
  plain : Sample.t;  (* ... and with spans off *)
  setups : Sample.t;  (* ns per set-up, forced collections excluded *)
  mutable busy_ns : int;  (* in forwarder calls, expiry sweeps included *)
  mutable packets : int;
  mutable est_ns : int;  (* forwarder time on established-flow batches *)
  mutable est_pkts : int;
  mutable new_ns : int;  (* forwarder time on first-packet batches *)
  mutable new_pkts : int;
  mutable gen_ns : int;  (* generator time *)
  mutable gen_pkts : int;
  mutable minor_words : float;  (* allocated inside measured forwarder calls *)
  sweeps : Sample.t;  (* ns per expiry sweep *)
  mutable expired : int;
  mutable peak : int * int * int;  (* table stats at peak occupancy *)
  mutable heap_per_conn : float;
  mutable majors : int;
  probe : Probe.t;  (* run after every 16th step *)
}

let acc () =
  {
    steps = Sample.create ();
    traced = Sample.create ();
    plain = Sample.create ();
    setups = Sample.create ();
    busy_ns = 0;
    packets = 0;
    est_ns = 0;
    est_pkts = 0;
    new_ns = 0;
    new_pkts = 0;
    gen_ns = 0;
    gen_pkts = 0;
    minor_words = 0.;
    sweeps = Sample.create ();
    expired = 0;
    peak = (0, 0, 0);
    heap_per_conn = 0.;
    majors = 0;
    probe = Probe.create ();
  }

(* [dt] is the step's forwarder time; [whole] the step from before its
   root span opened to after it closed, which the overhead compares. *)
let add_step tr a dt ~whole =
  Sample.add a.steps dt;
  if Trace.enabled tr then Sample.add (if Trace.active tr then a.traced else a.plain) whole;
  a.busy_ns <- a.busy_ns + dt;
  let n = Sample.count a.steps in
  if n land 15 = 0 then Probe.run a.probe ~steps:n

let note_peak a ((n, _, _) as st) =
  let pn, _, _ = a.peak in
  if n > pn then a.peak <- st

(* One forwarder call on a batch; returns its busy time. Words allocated
   inside it are counted for measured steps only, not for set-up. *)
let drive ?(setup = false) tr out a sh (ingress, chain_label, egress_label) pkts =
  Trace.enter tr Trace.plane;
  let w0 = Gc.minor_words () in
  let t0 = Trace.now () in
  let delivered = Shard.drive_batch sh ~ingress ~chain_label ~egress_label ~size pkts in
  let dt = Trace.now () - t0 in
  if not setup then a.minor_words <- a.minor_words +. (Gc.minor_words () -. w0);
  Trace.leave tr;
  let n = Array.length pkts in
  out.Out.attempted <- out.Out.attempted + n;
  out.Out.failed <- out.Out.failed + (n - delivered);
  dt

let set_up tr ~seed =
  let model = Setup.build_model tr in
  Trace.enter tr Trace.dp_routing;
  let r0 = Setup.Dp.solve model in
  Trace.leave tr;
  Setup.establish tr ~seed model r0

(* Send every connection's first packet, a batch at a time. *)
let open_all tr out a sh entry tuples =
  let n = Array.length tuples in
  let i = ref 0 in
  while !i < n do
    let k = min batch (n - !i) in
    let dt = drive ~setup:true tr out a sh entry (Array.sub tuples !i k) in
    a.new_ns <- a.new_ns + dt;
    a.new_pkts <- a.new_pkts + k;
    i := !i + k
  done

let warm_pass tr out a ~seed ~conns ~measure_ns =
  Gc.compact ();
  let t_setup = Trace.now () in
  Trace.enter_root tr ~step:false;
  let st = set_up tr ~seed in
  let sh = Setup.System.shard st.Setup.sys in
  let entries = Setup.entries st in
  let r = Array.length entries in
  Out.check out (r > 0) "dp_warm: no chain admitted";
  Out.check out (Setup.admission_failures st = 0) "dp_warm: admission did not commit";
  Trace.enter tr Trace.traffic_gen;
  let gens =
    Array.mapi
      (fun i _ ->
        let flows = (conns / r) + if i < conns mod r then 1 else 0 in
        Tg.create ~rng:(Rng.create ((seed * 7919) + i)) ~flows ~sizes:(Tg.Fixed size) ())
      entries
  in
  Trace.leave tr;
  (* The heap is measured after full collections, which the set-up time
     leaves out: on a heap of hundreds of MB their time swings with the
     host's memory speed. *)
  let t_gc0 = Trace.now () in
  Gc.full_major ();
  let heap0 = (Gc.quick_stat ()).Gc.heap_words in
  let t_open = Trace.now () in
  Array.iteri (fun i g -> open_all tr out a sh entries.(i) (Tg.flow_tuples g)) gens;
  let t_end = Trace.now () in
  (* Set-up ends with its garbage collected, so that no major GC work left
     over from it runs during the measurement. *)
  Gc.full_major ();
  let heap1 = (Gc.quick_stat ()).Gc.heap_words in
  Trace.leave tr;
  Sample.add a.setups (t_gc0 - t_setup + (t_end - t_open));
  a.heap_per_conn <-
    float_of_int ((heap1 - heap0) * (Sys.word_size / 8)) /. float_of_int conns;
  let ((established, _, _) as stats) = Setup.table_stats st in
  note_peak a stats;
  (* Warm phase: uniform draws over the established connections. *)
  let rng = Rng.create ((seed * 31) + 17) in
  let pkts = Array.make batch (Tg.flow_tuples gens.(0)).(0) in
  let majors0 = (Gc.quick_stat ()).Gc.major_collections in
  let deadline_ns = Trace.now () + measure_ns in
  let steps = ref 0 in
  while !steps = 0 || Trace.now () < deadline_ns do
    (* tracing runs: spans on for every other stretch of 64 batches *)
    Trace.set_active tr (!steps land 64 = 0);
    incr steps;
    let whole0 = Trace.now () in
    Trace.enter_root tr ~step:true;
    let i = Rng.int rng r in
    let g = gens.(i) in
    Trace.enter tr Trace.traffic_gen;
    let t0 = Trace.now () in
    for k = 0 to batch - 1 do
      pkts.(k) <- fst (Tg.next g)
    done;
    a.gen_ns <- a.gen_ns + (Trace.now () - t0);
    a.gen_pkts <- a.gen_pkts + batch;
    Trace.leave tr;
    let dt = drive tr out a sh entries.(i) pkts in
    Trace.leave tr;
    add_step tr a dt ~whole:(Trace.now () - whole0);
    a.est_ns <- a.est_ns + dt;
    a.est_pkts <- a.est_pkts + batch;
    a.packets <- a.packets + batch
  done;
  Trace.set_active tr true;
  a.majors <- a.majors + ((Gc.quick_stat ()).Gc.major_collections - majors0);
  let after, _, _ = Setup.table_stats st in
  Out.check out (after = established)
    (Printf.sprintf "dp_warm: flow-table entries moved from %d to %d with no new flows"
       established after);
  [ Printf.sprintf "entries=%d chains=%d" established r ]

let flood_pass tr out a ~seed ~window ~measure_ns =
  Gc.compact ();
  let t_setup = Trace.now () in
  Trace.enter_root tr ~step:false;
  let st = set_up tr ~seed in
  let sh = Setup.System.shard st.Setup.sys in
  let entries = Setup.entries st in
  let r = Array.length entries in
  Out.check out (r > 0) "dp_flood: no chain admitted";
  Out.check out (Setup.admission_failures st = 0) "dp_flood: admission did not commit";
  (* Per-chain window, a multiple of two batches so every step is a full
     256-packet batch. *)
  let window = max (2 * batch) (window / r / (2 * batch) * (2 * batch)) in
  Trace.enter tr Trace.traffic_gen;
  let gens =
    Array.init r (fun i -> Tg.create_stream ~seed:((seed * 7919) + i) ~window ())
  in
  Trace.leave tr;
  Shard.set_clock sh 0;
  Array.iteri (fun i g -> open_all tr out a sh entries.(i) (Tg.flow_tuples g)) gens;
  Trace.leave tr;
  Sample.add a.setups (Trace.now () - t_setup);
  Gc.full_major ();
  let ((window_entries, _, _) as stats) = Setup.table_stats st in
  note_peak a stats;
  let pkts = Array.make batch (Tg.flow_tuples gens.(0)).(0) in
  let fill = ref 0 in
  let entry = ref entries.(0) in
  (* per tick: evictions and entries left by the sweep *)
  let fingerprint = ref [ Printf.sprintf "window=%d entries=%d" window window_entries ] in
  (* A tick's steps: per chain, the churn batches (every fresh flow's first
     packet) and one batch drawn over the live window. The tick's sweep is
     forwarder time but no batch's: it counts in [busy_ns], not in
     [steps]. *)
  let step_ns = ref 0 and step_t0 = ref 0 in
  let begin_step () =
    step_t0 := Trace.now ();
    Trace.enter_root tr ~step:true;
    step_ns := 0
  in
  let end_step () =
    Trace.leave tr;
    add_step tr a !step_ns ~whole:(Trace.now () - !step_t0)
  in
  let send ~fresh =
    let dt = drive tr out a sh !entry pkts in
    step_ns := !step_ns + dt;
    a.packets <- a.packets + batch;
    if fresh then begin
      a.new_ns <- a.new_ns + dt;
      a.new_pkts <- a.new_pkts + batch
    end
    else begin
      a.est_ns <- a.est_ns + dt;
      a.est_pkts <- a.est_pkts + batch
    end
  in
  let gen_t0 = ref 0 in
  let gen_start () =
    Trace.enter tr Trace.traffic_gen;
    gen_t0 := Trace.now ()
  in
  let gen_stop n =
    a.gen_ns <- a.gen_ns + (Trace.now () - !gen_t0);
    a.gen_pkts <- a.gen_pkts + n;
    Trace.leave tr
  in
  let majors0 = (Gc.quick_stat ()).Gc.major_collections in
  let deadline_ns = Trace.now () + measure_ns in
  let tick = ref 0 in
  while !tick = 0 || Trace.now () < deadline_ns do
    (* tracing runs: spans on for every other pair of ticks; odd and even
       ticks do different work, and each stretch holds one of each *)
    Trace.set_active tr (!tick land 2 = 0);
    incr tick;
    let e = !tick in
    Shard.set_clock sh e;
    for i = 0 to r - 1 do
      entry := entries.(i);
      let g = gens.(i) in
      fill := 0;
      begin_step ();
      gen_start ();
      Tg.churn g
        ~opened:(fun tp ->
          pkts.(!fill) <- tp;
          incr fill;
          if !fill = batch then begin
            gen_stop batch;
            send ~fresh:true;
            end_step ();
            fill := 0;
            begin_step ();
            gen_start ()
          end)
        (window / 2);
      gen_stop 0;
      gen_start ();
      for k = 0 to batch - 1 do
        pkts.(k) <- fst (Tg.next g)
      done;
      gen_stop batch;
      send ~fresh:false;
      end_step ()
    done;
    note_peak a (Setup.table_stats st);
    Trace.enter_root tr ~step:true;
    Trace.enter tr Trace.plane;
    let t0 = Trace.now () in
    let ev = Shard.expire_flows sh ~idle_before:(e - 1) in
    let dt = Trace.now () - t0 in
    Trace.leave tr;
    Trace.leave tr;
    a.busy_ns <- a.busy_ns + dt;
    Sample.add a.sweeps dt;
    a.expired <- a.expired + ev;
    let n_after, _, _ = Setup.table_stats st in
    fingerprint := Printf.sprintf "tick %d: %d evicted, %d left" e ev n_after :: !fingerprint;
    (* After a sweep the tables hold the connections touched in this tick
       or the last: the live window plus the half it just replaced, about
       1.5 windows. Without working expiry they would grow every tick. *)
    Out.check out (n_after <= 2 * window_entries)
      (Printf.sprintf
         "dp_flood: %d flow-table entries after sweep %d exceed twice the live window's %d"
         n_after e window_entries)
  done;
  Trace.set_active tr true;
  a.majors <- a.majors + ((Gc.quick_stat ()).Gc.major_collections - majors0);
  List.rev !fingerprint
