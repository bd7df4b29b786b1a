module Rng = Sb_util.Rng
module Pool = Sb_util.Pool

type endpoint = Plane.endpoint =
  | Edge of int
  | Forwarder of int
  | Vnf_instance of int

type flow_store = Plane.flow_store = Local | Replicated of int

type error = Plane.error =
  | No_rule of { forwarder : int; stage : int }
  | No_reverse_entry of { forwarder : int; stage : int }
  | Instance_down of int
  | Forwarder_down of int
  | Ttl_exceeded
  | Not_an_edge

let pp_error = Plane.pp_error

(* Workers publish per-lane delivery counts into one int array; spreading
   the slots a cache line apart keeps the counter writes from bouncing a
   shared line between domains. *)
let pad = 8

type t = {
  lanes : Plane.t array; (* lane 0 carries the root seed *)
  nlanes : int;
  pool : Pool.t option; (* Some iff nlanes > 1 *)
  mutable rings : Pool.Spsc.t array; (* per-lane batch handoff *)
  delivered : int array; (* lane l writes slot l * pad *)
  (* Batch under dispatch: written by the caller before the pool wakes,
     read by the workers — ordered by the pool's own mutex. *)
  mutable b_tuples : Packet.five_tuple array;
  mutable b_ingress : int;
  mutable b_chain : int;
  mutable b_egress : int;
  mutable b_size : int;
  (* scratch for cross-lane counter aggregation *)
  mutable sc_p : int array;
  mutable sc_b : int array;
}

(* Lane l's balancer draws come from stream l of the root seed: a pure
   function of (seed, l), so outcomes are reproducible for a fixed domain
   count no matter how batches interleave. Lane 0 keeps the root seed
   itself, which is what makes a 1-lane shard bit-identical to a plain
   [Plane.create ~seed]. *)
let lane_seed seed l =
  if l = 0 then seed
  else Int64.to_int (Rng.bits64 (Rng.split ~stream:l (Rng.create seed)))

let create ?(seed = 0xF0) ?(flow_store = Plane.Local) ?(lanes = 1) () =
  if lanes < 1 then invalid_arg "Shard.create: lanes must be >= 1";
  {
    lanes =
      Array.init lanes (fun l ->
          Plane.create ~seed:(lane_seed seed l) ~flow_store ());
    nlanes = lanes;
    pool = (if lanes > 1 then Some (Pool.create ~workers:lanes ()) else None);
    rings = [||];
    delivered = Array.make (lanes * pad) 0;
    b_tuples = [||];
    b_ingress = 0;
    b_chain = 0;
    b_egress = 0;
    b_size = 0;
    sc_p = [||];
    sc_b = [||];
  }

let lanes t = t.nlanes
let lane t l = t.lanes.(l)
let shutdown t = match t.pool with None -> () | Some p -> Pool.shutdown p

let lane_of t flow =
  if t.nlanes = 1 then 0 else Packet.tuple_hash flow mod t.nlanes

(* ------------------------- mirrored control ------------------------- *)

(* Every lane replays the same build/control call; [Plane]'s id allocation
   is deterministic in the call sequence, so the lanes stay id-aligned —
   checked on the id-returning ops, which only run at build/mutation time. *)

let mirror t f =
  for l = 0 to t.nlanes - 1 do
    f t.lanes.(l)
  done

let mirror_id t f =
  let id = f t.lanes.(0) in
  for l = 1 to t.nlanes - 1 do
    if f t.lanes.(l) <> id then
      invalid_arg "Shard: lanes diverged on id allocation"
  done;
  id

let add_site t name = mirror_id t (fun p -> Plane.add_site p name)
let add_forwarder t ~site = mirror_id t (fun p -> Plane.add_forwarder p ~site)

let add_edge t ~site ~forwarder =
  mirror_id t (fun p -> Plane.add_edge p ~site ~forwarder)

let add_vnf_instance t ~vnf ~site ~forwarder ?weight () =
  mirror_id t (fun p -> Plane.add_vnf_instance p ~vnf ~site ~forwarder ?weight ())

let set_instance_weight t id w = mirror t (fun p -> Plane.set_instance_weight p id w)
let fail_forwarder t id = mirror t (fun p -> Plane.fail_forwarder p id)
let revive_forwarder t id = mirror t (fun p -> Plane.revive_forwarder p id)
let fail_instance t id = mirror t (fun p -> Plane.fail_instance p id)
let revive_instance t id = mirror t (fun p -> Plane.revive_instance p id)

let reattach_edge t id ~forwarder =
  mirror t (fun p -> Plane.reattach_edge p id ~forwarder)

let reattach_instance t id ~forwarder =
  mirror t (fun p -> Plane.reattach_instance p id ~forwarder)

let install_rule t ~forwarder ~chain_label ~egress_label ~stage targets =
  mirror t (fun p ->
      Plane.install_rule p ~forwarder ~chain_label ~egress_label ~stage targets)

let install_rx_rule t ~forwarder ~chain_label ~egress_label ~stage targets =
  mirror t (fun p ->
      Plane.install_rx_rule p ~forwarder ~chain_label ~egress_label ~stage targets)

let apply_delta t ~forwarder patches =
  let applied = Plane.apply_delta t.lanes.(0) ~forwarder patches in
  for l = 1 to t.nlanes - 1 do
    if Plane.apply_delta t.lanes.(l) ~forwarder patches <> applied then
      invalid_arg "Shard: lanes diverged on delta application"
  done;
  applied

let reset_counters t = mirror t Plane.reset_counters

let transfer_flows t ~from_instance ~to_instance =
  (* Each lane only holds the connections it owns, so the per-lane moved
     counts sum to the single-plane total. *)
  let moved = ref 0 in
  mirror t (fun p ->
      moved := !moved + Plane.transfer_flows p ~from_instance ~to_instance);
  !moved

let instance_flow_count t instance =
  (* Lane-private flow state: per-lane occupancies sum. *)
  let count = ref 0 in
  mirror t (fun p -> count := !count + Plane.instance_flow_count p instance);
  !count

(* ----------------------- lane-0 read-only views --------------------- *)

let instance_vnf t id = Plane.instance_vnf t.lanes.(0) id
let instance_site t id = Plane.instance_site t.lanes.(0) id
let instance_weight t id = Plane.instance_weight t.lanes.(0) id
let instance_alive t id = Plane.instance_alive t.lanes.(0) id
let forwarder_alive t id = Plane.forwarder_alive t.lanes.(0) id
let forwarder_site t id = Plane.forwarder_site t.lanes.(0) id
let site_name t id = Plane.site_name t.lanes.(0) id
let attached_instances t ~forwarder = Plane.attached_instances t.lanes.(0) ~forwarder

let forwarder_published_weight t fwd inst =
  Plane.forwarder_published_weight t.lanes.(0) fwd inst

let rule t ~forwarder ~chain_label ~egress_label ~stage =
  Plane.rule t.lanes.(0) ~forwarder ~chain_label ~egress_label ~stage

let rx_rule t ~forwarder ~chain_label ~egress_label ~stage =
  Plane.rx_rule t.lanes.(0) ~forwarder ~chain_label ~egress_label ~stage

let mutations t = Plane.mutations t.lanes.(0)
let arena_stats t = Plane.arena_stats t.lanes.(0)
let vnfs_in_trace t trace = Plane.vnfs_in_trace t.lanes.(0) trace
let instances_in_trace = Plane.instances_in_trace

(* -------------------------- packet entry ---------------------------- *)

let send_forward t ~ingress ~chain_label ~egress_label ?size flow =
  Plane.send_forward t.lanes.(lane_of t flow) ~ingress ~chain_label ~egress_label
    ?size flow

let send_reverse t ~egress ~chain_label ~egress_label ?size flow =
  (* [flow] is forward-oriented (the {!Plane.send_reverse} contract), so both
     directions of a connection hash to the same lane and symmetric-return
     state never crosses domains. *)
  Plane.send_reverse t.lanes.(lane_of t flow) ~egress ~chain_label ~egress_label
    ?size flow

let drive t ~ingress ~chain_label ~egress_label ~size flow =
  Plane.drive t.lanes.(lane_of t flow) ~ingress ~chain_label ~egress_label ~size
    flow

let end_flow t flow = Plane.end_flow t.lanes.(lane_of t flow) flow

let set_clock t now = mirror t (fun p -> Plane.set_clock p now)
let clock t = Plane.clock t.lanes.(0)

let expire_flows t ~idle_before =
  (* Flow state is lane-private, so the per-lane evictions sum. *)
  let removed = ref 0 in
  mirror t (fun p -> removed := !removed + Plane.expire_flows p ~idle_before);
  !removed

let ensure_rings t n =
  if
    Array.length t.rings < t.nlanes
    || Pool.Spsc.capacity t.rings.(0) < n
  then t.rings <- Array.init t.nlanes (fun _ -> Pool.Spsc.create (max n 1))

let drive_batch t ~ingress ~chain_label ~egress_label ~size tuples =
  let n = Array.length tuples in
  match t.pool with
  | None ->
    let d = ref 0 in
    for i = 0 to n - 1 do
      if Plane.drive t.lanes.(0) ~ingress ~chain_label ~egress_label ~size tuples.(i)
      then incr d
    done;
    !d
  | Some pool ->
    (* Dispatch: the caller is the single producer for every lane's ring;
       each worker is the single consumer of its own. The rings carry
       indices into the shared batch array, pushed in arrival order, so
       per-lane packet order equals program order. *)
    ensure_rings t n;
    t.b_tuples <- tuples;
    t.b_ingress <- ingress;
    t.b_chain <- chain_label;
    t.b_egress <- egress_label;
    t.b_size <- size;
    for i = 0 to n - 1 do
      ignore (Pool.Spsc.push t.rings.(Packet.tuple_hash tuples.(i) mod t.nlanes) i)
    done;
    Pool.run pool (fun w ->
        let plane = t.lanes.(w) in
        let ring = t.rings.(w) in
        let ingress = t.b_ingress
        and chain_label = t.b_chain
        and egress_label = t.b_egress
        and size = t.b_size
        and tuples = t.b_tuples in
        let d = ref 0 in
        let i = ref (Pool.Spsc.pop ring) in
        while !i >= 0 do
          if Plane.drive plane ~ingress ~chain_label ~egress_label ~size tuples.(!i)
          then incr d;
          i := Pool.Spsc.pop ring
        done;
        t.delivered.(w * pad) <- !d);
    let d = ref 0 in
    for l = 0 to t.nlanes - 1 do
      d := !d + t.delivered.(l * pad)
    done;
    !d

(* ----------------------- aggregated read-outs ----------------------- *)

let flow_table_size t ~forwarder =
  let n = ref 0 in
  mirror t (fun p -> n := !n + Plane.flow_table_size p ~forwarder);
  !n

let flow_table_stats t ~forwarder =
  let count = ref 0 and cap = ref 0 and maxp = ref 0 in
  mirror t (fun p ->
      let c, k, m = Plane.flow_table_stats p ~forwarder in
      count := !count + c;
      cap := !cap + k;
      if m > !maxp then maxp := m);
  (!count, !cap, !maxp)

let flow_table_bytes t =
  let n = ref 0 in
  mirror t (fun p -> n := !n + Plane.flow_table_bytes p);
  !n

let stage_counters t ~chain_label ~egress_label ~stage =
  let pk = ref 0 and by = ref 0 in
  mirror t (fun p ->
      let p', b' = Plane.stage_counters p ~chain_label ~egress_label ~stage in
      pk := !pk + p';
      by := !by + b');
  (!pk, !by)

let site_stage_counters t ~site ~chain_label ~egress_label ~stage =
  let pk = ref 0 and by = ref 0 in
  mirror t (fun p ->
      let p', b' =
        Plane.site_stage_counters p ~site ~chain_label ~egress_label ~stage
      in
      pk := !pk + p';
      by := !by + b');
  (!pk, !by)

let site_stage_counters_into t ~site ~chain_label ~egress_label ~pkts ~bytes =
  if t.nlanes = 1 then
    Plane.site_stage_counters_into t.lanes.(0) ~site ~chain_label ~egress_label
      ~pkts ~bytes
  else begin
    let stages = Array.length pkts in
    if Array.length t.sc_p <> stages then begin
      t.sc_p <- Array.make stages 0;
      t.sc_b <- Array.make stages 0
    end;
    Array.fill pkts 0 stages 0;
    Array.fill bytes 0 stages 0;
    mirror t (fun p ->
        Plane.site_stage_counters_into p ~site ~chain_label ~egress_label
          ~pkts:t.sc_p ~bytes:t.sc_b;
        for s = 0 to stages - 1 do
          pkts.(s) <- pkts.(s) + t.sc_p.(s);
          bytes.(s) <- bytes.(s) + t.sc_b.(s)
        done)
  end
