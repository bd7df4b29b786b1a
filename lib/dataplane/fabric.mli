(** A functional simulation of the Switchboard data plane: edges, VNF
    instances, and forwarders wired per Section 5, over which packets are
    driven hop by hop.

    Every VNF instance and edge instance is attached to exactly one
    forwarder at its site (Section 5.1: the instance's routing table points
    at the forwarder as its proxy gateway). Forwarders hold weighted rules
    keyed by (chain label, egress label, stage) and a flow table that
    pins each connection's choices, delivering the safety properties of
    Section 5.3: conformity, flow affinity, and symmetric return. Tests
    drive random traffic and weight churn through a fabric and assert those
    properties; the control plane ([sb_ctrl]) installs rules into one.

    Since DESIGN.md §11 this module is a thin shim over {!Plane}, the
    packed data plane: rules are compiled into flat arrays, connection
    state into open-addressed int-keyed tables, and a packet into a
    cursor advanced in place per hop — observably identical (traces,
    errors, counters, RNG draw sequence) to the seed implementation kept
    in {!Legacy_fabric}, but several times faster and allocation-free on
    the warm path ({!drive}). *)

type t = Plane.t

type endpoint = Plane.endpoint =
  | Edge of int
  | Forwarder of int
  | Vnf_instance of int
      (** Values are ids returned by the [add_*] functions. *)

type flow_store = Plane.flow_store =
  | Local  (** per-forwarder flow tables (the prototype's default) *)
  | Replicated of int
      (** connection state in a DHT spread over the forwarder nodes with
          the given replication factor — the Section 5.3 design that keeps
          flow affinity and symmetric return across forwarder failures and
          elastic scale-in *)

val create : ?seed:int -> ?flow_store:flow_store -> unit -> t
(** [seed] drives the weighted load-balancing choices; [flow_store]
    defaults to {!Local}. *)

val max_entities : int
(** [2^29]: the [add_*] functions share one id counter and raise
    [Invalid_argument] once this many entities exist (flow-table cells
    pack endpoint ids into 31 bits, see {!Plane.max_entities}). *)

(** {2 Building the fabric} *)

val add_site : t -> string -> int
val add_forwarder : t -> site:int -> int
val add_edge : t -> site:int -> forwarder:int -> int
val add_vnf_instance : t -> vnf:int -> site:int -> forwarder:int -> ?weight:float -> unit -> int

val instance_vnf : t -> int -> int
val instance_site : t -> int -> int
val instance_weight : t -> int -> float
val set_instance_weight : t -> int -> float -> unit

val instance_alive : t -> int -> bool
(** Whether an instance is still serving traffic. *)

val forwarder_alive : t -> int -> bool
(** Whether a forwarder is still processing packets. *)

val fail_forwarder : t -> int -> unit
(** Kill a forwarder. In {!Local} mode its flow table dies with it: even
    after edges and instances are reattached, established connections have
    lost their state. In {!Replicated} mode the DHT re-replicates the
    failed node's key ranges from the surviving copies, so reattached
    traffic keeps its affinity — exactly the fault-tolerance story of
    Section 5.3. *)

val revive_forwarder : t -> int -> unit
(** Restart a failed forwarder (the [sb_chaos] crash/restart fault). The
    restarted process comes back {e empty}: its local flow table is
    cleared — whatever state it held died with the crash. In
    {!Replicated} mode it rejoins the DHT ring and receives its key
    ranges back from the surviving replicas, so connection state survives
    the crash/restart cycle end to end. No-op on a live forwarder. *)

val revive_instance : t -> int -> unit
(** Bring a failed VNF instance back. Flow-table entries that pinned
    connections to it work again immediately — instance-local state is
    assumed recoverable (checkpointed or stateless), matching the
    Section 5.3 elastic-scaling story. *)

val reattach_edge : t -> int -> forwarder:int -> unit
(** Point an edge instance at a (live) forwarder, e.g. after its proxy
    failed. *)

val reattach_instance : t -> int -> forwarder:int -> unit
(** Re-home a VNF instance onto another forwarder (elastic scale-in or
    failure recovery). *)

val fail_instance : t -> int -> unit
(** Kill a VNF instance. Connections pinned to it by their flow-table
    entries start failing with [Instance_down] — the flow-affinity
    violation Section 5.3 warns about for instance failure; {!Dht_table}
    is the replicated-state remedy the paper sketches. New connections
    avoid the instance only once the controller installs updated rules. *)

val forwarder_site : t -> int -> int
val site_name : t -> int -> string

val attached_instances : t -> forwarder:int -> int list
(** VNF instances proxied by a forwarder (id-sorted). Maintained as a
    per-forwarder list updated on attach and re-home — not recomputed by
    folding the whole instance table per call. *)

val forwarder_published_weight : t -> int -> int -> float
(** [forwarder_published_weight t fwd vnf]: sum of the weights of [vnf]'s
    instances attached to [fwd] — what the forwarder publishes on the
    message bus (Section 5.2). *)

(** {2 Rules} *)

val install_rule :
  t ->
  forwarder:int ->
  chain_label:int ->
  egress_label:int ->
  stage:int ->
  (endpoint * float) list ->
  unit
(** Replace the weighted rule for one (chain, egress, stage) at a
    forwarder. Targets must be [Vnf_instance], [Forwarder], or [Edge].
    Installing a new rule leaves existing flow-table entries untouched, so
    established connections keep their path (Section 5.3). *)

val install_rx_rule :
  t ->
  forwarder:int ->
  chain_label:int ->
  egress_label:int ->
  stage:int ->
  (endpoint * float) list ->
  unit
(** Replace the {e receiver-side} rule for one (chain, egress, stage): the
    targets used for packets that arrive from a peer forwarder (they are
    mid-relay and must be delivered into a local element). Without one the
    forwarder falls back to the {!install_rule} rule for both directions.
    Keeping relayed packets local bounds every stage of a connection to
    two forwarders (sender and receiver), which the role-keyed replicated
    flow store depends on: with a third relay hop the receiver role key
    would collide and forwarding could loop. *)

val rule : t -> forwarder:int -> chain_label:int -> egress_label:int -> stage:int ->
  (endpoint * float) list option

val rx_rule : t -> forwarder:int -> chain_label:int -> egress_label:int -> stage:int ->
  (endpoint * float) list option
(** The receiver-side rule installed by {!install_rx_rule}, if any. *)

type rule_patch = Plane.rule_patch = {
  rp_chain : int;
  rp_egress : int;
  rp_stage : int;
  rp_rx : bool;  (** patch the receiver-side ({!install_rx_rule}) rule *)
  rp_targets : (endpoint * float) list;
}
(** One rule replacement of a compiled rollout delta
    ([Sb_ctrl.Compile]). *)

val apply_delta : t -> forwarder:int -> rule_patch list -> int
(** Apply a batch of rule patches to one forwarder, skipping patches whose
    packed form already matches the live slot. Returns how many patches
    actually mutated the rule store; each journals exactly as the
    equivalent {!install_rule}/{!install_rx_rule} call would, so the
    compiled rollout and a full reinstall are indistinguishable to the
    arena. *)

val flow_table_size : t -> forwarder:int -> int

val flow_table_stats : t -> forwarder:int -> int * int * int
(** [(count, capacity, max_probe)] of one forwarder's connection table —
    occupancy for telemetry and the cache-cliff bench. See
    {!Plane.flow_table_stats}. *)

val flow_table_bytes : t -> int
(** Heap bytes held by all of the fabric's flow tables (capacity, not
    occupancy). See {!Plane.flow_table_bytes}. *)

val mutations : t -> int
(** Journal entries applied to the packed arrays so far (rule installs and
    topology mutations) — introspection for tests and benchmarks. *)

type arena_stats = Plane.arena_stats = {
  slots_live : int;
  words_used : int;
  words_garbage : int;
  compactions : int;
}

val arena_stats : t -> arena_stats
(** Packed rule-arena occupancy and compaction count — how much rollout
    churn the mutation journal has absorbed. See {!Plane.arena_stats}. *)

(** {2 Driving packets} *)

type error = Plane.error =
  | No_rule of { forwarder : int; stage : int }
  | No_reverse_entry of { forwarder : int; stage : int }
  | Instance_down of int
  | Forwarder_down of int
  | Ttl_exceeded
  | Not_an_edge

val pp_error : Format.formatter -> error -> unit

val send_forward :
  t ->
  ingress:int ->
  chain_label:int ->
  egress_label:int ->
  ?size:int ->
  Packet.five_tuple ->
  (endpoint list, error) result
(** Inject a forward packet at an ingress edge; returns the full hop trace
    (ending at an [Edge]) or the first error. Flow-table entries are
    created for new connections and reused for existing ones. *)

val send_reverse :
  t ->
  egress:int ->
  chain_label:int ->
  egress_label:int ->
  ?size:int ->
  Packet.five_tuple ->
  (endpoint list, error) result
(** Inject the reply at the egress edge; [five_tuple] is the {e forward}
    orientation of the connection. Follows stored [prev] hops; fails with
    [No_reverse_entry] if the forward direction never established state. *)

val drive :
  t ->
  ingress:int ->
  chain_label:int ->
  egress_label:int ->
  size:int ->
  Packet.five_tuple ->
  bool
(** {!send_forward} without the trace: [true] iff the packet was delivered
    to an egress edge. Identical side effects (flow-table inserts, RNG
    draws, stage counters) but allocation-free — the packet is a cursor
    that never leaves the registers. This is the packets-per-second entry
    point benchmarked in EXPERIMENTS.md. *)

val vnfs_in_trace : t -> endpoint list -> int list
(** VNF ids in visit order — for conformity checks. *)

val instances_in_trace : endpoint list -> int list
(** VNF instance ids in visit order — for affinity checks. *)

val end_flow : t -> Packet.five_tuple -> unit
(** Drop every forwarder's entries for a connection (teardown / timeout) —
    including the replicated copies in {!Replicated} mode. O(stages) via
    the by-connection index. *)

val set_clock : t -> int -> unit
(** Set the logical timestamp packets stamp onto the flow-table entries
    they touch (scenario drivers advance it once per tick). Never
    consulted on the packet path's control flow, so traces and balancer
    draws are unchanged by the clock. Raises [Invalid_argument] on a tick
    below 0 or at or above [2^31] (the stamp is packed into 31 bits). *)

val clock : t -> int

val expire_flows : t -> idle_before:int -> int
(** Evict every connection none of whose entries in a table was touched
    at or after [idle_before]. Returns the number of table-local
    connection evictions (a connection spanning [k] forwarders counts
    [k] times). *)

val transfer_flows : t -> from_instance:int -> to_instance:int -> int
(** (Local flow-store mode.) OpenNF-style flow-state transfer (Section 5.3: "flow table entries can
    be transferred across forwarders using recent proposals such as
    OpenNF"): rewrite every flow-table entry that pins a connection to
    [from_instance] so it points at [to_instance] instead — both the
    forward next-hops and the reverse prev-hops — preserving flow affinity
    and symmetric return across an instance migration or failure. Both
    instances must run the same VNF (raises [Invalid_argument] otherwise).
    Returns the number of rewritten entries. *)

val instance_flow_count : t -> int -> int
(** Flow-table cells (all forwarder tables, plus replicas in the
    replicated store) still pinning a connection hop to the VNF instance
    — the occupancy a scale-in drain polls until it reaches zero. *)

(** {2 Measurement}

    Global Switchboard sizes chain traffic from "measurements at
    Switchboard forwarders" (Sections 4.1 and 7.2). Each forwarder counts
    the forward packets and bytes it delivers into a stage's destination
    element (VNF instance or egress edge), so every packet is counted
    exactly once per stage regardless of how many forwarders relay it. *)

val stage_counters : t -> chain_label:int -> egress_label:int -> stage:int -> int * int
(** Aggregated [(packets, bytes)] for one stage of one chain. *)

val site_stage_counters :
  t -> site:int -> chain_label:int -> egress_label:int -> stage:int -> int * int
(** Like {!stage_counters} but restricted to the forwarders of one fabric
    site — the view a per-site telemetry exporter reports. Summing over all
    sites equals {!stage_counters}. *)

val site_stage_counters_into :
  t ->
  site:int ->
  chain_label:int ->
  egress_label:int ->
  pkts:int array ->
  bytes:int array ->
  unit
(** Bulk {!site_stage_counters}: fill caller-owned [pkts]/[bytes] arrays
    (indexed by stage, one entry per stage the arrays hold) in a single
    pass over the site's forwarders. The telemetry exporter calls this
    with reused scratch buffers every epoch. *)

val reset_counters : t -> unit
(** Start a fresh measurement window. *)
