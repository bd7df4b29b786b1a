(** The Switchboard data plane (Section 5; DESIGN.md §11): edges, VNF
    instances and forwarders, over which packets are driven hop by hop.

    Every VNF instance and edge instance is attached to exactly one
    forwarder at its site (Section 5.1: the forwarder is its proxy
    gateway). Forwarders hold weighted rules keyed by (chain label, egress
    label, stage) and a flow table that pins each connection's choices,
    delivering the safety properties of Section 5.3: conformity, flow
    affinity and symmetric return. The control plane ([sb_ctrl]) drives
    it through {!Shard}, which mirrors each control call to its lanes.

    The seed implementation (hashtables of boxed keys) survives as the
    test-only equivalence oracle; this one is compiled to id-dense flat
    arrays, observably identical (traces, errors, counters, RNG draw
    sequence):

    - per-forwarder rules are an array indexed by an interned
      (chain, egress, stage) id pointing into one shared target arena
      (parallel packed-endpoint / weight / cumulative-weight arrays), so a
      rule lookup is two array reads and a balancer draw is one RNG
      advance plus a binary search — draw-for-draw identical to
      {!Balancer.pick};
    - connection state is an open-addressed table of four-word cells
      (flow key, packed next/prev hops, connection hash, clock stamp and
      chain link) in one array, so a hit reads and stamps one cell; the
      key is an avalanche hash of labels, role stage and 5-tuple, and a
      hit must also match the connection hash. A cell's home slot is
      taken from its {e connection} hash, not its key, so all of a
      connection's cells in one table (one per stage and role) share a
      home and sit in one linear-probe run, usually one or two cache
      lines: the lookup after a local VNF hop finds its cell next to the
      one before. The per-connection chain-head index is homed the same
      way, on hash bits the shard lanes do not partition on. Cells are
      chained per connection for O(stages) teardown; [Replicated] mode
      keeps the same stores under a consistent-hash ring with k-way
      replication;
    - a packet is a handful of mutable locals advanced in place per hop
      ({!drive} allocates nothing on the warm path);
    - mutations (rule reinstall, weight change, fail / revive / reattach)
      patch the arrays in place through a journal; dead rule targets are
      compacted once they dominate the arena. *)

type t

type endpoint = Edge of int | Forwarder of int | Vnf_instance of int
(** Values are ids returned by the [add_*] functions. *)

type flow_store =
  | Local  (** per-forwarder flow tables (the prototype's default) *)
  | Replicated of int
      (** connection state in a DHT over the forwarder nodes with the
          given replication factor — the Section 5.3 design that keeps
          flow affinity and symmetric return across forwarder failures *)

type error =
  | No_rule of { forwarder : int; stage : int }
  | No_reverse_entry of { forwarder : int; stage : int }
  | Instance_down of int
  | Forwarder_down of int
  | Ttl_exceeded
  | Not_an_edge

val pp_error : Format.formatter -> error -> unit
val create : ?seed:int -> ?flow_store:flow_store -> unit -> t
(** [seed] drives the weighted load-balancing choices; [flow_store]
    defaults to {!Local}. *)

val max_entities : int
(** [2^29]. Sites, forwarders, edges and instances share one id counter,
    and a flow-table cell packs two endpoints ([id lsl 2 lor tag]) into 31
    bits each, so every [add_*] raises [Invalid_argument] once this many
    entities exist. *)

val add_site : t -> string -> int
val add_forwarder : t -> site:int -> int
val add_edge : t -> site:int -> forwarder:int -> int

val add_vnf_instance :
  t -> vnf:int -> site:int -> forwarder:int -> ?weight:float -> unit -> int

val instance_vnf : t -> int -> int
val instance_site : t -> int -> int
val instance_weight : t -> int -> float
val set_instance_weight : t -> int -> float -> unit
val instance_alive : t -> int -> bool
val forwarder_alive : t -> int -> bool

val fail_forwarder : t -> int -> unit
(** Kill a forwarder. In {!Local} mode its flow table dies with it:
    established connections lose their state even after their edges and
    instances are reattached. In {!Replicated} mode the DHT re-replicates
    the failed node's key ranges from the surviving copies, so reattached
    traffic keeps its affinity (Section 5.3). *)

val revive_forwarder : t -> int -> unit
(** Restart a failed forwarder. It comes back {e empty} (its local table
    is cleared); in {!Replicated} mode it rejoins the ring and receives
    its key ranges back from the surviving replicas. No-op on a live
    forwarder. *)

val revive_instance : t -> int -> unit
(** Bring a failed VNF instance back; flow-table entries pinned to it
    work again at once (instance state is assumed recoverable). *)

val fail_instance : t -> int -> unit
(** Kill a VNF instance. Connections pinned to it fail with
    [Instance_down]; new connections avoid it only once the controller
    installs updated rules. *)

val reattach_edge : t -> int -> forwarder:int -> unit
(** Point an edge instance at a (live) forwarder, e.g. after its proxy
    failed. *)

val reattach_instance : t -> int -> forwarder:int -> unit
(** Re-home a VNF instance onto another forwarder (scale-in or failure
    recovery). *)

val forwarder_site : t -> int -> int
val site_name : t -> int -> string

val attached_instances : t -> forwarder:int -> int list
(** VNF instances proxied by a forwarder (id-sorted, failed ones
    included). Maintained on attach and re-home, not recomputed by folding
    the instance table per call. *)

val forwarder_published_weight : t -> int -> int -> float
(** [forwarder_published_weight t fwd vnf]: sum of the weights of [vnf]'s
    instances attached to [fwd] — what the forwarder publishes on the
    message bus (Section 5.2). *)

val install_rule :
  t ->
  forwarder:int ->
  chain_label:int ->
  egress_label:int ->
  stage:int ->
  (endpoint * float) list ->
  unit
(** Replace the weighted rule for one (chain, egress, stage) at a
    forwarder. Existing flow-table entries are untouched, so established
    connections keep their path (Section 5.3). *)

val install_rx_rule :
  t ->
  forwarder:int ->
  chain_label:int ->
  egress_label:int ->
  stage:int ->
  (endpoint * float) list ->
  unit
(** Replace the {e receiver-side} rule: the targets for packets arriving
    from a peer forwarder (mid-relay, to be delivered into a local
    element). Without one the forwarder uses the {!install_rule} rule for
    both. Keeping relayed packets local bounds every stage of a
    connection to two forwarders, which the role-keyed replicated flow
    store depends on. *)

val rule :
  t ->
  forwarder:int ->
  chain_label:int ->
  egress_label:int ->
  stage:int ->
  (endpoint * float) list option

val rx_rule :
  t ->
  forwarder:int ->
  chain_label:int ->
  egress_label:int ->
  stage:int ->
  (endpoint * float) list option
(** The reverse-direction rule installed by [install_rx_rule], if any. *)

type rule_patch = {
  rp_chain : int;
  rp_egress : int;
  rp_stage : int;
  rp_rx : bool;  (** patch the reverse-direction ([install_rx_rule]) map *)
  rp_targets : (endpoint * float) list;
}
(** One rule replacement of a compiled rollout delta
    ([Sb_ctrl.Compile]). *)

val apply_delta : t -> forwarder:int -> rule_patch list -> int
(** Apply a batch of rule patches to one forwarder, skipping patches whose
    packed form is already identical to the live slot. Returns how many
    patches actually mutated the rule store; each counts one journal
    entry, exactly as the equivalent [install_rule] would. *)

val flow_table_size : t -> forwarder:int -> int

val flow_table_stats : t -> forwarder:int -> int * int * int
(** [(count, capacity, max_probe)] of one forwarder's connection table:
    live entries, open-addressing capacity (load factor is
    [count /. capacity]) and the longest probe sequence a hit can take
    (the largest displacement of a live cell from its connection's home
    slot, plus one).
    An O(capacity) scan — telemetry and occupancy benches, not the packet
    path. *)

val flow_table_bytes : t -> int
(** Bytes of heap held by every flow table of the plane (each forwarder's
    table and, in [Replicated] mode, every DHT store), read from the cell
    and chain-head array lengths: capacity, not occupancy. *)

val mutations : t -> int
(** Number of journal entries applied to the packed arrays so far (rule
    installs, topology mutations) — introspection for tests/benchmarks. *)

type arena_stats = {
  slots_live : int;  (** rule slots currently installed *)
  words_used : int;  (** arena words allocated, live + garbage *)
  words_garbage : int;  (** dead words awaiting compaction *)
  compactions : int;  (** arena compaction passes run so far *)
}

val arena_stats : t -> arena_stats
(** Occupancy of the packed rule arena — how much churn the journal has
    absorbed and how often it forced a compaction. *)

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
(** Inject the reply at the egress edge; the tuple is the connection's
    {e forward} orientation. Follows the stored [prev] hops; fails with
    [No_reverse_entry] if the forward direction never established
    state. *)

val drive :
  t ->
  ingress:int ->
  chain_label:int ->
  egress_label:int ->
  size:int ->
  Packet.five_tuple ->
  bool
(** {!send_forward} without the trace: [true] iff the packet was
    delivered to an egress edge. Identical side effects (flow-table
    inserts, RNG draws, stage counters) but allocation-free — the packet
    lives entirely in registers/locals. The packets-per-second numbers in
    EXPERIMENTS.md come from this entry point. *)

val vnfs_in_trace : t -> endpoint list -> int list
(** VNF ids in visit order — for conformity checks. *)

val instances_in_trace : endpoint list -> int list
(** VNF instance ids in visit order — for affinity checks. *)

val end_flow : t -> Packet.five_tuple -> unit
(** Drop every forwarder's entries for a connection, replicas included.
    O(stages) via the per-connection chain. *)

val transfer_flows : t -> from_instance:int -> to_instance:int -> int
(** OpenNF-style flow-state transfer (Section 5.3): rewrite every
    flow-table entry pinning a connection to [from_instance], next and
    prev hops both, to [to_instance]. Both must run the same VNF (raises
    [Invalid_argument] otherwise). Returns the number of rewritten
    entries. *)

val instance_flow_count : t -> int -> int
(** Number of flow-table cells (across every forwarder table and, in the
    replicated store, every replica) still pinning a connection hop to
    the given VNF instance — the occupancy a scale-in drain waits on.
    Zero means no established flow will be steered to the instance, so it
    can be retracted without blackholing. A connection traversing the
    instance contributes one cell per table holding its entry. O(sum of
    table capacities), off the packet path. *)

val set_clock : t -> int -> unit
(** Set the logical clock (any monotone tick from 0 to [2^31 - 1] —
    scenario drivers use the workload tick). Every packet stamps the
    clock onto the flow-table cells it touches (insert and hit, forward
    and reverse, every replica in [Replicated] mode); the stamp is what
    {!expire_flows} ages against. Never consulted on the packet path's
    control flow, so traces and RNG draws are unchanged. The stamp shares
    a cell word with the chain link, so a tick below 0 or at or above
    [2^31] raises [Invalid_argument]. *)

val clock : t -> int

val expire_flows : t -> idle_before:int -> int
(** Scenario-driven idle sweep: remove every connection whose last
    activity predates [idle_before] — the bulk [end_flow] that keeps
    flow-table occupancy (visible via {!flow_table_stats}) bounded under
    streaming churn. A connection is kept if {e any} of its cells in a
    table is fresh. O(sum of table capacities); returns the number of
    table-local connection evictions (a connection spanning [k]
    forwarders counts [k] times). *)

(** {2 Measurement}

    Global Switchboard sizes chain traffic from measurements at the
    forwarders (Sections 4.1 and 7.2). Each forwarder counts the forward
    packets and bytes it delivers into a stage's destination element, so
    every packet is counted once per stage however many forwarders relay
    it. *)

val stage_counters :
  t -> chain_label:int -> egress_label:int -> stage:int -> int * int
(** Aggregated [(packets, bytes)] for one stage of one chain. *)

val site_stage_counters :
  t -> site:int -> chain_label:int -> egress_label:int -> stage:int -> int * int
(** {!stage_counters} restricted to one site's forwarders; summing over
    all sites gives {!stage_counters}. *)

val site_stage_counters_into :
  t ->
  site:int ->
  chain_label:int ->
  egress_label:int ->
  pkts:int array ->
  bytes:int array ->
  unit
(** Fill [pkts]/[bytes] (indexed by stage, as many stages as the arrays
    hold) with one site's counters for one chain, visiting only that
    site's forwarders — the allocation-free bulk form of
    {!site_stage_counters} that the telemetry exporter reuses its scratch
    buffers with. *)

val reset_counters : t -> unit
(** Start a fresh measurement window. *)

(** Hooks for unit tests only. *)
module For_testing : sig
  val skip_ids : t -> int -> unit
  (** Advance the entity-id counter by [n] without creating entities, so
      a test can reach {!max_entities} without allocating 2^29 ids. *)

  val heads_mean_displacement : t -> forwarder:int -> float
  (** Mean distance, in slots, of the forwarder table's chain-head
      entries from their home slots (0 when the index is empty). *)

  val check_tables : t -> unit
  (** Raise [Failure] unless, in every forwarder table and DHT store,
      each live cell and chain head is reached from its connection's home
      slot without crossing an empty slot, each connection's cells lie in
      one probe run, and each chain holds exactly its connection's live
      cells. O(capacity times probe length). *)
end
