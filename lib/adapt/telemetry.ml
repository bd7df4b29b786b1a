module Engine = Sb_sim.Engine
module Bus = Sb_msgbus.Bus
module System = Sb_ctrl.System
module Types = Sb_ctrl.Types

module Exporter = struct
  (* Per-chain scratch: the chain's telemetry topic and the current and
     previous window counters, reused every epoch so a measurement sweep
     allocates only the published report. *)
  type buf = {
    topic : string;
    cur_p : int array;
    cur_b : int array;
    prev_p : int array;
    prev_b : int array;
  }

  type t = {
    system : System.t;
    site : int;
    period : float;
    down_links : unit -> int list;
    prev : (int, buf) Hashtbl.t;
    mutable epoch : int;
    mutable running : bool;
    mutable exported : int;
  }

  let rec tick t =
    if t.running then begin
      let down = t.down_links () in
      List.iter
        (fun (chain, _egress, num_stages) ->
          let b =
            match Hashtbl.find_opt t.prev chain with
            | Some b when Array.length b.cur_p = num_stages -> b
            | _ ->
              let b =
                {
                  topic = Types.telemetry_topic ~chain;
                  cur_p = Array.make num_stages 0;
                  cur_b = Array.make num_stages 0;
                  prev_p = Array.make num_stages 0;
                  prev_b = Array.make num_stages 0;
                }
              in
              Hashtbl.replace t.prev chain b;
              b
          in
          let n =
            System.site_chain_measurements_into t.system ~site:t.site ~chain
              ~pkts:b.cur_p ~bytes:b.cur_b
          in
          if n >= 0 then begin
            let delta =
              Array.init n (fun i ->
                  (b.cur_p.(i) - b.prev_p.(i), b.cur_b.(i) - b.prev_b.(i)))
            in
            Array.blit b.cur_p 0 b.prev_p 0 n;
            Array.blit b.cur_b 0 b.prev_b 0 n;
            (* Export even an all-zero window: to the aggregator silence is
               indistinguishable from loss, so a zero report is
               information (the chain really carried nothing). *)
            Bus.publish (System.bus t.system) ~site:t.site
              ~topic:b.topic
              (Types.Telemetry_report
                 { site = t.site; epoch = t.epoch; chain; stages = delta; down_links = down });
            t.exported <- t.exported + 1
          end)
        (System.site_known_chains t.system ~site:t.site);
      t.epoch <- t.epoch + 1;
      ignore (Engine.schedule (System.engine t.system) ~delay:t.period (fun () -> tick t))
    end

  let start ~system ~site ~period ?(down_links = fun () -> []) () =
    let t =
      {
        system;
        site;
        period;
        down_links;
        prev = Hashtbl.create 16;
        epoch = 0;
        running = true;
        exported = 0;
      }
    in
    ignore (Engine.schedule (System.engine system) ~delay:period (fun () -> tick t));
    t

  let stop t = t.running <- false
  let exported t = t.exported
end

module Control = struct
  (* Control-plane cost snapshot: what the adaptation loop itself spends,
     as opposed to what the data plane carries. Bus counters come from the
     size-priced bus (every System bus prices payloads with
     [Types.msg_size] and classes topics with [Types.topic_class]); data
     plane counters come from the shard's mutation journal and rule
     arena. *)
  type report = {
    bus_published : int;
    bus_wan_messages : int;
    bus_published_bytes : int;
    bus_wan_bytes : int;  (** bytes that crossed the wide area *)
    bus_topic_bytes : (string * int * int) list;
        (** per topic class: (class, publishes, bytes) *)
    bus_size_p50 : int;
    bus_size_p99 : int;
    dp_mutations : int;  (** rule-install journal length (lane 0) *)
    dp_slots_live : int;
    dp_words_used : int;
    dp_words_garbage : int;
    dp_compactions : int;
    churn_scale_outs : int;  (** deployments added by elastic placement *)
    churn_removed : int;  (** deployments retracted after a drain *)
    churn_drains_completed : int;
    churn_drains_aborted : int;
    churn_draining : int;
    churn_drain_p50 : float;  (** median completed-drain duration (s), 0 if none *)
    churn_drain_max : float;
  }

  let percentile sorted p =
    let n = Array.length sorted in
    if n = 0 then 0
    else sorted.(min (n - 1) (int_of_float (p *. float_of_int (n - 1) +. 0.5)))

  let snapshot system =
    let bs = Bus.stats (System.bus system) in
    let shard = System.shard system in
    let arena = Sb_dataplane.Shard.arena_stats shard in
    let sizes = Array.of_list bs.Bus.sizes in
    Array.sort compare sizes;
    let ch = System.deployment_churn system in
    let durs = Array.of_list ch.System.ch_drain_durations in
    Array.sort compare durs;
    let drain_p50 =
      let n = Array.length durs in
      if n = 0 then 0. else durs.(n / 2)
    in
    let drain_max = Array.fold_left Float.max 0. durs in
    {
      bus_published = bs.Bus.published;
      bus_wan_messages = bs.Bus.wan_messages;
      bus_published_bytes = bs.Bus.published_bytes;
      bus_wan_bytes = bs.Bus.wan_bytes;
      bus_topic_bytes = bs.Bus.topic_bytes;
      bus_size_p50 = percentile sizes 0.5;
      bus_size_p99 = percentile sizes 0.99;
      dp_mutations = Sb_dataplane.Shard.mutations shard;
      dp_slots_live = arena.Sb_dataplane.Plane.slots_live;
      dp_words_used = arena.Sb_dataplane.Plane.words_used;
      dp_words_garbage = arena.Sb_dataplane.Plane.words_garbage;
      dp_compactions = arena.Sb_dataplane.Plane.compactions;
      churn_scale_outs = ch.System.ch_scale_outs;
      churn_removed = ch.System.ch_removed;
      churn_drains_completed = ch.System.ch_drains_completed;
      churn_drains_aborted = ch.System.ch_drains_aborted;
      churn_draining = ch.System.ch_draining;
      churn_drain_p50 = drain_p50;
      churn_drain_max = drain_max;
    }

  let pp fmt r =
    Format.fprintf fmt
      "@[<v>bus: %d published (%d B), %d wan msgs (%d B), size p50=%d p99=%d@,"
      r.bus_published r.bus_published_bytes r.bus_wan_messages r.bus_wan_bytes
      r.bus_size_p50 r.bus_size_p99;
    List.iter
      (fun (cls, n, b) -> Format.fprintf fmt "  %-28s %6d msgs %10d B@," cls n b)
      r.bus_topic_bytes;
    Format.fprintf fmt
      "dp: %d mutations, arena %d live slots (%d words, %d garbage, %d compactions)@,"
      r.dp_mutations r.dp_slots_live r.dp_words_used r.dp_words_garbage
      r.dp_compactions;
    Format.fprintf fmt
      "churn: %d scale-outs, %d removed (%d drains done, %d aborted, %d draining), \
       drain p50=%.2fs max=%.2fs@]"
      r.churn_scale_outs r.churn_removed r.churn_drains_completed
      r.churn_drains_aborted r.churn_draining r.churn_drain_p50 r.churn_drain_max
end

module Aggregator = struct
  type sample = {
    s_epoch : int;
    s_stages : (int * int) array;
    s_down : int list;
  }

  type t = {
    chains : int list;
    num_sites : int;
    staleness : int;
    cells : (int, sample option array) Hashtbl.t;
    mutable reports : int;
    mutable last_epoch : int;
  }

  let handle t = function
    | Types.Telemetry_report { site; epoch; chain; stages; down_links } -> (
      match Hashtbl.find_opt t.cells chain with
      | None -> () (* a chain this aggregator was not asked to watch *)
      | Some row ->
        if site >= 0 && site < t.num_sites then begin
          t.reports <- t.reports + 1;
          if epoch > t.last_epoch then t.last_epoch <- epoch;
          let newer =
            match row.(site) with None -> true | Some s -> epoch >= s.s_epoch
          in
          if newer then
            row.(site) <- Some { s_epoch = epoch; s_stages = stages; s_down = down_links }
        end)
    | _ -> ()

  let create ~system ~site ~chains ~num_sites ?(staleness = 3) () =
    let t =
      {
        chains;
        num_sites;
        staleness;
        cells = Hashtbl.create (max 1 (List.length chains));
        reports = 0;
        last_epoch = -1;
      }
    in
    List.iter
      (fun chain ->
        Hashtbl.replace t.cells chain (Array.make num_sites None);
        Bus.subscribe (System.bus system) ~site
          ~topic:(Types.telemetry_topic ~chain) (handle t))
      chains;
    t

  let fresh t ~epoch s = s.s_epoch > epoch - t.staleness && s.s_epoch <= epoch

  (* Fold over the freshest per-site samples of one chain, in site order —
     deterministic regardless of report arrival interleaving. *)
  let fold_fresh t ~epoch ~chain f init =
    match Hashtbl.find_opt t.cells chain with
    | None -> init
    | Some row ->
      Array.fold_left
        (fun acc cell ->
          match cell with Some s when fresh t ~epoch s -> f acc s | _ -> acc)
        init row

  let chain_packets t ~epoch ~chain =
    fold_fresh t ~epoch ~chain
      (fun acc s ->
        let p = if Array.length s.s_stages > 0 then fst s.s_stages.(0) else 0 in
        match acc with None -> Some p | Some a -> Some (a + p))
      None

  let chain_stages t ~epoch ~chain =
    let width =
      fold_fresh t ~epoch ~chain (fun w s -> max w (Array.length s.s_stages)) 0
    in
    let out = Array.make width (0, 0) in
    ignore
      (fold_fresh t ~epoch ~chain
         (fun () s ->
           Array.iteri
             (fun i (p, b) ->
               let op, ob = out.(i) in
               out.(i) <- (op + p, ob + b))
             s.s_stages)
         ());
    out

  let down_links t ~epoch =
    List.fold_left
      (fun acc chain ->
        fold_fresh t ~epoch ~chain
          (fun acc s ->
            List.fold_left
              (fun acc l -> if List.mem l acc then acc else l :: acc)
              acc s.s_down)
          acc)
      [] t.chains
    |> List.sort compare

  let reports t = t.reports
  let last_epoch t = t.last_epoch
end
