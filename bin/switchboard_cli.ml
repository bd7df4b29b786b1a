(* Command-line front end to Global Switchboard's traffic engineering.

   Synthesizes a reproducible wide-area scenario (seeded backbone topology +
   chain workload, Section 7.3 style) and exposes the three planning
   operations of Section 4.2:

     switchboard_cli route --scheme sb-dp --chains 24 --coverage 0.5
     switchboard_cli compare --seed 7
     switchboard_cli plan-cloud --budget 200
     switchboard_cli plan-vnf --new-sites 2 *)

open Cmdliner

module Model = Sb_core.Model
module Routing = Sb_core.Routing
module Eval = Sb_core.Eval
module Workload = Sb_core.Workload

(* ----------------------------- options ----------------------------- *)

(* Range-checked converters: an out-of-range value is a command-line
   error (usage message, exit 124), not an exception from deep inside a
   run. *)
let int_at_least lo =
  let parse s =
    match int_of_string_opt s with
    | Some n when n >= lo -> Ok n
    | _ -> Error (`Msg (Printf.sprintf "expected an integer >= %d, got %S" lo s))
  in
  Arg.conv (parse, Format.pp_print_int)

let count = int_at_least 1

let fraction =
  let parse s =
    match float_of_string_opt s with
    | Some f when f > 0. && f <= 1. -> Ok f
    | _ -> Error (`Msg (Printf.sprintf "expected a number in (0, 1], got %S" s))
  in
  Arg.conv (parse, Format.pp_print_float)

let seed =
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"N" ~doc:"Random seed for the scenario.")

let chains =
  Arg.(
    value & opt count 24 & info [ "chains" ] ~docv:"N" ~doc:"Number of service chains (>= 1).")

let coverage =
  Arg.(
    value
    & opt fraction 0.5
    & info [ "coverage" ] ~docv:"F" ~doc:"Fraction of sites hosting each VNF (0, 1].")

let cores =
  Arg.(
    value & opt (int_at_least 3) 5 & info [ "cores" ] ~docv:"N" ~doc:"Backbone core routers (>= 3).")

let scheme =
  let schemes =
    [
      ("anycast", Eval.Anycast);
      ("compute-aware", Eval.Compute_aware);
      ("onehop", Eval.Onehop);
      ("dp-latency", Eval.Dp_latency);
      ("sb-dp", Eval.Sb_dp);
      ("sb-lp", Eval.Sb_lp);
    ]
  in
  Arg.(
    value
    & opt (enum schemes) Eval.Sb_dp
    & info [ "scheme" ] ~docv:"SCHEME"
        ~doc:"Routing scheme: anycast, compute-aware, onehop, dp-latency, sb-dp, sb-lp.")

let verbose =
  Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Print each chain's route.")

let file =
  Arg.(
    value
    & opt (some file) None
    & info [ "file" ] ~docv:"SCENARIO"
        ~doc:
          "Load the deployment from a scenario file (see lib/core/spec.mli for the \
           format) instead of synthesizing one.")

let build_model ?file seed cores chains coverage =
  match file with
  | Some path -> (
    match Sb_core.Spec.load_file path with
    | Ok m -> m
    | Error e ->
      Printf.eprintf "cannot load %s: %s\n" path e;
      exit 2)
  | None ->
    let rng = Sb_util.Rng.create seed in
    let topo = Sb_net.Topology.backbone ~rng ~num_core:cores ~pops_per_core:2 () in
    Workload.synthesize ~rng topo
      { Workload.default with Workload.num_chains = chains; coverage }

(* ------------------------------ route ------------------------------ *)

let route_cmd =
  let run seed cores chains coverage scheme verbose file =
    let m = build_model ?file seed cores chains coverage in
    Printf.printf "scenario: %d nodes, %d chains, coverage %.2f, demand %.1f\n"
      (Model.num_sites m) (Model.num_chains m) coverage (Model.total_demand m);
    match Eval.route ~seed m scheme with
    | Error e ->
      Printf.eprintf "routing failed: %s\n" e;
      1
    | Ok r ->
      if verbose then
        for c = 0 to Model.num_chains m - 1 do
          Format.printf "%a@." (fun ppf r -> Routing.pp_chain ppf r c) r
        done;
      Printf.printf "%s: supported load %.2fx, mean latency %.2f ms\n"
        (Eval.scheme_name scheme) (Routing.max_alpha r)
        (1000. *. Routing.mean_latency r);
      (match Routing.validate r with
      | Ok () -> 0
      | Error e ->
        Printf.eprintf "INVALID ROUTING: %s\n" e;
        1)
  in
  let term =
    Term.(const run $ seed $ cores $ chains $ coverage $ scheme $ verbose $ file)
  in
  Cmd.v
    (Cmd.info "route" ~doc:"Route a chain workload (synthetic or from a file) with one scheme.")
    term

(* ----------------------------- compare ----------------------------- *)

let compare_cmd =
  let run seed cores chains coverage file =
    let m = build_model ?file seed cores chains coverage in
    (* Every (scheme, metric) cell is an independent evaluation over its
       own arena; fan them over domains. *)
    let schemes = Array.of_list Eval.all_schemes in
    let ns = Array.length schemes in
    let mlf = Array.make ns 0. in
    let lat = Array.make ns 0. in
    Sb_util.Par.map_chunks ~n:(2 * ns) (fun lo hi ->
        for k = lo to hi - 1 do
          if k < ns then mlf.(k) <- Eval.max_load_factor ~seed m schemes.(k)
          else lat.(k - ns) <- Eval.latency ~seed ~load:0.5 m schemes.(k - ns)
        done);
    Printf.printf "%-14s %10s %14s\n" "scheme" "max load" "latency@0.5";
    Array.iteri
      (fun i s ->
        Printf.printf "%-14s %9.2fx %11s\n" (Eval.scheme_name s) mlf.(i)
          (if lat.(i) = infinity then "overload"
           else Printf.sprintf "%.2f ms" (1000. *. lat.(i))))
      schemes;
    0
  in
  let term = Term.(const run $ seed $ cores $ chains $ coverage $ file) in
  Cmd.v
    (Cmd.info "compare" ~doc:"Compare all routing schemes on one scenario.")
    term

(* ---------------------------- plan-cloud --------------------------- *)

let plan_cloud_cmd =
  let budget =
    Arg.(value & opt float 200. & info [ "budget" ] ~docv:"B" ~doc:"Extra compute to place.")
  in
  let run seed cores chains coverage budget =
    let m = build_model seed cores chains coverage in
    match (Sb_core.Capacity.optimize m ~budget, Sb_core.Capacity.uniform m ~budget) with
    | Ok opt, Ok uni ->
      Printf.printf "uniform placement:   alpha = %.3f\n" uni.Sb_core.Capacity.alpha;
      Printf.printf "optimized placement: alpha = %.3f (+%.1f%%)\n" opt.Sb_core.Capacity.alpha
        (100. *. ((opt.Sb_core.Capacity.alpha /. uni.Sb_core.Capacity.alpha) -. 1.));
      Array.iteri
        (fun s a -> if a > 1e-6 then Printf.printf "  site %2d: +%.1f\n" s a)
        opt.Sb_core.Capacity.allocation;
      0
    | Error e, _ | _, Error e ->
      Printf.eprintf "planning failed: %s\n" e;
      1
  in
  let term = Term.(const run $ seed $ cores $ chains $ coverage $ budget) in
  Cmd.v
    (Cmd.info "plan-cloud"
       ~doc:"Place additional cloud capacity to maximize supported demand (Section 4.2).")
    term

(* ------------------------------ adapt ------------------------------ *)

let adapt_cmd =
  let module Adapt = Sb_adapt.Loop in
  let module Topology = Sb_net.Topology in
  let epochs =
    Arg.(
      value & opt count 12 & info [ "epochs" ] ~docv:"N" ~doc:"Control epochs to simulate (>= 1).")
  in
  let epoch_len =
    Arg.(
      value
      & opt float 2.0
      & info [ "epoch-len" ] ~docv:"S" ~doc:"Simulated seconds per control epoch.")
  in
  let fail_epoch =
    Arg.(
      value
      & opt int 6
      & info [ "fail-epoch" ] ~docv:"E"
          ~doc:"Epoch at which links fail (negative: no failure).")
  in
  let fail_links =
    Arg.(
      value
      & opt (list int) []
      & info [ "fail-links" ] ~docv:"IDS"
          ~doc:
            "Comma-separated link ids to fail at $(b,--fail-epoch); default picks the \
             busiest core-core duplex under the epoch-0 solve.")
  in
  let hysteresis =
    Arg.(
      value
      & opt float Adapt.default_params.Adapt.hysteresis
      & info [ "hysteresis" ] ~docv:"F"
          ~doc:"Relative cost gain a chain must show before it is re-routed.")
  in
  let budget =
    Arg.(
      value
      & opt (int_at_least 0) Adapt.default_params.Adapt.churn_budget
      & info [ "budget" ] ~docv:"N" ~doc:"Max chains re-routed per control epoch (>= 0).")
  in
  let run seed cores chains coverage file epochs epoch_len fail_epoch fail_links
      hysteresis budget =
    let m = build_model ?file seed cores chains coverage in
    let topo = Model.topology m in
    (* The closed loop stands up a site agent at every routable node. *)
    let unsited = ref [] in
    for node = Topology.num_nodes topo - 1 downto 0 do
      if Model.site_of_node m node = None then unsited := node :: !unsited
    done;
    if !unsited <> [] then begin
      Printf.eprintf
        "scenario unusable for adaptation: %d node(s) have no Switchboard site (e.g. node %d)\n"
        (List.length !unsited) (List.hd !unsited);
      exit 2
    end;
    let n = Model.num_chains m in
    let demand = Adapt.diurnal_demand ~period:(2 * epochs) ~seed n in
    let failed_links =
      if fail_epoch < 0 || fail_epoch >= epochs then []
      else if fail_links <> [] then fail_links
      else begin
        (* Busiest core-core duplex under the epoch-0 solve: the most
           disruptive single failure that keeps the core ring connected. *)
        let is_core node =
          let name = Topology.node_name topo node in
          String.length name >= 4 && String.sub name 0 4 = "core"
        in
        let m0 =
          Model.with_chain_traffic_factors m
            (Array.init n (fun c -> demand ~epoch:0 ~chain:c))
        in
        let ls0 = Routing.load_state (Sb_core.Dp_routing.solve m0) in
        let links = Topology.links topo in
        let best = ref (-1., []) in
        Array.iter
          (fun (l : Topology.link) ->
            if l.Topology.src < l.Topology.dst && is_core l.Topology.src
               && is_core l.Topology.dst
            then begin
              let ids =
                Array.to_list links
                |> List.filter_map (fun (k : Topology.link) ->
                       if
                         (k.Topology.src = l.Topology.src && k.Topology.dst = l.Topology.dst)
                         || (k.Topology.src = l.Topology.dst
                            && k.Topology.dst = l.Topology.src)
                       then Some k.Topology.id
                       else None)
              in
              let load =
                List.fold_left
                  (fun acc i -> acc +. Sb_core.Load_state.link_sb_load ls0 i)
                  0. ids
              in
              if load > fst !best then best := (load, ids)
            end)
          links;
        snd !best
      end
    in
    let sc =
      {
        Adapt.sc_model = m;
        sc_epochs = epochs;
        sc_epoch_len = epoch_len;
        sc_demand = demand;
        sc_failures = (if failed_links = [] then [] else [ (fail_epoch, failed_links) ]);
      }
    in
    let params =
      { Adapt.default_params with Adapt.hysteresis; churn_budget = budget; seed }
    in
    Printf.printf "scenario: %d nodes, %d chains, %d epochs x %.1fs" (Model.num_sites m)
      n epochs epoch_len;
    if failed_links <> [] then
      Printf.printf "; %d link(s) fail at epoch %d" (List.length failed_links) fail_epoch;
    print_newline ();
    let static = Adapt.run ~params sc Adapt.Static in
    let closed = Adapt.run ~params sc Adapt.Closed_loop in
    let oracle = Adapt.run ~params sc Adapt.Oracle in
    let s = Array.of_list static.Adapt.epochs in
    let c = Array.of_list closed.Adapt.epochs in
    let o = Array.of_list oracle.Adapt.epochs in
    let ratio arr e =
      if o.(e).Adapt.ep_supported <= 0. then 1.
      else arr.(e).Adapt.ep_supported /. o.(e).Adapt.ep_supported
    in
    Printf.printf "%-6s %12s %12s %12s %15s %6s %5s\n" "epoch" "oracle tput"
      "closed tput" "static tput" "closed/oracle" "moved" "down";
    for e = 0 to epochs - 1 do
      Printf.printf "%-6s %12.2f %12.2f %12.2f %14.0f%% %6d %5d\n"
        (if failed_links <> [] && e = fail_epoch then Printf.sprintf "%d*" e
         else string_of_int e)
        o.(e).Adapt.ep_supported c.(e).Adapt.ep_supported s.(e).Adapt.ep_supported
        (100. *. ratio c e) c.(e).Adapt.ep_rerouted c.(e).Adapt.ep_down_links
    done;
    Printf.printf
      "closed loop moved %d chain route(s) in total (budget %d/epoch); final epoch: \
       closed %.0f%%, static %.0f%% of oracle\n"
      closed.Adapt.total_rerouted budget
      (100. *. ratio c (epochs - 1))
      (100. *. ratio s (epochs - 1));
    0
  in
  let term =
    Term.(
      const run $ seed $ cores $ chains $ coverage $ file $ epochs $ epoch_len
      $ fail_epoch $ fail_links $ hysteresis $ budget)
  in
  Cmd.v
    (Cmd.info "adapt"
       ~doc:
         "Run the closed telemetry/re-routing loop on a scenario (synthetic or from a \
          file) against static and oracle baselines.")
    term

(* ----------------------------- plan-vnf ---------------------------- *)

let plan_vnf_cmd =
  let new_sites =
    Arg.(value & opt count 1 & info [ "new-sites" ] ~docv:"N" ~doc:"New sites per VNF (>= 1).")
  in
  let exact =
    Arg.(
      value & flag
      & info [ "exact" ]
          ~doc:
            "Solve the Section 4.3 placement MIP by branch-and-bound instead of the \
             greedy (falls back to the greedy if the search returns no incumbent).")
  in
  let run seed cores chains coverage new_sites exact =
    let m = build_model seed cores chains coverage in
    let lat model =
      1000.
      *. Routing.propagation_latency
           (Sb_core.Dp_routing.solve ~rng:(Sb_util.Rng.create seed) model)
    in
    let sugg =
      if exact then
        match Sb_core.Placement.mip m ~new_sites_per_vnf:new_sites with
        | Some exact -> exact
        | None ->
          (* The MIP already warned on stderr (node budget / infeasible);
             hand the operator the greedy hint rather than nothing. *)
          Printf.printf "MIP returned no incumbent; using the greedy placement\n";
          Sb_core.Placement.suggest m ~new_sites_per_vnf:new_sites
      else Sb_core.Placement.suggest m ~new_sites_per_vnf:new_sites
    in
    let rand = Sb_core.Placement.random ~rng:(Sb_util.Rng.create seed) m ~new_sites_per_vnf:new_sites in
    Printf.printf "current deployment:     %.2f ms mean propagation latency\n" (lat m);
    Printf.printf "random new sites:       %.2f ms\n" (lat rand);
    Printf.printf "Switchboard placement:  %.2f ms\n" (lat sugg);
    0
  in
  let term = Term.(const run $ seed $ cores $ chains $ coverage $ new_sites $ exact) in
  Cmd.v
    (Cmd.info "plan-vnf"
       ~doc:"Suggest new VNF deployment sites that minimize chain latency (Section 4.2).")
    term

(* ------------------------------ chaos ------------------------------ *)

let chaos_cmd =
  let module Schedule = Sb_chaos.Schedule in
  let module Harness = Sb_chaos.Harness in
  let search =
    Arg.(value & flag & info [ "search" ] ~doc:"Search seeds for a violating schedule.")
  in
  let budget =
    Arg.(
      value & opt count 200
      & info [ "budget" ] ~docv:"N" ~doc:"Schedules to try under $(b,--search) (>= 1).")
  in
  let out =
    Arg.(
      value
      & opt (some string) None
      & info [ "out" ] ~docv:"FILE"
          ~doc:"Write the (shrunk) violating schedule to FILE, for CI artifacts.")
  in
  let lanes =
    Arg.(
      value
      & opt (some count) None
      & info [ "lanes" ] ~docv:"D"
          ~doc:
            "Dataplane shard lanes for the replayed system (default 1, >= 1). The \
             invariants must hold at any lane count.")
  in
  let run seed search budget out lanes =
    let print_result (r : Harness.result) =
      Format.printf "schedule (seed %d):@.%a@.%a@." r.schedule.Schedule.seed
        Schedule.pp r.schedule Harness.pp_result r
    in
    if search then begin
      match Harness.search ~base_seed:seed ~budget with
      | None ->
        Format.printf
          "chaos: %d schedules (seeds %d..%d), zero invariant violations@." budget
          seed
          (seed + budget - 1);
        0
      | Some r ->
        Format.printf "chaos: VIOLATION — minimal failing schedule:@.";
        print_result r;
        Format.printf "replay: switchboard_cli chaos --seed %d@."
          r.schedule.Schedule.seed;
        (match out with
        | Some file ->
          let oc = open_out file in
          output_string oc (Schedule.to_string r.schedule);
          output_string oc "\n";
          List.iter
            (fun v ->
              output_string oc (Format.asprintf "%a\n" Sb_chaos.Invariant.pp_violation v))
            r.violations;
          close_out oc
        | None -> ());
        1
    end
    else begin
      let r = Harness.run_seed ?lanes seed in
      print_result r;
      if r.violations = [] then 0 else 1
    end
  in
  let term = Term.(const run $ seed $ search $ budget $ out $ lanes) in
  Cmd.v
    (Cmd.info "chaos"
       ~doc:
         "Replay one fault schedule ($(b,--seed)) or search many ($(b,--search)) against \
          the whole-system invariant checker. Deterministic: the same seed replays \
          bit-identically.")
    term

(* ---------------------------- scenarios ---------------------------- *)

let scenarios_cmd =
  let module Scenario = Sb_adapt.Scenario in
  let smoke =
    Arg.(
      value & flag
      & info [ "smoke" ]
          ~doc:"Start from the CI-sized smoke config instead of the full-scale one.")
  in
  let ticks =
    Arg.(
      value
      & opt (some count) None
      & info [ "ticks" ] ~docv:"N" ~doc:"Scenario horizon in control epochs (>= 1).")
  in
  let window =
    Arg.(
      value
      & opt (some count) None
      & info [ "window" ] ~docv:"N" ~doc:"Total concurrently-live flows (>= 1).")
  in
  let pkts =
    Arg.(
      value
      & opt (some count) None
      & info [ "pkts" ] ~docv:"N" ~doc:"Sustained packets per tick (>= 1).")
  in
  let lanes =
    Arg.(
      value
      & opt (some count) None
      & info [ "lanes" ] ~docv:"D" ~doc:"Dataplane shard lanes (>= 1).")
  in
  let num_chains =
    Arg.(
      value
      & opt (some count) None
      & info [ "chains" ] ~docv:"N" ~doc:"Service chains (= workload keys, >= 1).")
  in
  let names =
    Arg.(
      value & opt_all string []
      & info [ "scenario" ] ~docv:"NAME"
          ~doc:"Run only this scenario (repeatable); default: the whole catalog.")
  in
  let run seed smoke ticks window pkts lanes num_chains names =
    let base = if smoke then Scenario.smoke_config else Scenario.default_config in
    let cfg =
      {
        base with
        Scenario.seed;
        ticks = Option.value ~default:base.Scenario.ticks ticks;
        window = Option.value ~default:base.Scenario.window window;
        pkts_per_tick = Option.value ~default:base.Scenario.pkts_per_tick pkts;
        lanes = Option.value ~default:base.Scenario.lanes lanes;
        num_chains = Option.value ~default:base.Scenario.num_chains num_chains;
      }
    in
    let unknown =
      List.filter (fun n -> not (List.mem n Scenario.scenario_names)) names
    in
    if unknown <> [] then begin
      Format.eprintf "scenarios: unknown scenario(s): %s (known: %s)@."
        (String.concat ", " unknown)
        (String.concat ", " Scenario.scenario_names);
      1
    end
    else begin
      (* Deterministic output only (no wall clock), so CI can run this
         twice and diff byte-for-byte. *)
      let results =
        Scenario.run_matrix ?names:(if names = [] then None else Some names) cfg
      in
      Format.printf
        "scenarios: seed=%d ticks=%d chains=%d window=%d pkts/tick=%d lanes=%d@."
        cfg.Scenario.seed cfg.Scenario.ticks cfg.Scenario.num_chains
        cfg.Scenario.window cfg.Scenario.pkts_per_tick cfg.Scenario.lanes;
      List.iter (fun m -> Format.printf "%a@." Scenario.pp_metrics m) results;
      0
    end
  in
  let term =
    Term.(const run $ seed $ smoke $ ticks $ window $ pkts $ lanes $ num_chains $ names)
  in
  Cmd.v
    (Cmd.info "scenarios"
       ~doc:
         "Run the workload scenario suite (flash crowd, DDoS flood, elephant/mice, \
          regional failover, diurnal drift, combinator overlay) end to end on the \
          25-site backbone: closed-loop + oracle control arms and a streaming \
          flow-churn stress of the packed dataplane. Deterministic: same seed, same \
          output.")
    term

(* ----------------------------- anycast ----------------------------- *)

let anycast_cmd =
  let module Scenario = Sb_adapt.Scenario in
  let smoke =
    Arg.(
      value & flag
      & info [ "smoke" ]
          ~doc:"Start from the CI-sized smoke config instead of the full-scale one.")
  in
  let ticks =
    Arg.(
      value
      & opt (some count) None
      & info [ "ticks" ] ~docv:"N" ~doc:"Scenario horizon in control epochs (>= 1).")
  in
  let num_chains =
    Arg.(
      value
      & opt (some count) None
      & info [ "chains" ] ~docv:"N" ~doc:"Service chains (= workload keys, >= 1).")
  in
  let lanes =
    Arg.(
      value
      & opt (some count) None
      & info [ "lanes" ] ~docv:"D" ~doc:"Forwarder RSS lanes in the live arms (>= 1).")
  in
  let fractions =
    Arg.(
      value & opt_all float []
      & info [ "fraction" ] ~docv:"F"
          ~doc:
            "Controller-outage fraction of the post-start horizon (repeatable); \
             default: 0, 0.25, 0.5, 0.75, 1.")
  in
  let run seed smoke ticks num_chains lanes fractions =
    let base = if smoke then Scenario.smoke_config else Scenario.default_config in
    let cfg =
      {
        base with
        Scenario.seed;
        ticks = Option.value ~default:base.Scenario.ticks ticks;
        num_chains = Option.value ~default:base.Scenario.num_chains num_chains;
        lanes = Option.value ~default:base.Scenario.lanes lanes;
      }
    in
    let fractions = if fractions = [] then None else Some fractions in
    let points = Scenario.outage_sweep ?fractions cfg in
    Format.printf "anycast: seed=%d ticks=%d chains=%d lanes=%d outage_start_epoch=%d@."
      cfg.Scenario.seed cfg.Scenario.ticks cfg.Scenario.num_chains cfg.Scenario.lanes
      (Scenario.outage_start_epoch cfg);
    List.iter (fun p -> Format.printf "%a@." Scenario.pp_outage_point p) points;
    0
  in
  let term = Term.(const run $ seed $ smoke $ ticks $ num_chains $ lanes $ fractions) in
  Cmd.v
    (Cmd.info "anycast"
       ~doc:
         "Controller-outage sweep of the four control arms (static, oracle, \
          closed-loop, decentralized anycast) on the 25-site backbone: satisfied \
          demand and path stretch vs. the fraction of the run the Global \
          Switchboard is down. Deterministic: same seed, same output.")
    term

let () =
  let info =
    Cmd.info "switchboard_cli" ~version:"1.0"
      ~doc:"Wide-area service chaining traffic engineering (Switchboard reproduction)."
  in
  exit
    (Cmd.eval'
       (Cmd.group info
          [
            route_cmd;
            compare_cmd;
            adapt_cmd;
            plan_cloud_cmd;
            plan_vnf_cmd;
            chaos_cmd;
            scenarios_cmd;
            anycast_cmd;
          ]))
