(* Set-up shared by every workload: the 40-chain, 25-site backbone of
   Sb_adapt.Scenario, routed by SB-DP and admitted through the control
   plane's two-phase commit the way Sb_adapt.Loop establishes its live
   arms (two instances per deployed (VNF, site), VNF capacity with the
   loop's headroom). The data-plane workloads drive the resulting
   system's 1-lane shard; the control workload runs epochs on it. *)

module Model = Sb_core.Model
module Routing = Sb_core.Routing
module Dp = Sb_core.Dp_routing
module Paths = Sb_net.Paths
module System = Sb_ctrl.System
module Ct = Sb_ctrl.Types
module Engine = Sb_sim.Engine
module Loop = Sb_adapt.Loop

let num_chains = 40
let params = Loop.default_params

(* The substrate is fixed: one backbone and one set of chains for every
   run, so that runs on different seeds measure the same system. The
   workload seed drives everything that flows through it: connections,
   packet draws, balancer draws, demand phases. *)
let substrate_seed = 2019

let build_model tr =
  Trace.enter tr Trace.model;
  let m =
    Sb_adapt.Scenario.backbone25
      { Sb_adapt.Scenario.default_config with seed = substrate_seed; num_chains }
  in
  Trace.leave tr;
  m

type t = {
  model : Model.t;
  sys : System.t;
  ids : int array;  (* system chain id of each model chain *)
  initial : Ct.route list array;  (* routes requested at admission *)
}

let site_of model node =
  match Model.site_of_node model node with
  | Some s -> s
  | None -> failwith "perfbench: a route visits a node without a site"

let routes_of model routing chain =
  List.map
    (fun (nodes, frac) ->
      { Ct.element_sites = Array.map (site_of model) nodes; weight = frac })
    (Routing.decompose_paths routing ~chain)

let establish tr ~seed model r0 =
  let n = Model.num_chains model in
  let num_sites = Model.num_sites model in
  let base_paths = Model.paths model in
  let delay a b =
    if a = b then 0.
    else
      let d = Paths.delay base_paths (Model.site_node model a) (Model.site_node model b) in
      if Float.is_finite d then d else 0.05
  in
  Trace.enter tr Trace.system;
  let sys = System.create ~seed ~lanes:1 ~num_sites ~delay ~gsb_site:0 () in
  System.set_logging sys false;
  for f = 0 to Model.num_vnfs model - 1 do
    List.iter
      (fun (site, cap) ->
        System.deploy_vnf sys ~vnf:f ~site ~capacity:(params.Loop.vnf_headroom *. cap)
          ~instances:2)
      (Model.vnf_sites model f)
  done;
  for s = 0 to num_sites - 1 do
    System.register_edge sys ~site:s ~attachment:(Printf.sprintf "site%d" s)
  done;
  let initial = Array.init n (fun c -> routes_of model r0 c) in
  let chain_of_name = Hashtbl.create n in
  System.set_route_policy sys (fun spec ~exclude:_ ->
      match Hashtbl.find_opt chain_of_name spec.Ct.spec_name with
      | Some c -> ( match initial.(c) with [] -> None | routes -> Some routes)
      | None -> None);
  Trace.leave tr;
  (* One chain at a time, each committed before the next is requested:
     requesting all 40 at once overflows the Global Switchboard's bus
     egress queue, and the instance and forwarder announcements it drops
     leave some chains without rules for good. *)
  let ids =
    Array.init n (fun c ->
        let name = Printf.sprintf "c%d" c in
        Hashtbl.replace chain_of_name name c;
        Trace.enter tr Trace.system;
        let id =
          System.request_chain sys
            {
              Ct.spec_name = name;
              ingress_attachment =
                Printf.sprintf "site%d" (site_of model (Model.chain_ingress model c));
              egress_attachment =
                Printf.sprintf "site%d" (site_of model (Model.chain_egress model c));
              vnfs = Array.to_list (Model.chain_vnfs model c);
              traffic = Model.fwd_traffic model ~chain:c ~stage:0;
            }
        in
        Trace.leave tr;
        Trace.enter tr Trace.engine;
        Engine.run (System.engine sys);
        Trace.leave tr;
        id)
  in
  { model; sys; ids; initial }

(* Chains whose admitted routes did not commit as requested. *)
let admission_failures t =
  let bad = ref 0 in
  Array.iteri
    (fun c routes ->
      if System.chain_routes t.sys ~chain:t.ids.(c) <> routes then incr bad)
    t.initial;
  !bad

(* Data-plane entry of each admitted chain: (ingress edge, chain label,
   egress label), the labels the system's edges affix. *)
let entries t =
  Array.to_list t.ids
  |> List.filter_map (fun id ->
         match
           ( System.chain_routes t.sys ~chain:id,
             System.chain_ingress_site t.sys ~chain:id,
             System.chain_egress_site t.sys ~chain:id )
         with
         | _ :: _, Some ing, Some eg -> (
           match System.site_edge t.sys ing with
           | Some edge -> Some (edge, id, eg)
           | None -> None)
         | _ -> None)
  |> Array.of_list

let forwarders t =
  List.concat_map
    (fun s -> System.site_forwarders t.sys s)
    (List.init (Model.num_sites t.model) Fun.id)

(* (entries, capacity, max probe) over every forwarder's flow table. *)
let table_stats t =
  let sh = System.shard t.sys in
  List.fold_left
    (fun (n, cap, probe) f ->
      let c, k, p = Sb_dataplane.Shard.flow_table_stats sh ~forwarder:f in
      (n + c, cap + k, max probe p))
    (0, 0, 0) (forwarders t)
