open Totem_engine
module Srp = Totem_srp

type Srp.Message.data += Stamped of Vtime.t

let saturate_nodes t ~nodes ~size =
  List.iter
    (fun id ->
      Srp.Srp.set_supplier
        (Cluster.srp (Cluster.node t id))
        (fun () -> Some (size, Srp.Message.Blob)))
    nodes

let all_nodes t = List.init (Cluster.num_nodes t) (fun i -> i)

let saturate t ~size = saturate_nodes t ~nodes:(all_nodes t) ~size

(* Suppliers run inside the owning node's event stream, so their RNG
   must be a per-node stream: under the parallel core a shared cluster
   stream would be raced by worker domains. In classic mode node_sim
   aliases the cluster sim, so the split sequence is unchanged. *)
let saturate_mixed t ~sizes =
  if Array.length sizes = 0 then invalid_arg "Workload.saturate_mixed";
  List.iter
    (fun id ->
      let rng = Sim.split_rng (Cluster.node_sim t id) in
      Srp.Srp.set_supplier
        (Cluster.srp (Cluster.node t id))
        (fun () -> Some (Rng.pick rng sizes, Srp.Message.Blob)))
    (all_nodes t)

let submit_stamped t ~node ~size =
  let sim = Cluster.node_sim t node in
  Cluster.submit t ~node ~size ~data:(Stamped (Sim.now sim)) ()

(* Pacing generators schedule on the target node's partition: the tick
   and the submit it performs are node-local work, so the parallel core
   runs them inside the node's own windowed stream. *)
let fixed_rate t ~node ~size ~interval ?count () =
  let sim = Cluster.node_sim t node in
  let remaining = ref (Option.value count ~default:max_int) in
  let rec tick () =
    if !remaining > 0 then begin
      decr remaining;
      submit_stamped t ~node ~size;
      ignore (Sim.schedule sim ~delay:interval tick)
    end
  in
  ignore (Sim.schedule sim ~delay:interval tick)

let poisson t ~node ~size ~mean_interval ?count () =
  let sim = Cluster.node_sim t node in
  let rng = Sim.split_rng sim in
  let remaining = ref (Option.value count ~default:max_int) in
  let draw () =
    Vtime.of_float_sec
      (Rng.exponential rng ~mean:(Vtime.to_float_sec mean_interval))
  in
  let rec tick () =
    if !remaining > 0 then begin
      decr remaining;
      submit_stamped t ~node ~size;
      ignore (Sim.schedule sim ~delay:(draw ()) tick)
    end
  in
  ignore (Sim.schedule sim ~delay:(draw ()) tick)

let burst t ~node ~size ~count ~at =
  let sim = Cluster.node_sim t node in
  ignore
    (Sim.schedule_at sim ~time:at (fun () ->
         for _ = 1 to count do
           submit_stamped t ~node ~size
         done))
