(* Layer probes for the traced run: the codec, the CRC and cluster
   construction timed by calling their public functions directly, on
   the frame shapes and cluster shapes a workload uses. All times are
   normalised. *)

open Common
module Codec = Totem_srp.Codec
module Wire = Totem_srp.Wire
module Message = Totem_srp.Message
module Token = Totem_srp.Token
module Const = Totem_srp.Const
module Frame = Totem_net.Frame
module Crc32 = Totem_net.Crc32

(* A data packet carrying as many [size]-byte messages as fit in one
   frame (at least one): what a saturated sender packs. *)
let packet ~size ~packed =
  let element i =
    { Wire.message = Message.make ~origin:0 ~app_seq:(i + 1) ~size (); fragment = None }
  in
  let mk n = { Wire.ring_id = 1; seq = 1; sender = 0; elements = List.init n element } in
  let rec fill n =
    if packed && Wire.packet_payload_bytes Const.default (mk (n + 1)) <= Frame.max_payload_bytes
    then fill (n + 1)
    else mk n
  in
  fill 1

(* Normalised seconds per call of [f], over [n] calls in one span. *)
let per_call span n f =
  let t0 = Timeshare.norm () in
  Meter.with_span span (fun () ->
      for _ = 1 to n do
        ignore (Sys.opaque_identity (f ()))
      done);
  (Timeshare.norm () -. t0) /. float_of_int n

let codec ~size =
  let token =
    { (Token.initial ~ring:[| 0; 1; 2; 3 |] ~ring_id:1) with Token.seq = 1000; aru = 990; rtr = [ 991; 995 ] }
  in
  let classes =
    [
      ("token", fun () -> Codec.encode_token token);
      ("small", let p = packet ~size ~packed:false in fun () -> Codec.encode_packet p);
      ("full", let p = packet ~size ~packed:true in fun () -> Codec.encode_packet p);
    ]
  in
  let n = 20_000 in
  let rows =
    List.concat_map
      (fun (cls, enc) ->
        let bytes = enc () in
        [
          (Printf.sprintf "codec.encode_ns.%s" cls, 1e9 *. per_call sp_encode n enc);
          ( Printf.sprintf "codec.decode_ns.%s" cls,
            1e9 *. per_call sp_decode n (fun () -> Codec.decode bytes) );
        ])
      classes
  in
  let full = (List.assoc "full" classes) () in
  let crc = per_call sp_crc n (fun () -> Crc32.digest full) in
  ("crc.ns_per_kb", 1e9 *. crc /. (float_of_int (String.length full) /. 1024.0)) :: rows

(* Normalised milliseconds per [Cluster.create] of [config]. *)
let create_ms config =
  let n = 50 in
  1e3
  *. per_call sp_create n (fun () ->
         let c = Totem_cluster.Cluster.create config in
         Totem_cluster.Cluster.shutdown c)
