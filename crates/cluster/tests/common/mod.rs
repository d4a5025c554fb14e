//! Shared by the fabric proptests: the engine-backed packet walk.

use netclone_cluster::topology::{flow_hash, Fabric, Hop};
use netclone_proto::PacketMeta;

/// Walks one packet through the fabric's engines from switch `entry`,
/// under ECMP (single-path shapes ignore the hash); panics on a
/// forwarding loop. Returns the `(switch, packet, port)` host deliveries
/// and the switches visited, in order.
pub fn walk(
    fabric: &mut Fabric,
    entry: usize,
    pkt: PacketMeta,
) -> (Vec<(usize, PacketMeta, u16)>, Vec<usize>) {
    let seed = fabric.ecmp_seed();
    let mut delivered = Vec::new();
    let mut path = Vec::new();
    let mut work = vec![(entry, pkt)];
    let mut hops = 0;
    while let Some((sw, pkt)) = work.pop() {
        hops += 1;
        assert!(hops <= 32, "forwarding loop");
        path.push(sw);
        let h = flow_hash(pkt.src_ip, pkt.dst_ip, seed);
        for e in fabric.engines[sw].process_collected(pkt, 0, 0) {
            match fabric.route(sw, e.port, h) {
                Hop::Switch(next) => work.push((next, e.pkt)),
                Hop::Local(port) => delivered.push((sw, e.pkt, port)),
            }
        }
    }
    (delivered, path)
}
