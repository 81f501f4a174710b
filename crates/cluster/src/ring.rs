//! Deterministic consistent-hash ring with seeded virtual nodes.
//!
//! Placement must be a pure function of `(seed, node set, key)` so every
//! client, the rebalancer, and the test suite agree on where a key lives
//! without any coordination — the same property that makes the rest of this
//! repo replayable from a seed. Points come from SHA-256, not `DefaultHasher`,
//! because the std hasher is explicitly not stable across releases.

use sharoes_crypto::Sha256;
use sharoes_net::{ObjectKey, WireWrite};

/// Domain-separation prefix for virtual-node points.
const VNODE_DOMAIN: &[u8] = b"sharoes-ring-vnode";

/// Domain-separation prefix for key points.
const KEY_DOMAIN: &[u8] = b"sharoes-ring-key";

/// A consistent-hash ring over named nodes.
///
/// Each node contributes `vnodes` points on a `u64` circle; a key is placed
/// on the first `r` *distinct* nodes at or clockwise of its own point.
/// Adding or removing one node only moves the keys adjacent to that node's
/// points (≈ 1/N of the keyspace), which is what keeps rebalancing cheap.
#[derive(Clone, Debug)]
pub struct HashRing {
    seed: u64,
    vnodes: usize,
    nodes: Vec<String>,
    /// Sorted `(point, index into nodes)`.
    points: Vec<(u64, u32)>,
}

impl HashRing {
    /// An empty ring. `vnodes` is clamped to at least 1.
    pub fn new(seed: u64, vnodes: usize) -> Self {
        HashRing { seed, vnodes: vnodes.max(1), nodes: Vec::new(), points: Vec::new() }
    }

    /// The ring's placement seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Virtual nodes per physical node.
    pub fn vnodes(&self) -> usize {
        self.vnodes
    }

    /// Node names currently on the ring (insertion order).
    pub fn nodes(&self) -> &[String] {
        &self.nodes
    }

    /// Number of nodes on the ring.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when no nodes are on the ring.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// True if `name` is on the ring.
    pub fn contains(&self, name: &str) -> bool {
        self.nodes.iter().any(|n| n == name)
    }

    /// Adds a node; returns false (unchanged) if already present.
    pub fn add_node(&mut self, name: &str) -> bool {
        if self.contains(name) {
            return false;
        }
        self.nodes.push(name.to_string());
        self.rebuild();
        true
    }

    /// Removes a node; returns false if it was not on the ring.
    pub fn remove_node(&mut self, name: &str) -> bool {
        let Some(pos) = self.nodes.iter().position(|n| n == name) else {
            return false;
        };
        self.nodes.remove(pos);
        self.rebuild();
        true
    }

    fn rebuild(&mut self) {
        self.points.clear();
        for (idx, name) in self.nodes.iter().enumerate() {
            for v in 0..self.vnodes {
                self.points.push((self.vnode_point(name, v as u64), idx as u32));
            }
        }
        // Sort by point; ties (astronomically unlikely with SHA-256) break
        // by node index so the order is still deterministic.
        self.points.sort_unstable();
    }

    fn vnode_point(&self, name: &str, vnode: u64) -> u64 {
        let mut buf = Vec::with_capacity(VNODE_DOMAIN.len() + 8 + 4 + name.len() + 8);
        buf.extend_from_slice(VNODE_DOMAIN);
        buf.extend_from_slice(&self.seed.to_be_bytes());
        name.to_string().write(&mut buf);
        buf.extend_from_slice(&vnode.to_be_bytes());
        let digest = Sha256::digest(&buf);
        u64::from_be_bytes(digest[..8].try_into().expect("8-byte prefix"))
    }

    /// The key's position on the circle, hashed from a stack buffer.
    pub fn key_point(&self, key: &ObjectKey) -> u64 {
        let mut buf = [0u8; KEY_DOMAIN.len() + 8 + ObjectKey::WIRE_LEN];
        let (domain, rest) = buf.split_at_mut(KEY_DOMAIN.len());
        domain.copy_from_slice(KEY_DOMAIN);
        rest[..8].copy_from_slice(&self.seed.to_be_bytes());
        rest[8..].copy_from_slice(&key.to_wire_bytes());
        let digest = Sha256::digest(&buf);
        u64::from_be_bytes(digest[..8].try_into().expect("8-byte prefix"))
    }

    /// Appends to `out` the first `r` distinct nodes clockwise of the key's
    /// point, in preference order, as indices into [`Self::nodes`]. Fewer
    /// than `r` are appended when the ring is smaller than `r`. The one
    /// placement walk: it allocates nothing beyond what `out` needs.
    pub fn place(&self, key: &ObjectKey, r: usize, out: &mut Vec<usize>) {
        let want = r.min(self.nodes.len());
        if want == 0 {
            return;
        }
        let start = out.len();
        let point = self.key_point(key);
        let first = self.points.partition_point(|(p, _)| *p < point);
        let (after, before) = self.points.split_at(first);
        for &(_, idx) in before.iter().chain(after) {
            // `r` is a replication factor, so this scan stays short.
            if !out[start..].contains(&(idx as usize)) {
                out.push(idx as usize);
                if out.len() - start == want {
                    break;
                }
            }
        }
    }

    /// The first `r` distinct nodes clockwise of the key's point, in
    /// preference order, by name: [`Self::place`], named. Fewer than `r`
    /// are returned when the ring is smaller than `r`.
    pub fn replicas(&self, key: &ObjectKey, r: usize) -> Vec<&str> {
        let mut idx = Vec::with_capacity(r.min(self.nodes.len()));
        self.place(key, r, &mut idx);
        idx.into_iter().map(|i| self.nodes[i].as_str()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    fn key(i: u64) -> ObjectKey {
        ObjectKey::data(i, [(i % 251) as u8; 16], (i % 7) as u32)
    }

    fn ring3() -> HashRing {
        let mut ring = HashRing::new(42, 64);
        ring.add_node("alpha");
        ring.add_node("beta");
        ring.add_node("gamma");
        ring
    }

    #[test]
    fn placement_is_deterministic() {
        let a = ring3();
        let mut b = HashRing::new(42, 64);
        // Same node set added in a different order places identically.
        b.add_node("gamma");
        b.add_node("alpha");
        b.add_node("beta");
        for i in 0..200 {
            assert_eq!(a.replicas(&key(i), 2), b.replicas(&key(i), 2), "key {i}");
        }
    }

    #[test]
    fn different_seeds_place_differently() {
        let a = ring3();
        let mut b = HashRing::new(43, 64);
        for n in a.nodes() {
            b.add_node(n);
        }
        let moved = (0..200).filter(|i| a.replicas(&key(*i), 1) != b.replicas(&key(*i), 1)).count();
        assert!(moved > 0, "a different seed must shuffle placement");
    }

    #[test]
    fn replicas_are_distinct_and_clamped() {
        let ring = ring3();
        for i in 0..100 {
            let reps = ring.replicas(&key(i), 2);
            assert_eq!(reps.len(), 2);
            assert_ne!(reps[0], reps[1]);
            // Asking for more replicas than nodes clamps to the node count.
            let all = ring.replicas(&key(i), 10);
            assert_eq!(all.len(), 3);
            // The preference order extends the shorter list.
            assert_eq!(&all[..2], &reps[..]);
        }
        assert!(HashRing::new(1, 8).replicas(&key(1), 2).is_empty());
    }

    #[test]
    fn load_is_roughly_balanced() {
        let ring = ring3();
        let mut counts: BTreeMap<&str, usize> = BTreeMap::new();
        let n = 3000;
        for i in 0..n {
            *counts.entry(ring.replicas(&key(i), 1)[0]).or_default() += 1;
        }
        for (node, count) in &counts {
            let share = *count as f64 / n as f64;
            assert!(
                (0.15..=0.55).contains(&share),
                "node {node} owns {share:.2} of keys — vnodes not spreading load"
            );
        }
    }

    #[test]
    fn join_moves_only_a_fraction_of_keys() {
        let ring = ring3();
        let mut grown = ring.clone();
        grown.add_node("delta");
        let n = 2000;
        let moved =
            (0..n).filter(|i| ring.replicas(&key(*i), 1) != grown.replicas(&key(*i), 1)).count();
        let share = moved as f64 / n as f64;
        // Ideal is 1/4; consistent hashing should stay well under half.
        assert!(share < 0.45, "join moved {share:.2} of primaries");
        assert!(moved > 0, "a new node must take some keys");
        // Keys that moved, moved TO the new node (minimal disruption).
        for i in 0..n {
            let before = ring.replicas(&key(i), 1);
            let after = grown.replicas(&key(i), 1);
            if before != after {
                assert_eq!(after[0], "delta", "key {i} moved between old nodes");
            }
        }
    }

    #[test]
    fn leave_reassigns_only_the_departed_nodes_keys() {
        let ring = ring3();
        let mut shrunk = ring.clone();
        assert!(shrunk.remove_node("beta"));
        assert!(!shrunk.remove_node("beta"));
        for i in 0..500 {
            let before = ring.replicas(&key(i), 1);
            let after = shrunk.replicas(&key(i), 1);
            if before[0] != "beta" {
                assert_eq!(before, after, "key {i} not on beta must not move");
            } else {
                assert_ne!(after[0], "beta");
            }
        }
    }

    /// Placement as it was first written, by name: every vnode point
    /// sorted, the key hashed from a heap buffer, then a walk clockwise that
    /// collects distinct names.
    fn placement_by_name(ring: &HashRing, key: &ObjectKey, r: usize) -> Vec<String> {
        let mut points: Vec<(u64, &str)> = Vec::new();
        for name in ring.nodes() {
            for v in 0..ring.vnodes() {
                points.push((ring.vnode_point(name, v as u64), name));
            }
        }
        points.sort_unstable();
        let mut buf = KEY_DOMAIN.to_vec();
        buf.extend_from_slice(&ring.seed().to_be_bytes());
        key.write(&mut buf);
        let point = u64::from_be_bytes(Sha256::digest(&buf)[..8].try_into().unwrap());
        let start = points.partition_point(|(p, _)| *p < point);
        let mut out: Vec<String> = Vec::new();
        for i in 0..points.len() {
            let name = points[(start + i) % points.len()].1;
            if out.len() < r && !out.iter().any(|n| n == name) {
                out.push(name.to_string());
            }
        }
        out
    }

    #[test]
    fn placement_walk_matches_the_name_based_placement() {
        let mut state = 0x5EED_0F41_A6C3_u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut placed = 0;
        for round in 0..40 {
            let mut ring = HashRing::new(next(), 1 + (next() % 24) as usize);
            // A random node set, grown and shrunk in a random order.
            for _ in 0..next() % 9 {
                ring.add_node(&format!("node-{}", next() % 12));
            }
            for _ in 0..next() % 3 {
                ring.remove_node(&format!("node-{}", next() % 12));
            }
            let mut out = vec![usize::MAX]; // `place` appends after what is there
            for _ in 0..50 {
                let key = ObjectKey::data(next(), [(next() % 251) as u8; 16], (next() % 5) as u32);
                let r = 1 + (next() % 5) as usize;
                let want = placement_by_name(&ring, &key, r);
                assert_eq!(ring.replicas(&key, r), want, "round {round}, r {r}");
                out.truncate(1);
                ring.place(&key, r, &mut out);
                let named: Vec<&str> = out[1..].iter().map(|i| ring.nodes()[*i].as_str()).collect();
                assert_eq!(named, want, "round {round}, r {r}");
                placed += want.len();
            }
        }
        assert!(placed > 0);
    }

    #[test]
    fn duplicate_add_is_rejected() {
        let mut ring = ring3();
        assert!(!ring.add_node("alpha"));
        assert_eq!(ring.len(), 3);
    }
}
