//! The consistent-hash ring that gives each replica a stable shard of
//! the artifact-cache keyspace.
//!
//! Every replica contributes [`VNODES`] points (virtual nodes) hashed
//! from its address, sorted by hash value; a key routes to the owner of
//! the first point at or after the key's hash, wrapping at the top.
//! Removing a replica removes only its points, so exactly the keys it
//! owned remap (to the next point clockwise) and every other replica's
//! shard — and therefore its warm memory + disk caches — is untouched.
//! That stability is the whole reason for a ring instead of
//! `hash % n`, and `remapping_is_limited_to_the_removed_replica` below
//! pins it down.
//!
//! The hash is FNV-1a (64-bit): deterministic across processes and
//! platforms, so a router restart reproduces the same assignment and a
//! fleet of routers agrees without coordination.

use dsp_trace::fnv1a;

/// Virtual nodes per replica. 64 keeps the largest/smallest shard
/// ratio under ~2× for small fleets while the ring stays tiny
/// (`replicas × 64` points, binary-searched per request).
pub const VNODES: usize = 64;

/// The shard key of one unit of cacheable work — the routing-side
/// mirror of the engine's artifact cache key (source, config,
/// strategy). The machine config is homogeneous across a fleet (every
/// replica runs the same default machine), so it contributes a
/// constant and the wire key is `strategy \x1f source`.
#[must_use]
pub fn shard_key(source: &str, strategy: &str) -> u64 {
    let mut bytes = Vec::with_capacity(strategy.len() + 1 + source.len());
    bytes.extend_from_slice(strategy.as_bytes());
    bytes.push(0x1f);
    bytes.extend_from_slice(source.as_bytes());
    fnv1a(&bytes)
}

/// An immutable ring over the currently-ready replicas. Rebuild (cheap)
/// on any membership change; route (binary search) per request.
#[derive(Debug, Clone)]
pub struct Ring {
    /// `(point hash, replica index)`, sorted by hash.
    points: Vec<(u64, usize)>,
}

impl Ring {
    /// Build a ring containing `VNODES` points for every index in
    /// `members`. Indexes are the caller's replica-table positions;
    /// `labels` supplies the stable per-replica identity (its address)
    /// that the point hashes derive from, so a replica hashes to the
    /// same points no matter which others are present.
    #[must_use]
    pub fn build(labels: &[String], members: &[usize]) -> Ring {
        let mut points = Vec::with_capacity(members.len() * VNODES);
        for &idx in members {
            let label = &labels[idx];
            for v in 0..VNODES {
                let point = fnv1a(format!("{label}#{v}").as_bytes());
                points.push((point, idx));
            }
        }
        points.sort_unstable();
        Ring { points }
    }

    /// True when no replica is in the ring.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// The replica owning `key`: the first point clockwise from the
    /// key's hash. `None` only for an empty ring.
    #[must_use]
    pub fn route(&self, key: u64) -> Option<usize> {
        if self.points.is_empty() {
            return None;
        }
        let at = self.points.partition_point(|&(h, _)| h < key);
        let (_, idx) = self.points[at % self.points.len()];
        Some(idx)
    }

    /// Distinct replicas in ring order starting at `key`'s owner — the
    /// failover candidate sequence: the primary first, then each next
    /// clockwise owner. Every ready replica appears exactly once.
    #[must_use]
    pub fn candidates(&self, key: u64) -> Vec<usize> {
        let mut seen = Vec::new();
        if self.points.is_empty() {
            return seen;
        }
        let start = self.points.partition_point(|&(h, _)| h < key);
        for i in 0..self.points.len() {
            let (_, idx) = self.points[(start + i) % self.points.len()];
            if !seen.contains(&idx) {
                seen.push(idx);
            }
        }
        seen
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn labels(n: usize) -> Vec<String> {
        (0..n).map(|i| format!("127.0.0.1:90{i:02}")).collect()
    }

    #[test]
    fn routing_is_deterministic_and_total() {
        let labels = labels(3);
        let ring = Ring::build(&labels, &[0, 1, 2]);
        for k in 0..1000u64 {
            let key = fnv1a(&k.to_le_bytes());
            let a = ring.route(key).expect("non-empty ring routes");
            let b = ring.route(key).expect("non-empty ring routes");
            assert_eq!(a, b);
            assert!(a < 3);
        }
        assert!(Ring::build(&labels, &[]).route(7).is_none());
    }

    #[test]
    fn shards_are_reasonably_balanced() {
        let labels = labels(3);
        let ring = Ring::build(&labels, &[0, 1, 2]);
        let mut counts = [0usize; 3];
        for k in 0..30_000u64 {
            counts[ring.route(fnv1a(&k.to_le_bytes())).unwrap()] += 1;
        }
        for &c in &counts {
            // Each replica owns between ~1/6 and ~2/3 of a 3-way split;
            // VNODES=64 lands comfortably inside in practice.
            assert!(c > 30_000 / 6, "shard too small: {counts:?}");
            assert!(c < 30_000 * 2 / 3, "shard too large: {counts:?}");
        }
    }

    #[test]
    fn remapping_is_limited_to_the_removed_replica() {
        // THE consistent-hashing property the cache tier depends on:
        // ejecting one replica must remap only the keys it owned.
        let labels = labels(3);
        let full = Ring::build(&labels, &[0, 1, 2]);
        let without_1 = Ring::build(&labels, &[0, 2]);
        let mut moved = 0usize;
        for k in 0..10_000u64 {
            let key = fnv1a(&k.to_le_bytes());
            let before = full.route(key).unwrap();
            let after = without_1.route(key).unwrap();
            if before == 1 {
                moved += 1;
                assert_ne!(after, 1);
            } else {
                assert_eq!(
                    before, after,
                    "key {k} moved off a surviving replica — ring is not consistent"
                );
            }
        }
        assert!(moved > 0, "replica 1 owned no keys — suspicious ring");
    }

    #[test]
    fn readmission_restores_the_original_assignment() {
        let labels = labels(3);
        let full = Ring::build(&labels, &[0, 1, 2]);
        let rebuilt = Ring::build(&labels, &[2, 0, 1]); // order must not matter
        for k in 0..2_000u64 {
            let key = fnv1a(&k.to_le_bytes());
            assert_eq!(full.route(key), rebuilt.route(key));
        }
    }

    #[test]
    fn candidates_start_at_the_owner_and_cover_everyone() {
        let labels = labels(3);
        let ring = Ring::build(&labels, &[0, 1, 2]);
        for k in 0..200u64 {
            let key = fnv1a(&k.to_le_bytes());
            let cands = ring.candidates(key);
            assert_eq!(cands.len(), 3);
            assert_eq!(cands[0], ring.route(key).unwrap());
            let mut sorted = cands.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, vec![0, 1, 2]);
        }
    }

    #[test]
    fn shard_key_separates_strategy_from_source() {
        // `cb` + `x` must not collide with `c` + `bx`: the separator
        // byte keeps the key injective over its two fields.
        assert_ne!(shard_key("x", "cb"), shard_key("bx", "c"));
        assert_eq!(shard_key("src", "cb"), shard_key("src", "cb"));
    }

    #[test]
    fn placement_is_pinned_to_absolute_owners() {
        // Relative properties above survive a changed hash; a restarted
        // fleet's warm caches do not. Pin the owners themselves.
        let ring = Ring::build(&labels(3), &[0, 1, 2]);
        let owners: Vec<usize> = (0..8)
            .map(|i| {
                let source = format!("int x; void main() {{ x = {i}; }}");
                let strategy = ["cb", "dup", "ideal", "single"][i % 4];
                ring.route(shard_key(&source, strategy)).unwrap()
            })
            .collect();
        assert_eq!(owners, [2, 2, 0, 0, 2, 2, 0, 2]);
        assert_eq!(shard_key("x", "cb"), 0x9b90_ef90_d9e8_a2df);
    }
}
