//! Spatial partitioning: carving disjoint cluster sets for co-resident
//! tenants.
//!
//! The NoC addresses clusters by bitmask ([`ClusterMask`]), so a
//! "partition" is any subset of clusters — contiguity buys nothing.
//! The allocator therefore never fragments: a request for `m` clusters
//! succeeds exactly when `m` clusters are free, and carved partitions
//! are disjoint by construction (each grab removes the bits from the
//! free mask).

use mpsoc_noc::ClusterMask;
use serde::{Deserialize, Serialize};

/// Tracks which clusters are free and hands out disjoint partitions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Allocator {
    total: usize,
    free: ClusterMask,
}

impl Allocator {
    /// An allocator over clusters `0..total`, all free.
    ///
    /// # Panics
    ///
    /// Panics when `total` is zero or exceeds the 64-cluster mask width.
    pub fn new(total: usize) -> Self {
        assert!(
            (1..=64).contains(&total),
            "cluster count must be in 1..=64, got {total}"
        );
        Allocator {
            total,
            free: ClusterMask::first(total),
        }
    }

    /// Takes the free clusters of `mask` out of the free set (a
    /// quarantine). Carved clusters of `mask` are unaffected: the
    /// caller, which owns the quarantined set, leaves them out when it
    /// releases their partition, so a retired cluster is never granted
    /// again. A fully retired machine never grants anything — every job
    /// must go to the host or be rejected. Idempotent.
    pub fn retire(&mut self, mask: ClusterMask) {
        self.free = self.free.without(mask);
    }

    /// The machine size.
    pub fn total(&self) -> usize {
        self.total
    }

    /// Clusters currently free.
    pub fn free_count(&self) -> usize {
        self.free.count()
    }

    /// The free set itself.
    pub fn free_mask(&self) -> ClusterMask {
        self.free
    }

    /// Carves a partition of exactly `m` clusters from the free set
    /// (lowest indices first), or `None` if fewer than `m` are free.
    /// The returned mask is disjoint from every outstanding partition.
    pub fn carve(&mut self, m: usize) -> Option<ClusterMask> {
        if m == 0 || m > self.free.count() {
            return None;
        }
        let mut grant = ClusterMask::EMPTY;
        for cluster in self.free.iter().take(m) {
            grant.insert(cluster);
        }
        self.free = ClusterMask::from_bits(self.free.bits() & !grant.bits());
        Some(grant)
    }

    /// Returns a partition to the free set.
    ///
    /// # Panics
    ///
    /// Panics when `mask` overlaps the free set or reaches outside the
    /// machine — both indicate a double-release or a foreign mask, which
    /// would silently corrupt the disjointness invariant.
    pub fn release(&mut self, mask: ClusterMask) {
        assert!(
            mask.intersection(self.free).is_empty(),
            "releasing clusters that are already free"
        );
        assert!(
            mask.highest().map_or(true, |h| h < self.total),
            "releasing clusters outside the machine"
        );
        self.free = self.free.union(mask);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn carve_grants_lowest_free_clusters() {
        let mut a = Allocator::new(8);
        assert_eq!(a.carve(3), Some(ClusterMask::first(3)));
        assert_eq!(a.free_count(), 5);
        let second = a.carve(2).unwrap();
        assert_eq!(second.iter().collect::<Vec<_>>(), vec![3, 4]);
    }

    #[test]
    fn carve_fails_when_short() {
        let mut a = Allocator::new(4);
        assert!(a.carve(5).is_none());
        assert!(a.carve(0).is_none());
        let all = a.carve(4).unwrap();
        assert!(a.carve(1).is_none());
        a.release(all);
        assert_eq!(a.free_count(), 4);
    }

    #[test]
    fn release_restores_holes() {
        let mut a = Allocator::new(8);
        let first = a.carve(2).unwrap();
        let second = a.carve(2).unwrap();
        a.release(first);
        // The freed low clusters are granted again before higher ones.
        let third = a.carve(3).unwrap();
        assert_eq!(third.iter().collect::<Vec<_>>(), vec![0, 1, 4]);
        assert!(third.intersection(second).is_empty());
    }

    #[test]
    fn retire_removes_free_clusters_immediately() {
        let mut a = Allocator::new(4);
        a.retire(ClusterMask::first(2));
        assert_eq!(a.free_count(), 2);
        let grant = a.carve(2).unwrap();
        assert_eq!(grant.iter().collect::<Vec<_>>(), vec![2, 3]);
        assert!(a.carve(1).is_none());
    }

    #[test]
    fn retiring_a_carved_cluster_leaves_it_busy() {
        let mut a = Allocator::new(4);
        let grant = a.carve(2).unwrap(); // clusters 0,1 busy
        a.retire(ClusterMask::single(0));
        a.retire(ClusterMask::single(0));
        assert_eq!(a.free_count(), 2, "only free clusters leave the set");
        // The owner of the quarantined set releases the healthy rest.
        a.release(grant.without(ClusterMask::single(0)));
        assert_eq!(a.free_count(), 3);
        let next = a.carve(3).unwrap();
        assert!(!next.contains(0));
    }

    #[test]
    #[should_panic(expected = "already free")]
    fn double_release_panics() {
        let mut a = Allocator::new(4);
        let mask = a.carve(2).unwrap();
        a.release(mask);
        a.release(mask);
    }
}
