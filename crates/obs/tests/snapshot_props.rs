//! Property tests for the snapshot algebra: `delta` and `merge` are the
//! primitives every live consumer (the daemon's separability contract,
//! `mkss-top`'s rate frames) leans on, so their laws get checked against
//! randomized multi-shard registries, not just hand-picked examples.

use std::sync::Arc;

use mkss_obs::{CounterId, HistogramId, MetricsSnapshot, Registry};
use proptest::prelude::*;

/// One randomized increment stream: catalog slots (`which`) paired with
/// amounts, zipped to the shorter of the two generated vectors.
fn events(which: &[usize], amounts: &[u64]) -> Vec<(usize, u64)> {
    which
        .iter()
        .zip(amounts.iter())
        .map(|(&w, &a)| (w, a))
        .collect()
}

/// Apply the increment stream round-robin across the registry's shards
/// (counter bump plus a histogram observation per event), then snapshot.
fn snapshot_from(shards: usize, increments: &[(usize, u64)]) -> MetricsSnapshot {
    let registry = Arc::new(Registry::new(shards));
    for (i, &(which, amount)) in increments.iter().enumerate() {
        let handle = registry.handle_at(i);
        handle.incr(CounterId::ALL[which % CounterId::COUNT], amount);
        handle.observe(HistogramId::ALL[which % HistogramId::COUNT], amount);
    }
    registry.snapshot()
}

proptest! {
    /// A delta never has a cell exceeding its minuend, and deltas against
    /// an arbitrary (possibly *later*) snapshot saturate at zero instead
    /// of wrapping.
    #[test]
    fn delta_saturates_and_never_exceeds_minuend(
        shards in 1usize..6,
        which_a in proptest::collection::vec(0usize..64, 0..40),
        amounts_a in proptest::collection::vec(0u64..1000, 0..40),
        which_b in proptest::collection::vec(0usize..64, 0..40),
        amounts_b in proptest::collection::vec(0u64..1000, 0..40),
    ) {
        let a = snapshot_from(shards, &events(&which_a, &amounts_a));
        let b = snapshot_from(shards, &events(&which_b, &amounts_b));
        let d = a.delta(&b);
        // No cell of the delta exceeds the corresponding cell of `a`.
        prop_assert!(a.is_progression_of(&d));
        // Deltas against oneself or anything later are all-zero.
        prop_assert!(a.delta(&a).is_zero());
        let mut later = a.clone();
        later.merge(&b);
        prop_assert!(a.delta(&later).is_zero());
    }

    /// `merge` is commutative and associative — shard fold order and
    /// fanout never change totals.
    #[test]
    fn merge_is_commutative_and_associative(
        which_a in proptest::collection::vec(0usize..64, 0..30),
        amounts_a in proptest::collection::vec(0u64..1000, 0..30),
        which_b in proptest::collection::vec(0usize..64, 0..30),
        amounts_b in proptest::collection::vec(0u64..1000, 0..30),
        which_c in proptest::collection::vec(0usize..64, 0..30),
        amounts_c in proptest::collection::vec(0u64..1000, 0..30),
    ) {
        let a = snapshot_from(1, &events(&which_a, &amounts_a));
        let b = snapshot_from(2, &events(&which_b, &amounts_b));
        let c = snapshot_from(3, &events(&which_c, &amounts_c));

        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        prop_assert_eq!(&ab, &ba);

        let mut ab_c = ab.clone();
        ab_c.merge(&c);
        let mut bc = b.clone();
        bc.merge(&c);
        let mut a_bc = a.clone();
        a_bc.merge(&bc);
        prop_assert_eq!(ab_c, a_bc);
    }

    /// delta ∘ merge consistency: for a monotone chain `base ≤ mid ≤ top`
    /// built by merging on increments, adjacent deltas recompose to the
    /// full-span delta, and `base + (top − base)` reconstructs `top`.
    #[test]
    fn deltas_recompose_across_a_monotone_chain(
        shards in 1usize..6,
        which_base in proptest::collection::vec(0usize..64, 0..30),
        amounts_base in proptest::collection::vec(0u64..1000, 0..30),
        which_mid in proptest::collection::vec(0usize..64, 0..30),
        amounts_mid in proptest::collection::vec(0u64..1000, 0..30),
        which_top in proptest::collection::vec(0usize..64, 0..30),
        amounts_top in proptest::collection::vec(0u64..1000, 0..30),
    ) {
        let base = snapshot_from(shards, &events(&which_base, &amounts_base));
        let mut mid = base.clone();
        mid.merge(&snapshot_from(shards, &events(&which_mid, &amounts_mid)));
        let mut top = mid.clone();
        top.merge(&snapshot_from(shards, &events(&which_top, &amounts_top)));

        prop_assert!(mid.is_progression_of(&base));
        prop_assert!(top.is_progression_of(&mid));

        let mut recomposed = mid.delta(&base);
        recomposed.merge(&top.delta(&mid));
        prop_assert_eq!(&recomposed, &top.delta(&base));

        let mut rebuilt = base.clone();
        rebuilt.merge(&top.delta(&base));
        prop_assert_eq!(rebuilt, top);
    }

    /// Sharding is invisible: the same increment stream lands on the same
    /// snapshot no matter how many shards spread it.
    #[test]
    fn shard_count_never_changes_the_snapshot(
        which in proptest::collection::vec(0usize..64, 0..40),
        amounts in proptest::collection::vec(0u64..1000, 0..40),
    ) {
        let stream = events(&which, &amounts);
        let one = snapshot_from(1, &stream);
        for shards in [2usize, 3, 8] {
            prop_assert_eq!(&snapshot_from(shards, &stream), &one);
        }
    }
}
