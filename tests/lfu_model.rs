//! Model-based test: `WindowedLfu` against a brute-force reference.
//!
//! The reference recomputes, after every access, the windowed counts from
//! the raw event list and checks the waterline invariant the incremental
//! implementation must maintain: *no admissible candidate out-counts a
//! cached program by the swap margin*, and capacity is never exceeded.

use proptest::prelude::*;

use cablevod_cache::strategy::CacheStrategy;
use cablevod_cache::WindowedLfu;
use cablevod_hfc::ids::ProgramId;
use cablevod_hfc::units::{SimDuration, SimTime};
use std::collections::HashMap;

/// Brute-force windowed counts: events within `(now - window, now]`.
fn reference_counts(events: &[(u64, u32)], now: u64, window: u64) -> HashMap<u32, u32> {
    let mut counts = HashMap::new();
    for &(t, p) in events {
        let expired = match now.checked_sub(window) {
            Some(cutoff) => t <= cutoff,
            None => false,
        };
        if t <= now && !expired {
            *counts.entry(p).or_insert(0) += 1;
        }
    }
    counts
}

/// Replays `accesses` (sorted by time, as the engine feeds them) and checks
/// the model's invariants after every one.
fn check_against_model(
    accesses: &[(u64, u32)],
    capacity: u64,
    window: SimDuration,
    costs: &[u32],
) -> Result<(), String> {
    let programs = costs.len() as u32;
    let mut lfu = WindowedLfu::new(capacity, window);
    let mut ops = Vec::new();
    let mut events: Vec<(u64, u32)> = Vec::new();
    let mut shadow: std::collections::HashSet<u32> = std::collections::HashSet::new();

    // Accesses must be time-ordered, as in the engine.
    let mut sorted = accesses.to_vec();
    sorted.sort_unstable();

    for (t, p) in sorted {
        events.push((t, p));
        ops.clear();
        lfu.on_access(
            ProgramId::new(p),
            costs[p as usize],
            SimTime::from_secs(t),
            &mut ops,
        );

        // Replay ops against the shadow set.
        for op in &ops {
            match op {
                cablevod_cache::CacheOp::Admit(q) => {
                    prop_assert!(shadow.insert(q.value()), "double admit {q}");
                }
                cablevod_cache::CacheOp::Evict(q) => {
                    prop_assert!(shadow.remove(&q.value()), "evict of uncached {q}");
                }
            }
        }

        // Invariant 1: capacity.
        let used: u64 = shadow.iter().map(|&q| u64::from(costs[q as usize])).sum();
        prop_assert_eq!(used, lfu.used_slots());
        prop_assert!(used <= capacity, "capacity exceeded: {used} > {capacity}");

        // Invariant 2: contains() agrees with the replayed ops.
        for q in 0..programs {
            prop_assert_eq!(
                lfu.contains(ProgramId::new(q)),
                shadow.contains(&q),
                "contains mismatch for prog{}",
                q
            );
        }

        // Invariant 3: counts match the brute-force window.
        let reference = reference_counts(&events, t, window.as_secs());
        for q in 0..programs {
            let expected = reference.get(&q).copied().unwrap_or(0);
            prop_assert_eq!(
                lfu.count_of(ProgramId::new(q)),
                // Entries drop to 0 when evicted and count-0; either way
                // the reported count must never exceed the true count.
                expected,
                "count mismatch for prog{} at t={}",
                q,
                t
            );
        }

        // Invariant 4 (waterline): no uncached program with a count
        // exceeding (cached count + margin) may fit in the free space
        // left by evicting only strictly-dominated victims. We check
        // the simplest sufficient condition: if a candidate out-counts
        // the weakest cached program by >= the margin and its cost fits
        // after evicting that victim alone, it should have been
        // admitted.
        if let Some((&weak, &weak_count)) = reference
            .iter()
            .filter(|(q, _)| shadow.contains(q))
            .min_by_key(|(_, &c)| c)
        {
            for (&cand, &cand_count) in reference.iter().filter(|(q, _)| !shadow.contains(q)) {
                let fits = used - u64::from(costs[weak as usize]) + u64::from(costs[cand as usize])
                    <= capacity;
                if cand_count >= weak_count + 2 && fits {
                    prop_assert!(
                        false,
                        "waterline violated at t={t}: candidate prog{cand} \
                         (count {cand_count}) dominates cached prog{weak} \
                         (count {weak_count}) and fits"
                    );
                }
            }
        }

        // Invariant 5 (free space): with fewer programs than rebalance
        // rounds every candidate is visited, so none that fits the free
        // space is left outside — however many bigger, better-ranked
        // candidates were blocked ahead of it.
        for &cand in reference.keys().filter(|q| !shadow.contains(q)) {
            prop_assert!(
                used + u64::from(costs[cand as usize]) > capacity,
                "free space unused at t={t}: candidate prog{cand} (cost {}) fits {} free slots",
                costs[cand as usize],
                capacity - used
            );
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    #[test]
    fn windowed_lfu_matches_reference_model(
        accesses in prop::collection::vec((0u64..50_000, 0u32..12), 1..300),
        capacity in 2u64..12,
        window_hours in 0u64..8,
        costs in prop::collection::vec(1u32..4, 12),
    ) {
        check_against_model(&accesses, capacity, SimDuration::from_hours(window_hours), &costs)?;
    }

    /// Mixed costs whose smallest is 2: a full-ish cache is left with free
    /// space both below the smallest cost (0 or 1 slots, where the
    /// rebalance may stop at its first blocked candidate) and at or above
    /// it (where it must keep looking for a candidate that fits).
    #[test]
    fn windowed_lfu_matches_reference_model_with_mixed_costs(
        accesses in prop::collection::vec((0u64..50_000, 0u32..12), 1..300),
        capacity in 4u64..24,
        window_hours in 1u64..8,
        costs in prop::collection::vec(2u32..9, 12),
    ) {
        check_against_model(&accesses, capacity, SimDuration::from_hours(window_hours), &costs)?;
    }
}
