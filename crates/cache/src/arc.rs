//! Adaptive Replacement Cache (Megiddo & Modha, FAST '03), at program
//! granularity with slot-cost accounting.
//!
//! ARC splits the cache into a recency list `T1` (programs seen once
//! since admission) and a frequency list `T2` (programs seen at least
//! twice), plus two *ghost* lists `B1`/`B2` remembering recently evicted
//! ids without content. A miss that revives a `B1` ghost is evidence the
//! recency side was sized too small and grows the adaptive target `p`; a
//! `B2` revival shrinks it. The classic formulation is page-granular;
//! here lists are slot-cost accounted (a program occupies `cost` slots)
//! and `p` is a slot target, so the replace rule compares occupied slots
//! against `p` rather than entry counts. Ghost lists are entry-count
//! bounded (content-free ids), by the configured bound or the slot
//! capacity when the bound is zero.
//!
//! Each of the four lists is the one `RecencyList` LRU keeps: every
//! insertion lands at a list's new end, so its order is insertion order,
//! an access neither hashes nor walks a tree, and identical access
//! sequences produce identical op streams on every driver combination.

use cablevod_hfc::ids::ProgramId;
use cablevod_hfc::units::SimTime;

use crate::lru::RecencyList;
use crate::strategy::{CacheOp, CacheStrategy};

/// One resident list (`T1` or `T2`): recency-ordered, slot-accounted.
#[derive(Debug)]
struct Resident {
    list: RecencyList,
    len: usize,
    used: u64,
}

impl Resident {
    fn new() -> Self {
        Resident {
            list: RecencyList::new(),
            len: 0,
            used: 0,
        }
    }

    fn cost_of(&self, program: ProgramId) -> Option<u32> {
        self.list.cost_of(program)
    }

    fn insert(&mut self, program: ProgramId, cost: u32) {
        self.list.push_newest(program, cost);
        self.len += 1;
        self.used += u64::from(cost);
    }

    fn remove(&mut self, program: ProgramId) -> Option<u32> {
        self.list.cost_of(program)?;
        let cost = self.list.unlink(program);
        self.len -= 1;
        self.used -= u64::from(cost);
        Some(cost)
    }

    fn lru(&self) -> Option<ProgramId> {
        self.list.oldest()
    }
}

/// One ghost list (`B1` or `B2`): recently evicted ids, no content.
#[derive(Debug)]
struct Ghost {
    list: RecencyList,
    len: usize,
}

impl Ghost {
    fn new() -> Self {
        Ghost {
            list: RecencyList::new(),
            len: 0,
        }
    }

    /// Lists `program` as the newest ghost, moving it if it is listed.
    fn insert(&mut self, program: ProgramId) {
        self.remove(program);
        self.list.push_newest(program, 0);
        self.len += 1;
    }

    fn remove(&mut self, program: ProgramId) -> bool {
        let listed = self.list.cost_of(program).is_some();
        if listed {
            self.list.unlink(program);
            self.len -= 1;
        }
        listed
    }

    fn trim(&mut self, bound: usize) {
        while self.len > bound {
            self.list.pop_oldest().expect("non-empty ghost list");
            self.len -= 1;
        }
    }

    fn len(&self) -> usize {
        self.len
    }
}

/// The ARC strategy (see the module docs).
#[derive(Debug)]
pub struct ArcCache {
    capacity: u64,
    /// Ghost-list entry bound (per list).
    ghost_bound: usize,
    /// Adaptive slot target for `T1`, in `[0, capacity]`.
    p: u64,
    t1: Resident,
    t2: Resident,
    b1: Ghost,
    b2: Ghost,
}

impl ArcCache {
    /// Creates an ARC with `capacity_slots` capacity. `ghost` bounds each
    /// ghost list's entry count; `0` derives the bound from the slot
    /// capacity (the classic "ghosts mirror the cache" configuration).
    pub fn new(capacity_slots: u64, ghost: u32) -> Self {
        let ghost_bound = if ghost == 0 {
            usize::try_from(capacity_slots).unwrap_or(usize::MAX)
        } else {
            ghost as usize
        };
        ArcCache {
            capacity: capacity_slots,
            ghost_bound,
            p: 0,
            t1: Resident::new(),
            t2: Resident::new(),
            b1: Ghost::new(),
            b2: Ghost::new(),
        }
    }

    /// The adaptive recency target, in slots (test/telemetry hook).
    pub fn recency_target(&self) -> u64 {
        self.p
    }

    /// Evicts until `cost` more slots fit, steering victims by the
    /// adaptive target: `T1` gives way while it holds more than `p`
    /// slots (or exactly `p` on a `B2` revival), `T2` otherwise. Victims
    /// become ghosts on the matching side.
    fn replace(&mut self, cost: u32, in_b2: bool, ops: &mut Vec<CacheOp>) {
        while self.t1.used + self.t2.used + u64::from(cost) > self.capacity {
            let from_t1 = if self.t1.len == 0 {
                false
            } else if self.t2.len == 0 {
                true
            } else {
                self.t1.used > self.p || (in_b2 && self.t1.used == self.p)
            };
            if from_t1 {
                let victim = self.t1.lru().expect("T1 non-empty");
                self.t1.remove(victim);
                self.b1.insert(victim);
                ops.push(CacheOp::Evict(victim));
            } else if let Some(victim) = self.t2.lru() {
                self.t2.remove(victim);
                self.b2.insert(victim);
                ops.push(CacheOp::Evict(victim));
            } else {
                break; // both empty: cost fits by the oversize guard
            }
        }
    }
}

impl CacheStrategy for ArcCache {
    fn name(&self) -> &'static str {
        "ARC"
    }

    fn on_access(&mut self, program: ProgramId, cost: u32, _now: SimTime, ops: &mut Vec<CacheOp>) {
        // Case I: resident hit. T1 hits promote to the frequency side;
        // T2 hits refresh recency. The stored cost is kept — it is what
        // placement accounted.
        if let Some(cost) = self.t1.remove(program) {
            self.t2.insert(program, cost);
            return;
        }
        if let Some(cost) = self.t2.remove(program) {
            self.t2.insert(program, cost);
            return;
        }
        if u64::from(cost) > self.capacity {
            // Can never fit: forget any ghost trace so an unfittable
            // program cannot keep steering the target.
            self.b1.remove(program);
            self.b2.remove(program);
            return;
        }
        // Cases II/III: ghost revival adapts the target before the
        // admission — B1 evidence grows the recency side, B2 shrinks it.
        let in_b1 = self.b1.remove(program);
        let in_b2 = self.b2.remove(program);
        if in_b1 {
            let delta = (self.b2.len() / self.b1.len().max(1)).max(1) as u64;
            self.p = (self.p + delta).min(self.capacity);
        } else if in_b2 {
            let delta = (self.b1.len() / self.b2.len().max(1)).max(1) as u64;
            self.p = self.p.saturating_sub(delta);
        }
        self.replace(cost, in_b2, ops);
        // Case IV insert: revived ghosts carry frequency evidence and
        // land in T2; cold programs start on the recency side.
        if in_b1 || in_b2 {
            self.t2.insert(program, cost);
        } else {
            self.t1.insert(program, cost);
        }
        ops.push(CacheOp::Admit(program));
        self.b1.trim(self.ghost_bound);
        self.b2.trim(self.ghost_bound);
    }

    fn contains(&self, program: ProgramId) -> bool {
        self.cost_of(program).is_some()
    }

    fn cost_of(&self, program: ProgramId) -> Option<u32> {
        self.t1
            .cost_of(program)
            .or_else(|| self.t2.cost_of(program))
    }

    fn used_slots(&self) -> u64 {
        self.t1.used + self.t2.used
    }

    fn capacity_slots(&self) -> u64 {
        self.capacity
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(i: u32) -> ProgramId {
        ProgramId::new(i)
    }

    fn access(arc: &mut ArcCache, program: u32, cost: u32, secs: u64) -> Vec<CacheOp> {
        let mut ops = Vec::new();
        arc.on_access(p(program), cost, SimTime::from_secs(secs), &mut ops);
        ops
    }

    #[test]
    fn admits_while_space_is_free() {
        let mut arc = ArcCache::new(10, 0);
        assert_eq!(access(&mut arc, 0, 4, 0), vec![CacheOp::Admit(p(0))]);
        assert_eq!(access(&mut arc, 1, 4, 1), vec![CacheOp::Admit(p(1))]);
        assert_eq!(arc.used_slots(), 8);
    }

    #[test]
    fn second_access_promotes_to_frequency_side() {
        let mut arc = ArcCache::new(12, 0);
        access(&mut arc, 0, 4, 0);
        access(&mut arc, 1, 4, 1);
        assert!(access(&mut arc, 0, 4, 2).is_empty(), "hit emits no ops");
        // 0 now sits in T2; filling the cache evicts from T1 (p = 0), so
        // the single-access program 1 is the victim.
        access(&mut arc, 2, 4, 3);
        let ops = access(&mut arc, 3, 4, 4);
        assert!(ops.contains(&CacheOp::Evict(p(1))), "{ops:?}");
        assert!(arc.contains(p(0)), "frequency side survives");
    }

    #[test]
    fn ghost_revival_reenters_frequency_side_and_adapts() {
        let mut arc = ArcCache::new(8, 0);
        access(&mut arc, 0, 4, 0);
        access(&mut arc, 1, 4, 1);
        // Admit 2: evicts the T1 LRU (program 0) into B1.
        let ops = access(&mut arc, 2, 4, 2);
        assert_eq!(ops, vec![CacheOp::Evict(p(0)), CacheOp::Admit(p(2))]);
        assert_eq!(arc.recency_target(), 0);
        // Re-access 0: a B1 revival — the target grows and 0 lands in T2.
        let ops = access(&mut arc, 0, 4, 3);
        assert!(ops.contains(&CacheOp::Admit(p(0))), "{ops:?}");
        assert!(arc.recency_target() > 0, "B1 hit grows p");
        assert!(arc.contains(p(0)));
    }

    #[test]
    fn oversized_programs_never_evict() {
        let mut arc = ArcCache::new(4, 0);
        access(&mut arc, 0, 4, 0);
        for t in 1..5 {
            let ops = access(&mut arc, 1, 9, t);
            assert!(ops.is_empty(), "{ops:?}");
        }
        assert!(arc.contains(p(0)));
    }

    #[test]
    fn ghost_bound_caps_history() {
        let mut arc = ArcCache::new(2, 3);
        // Churn 20 distinct single-slot programs through a 2-slot cache.
        for i in 0..20u32 {
            access(&mut arc, i, 1, u64::from(i));
        }
        assert!(arc.b1.len() <= 3, "ghosts bounded: {}", arc.b1.len());
        assert!(arc.b2.len() <= 3);
    }

    #[test]
    fn used_never_exceeds_capacity_under_churn() {
        let mut arc = ArcCache::new(20, 0);
        for i in 0..2_000u64 {
            let program = (i * 7919 % 53) as u32;
            let cost = 1 + (program % 6);
            access(&mut arc, program, cost, i * 97);
            assert!(arc.used_slots() <= arc.capacity_slots(), "step {i}");
        }
    }

    #[test]
    fn ops_mirror_contains_state() {
        let mut arc = ArcCache::new(12, 0);
        let mut shadow = std::collections::HashSet::new();
        for i in 0..3_000u64 {
            let program = (i * 31 % 41) as u32;
            let mut ops = Vec::new();
            arc.on_access(
                p(program),
                1 + program % 5,
                SimTime::from_secs(i * 211),
                &mut ops,
            );
            for op in ops {
                match op {
                    CacheOp::Admit(q) => assert!(shadow.insert(q), "double admit {q}"),
                    CacheOp::Evict(q) => assert!(shadow.remove(&q), "evict of uncached {q}"),
                }
            }
        }
        for q in &shadow {
            assert!(arc.contains(*q));
        }
    }
}
