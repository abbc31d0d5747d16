//! Time-aware least-recently-used (TLRU).
//!
//! Plain LRU extended with a *time-to-use* (TTU): every cached entry
//! carries an expiry timestamp, refreshed on each hit. Expired entries
//! are reaped lazily at the start of the next access — segment content
//! whose TTU elapsed is treated as stale regardless of recency, modeling
//! catalogs where rights windows or freshness bound how long a cached
//! program stays servable.
//!
//! # One list
//!
//! There is one time-to-use, and the index server hands every strategy a
//! non-decreasing `now`, so an entry refreshed later never expires sooner:
//! the expiry order *is* the recency order. Both are the one
//! `RecencyList` plain LRU keeps, with an expiry column beside it;
//! capacity evictions and expiries both leave from its old end, and an
//! access neither hashes nor walks a tree.
//!
//! Determinism: entries that expire at the same instant (several
//! programs accessed within one second, or a saturated TTU) are reaped in
//! `ProgramId` order whatever order they were accessed in, so identical
//! access sequences produce identical op streams on every driver
//! combination.

use cablevod_hfc::ids::ProgramId;
use cablevod_hfc::units::{SimDuration, SimTime};

use crate::lru::RecencyList;
use crate::strategy::{CacheOp, CacheStrategy};

/// The TLRU strategy (see the module docs).
///
/// `now` must not decrease from one access to the next — the contract the
/// index server keeps for every strategy (the windowed LFU's ring rests on
/// it too). Here it is what lets one list stand for both orders, so it is
/// checked in debug builds.
#[derive(Debug)]
pub struct Tlru {
    capacity: u64,
    used: u64,
    ttl: SimDuration,
    /// The cached programs, least recently accessed — and so soonest to
    /// expire — first.
    queue: RecencyList,
    /// When each listed program's TTU runs out, by `ProgramId::index()`.
    expiry: Vec<SimTime>,
    /// Scratch for one group of entries expiring together, kept for its
    /// allocation.
    reaped: Vec<ProgramId>,
    /// The latest access seen.
    latest: SimTime,
}

impl Tlru {
    /// Creates a TLRU with `capacity_slots` capacity and time-to-use
    /// `ttl`.
    pub fn new(capacity_slots: u64, ttl: SimDuration) -> Self {
        Tlru {
            capacity: capacity_slots,
            used: 0,
            ttl,
            queue: RecencyList::new(),
            expiry: Vec::new(),
            reaped: Vec::new(),
            latest: SimTime::EPOCH,
        }
    }

    /// The configured time-to-use.
    pub fn ttl(&self) -> SimDuration {
        self.ttl
    }

    /// Reaps every entry whose TTU elapsed at or before `now`, soonest
    /// first and in `ProgramId` order within one expiry instant.
    fn expire(&mut self, now: SimTime, ops: &mut Vec<CacheOp>) {
        while let Some(due) = self.next_expiry().filter(|&due| due <= now) {
            self.reaped.clear();
            while self.next_expiry() == Some(due) {
                let (program, freed) = self.queue.pop_oldest().expect("an entry is due");
                self.used -= u64::from(freed);
                self.reaped.push(program);
            }
            self.reaped.sort_unstable();
            ops.extend(self.reaped.iter().map(|&p| CacheOp::Evict(p)));
        }
    }

    /// The expiry of the entry at the list's old end — the soonest.
    fn next_expiry(&self) -> Option<SimTime> {
        self.queue.oldest().map(|p| self.expiry[p.index()])
    }

    /// Starts `program`'s TTU afresh.
    fn refresh(&mut self, program: ProgramId, now: SimTime) {
        let idx = program.index();
        if idx >= self.expiry.len() {
            self.expiry.resize(idx + 1, SimTime::EPOCH);
        }
        self.expiry[idx] = now.saturating_add(self.ttl);
    }
}

impl CacheStrategy for Tlru {
    fn name(&self) -> &'static str {
        "TLRU"
    }

    fn on_access(&mut self, program: ProgramId, cost: u32, now: SimTime, ops: &mut Vec<CacheOp>) {
        debug_assert!(now >= self.latest, "accesses arrive in time order");
        self.latest = now;
        self.expire(now, ops);
        if self.contains(program) {
            // Hit: refresh both recency and TTU, no ops.
            self.queue.touch(program);
            self.refresh(program, now);
            return;
        }
        if u64::from(cost) > self.capacity {
            return; // can never fit
        }
        while self.used + u64::from(cost) > self.capacity {
            let (victim, freed) = self.queue.pop_oldest().expect("evict from non-empty queue");
            self.used -= u64::from(freed);
            ops.push(CacheOp::Evict(victim));
        }
        self.queue.push_newest(program, cost);
        self.refresh(program, now);
        self.used += u64::from(cost);
        ops.push(CacheOp::Admit(program));
    }

    fn contains(&self, program: ProgramId) -> bool {
        self.queue.cost_of(program).is_some()
    }

    fn cost_of(&self, program: ProgramId) -> Option<u32> {
        self.queue.cost_of(program)
    }

    fn used_slots(&self) -> u64 {
        self.used
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

    fn access(tlru: &mut Tlru, program: u32, cost: u32, secs: u64) -> Vec<CacheOp> {
        let mut ops = Vec::new();
        tlru.on_access(p(program), cost, SimTime::from_secs(secs), &mut ops);
        ops
    }

    #[test]
    fn behaves_like_lru_inside_the_ttu() {
        let mut tlru = Tlru::new(10, SimDuration::from_hours(1));
        access(&mut tlru, 0, 4, 0);
        access(&mut tlru, 1, 4, 1);
        access(&mut tlru, 0, 4, 2); // touch 0 so 1 is the victim
        let ops = access(&mut tlru, 2, 4, 3);
        assert_eq!(ops, vec![CacheOp::Evict(p(1)), CacheOp::Admit(p(2))]);
        assert!(tlru.contains(p(0)));
    }

    #[test]
    fn entries_expire_after_the_ttu() {
        let mut tlru = Tlru::new(10, SimDuration::from_secs(100));
        access(&mut tlru, 0, 4, 0);
        // At t=100 the TTU has elapsed: the next access reaps it first.
        let ops = access(&mut tlru, 1, 4, 100);
        assert_eq!(ops, vec![CacheOp::Evict(p(0)), CacheOp::Admit(p(1))]);
        assert!(!tlru.contains(p(0)));
        assert_eq!(tlru.used_slots(), 4);
        // A TTU longer than time itself saturates: the entry never
        // expires, instead of expiring at a wrapped instant.
        let mut tlru = Tlru::new(10, SimDuration::from_secs(u64::MAX));
        access(&mut tlru, 0, 4, 50);
        assert!(access(&mut tlru, 0, 4, 1_000_000).is_empty(), "a hit");
    }

    #[test]
    fn hits_refresh_the_ttu() {
        let mut tlru = Tlru::new(10, SimDuration::from_secs(100));
        access(&mut tlru, 0, 4, 0);
        assert!(access(&mut tlru, 0, 4, 60).is_empty(), "hit, no ops");
        // t=120 is past the original expiry (100) but inside the
        // refreshed one (160).
        let ops = access(&mut tlru, 1, 4, 120);
        assert_eq!(ops, vec![CacheOp::Admit(p(1))]);
        assert!(tlru.contains(p(0)));
        // t=160 reaps the refreshed entry.
        access(&mut tlru, 2, 4, 160);
        assert!(!tlru.contains(p(0)));
    }

    #[test]
    fn oversized_program_is_skipped_without_eviction() {
        let mut tlru = Tlru::new(5, SimDuration::from_hours(1));
        access(&mut tlru, 0, 3, 0);
        let ops = access(&mut tlru, 1, 9, 1);
        assert!(ops.is_empty());
        assert!(tlru.contains(p(0)));
    }

    #[test]
    fn used_never_exceeds_capacity_under_churn() {
        let mut tlru = Tlru::new(20, SimDuration::from_secs(500));
        for i in 0..2_000u64 {
            let program = (i * 7919 % 53) as u32;
            let cost = 1 + (program % 6);
            access(&mut tlru, program, cost, i * 17);
            assert!(tlru.used_slots() <= tlru.capacity_slots(), "step {i}");
        }
    }

    #[test]
    fn ops_mirror_contains_state() {
        let mut tlru = Tlru::new(12, SimDuration::from_secs(1_000));
        let mut shadow = std::collections::HashSet::new();
        for i in 0..3_000u64 {
            let program = (i * 31 % 41) as u32;
            let mut ops = Vec::new();
            tlru.on_access(
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
            assert!(tlru.contains(*q));
        }
    }
}
