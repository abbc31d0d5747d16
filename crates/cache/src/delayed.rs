//! Delayed-hits-aware windowed LFU (SNIPPETS.md #3).
//!
//! Classic popularity counting treats every miss as an independent
//! access, but under a nonzero central-server fetch latency a burst of
//! misses on the same program coalesces onto *one* outstanding fetch —
//! the trailing requests are delayed hits, not fresh fetch pressure.
//! This strategy keys its windowed-LFU counts to that cost model: a miss
//! whose fetch is already in flight records as one access of double
//! weight (the burst signals urgency without multiplying into phantom
//! independent fetches), while hits and fetch-starting misses record
//! normally. The companion accounting side — the index server's
//! delayed-hit/in-flight-miss counters — comes from the factory's
//! [`FetchModel`] capability.

use cablevod_hfc::ids::ProgramId;
use cablevod_hfc::units::{SimDuration, SimTime};

use crate::error::CacheError;
use crate::event::AccessEvent;
use crate::fetch::FetchModel;
use crate::history::HistoryWindow;
use crate::lfu::WindowedLfu;
use crate::slots::ProgramSlots;
use crate::strategy::{CacheOp, CacheStrategy};

/// The delayed-hits-aware LFU (see the module docs).
#[derive(Debug)]
pub struct DelayedLfu {
    pub(crate) core: WindowedLfu,
    fetch: FetchModel,
    /// Start time of the newest modeled fetch, for every program ever
    /// fetched (the strategy's own view; the index server tracks its twin,
    /// `inflight`, for the report counters).
    fetches: ProgramSlots<SimTime>,
}

impl DelayedLfu {
    /// Creates a delayed-hits-aware LFU with history window `history`
    /// and a modeled fetch latency of `latency_ms` milliseconds.
    pub fn new(capacity_slots: u64, history: SimDuration, latency_ms: u64) -> Self {
        DelayedLfu {
            core: WindowedLfu::new(capacity_slots, history),
            fetch: FetchModel::with_latency_ms(latency_ms),
            fetches: ProgramSlots::default(),
        }
    }

    /// Has the neighborhood's own accesses handed back through `history`
    /// (see [`WindowedLfu::fed_by`]); the double-weight extras stay in the
    /// strategy's ring, as no supply can hand them back.
    pub fn fed_by(mut self, history: Option<HistoryWindow>) -> Self {
        self.core = self.core.fed_by(history);
        self
    }

    /// The modeled fetch latency.
    pub fn fetch_model(&self) -> FetchModel {
        self.fetch
    }
}

impl CacheStrategy for DelayedLfu {
    fn name(&self) -> &'static str {
        "Delayed LFU"
    }

    fn prepare(&mut self, now: SimTime) -> Result<(), CacheError> {
        self.core.check_history(now)
    }

    fn extend_history(
        &mut self,
        events: &[AccessEvent],
        covered: SimTime,
    ) -> Result<(), CacheError> {
        self.core.hand_back(events, covered)
    }

    fn on_access(&mut self, program: ProgramId, cost: u32, now: SimTime, ops: &mut Vec<CacheOp>) {
        let miss = !self.core.contains(program);
        self.core.record(program, cost, now);
        if miss && !self.fetch.is_instant() {
            match self.fetches.get(program).copied() {
                Some(start) if self.fetch.covers(start, now) => {
                    // Coalesced onto the outstanding fetch: double
                    // weight, not an independent fetch.
                    self.core.record_extra(program, cost, now);
                }
                _ => *self.fetches.get_or_insert(program) = now,
            }
        }
        self.core.expire(now);
        self.core.ensure_candidate(program, cost);
        self.core.rebalance(ops);
    }

    fn contains(&self, program: ProgramId) -> bool {
        self.core.contains(program)
    }

    fn cost_of(&self, program: ProgramId) -> Option<u32> {
        self.core.cost_of(program)
    }

    fn used_slots(&self) -> u64 {
        self.core.used_slots()
    }

    fn capacity_slots(&self) -> u64 {
        self.core.capacity_slots()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(i: u32) -> ProgramId {
        ProgramId::new(i)
    }

    fn access(s: &mut DelayedLfu, program: u32, cost: u32, secs: u64) -> Vec<CacheOp> {
        let mut ops = Vec::new();
        s.on_access(p(program), cost, SimTime::from_secs(secs), &mut ops);
        ops
    }

    #[test]
    fn coalesced_misses_carry_double_weight() {
        let mut s = DelayedLfu::new(100, SimDuration::from_days(1), 500);
        // Program 0: two misses in the same second — the second
        // coalesces and double-records, yielding count 3.
        access(&mut s, 0, 200, 10); // oversized: stays a miss
        access(&mut s, 0, 200, 10);
        assert_eq!(s.core.count_of(p(0)), 3);
        // Program 1: two misses a second apart under a 500 ms latency —
        // two independent fetches, count 2.
        access(&mut s, 1, 200, 20);
        access(&mut s, 1, 200, 21);
        assert_eq!(s.core.count_of(p(1)), 2);
    }

    #[test]
    fn hits_never_double_record() {
        let mut s = DelayedLfu::new(100, SimDuration::from_days(1), 500);
        access(&mut s, 0, 4, 10); // admitted immediately (space free)
        assert!(s.contains(p(0)));
        access(&mut s, 0, 4, 10); // same-second *hit*: single record
        assert_eq!(s.core.count_of(p(0)), 2);
    }

    #[test]
    fn zero_latency_degenerates_to_plain_lfu() {
        let mut a = DelayedLfu::new(8, SimDuration::from_days(1), 0);
        let mut b = WindowedLfu::new(8, SimDuration::from_days(1));
        for i in 0..500u64 {
            let program = (i * 13 % 17) as u32;
            let mut ops_a = Vec::new();
            let mut ops_b = Vec::new();
            let now = SimTime::from_secs(i * 31);
            a.on_access(p(program), 1 + program % 4, now, &mut ops_a);
            b.on_access(p(program), 1 + program % 4, now, &mut ops_b);
            assert_eq!(ops_a, ops_b, "step {i}");
        }
    }

    #[test]
    fn used_never_exceeds_capacity_under_churn() {
        let mut s = DelayedLfu::new(20, SimDuration::from_hours(6), 1_000);
        for i in 0..2_000u64 {
            let program = (i * 7919 % 53) as u32;
            let cost = 1 + (program % 6);
            access(&mut s, program, cost, i * 3);
            assert!(s.used_slots() <= s.capacity_slots(), "step {i}");
        }
    }
}
