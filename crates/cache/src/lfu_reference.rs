//! Test-only reference for [`WindowedLfu`]: the literal rebalance loop —
//! every cached hit repositioned eagerly, all sixteen rounds walked, a
//! fresh victim list per round — exactly as it stood before the waterline
//! learned to stop early and to file cached scores lazily. The property
//! below holds the production strategy to it op for op.
//!
//! Its `record` is also the per-event ring insert as it stood before remote
//! runs were merged into the tail in one piece: every event keyed
//! `(time, seq)` and filed by binary search. The second property holds a
//! [`GlobalLfu`] to a reference fed the same feed one event at a time.

use std::collections::{BTreeSet, VecDeque};

use cablevod_hfc::ids::ProgramId;
use cablevod_hfc::units::{SimDuration, SimTime};
use proptest::prelude::*;

use cablevod_hfc::ids::NeighborhoodId;

use crate::feed::{FeedEvent, GlobalLfu};
use crate::lfu::WindowedLfu;
use crate::strategy::{CacheOp, CacheStrategy};

type Score = (u32, u64, ProgramId);

#[derive(Debug, Clone, Copy)]
struct Entry {
    count: u32,
    last_seq: u64,
    cost: u32,
    cached: bool,
    live: bool,
}

impl Entry {
    const DEAD: Entry = Entry {
        count: 0,
        last_seq: 0,
        cost: 0,
        cached: false,
        live: false,
    };
}

#[derive(Debug)]
struct ReferenceLfu {
    capacity: u64,
    used: u64,
    window: SimDuration,
    swap_margin: u32,
    seq: u64,
    history: VecDeque<(SimTime, u64, ProgramId)>,
    entries: Vec<Entry>,
    cached: BTreeSet<Score>,
    candidates: BTreeSet<Score>,
}

impl ReferenceLfu {
    const MAX_REBALANCE_ROUNDS: u32 = 16;

    fn new(capacity_slots: u64, window: SimDuration) -> Self {
        ReferenceLfu {
            capacity: capacity_slots,
            used: 0,
            window,
            swap_margin: 2,
            seq: 0,
            history: VecDeque::new(),
            entries: Vec::new(),
            cached: BTreeSet::new(),
            candidates: BTreeSet::new(),
        }
    }

    fn entry_mut(&mut self, program: ProgramId) -> &mut Entry {
        let idx = program.index();
        if idx >= self.entries.len() {
            self.entries.resize(idx + 1, Entry::DEAD);
        }
        &mut self.entries[idx]
    }

    fn live_entry(&self, program: ProgramId) -> Option<&Entry> {
        self.entries.get(program.index()).filter(|e| e.live)
    }

    fn set_swap_margin(&mut self, margin: u32) {
        assert!(margin >= 1, "swap margin must be at least 1");
        self.swap_margin = margin;
    }

    fn record(&mut self, program: ProgramId, cost: u32, at: SimTime) {
        self.seq += 1;
        let seq = self.seq;
        let entry = self.entry_mut(program);
        if !entry.live {
            *entry = Entry {
                count: 0,
                last_seq: 0,
                cost,
                cached: false,
                live: true,
            };
        }
        let old = (entry.count, entry.last_seq, program);
        entry.count += 1;
        entry.last_seq = seq;
        entry.cost = cost;
        let new = (entry.count, entry.last_seq, program);
        if entry.cached {
            self.cached.remove(&old);
            self.cached.insert(new);
        } else {
            self.candidates.remove(&old); // no-op for brand-new entries
            self.candidates.insert(new);
        }
        // Ring insert: local accesses arrive in nondecreasing time, so the
        // overwhelmingly common case is a push at the back. Remote
        // global-feed events can carry older timestamps; they settle into
        // place by binary search so front-to-back expiry stays exact.
        if self
            .history
            .back()
            .is_none_or(|&(t, s, _)| (t, s) <= (at, seq))
        {
            self.history.push_back((at, seq, program));
        } else {
            let pos = self
                .history
                .partition_point(|&(t, s, _)| (t, s) <= (at, seq));
            self.history.insert(pos, (at, seq, program));
        }
    }

    fn expire(&mut self, now: SimTime) {
        let Some(cutoff) = now.as_secs().checked_sub(self.window.as_secs()) else {
            return;
        };
        // Everything with event time <= cutoff leaves the window: pop the
        // sorted ring from the front.
        while let Some(&(t, _, program)) = self.history.front() {
            if t.as_secs() > cutoff {
                break;
            }
            self.history.pop_front();
            let entry = &mut self.entries[program.index()];
            debug_assert!(entry.live, "history refers to live entry");
            let old = (entry.count, entry.last_seq, program);
            entry.count -= 1;
            let new = (entry.count, entry.last_seq, program);
            if entry.cached {
                self.cached.remove(&old);
                self.cached.insert(new);
            } else if entry.count == 0 {
                self.candidates.remove(&old);
                *entry = Entry::DEAD;
            } else {
                self.candidates.remove(&old);
                self.candidates.insert(new);
            }
        }
    }

    fn admit(&mut self, score: Score, ops: &mut Vec<CacheOp>) {
        let program = score.2;
        let entry = &mut self.entries[program.index()];
        debug_assert!(entry.live, "admitting known program");
        debug_assert!(!entry.cached);
        entry.cached = true;
        self.used += u64::from(entry.cost);
        self.candidates.remove(&score);
        self.cached.insert(score);
        ops.push(CacheOp::Admit(program));
    }

    fn evict(&mut self, score: Score, ops: &mut Vec<CacheOp>) {
        let program = score.2;
        let entry = &mut self.entries[program.index()];
        debug_assert!(entry.live, "evicting known program");
        debug_assert!(entry.cached);
        entry.cached = false;
        self.used -= u64::from(entry.cost);
        self.cached.remove(&score);
        if entry.count > 0 {
            self.candidates.insert(score);
        } else {
            *entry = Entry::DEAD;
        }
        ops.push(CacheOp::Evict(program));
    }

    fn rebalance(&mut self, ops: &mut Vec<CacheOp>) {
        // Exclusive upper bound on candidates after a failed swap attempt.
        let mut bound: Option<Score> = None;
        for _ in 0..Self::MAX_REBALANCE_ROUNDS {
            let candidate = match bound {
                None => self.candidates.iter().next_back().copied(),
                Some(b) => self.candidates.range(..b).next_back().copied(),
            };
            let Some(candidate) = candidate else { break };
            let cost = u64::from(self.entries[candidate.2.index()].cost);
            if cost > self.capacity {
                // Can never fit at any occupancy; skip it but keep its
                // counts tracked (it may fit a larger cache after a
                // reconfiguration, and count reporting must stay exact).
                bound = Some(candidate);
                continue;
            }
            if self.used + cost <= self.capacity {
                self.admit(candidate, ops);
                bound = None;
                continue;
            }
            // Gather victims out-counted by at least the swap margin
            // (equal-count incumbents are never displaced — see module
            // docs), oldest first, until the candidate fits.
            let mut freed = 0u64;
            let mut victims = Vec::new();
            for &victim in self.cached.iter() {
                if victim.0 + self.swap_margin > candidate.0 {
                    break;
                }
                freed += u64::from(self.entries[victim.2.index()].cost);
                victims.push(victim);
                if self.used + cost - freed <= self.capacity {
                    break;
                }
            }
            if !victims.is_empty() && self.used + cost - freed <= self.capacity {
                for victim in victims {
                    self.evict(victim, ops);
                }
                self.admit(candidate, ops);
                bound = None;
            } else {
                bound = Some(candidate); // try the next-best candidate
            }
        }
    }

    fn count_of(&self, program: ProgramId) -> u32 {
        self.live_entry(program).map_or(0, |e| e.count)
    }

    fn ensure_candidate(&mut self, program: ProgramId, cost: u32) {
        if self.live_entry(program).is_none() {
            self.seq += 1;
            let seq = self.seq;
            *self.entry_mut(program) = Entry {
                count: 0,
                last_seq: seq,
                cost,
                cached: false,
                live: true,
            };
            self.candidates.insert((0, seq, program));
        }
    }

    fn on_access(&mut self, program: ProgramId, cost: u32, now: SimTime, ops: &mut Vec<CacheOp>) {
        self.record(program, cost, now);
        self.expire(now);
        self.ensure_candidate(program, cost);
        self.rebalance(ops);
    }

    fn contains(&self, program: ProgramId) -> bool {
        self.live_entry(program).is_some_and(|e| e.cached)
    }
}

/// `GlobalLfu::sync_global` as it stood while each remote event was
/// recorded on its own.
fn reference_sync(
    reference: &mut ReferenceLfu,
    cursor: &mut usize,
    feed: &[FeedEvent],
    (home, lag): (NeighborhoodId, u64),
    now: SimTime,
    limit: usize,
) {
    while *cursor < limit.min(feed.len()) {
        let ev = feed[*cursor];
        let visible = match lag {
            0 => ev.time <= now,
            lag => ev.time.as_secs() / lag < now.as_secs() / lag,
        };
        if !visible {
            break;
        }
        *cursor += 1;
        if ev.neighborhood != home {
            reference.record(ev.program, ev.cost, ev.time);
        }
    }
    reference.expire(now);
}

const PROGRAMS: u32 = 12;

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    /// Local accesses in nondecreasing time interleaved with remote
    /// records carrying older timestamps, the way `GlobalLfu::sync_global`
    /// issues them (`record`s, then one `expire`, no rebalance).
    #[test]
    fn windowed_lfu_emits_the_reference_ops(
        steps in prop::collection::vec((0u64..900, 0u32..PROGRAMS, 0u64..5_000), 1..400),
        shape in (2u64..14, 0u64..9, 1u32..4),
        costs in prop::collection::vec(1u32..6, PROGRAMS as usize),
    ) {
        let (capacity, window_hours, margin) = shape;
        let window = SimDuration::from_hours(window_hours);
        let mut lfu = WindowedLfu::new(capacity, window);
        let mut reference = ReferenceLfu::new(capacity, window);
        lfu.set_swap_margin(margin);
        reference.set_swap_margin(margin);
        // The last program never fits: its cost exceeds any capacity.
        let cost_of = |p: u32| costs[p as usize] + if p == PROGRAMS - 1 { 14 } else { 0 };

        let (mut ops, mut expected) = (Vec::new(), Vec::new());
        let mut now = 0u64;
        for (step, &(dt, p, age)) in steps.iter().enumerate() {
            now += dt;
            let (program, cost) = (ProgramId::new(p), cost_of(p));
            if age % 4 == 0 {
                let at = SimTime::from_secs(now.saturating_sub(age));
                lfu.record_run([(program, cost, at)]);
                reference.record(program, cost, at);
                lfu.expire(SimTime::from_secs(now));
                reference.expire(SimTime::from_secs(now));
            } else {
                ops.clear();
                expected.clear();
                lfu.on_access(program, cost, SimTime::from_secs(now), &mut ops);
                reference.on_access(program, cost, SimTime::from_secs(now), &mut expected);
                prop_assert_eq!(&ops, &expected, "ops diverge at step {}", step);
            }
            prop_assert_eq!(lfu.used_slots(), reference.used, "used at step {}", step);
            for q in (0..PROGRAMS).map(ProgramId::new) {
                prop_assert_eq!(lfu.count_of(q), reference.count_of(q), "count of {} at step {}", q, step);
                prop_assert_eq!(lfu.contains(q), reference.contains(q), "{} cached at step {}", q, step);
            }
        }
    }

    /// A system-wide feed over four neighborhoods as neighborhood 0's
    /// index server meets it: a sync bounded by the record's own index and
    /// then the access at each of its own records, a bare sync (the idle
    /// sweep) at some of the others'. Remote events turn visible a lag
    /// batch at a time, behind local events already recorded, in runs the
    /// production strategy merges in one piece and the reference files one
    /// by one.
    #[test]
    fn global_lfu_ingests_runs_as_the_per_event_reference_does(
        events in prop::collection::vec((0u64..900, 0u32..4, 0u32..PROGRAMS), 1..500),
        shape in (2u64..14, 0usize..3, 0usize..5),
        costs in prop::collection::vec(1u32..6, PROGRAMS as usize),
    ) {
        let (capacity, lag, window) = shape;
        let lag = [0, 1_800, 7_200][lag];
        // Shorter than either lag, between them, and longer than both.
        let window = SimDuration::from_secs([600, 3_600, 5_400, 14_400, 86_400][window]);
        let home = NeighborhoodId::new(0);
        let mut feed = Vec::new();
        let mut now = 0u64;
        for &(dt, nbhd, p) in &events {
            now += dt;
            feed.push(FeedEvent {
                time: SimTime::from_secs(now),
                neighborhood: NeighborhoodId::new(nbhd),
                program: ProgramId::new(p),
                cost: costs[p as usize],
            });
        }

        let mut lfu = GlobalLfu::new(capacity, window, SimDuration::from_secs(lag), home);
        let mut reference = ReferenceLfu::new(capacity, window);
        let (mut consumed, mut cursor) = (0usize, 0usize);
        let (mut ops, mut expected) = (Vec::new(), Vec::new());
        for (seq, ev) in feed.iter().enumerate() {
            if ev.neighborhood != home && seq % 5 != 0 {
                continue;
            }
            consumed += lfu.sync_global(&feed[consumed..=seq], ev.time);
            reference_sync(&mut reference, &mut cursor, &feed, (home, lag), ev.time, seq + 1);
            prop_assert_eq!(consumed, cursor, "cursor at record {}", seq);
            if ev.neighborhood == home {
                ops.clear();
                expected.clear();
                lfu.on_access(ev.program, ev.cost, ev.time, &mut ops);
                reference.on_access(ev.program, ev.cost, ev.time, &mut expected);
                prop_assert_eq!(&ops, &expected, "ops diverge at record {}", seq);
            }
            prop_assert_eq!(lfu.used_slots(), reference.used, "used at record {}", seq);
        }
        for q in (0..PROGRAMS).map(ProgramId::new) {
            prop_assert_eq!(lfu.core.count_of(q), reference.count_of(q), "count of {}", q);
            prop_assert_eq!(lfu.contains(q), reference.contains(q), "{} cached", q);
        }
    }
}
