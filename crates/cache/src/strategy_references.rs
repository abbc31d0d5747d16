//! Test-only references for [`Lru`], [`Tlru`], [`ArcCache`] and [`Oracle`]:
//! their bodies exactly as they stood before the four were rewritten over
//! dense tables — a SipHash map and one (`Lru`), two (`Tlru`) or four
//! (`ArcCache`, a map and an ordered set a list) ordered sets for the
//! orders a linked list now holds, hash maps and two ordered score sets
//! in the Oracle (its rebalance written out, where the production Oracle
//! shares the waterline's walk of two binary heaps). The properties below
//! hold the production strategies to them op for op, `lfu_reference.rs`'
//! way; the Oracle's also over a catalogue of a few hundred programs.

use std::collections::{BTreeSet, HashMap};

use cablevod_hfc::ids::ProgramId;
use cablevod_hfc::units::{SimDuration, SimTime};
use proptest::prelude::*;

use crate::arc::ArcCache;
use crate::lru::Lru;
use crate::oracle::Oracle;
use crate::schedule::testing::Feeder;
use crate::schedule::ScheduleWindow;
use crate::strategy::{CacheOp, CacheStrategy};
use crate::tlru::Tlru;

#[derive(Debug)]
struct ReferenceLru {
    capacity: u64,
    used: u64,
    seq: u64,
    /// program -> (recency sequence, cost in slots)
    entries: HashMap<ProgramId, (u64, u32)>,
    /// (recency sequence, program), oldest first
    queue: BTreeSet<(u64, ProgramId)>,
}

impl ReferenceLru {
    fn new(capacity_slots: u64) -> Self {
        ReferenceLru {
            capacity: capacity_slots,
            used: 0,
            seq: 0,
            entries: HashMap::new(),
            queue: BTreeSet::new(),
        }
    }

    fn touch(&mut self, program: ProgramId) {
        self.seq += 1;
        let entry = self
            .entries
            .get_mut(&program)
            .expect("touch of cached program");
        let removed = self.queue.remove(&(entry.0, program));
        debug_assert!(removed, "queue and entries must agree");
        entry.0 = self.seq;
        self.queue.insert((self.seq, program));
    }

    fn evict_oldest(&mut self, ops: &mut Vec<CacheOp>) {
        let &(seq, victim) = self
            .queue
            .iter()
            .next()
            .expect("evict from non-empty queue");
        self.queue.remove(&(seq, victim));
        let (_, cost) = self
            .entries
            .remove(&victim)
            .expect("queued program has entry");
        self.used -= u64::from(cost);
        ops.push(CacheOp::Evict(victim));
    }

    fn on_access(&mut self, program: ProgramId, cost: u32, ops: &mut Vec<CacheOp>) {
        if self.entries.contains_key(&program) {
            self.touch(program);
            return;
        }
        if u64::from(cost) > self.capacity {
            return; // can never fit
        }
        while self.used + u64::from(cost) > self.capacity {
            self.evict_oldest(ops);
        }
        self.seq += 1;
        self.entries.insert(program, (self.seq, cost));
        self.queue.insert((self.seq, program));
        self.used += u64::from(cost);
        ops.push(CacheOp::Admit(program));
    }

    fn cost_of(&self, program: ProgramId) -> Option<u32> {
        self.entries.get(&program).map(|&(_, cost)| cost)
    }
}

#[derive(Debug)]
struct ReferenceTlru {
    capacity: u64,
    used: u64,
    ttl: SimDuration,
    seq: u64,
    /// program -> (recency sequence, expiry, cost in slots)
    entries: HashMap<ProgramId, (u64, SimTime, u32)>,
    /// (recency sequence, program), oldest first
    queue: BTreeSet<(u64, ProgramId)>,
    /// (expiry, program), soonest first
    expiries: BTreeSet<(SimTime, ProgramId)>,
}

impl ReferenceTlru {
    fn new(capacity_slots: u64, ttl: SimDuration) -> Self {
        ReferenceTlru {
            capacity: capacity_slots,
            used: 0,
            ttl,
            seq: 0,
            entries: HashMap::new(),
            queue: BTreeSet::new(),
            expiries: BTreeSet::new(),
        }
    }

    fn remove(&mut self, program: ProgramId) -> Option<(u64, SimTime, u32)> {
        let (seq, expiry, cost) = self.entries.remove(&program)?;
        self.queue.remove(&(seq, program));
        self.expiries.remove(&(expiry, program));
        self.used -= u64::from(cost);
        Some((seq, expiry, cost))
    }

    /// Reaps every entry whose TTU elapsed at or before `now`.
    fn expire(&mut self, now: SimTime, ops: &mut Vec<CacheOp>) {
        while let Some(&(expiry, program)) = self.expiries.iter().next() {
            if expiry > now {
                break;
            }
            self.remove(program);
            ops.push(CacheOp::Evict(program));
        }
    }

    fn on_access(&mut self, program: ProgramId, cost: u32, now: SimTime, ops: &mut Vec<CacheOp>) {
        self.expire(now, ops);
        if let Some((_, _, cost)) = self.remove(program) {
            // Hit: refresh both recency and TTU, no ops.
            self.seq += 1;
            let seq = self.seq;
            self.entries
                .insert(program, (seq, now.saturating_add(self.ttl), cost));
            self.queue.insert((seq, program));
            self.expiries
                .insert((now.saturating_add(self.ttl), program));
            self.used += u64::from(cost);
            return;
        }
        if u64::from(cost) > self.capacity {
            return; // can never fit
        }
        while self.used + u64::from(cost) > self.capacity {
            let &(seq, victim) = self
                .queue
                .iter()
                .next()
                .expect("evict from non-empty queue");
            debug_assert!(seq <= self.seq);
            self.remove(victim);
            ops.push(CacheOp::Evict(victim));
        }
        self.seq += 1;
        let seq = self.seq;
        self.entries
            .insert(program, (seq, now.saturating_add(self.ttl), cost));
        self.queue.insert((seq, program));
        self.expiries
            .insert((now.saturating_add(self.ttl), program));
        self.used += u64::from(cost);
        ops.push(CacheOp::Admit(program));
    }

    fn cost_of(&self, program: ProgramId) -> Option<u32> {
        self.entries.get(&program).map(|&(_, _, cost)| cost)
    }
}

/// The Oracle's score: `(future count, 0, id)`.
type Score = (u32, u64, ProgramId);

/// One resident list (`T1` or `T2`): recency-ordered, slot-accounted.
#[derive(Debug, Default)]
struct ReferenceResident {
    /// program -> (recency sequence, cost in slots)
    entries: HashMap<ProgramId, (u64, u32)>,
    /// (recency sequence, program), oldest first
    queue: BTreeSet<(u64, ProgramId)>,
    used: u64,
}

impl ReferenceResident {
    fn contains(&self, program: ProgramId) -> bool {
        self.entries.contains_key(&program)
    }

    fn insert(&mut self, program: ProgramId, seq: u64, cost: u32) {
        let prev = self.entries.insert(program, (seq, cost));
        debug_assert!(prev.is_none(), "double insert into resident list");
        self.queue.insert((seq, program));
        self.used += u64::from(cost);
    }

    fn remove(&mut self, program: ProgramId) -> Option<u32> {
        let (seq, cost) = self.entries.remove(&program)?;
        self.queue.remove(&(seq, program));
        self.used -= u64::from(cost);
        Some(cost)
    }

    fn lru(&self) -> Option<ProgramId> {
        self.queue.iter().next().map(|&(_, p)| p)
    }

    fn len(&self) -> usize {
        self.entries.len()
    }
}

/// One ghost list (`B1` or `B2`): recently evicted ids, no content.
#[derive(Debug, Default)]
struct ReferenceGhost {
    /// program -> recency sequence
    entries: HashMap<ProgramId, u64>,
    /// (recency sequence, program), oldest first
    queue: BTreeSet<(u64, ProgramId)>,
}

impl ReferenceGhost {
    fn insert(&mut self, program: ProgramId, seq: u64) {
        if let Some(old) = self.entries.insert(program, seq) {
            self.queue.remove(&(old, program));
        }
        self.queue.insert((seq, program));
    }

    fn remove(&mut self, program: ProgramId) -> bool {
        match self.entries.remove(&program) {
            Some(seq) => {
                self.queue.remove(&(seq, program));
                true
            }
            None => false,
        }
    }

    fn trim(&mut self, bound: usize) {
        while self.entries.len() > bound {
            let &(seq, victim) = self.queue.iter().next().expect("non-empty ghost list");
            self.queue.remove(&(seq, victim));
            self.entries.remove(&victim);
        }
    }

    fn len(&self) -> usize {
        self.entries.len()
    }
}

#[derive(Debug)]
struct ReferenceArc {
    capacity: u64,
    /// Ghost-list entry bound (per list).
    ghost_bound: usize,
    /// Adaptive slot target for `T1`, in `[0, capacity]`.
    p: u64,
    seq: u64,
    t1: ReferenceResident,
    t2: ReferenceResident,
    b1: ReferenceGhost,
    b2: ReferenceGhost,
}

impl ReferenceArc {
    fn new(capacity_slots: u64, ghost: u32) -> Self {
        let ghost_bound = if ghost == 0 {
            usize::try_from(capacity_slots).unwrap_or(usize::MAX)
        } else {
            ghost as usize
        };
        ReferenceArc {
            capacity: capacity_slots,
            ghost_bound,
            p: 0,
            seq: 0,
            t1: ReferenceResident::default(),
            t2: ReferenceResident::default(),
            b1: ReferenceGhost::default(),
            b2: ReferenceGhost::default(),
        }
    }

    /// Evicts until `cost` more slots fit, steering victims by the
    /// adaptive target: `T1` gives way while it holds more than `p`
    /// slots (or exactly `p` on a `B2` revival), `T2` otherwise. Victims
    /// become ghosts on the matching side.
    fn replace(&mut self, cost: u32, in_b2: bool, ops: &mut Vec<CacheOp>) {
        while self.t1.used + self.t2.used + u64::from(cost) > self.capacity {
            let from_t1 = if self.t1.len() == 0 {
                false
            } else if self.t2.len() == 0 {
                true
            } else {
                self.t1.used > self.p || (in_b2 && self.t1.used == self.p)
            };
            self.seq += 1;
            if from_t1 {
                let victim = self.t1.lru().expect("T1 non-empty");
                self.t1.remove(victim);
                self.b1.insert(victim, self.seq);
                ops.push(CacheOp::Evict(victim));
            } else if let Some(victim) = self.t2.lru() {
                self.t2.remove(victim);
                self.b2.insert(victim, self.seq);
                ops.push(CacheOp::Evict(victim));
            } else {
                break; // both empty: cost fits by the oversize guard
            }
        }
    }

    fn on_access(&mut self, program: ProgramId, cost: u32, ops: &mut Vec<CacheOp>) {
        self.seq += 1;
        let seq = self.seq;
        // Case I: resident hit. T1 hits promote to the frequency side;
        // T2 hits refresh recency. The stored cost is kept — it is what
        // placement accounted.
        if let Some(cost) = self.t1.remove(program) {
            self.t2.insert(program, seq, cost);
            return;
        }
        if let Some(cost) = self.t2.remove(program) {
            self.t2.insert(program, seq, cost);
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
            self.t2.insert(program, seq, cost);
        } else {
            self.t1.insert(program, seq, cost);
        }
        ops.push(CacheOp::Admit(program));
        self.b1.trim(self.ghost_bound);
        self.b2.trim(self.ghost_bound);
    }

    fn contains(&self, program: ProgramId) -> bool {
        self.t1.contains(program) || self.t2.contains(program)
    }

    fn cost_of(&self, program: ProgramId) -> Option<u32> {
        self.t1
            .entries
            .get(&program)
            .or_else(|| self.t2.entries.get(&program))
            .map(|&(_, cost)| cost)
    }
}

/// The Oracle with the waterline rebalance spelled out as the literal
/// loop (every round walked, each candidate searched for afresh, as
/// `lfu_reference.rs` has it for the LFU), so the reference shares no code
/// with the strategy it checks.
#[derive(Debug)]
struct ReferenceOracle {
    capacity: u64,
    used: u64,
    lookahead: SimDuration,
    window: ScheduleWindow,
    /// future count per program with count > 0 or cached
    future: HashMap<ProgramId, u32>,
    cached_set: HashMap<ProgramId, ()>,
    cached: BTreeSet<Score>,
    candidates: BTreeSet<Score>,
}

impl ReferenceOracle {
    const MAX_REBALANCE_ROUNDS: u32 = 16;

    fn new(capacity_slots: u64, lookahead: SimDuration, window: ScheduleWindow) -> Self {
        ReferenceOracle {
            capacity: capacity_slots,
            used: 0,
            lookahead,
            window,
            future: HashMap::new(),
            cached_set: HashMap::new(),
            cached: BTreeSet::new(),
            candidates: BTreeSet::new(),
        }
    }

    fn bump(&mut self, program: ProgramId, delta: i64) {
        let old = (self.future_count(program), 0, program);
        let count = (i64::from(old.0) + delta).max(0) as u32;
        let is_cached = self.cached_set.contains_key(&program);
        if count == 0 {
            self.future.remove(&program);
        } else {
            self.future.insert(program, count);
        }
        let new = (count, 0, program);
        if is_cached {
            self.cached.remove(&old);
            self.cached.insert(new);
        } else {
            self.candidates.remove(&old);
            if count > 0 {
                self.candidates.insert(new);
            }
        }
    }

    fn admit(&mut self, score: Score, ops: &mut Vec<CacheOp>) {
        self.candidates.remove(&score);
        self.cached.insert(score);
        self.cached_set.insert(score.2, ());
        self.used += u64::from(self.window.cost(score.2));
        ops.push(CacheOp::Admit(score.2));
    }

    fn evict(&mut self, score: Score, ops: &mut Vec<CacheOp>) {
        self.cached.remove(&score);
        self.cached_set.remove(&score.2);
        self.used -= u64::from(self.window.cost(score.2));
        if score.0 > 0 {
            self.candidates.insert(score);
        }
        ops.push(CacheOp::Evict(score.2));
    }

    fn rebalance(&mut self, ops: &mut Vec<CacheOp>) {
        // Exclusive upper bound on candidates after a failed attempt.
        let mut bound: Option<Score> = None;
        for _ in 0..Self::MAX_REBALANCE_ROUNDS {
            let candidate = match bound {
                None => self.candidates.iter().next_back().copied(),
                Some(b) => self.candidates.range(..b).next_back().copied(),
            };
            let Some(candidate) = candidate else { break };
            let cost = u64::from(self.window.cost(candidate.2));
            if cost == 0 || cost > self.capacity {
                // Zero-length programs are unplaceable, oversized ones can
                // never fit; both stay tracked.
                bound = Some(candidate);
                continue;
            }
            if self.used + cost <= self.capacity {
                self.admit(candidate, ops);
                bound = None;
                continue;
            }
            // Victims strictly below the candidate (count, then id),
            // weakest first, until it fits.
            let mut freed = 0u64;
            let mut victims = Vec::new();
            for &victim in self.cached.iter() {
                if victim >= candidate {
                    break;
                }
                freed += u64::from(self.window.cost(victim.2));
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

    fn on_access(&mut self, now: SimTime, ops: &mut Vec<CacheOp>) {
        let horizon = now.saturating_add(self.lookahead);
        while let Some(p) = self.window.next_entering(horizon) {
            self.bump(p, 1);
        }
        while let Some(p) = self.window.next_leaving(now) {
            self.bump(p, -1);
        }
        self.rebalance(ops);
    }

    fn future_count(&self, program: ProgramId) -> u32 {
        self.future.get(&program).copied().unwrap_or(0)
    }

    fn cost_of(&self, program: ProgramId) -> Option<u32> {
        (program.index() < self.window.cost_count()).then(|| self.window.cost(program))
    }
}

const PROGRAMS: u32 = 14;

/// The wide Oracle cases' catalogue: a few hundred programs, so the
/// production Oracle's score heaps are several levels deep.
const WIDE: u32 = 400;

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    /// Costs vary from access to access — a hit keeps the cost the program
    /// was admitted with — and reach zero and past the capacity.
    #[test]
    fn lru_emits_the_reference_ops(
        steps in prop::collection::vec((0u32..PROGRAMS, 0u32..9), 1..400),
        capacity in 0u64..16,
    ) {
        let mut lru = Lru::new(capacity);
        let mut reference = ReferenceLru::new(capacity);
        let (mut ops, mut expected) = (Vec::new(), Vec::new());
        for (step, &(p, cost)) in steps.iter().enumerate() {
            ops.clear();
            expected.clear();
            lru.on_access(ProgramId::new(p), cost, SimTime::from_secs(step as u64), &mut ops);
            reference.on_access(ProgramId::new(p), cost, &mut expected);
            prop_assert_eq!(&ops, &expected, "ops diverge at step {}", step);
            prop_assert_eq!(lru.used_slots(), reference.used, "used at step {}", step);
            for q in (0..PROGRAMS).map(ProgramId::new) {
                prop_assert_eq!(lru.cost_of(q), reference.cost_of(q), "cost of {} at step {}", q, step);
                prop_assert_eq!(lru.contains(q), reference.cost_of(q).is_some());
            }
        }
    }

    /// Several programs a second (equal expiries, reaped in id order
    /// whatever order they were accessed in), gaps that let an entry
    /// expire just before its own hit, a TTU of zero and one that
    /// saturates.
    #[test]
    fn tlru_emits_the_reference_ops(
        steps in prop::collection::vec((0u32..PROGRAMS, 0u32..9, 0u64..12), 1..400),
        shape in (0u64..16, 0usize..5),
    ) {
        let (capacity, ttl) = shape;
        let ttl = SimDuration::from_secs([0, 1, 7, 40, u64::MAX][ttl]);
        let mut tlru = Tlru::new(capacity, ttl);
        let mut reference = ReferenceTlru::new(capacity, ttl);
        let (mut ops, mut expected) = (Vec::new(), Vec::new());
        let mut now = 0u64;
        for (step, &(p, cost, gap)) in steps.iter().enumerate() {
            // Two steps in three share the previous one's second.
            now += if gap < 8 { 0 } else { [1, 6, 8, 45][gap as usize - 8] };
            ops.clear();
            expected.clear();
            tlru.on_access(ProgramId::new(p), cost, SimTime::from_secs(now), &mut ops);
            reference.on_access(ProgramId::new(p), cost, SimTime::from_secs(now), &mut expected);
            prop_assert_eq!(&ops, &expected, "ops diverge at step {}", step);
            prop_assert_eq!(tlru.used_slots(), reference.used, "used at step {}", step);
            for q in (0..PROGRAMS).map(ProgramId::new) {
                prop_assert_eq!(tlru.cost_of(q), reference.cost_of(q), "cost of {} at step {}", q, step);
                prop_assert_eq!(tlru.contains(q), reference.cost_of(q).is_some());
            }
        }
    }

    /// Ghost bounds from one entry to the slot capacity, so revivals from
    /// both ghost lists steer the target both ways, and costs past the
    /// capacity that must forget their ghosts.
    #[test]
    fn arc_emits_the_reference_ops(
        steps in prop::collection::vec((0u32..PROGRAMS, 0u32..9), 1..400),
        shape in (0u64..16, 0u32..4),
    ) {
        let (capacity, ghost) = shape;
        let mut arc = ArcCache::new(capacity, ghost);
        let mut reference = ReferenceArc::new(capacity, ghost);
        let (mut ops, mut expected) = (Vec::new(), Vec::new());
        for (step, &(p, cost)) in steps.iter().enumerate() {
            ops.clear();
            expected.clear();
            arc.on_access(ProgramId::new(p), cost, SimTime::from_secs(step as u64), &mut ops);
            reference.on_access(ProgramId::new(p), cost, &mut expected);
            prop_assert_eq!(&ops, &expected, "ops diverge at step {}", step);
            prop_assert_eq!(arc.used_slots(), reference.t1.used + reference.t2.used, "used at step {}", step);
            prop_assert_eq!(arc.recency_target(), reference.p, "target at step {}", step);
            for q in (0..PROGRAMS).map(ProgramId::new) {
                prop_assert_eq!(arc.cost_of(q), reference.cost_of(q), "cost of {} at step {}", q, step);
                prop_assert_eq!(arc.contains(q), reference.contains(q), "{} cached at step {}", q, step);
            }
        }
    }
}

proptest! {
    // About half the cases are narrow and half wide: each kind gets about
    // the 256 cases the narrow property had alone.
    #![proptest_config(ProptestConfig { cases: 512, ..ProptestConfig::default() })]

    /// Both window feeds — the whole future at once and one event a
    /// hand-over — over a cost table with zero-cost (unplaceable) programs
    /// in it and a schedule that names programs beyond it. A narrow
    /// catalogue, or a wide one whose ids are skewed toward the low end
    /// (so a few programs stay in the look-ahead while most come and go)
    /// with a cache a dozen times larger.
    #[test]
    fn oracle_emits_the_reference_ops(
        events in prop::collection::vec((0u64..3_000, 0u32..WIDE + 2), 1..500),
        accesses in prop::collection::vec(0u64..9_000, 1..120),
        shape in (0u64..20, 0u64..40_000, 0usize..2),
        costs in prop::collection::vec(0u32..6, WIDE as usize),
    ) {
        let (capacity, lookahead, wide) = shape;
        let (width, capacity) = ([PROGRAMS, WIDE][wide], capacity * [1, 12][wide]);
        let costs = &costs[..width as usize];
        let lookahead = SimDuration::from_secs(lookahead);
        let mut at = 0u64;
        let events: Vec<(u64, u32)> = events
            .iter()
            .map(|&(dt, draw)| {
                at += dt;
                let p = match wide {
                    0 => draw % (PROGRAMS + 2),
                    _ => draw * draw / (WIDE + 2),
                };
                (at, p)
            })
            .collect();
        for batch in [1, events.len()] {
            let window = || ScheduleWindow::new(costs.to_vec().into());
            let mut oracle = Oracle::new(capacity, lookahead, window());
            let mut reference = ReferenceOracle::new(capacity, lookahead, window());
            let mut feeder = Feeder::over(&events, batch);
            let (mut ops, mut expected) = (Vec::new(), Vec::new());
            let mut now = SimTime::EPOCH;
            for (step, &dt) in accesses.iter().enumerate() {
                now += SimDuration::from_secs(dt);
                feeder
                    .cover(now.saturating_add(lookahead), |events, covered| {
                        reference.window.extend(events, covered)?;
                        oracle.extend_schedule(events, covered)
                    })
                    .expect("in order");
                ops.clear();
                expected.clear();
                oracle.prepare(now).expect("covered");
                // The Oracle ignores which program the access names.
                oracle.on_access(ProgramId::new(0), 1, now, &mut ops);
                reference.on_access(now, &mut expected);
                prop_assert_eq!(&ops, &expected, "ops diverge at step {}, batch {}", step, batch);
                prop_assert_eq!(oracle.used_slots(), reference.used, "used at step {}", step);
                for q in (0..width + 3).map(ProgramId::new) {
                    prop_assert_eq!(oracle.future_count(q), reference.future_count(q), "future of {} at step {}", q, step);
                    prop_assert_eq!(oracle.contains(q), reference.cached_set.contains_key(&q), "{} cached at step {}", q, step);
                    prop_assert_eq!(oracle.cost_of(q), reference.cost_of(q));
                }
            }
        }
    }
}
