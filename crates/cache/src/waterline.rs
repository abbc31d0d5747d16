//! The waterline rebalance shared by the windowed-LFU family and the
//! Oracle.
//!
//! Both keep two ordered score sets — `cached` and `candidates` — and the
//! *waterline* invariant between them: no candidate that may displace a
//! cached program (by the strategy's own rule, see
//! [`Tenants::displaces`]) is left outside while it fits. [`Waterline`]
//! owns the sets, the slot accounting and the one loop that restores the
//! invariant; a strategy supplies its per-program facts through
//! [`Tenants`].
//!
//! # What a rebalance visits, and when it stops
//!
//! Candidates are tried best first. A candidate that cannot enter (too
//! big for the cache, or its dominated victims free too little) is
//! stepped over and the next-best tried, so a small dominating candidate
//! is never starved behind a big one. The loop ends on the first of:
//!
//! 1. **No candidate is left** below the last one stepped over.
//! 2. **[`Waterline::MAX_ROUNDS`] candidates were visited.** The cap
//!    keeps the per-access cost bounded while the waterline self-corrects
//!    across accesses. It is *behaviour*: which admissions happen at
//!    which access — and so every hit count and report byte — depends on
//!    it. Do not change it as a tuning knob.
//! 3. **Nothing further can change the cache**: the candidate just tried
//!    displaces not even the weakest cached program, *and* the free
//!    space is below the smallest cost ever noted. Candidates are visited
//!    in non-increasing score order and [`Tenants::displaces`] is
//!    monotone, so no later candidate displaces anything either; a later
//!    candidate could then only enter through free space, and each costs
//!    at least the smallest noted cost. The remaining rounds would visit
//!    candidates and change nothing, so skipping them is exact. This is
//!    the steady state of a full cache — one round per access.
//!
//! The shorter rule "stop when nothing is displaced" is **not** exact: a
//! lower-ranked, smaller candidate may still fit the free space, and the
//! literal loop admits it (see the
//! `smaller_candidate_fills_free_space_behind_a_blocked_one` test).

use std::collections::BTreeSet;
use std::ops::Bound::{Excluded, Unbounded};

use cablevod_hfc::ids::ProgramId;

use crate::strategy::CacheOp;

/// Score of a program: access count, then recency, then id. Ordered
/// ascending, so the first cached score is the best eviction victim and
/// the last candidate the best admission.
pub(crate) type Score = (u32, u64, ProgramId);

/// The per-program facts a strategy lends to [`Waterline::rebalance`].
pub(crate) trait Tenants {
    /// Slots `program` occupies, or `None` if it can never be placed.
    fn cost(&self, program: ProgramId) -> Option<u32>;

    /// Whether `candidate` may push `victim` out. Must be monotone: if it
    /// is false for a pair it is false for every lower candidate against
    /// every higher victim (exit 3 of the module docs rests on this).
    fn displaces(&self, candidate: Score, victim: Score) -> bool;

    /// The current score of the cached program filed under `filed`, which
    /// is recorded as its new filed key. Strategies that reposition
    /// cached scores eagerly keep the default.
    fn refile(&mut self, filed: Score) -> Score {
        filed
    }

    /// `score`'s program entered the cache.
    fn admitted(&mut self, score: Score);

    /// `score`'s program left the cache; returns whether it remains an
    /// admission candidate.
    fn evicted(&mut self, score: Score) -> bool;
}

/// The two score sets and the slot accounting of one cache.
///
/// `cached` may hold keys *below* a program's current score (never
/// above): it is only ever read from its weak end, where
/// [`Tenants::refile`] repairs a stale key before it is trusted.
#[derive(Debug)]
pub(crate) struct Waterline {
    capacity: u64,
    used: u64,
    pub(crate) cached: BTreeSet<Score>,
    pub(crate) candidates: BTreeSet<Score>,
    /// Smallest placeable cost ever noted: no candidate is cheaper.
    min_cost: u64,
    /// Scratch for one swap's victims, kept to reuse its allocation.
    victims: Vec<Score>,
    probes: u64,
}

impl Waterline {
    /// Bound on candidates visited per rebalance (exit 2 of the module
    /// docs — report-visible behaviour, not a tuning knob).
    const MAX_ROUNDS: u32 = 16;

    pub(crate) fn new(capacity: u64) -> Self {
        Waterline {
            capacity,
            used: 0,
            cached: BTreeSet::new(),
            candidates: BTreeSet::new(),
            min_cost: u64::MAX,
            victims: Vec::new(),
            probes: 0,
        }
    }

    pub(crate) fn capacity(&self) -> u64 {
        self.capacity
    }

    pub(crate) fn used(&self) -> u64 {
        self.used
    }

    /// Candidates visited by every rebalance so far.
    pub(crate) fn probes(&self) -> u64 {
        self.probes
    }

    /// Notes a cost some candidate may carry. Every cost must be noted
    /// before a candidate carrying it is rebalanced.
    pub(crate) fn note_cost(&mut self, cost: u32) {
        self.min_cost = self.min_cost.min(u64::from(cost));
    }

    /// Restores the waterline: admits the best candidates, evicting
    /// displaced cached programs when that frees enough room. Swaps are
    /// transactional — either the whole victim set is evicted and the
    /// candidate admitted, or nothing changes. See the module docs for
    /// the visiting order and the exits.
    pub(crate) fn rebalance<T: Tenants>(&mut self, tenants: &mut T, ops: &mut Vec<CacheOp>) {
        // Exclusive upper bound on candidates after a failed attempt.
        let mut bound: Option<Score> = None;
        for _ in 0..Self::MAX_ROUNDS {
            let candidate = match bound {
                None => self.candidates.last(),
                Some(b) => self.candidates.range(..b).next_back(),
            };
            let Some(&candidate) = candidate else { break };
            self.probes += 1;
            let placeable = tenants.cost(candidate.2).map(u64::from);
            let Some(cost) = placeable.filter(|&c| c <= self.capacity) else {
                // Can never fit at any occupancy; step over it but keep
                // it tracked (count reporting must stay exact).
                bound = Some(candidate);
                continue;
            };
            if self.used + cost <= self.capacity {
                self.admit(candidate, cost, tenants, ops);
                bound = None;
                continue;
            }
            // Gather displaced victims, weakest first, until the
            // candidate fits.
            let mut victims = std::mem::take(&mut self.victims);
            victims.clear();
            let mut freed = 0u64;
            let mut weakest = self.weakest_above(None, tenants);
            while let Some(victim) = weakest {
                if !tenants.displaces(candidate, victim) {
                    break;
                }
                freed += Self::cached_cost(victim, tenants);
                victims.push(victim);
                if self.used + cost - freed <= self.capacity {
                    break;
                }
                weakest = self.weakest_above(Some(victim), tenants);
            }
            let blocked = victims.is_empty();
            if !blocked && self.used + cost - freed <= self.capacity {
                for &victim in &victims {
                    self.evict(victim, tenants, ops);
                }
                self.admit(candidate, cost, tenants, ops);
                bound = None;
            } else {
                bound = Some(candidate); // try the next-best candidate
            }
            self.victims = victims;
            if blocked && self.capacity - self.used < self.min_cost {
                break; // exit 3: nothing further can change the cache
            }
        }
    }

    /// The weakest cached score above `after` (the weakest of all for
    /// `None`), repairing stale filed keys on the way so the answer is
    /// exact.
    fn weakest_above<T: Tenants>(
        &mut self,
        after: Option<Score>,
        tenants: &mut T,
    ) -> Option<Score> {
        loop {
            let filed = match after {
                None => self.cached.first(),
                Some(a) => self.cached.range((Excluded(a), Unbounded)).next(),
            };
            let filed = *filed?;
            let current = tenants.refile(filed);
            if current == filed {
                return Some(filed);
            }
            // Keys only ever lag below the truth, so the repaired key
            // moves up and everything at or below `after` stays put.
            self.cached.remove(&filed);
            self.cached.insert(current);
        }
    }

    fn cached_cost<T: Tenants>(score: Score, tenants: &T) -> u64 {
        u64::from(
            tenants
                .cost(score.2)
                .expect("only placeable programs are cached"),
        )
    }

    fn admit<T: Tenants>(
        &mut self,
        score: Score,
        cost: u64,
        tenants: &mut T,
        ops: &mut Vec<CacheOp>,
    ) {
        self.candidates.remove(&score);
        self.cached.insert(score);
        self.used += cost;
        tenants.admitted(score);
        ops.push(CacheOp::Admit(score.2));
    }

    /// Evicts a victim whose filed key is current (as
    /// [`Waterline::weakest_above`] returns them).
    fn evict<T: Tenants>(&mut self, score: Score, tenants: &mut T, ops: &mut Vec<CacheOp>) {
        self.cached.remove(&score);
        self.used -= Self::cached_cost(score, tenants);
        if tenants.evicted(score) {
            self.candidates.insert(score);
        }
        ops.push(CacheOp::Evict(score.2));
    }
}
