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
//!
//! With room to spare, then, a rebalance steps over candidate after
//! candidate. Nothing moves while it does — only an entrant changes either
//! set — so the stretch between two entrants is one backward pass of an
//! iterator over `candidates`, not a search per candidate, and once one
//! candidate has displaced not even the weakest cached program the rest of
//! the pass asks only whether a candidate fits the free space
//! (monotonicity again: none of them has a victim either).
//!
//! # Lazy filing
//!
//! Both strategies file cached scores lazily: a program whose score rises
//! while it is cached keeps the lower key it was filed under, and a score
//! that falls is refiled only when it dips below that key. The cached set
//! is only ever read from its weak end, here, where [`Tenants::refile`]
//! repairs a stale key before it is trusted — so a hit (LFU) or an event
//! entering the look-ahead (Oracle) on a cached program touches no set.

use std::collections::BTreeSet;
use std::ops::Bound::{Excluded, Unbounded};

use cablevod_hfc::ids::ProgramId;

use crate::strategy::CacheOp;

/// Score of a program: access count, then recency (a sequence number,
/// kept below 2^32 by the LFU's renumbering), then id. Ordered ascending,
/// so the first cached score is the best eviction victim and the last
/// candidate the best admission.
pub(crate) type Score = (u32, u32, ProgramId);

/// The per-program facts a strategy lends to [`Waterline::rebalance`].
pub(crate) trait Tenants {
    /// Slots `program` occupies, or `None` if it can never be placed.
    fn cost(&self, program: ProgramId) -> Option<u32>;

    /// Whether `candidate` may push `victim` out. Must be monotone: if it
    /// is false for a pair it is false for every lower candidate against
    /// every higher victim (exit 3 of the module docs rests on this).
    fn displaces(&self, candidate: Score, victim: Score) -> bool;

    /// The current score of the cached program filed under `filed`, which
    /// is recorded as its new filed key. Both strategies file cached
    /// scores lazily (a raised score keeps its stale lower key), so there
    /// is no default: a strategy that repositions every cached score
    /// eagerly would answer `filed` itself.
    fn refile(&mut self, filed: Score) -> Score;

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
    /// Heap bytes held: both sets at their keys' size (node slack not
    /// counted) and the victims scratch.
    #[cfg(test)]
    pub(crate) fn heap_bytes(&self) -> usize {
        (self.cached.len() + self.candidates.len() + self.victims.capacity())
            * std::mem::size_of::<Score>()
    }

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
        let mut rounds = 0;
        // An entrant moves both sets, so the walk for the next one starts
        // over from the best candidate.
        while let Some((candidate, cost)) = self.next_entrant(&mut rounds, tenants) {
            let mut victims = std::mem::take(&mut self.victims);
            for victim in victims.drain(..) {
                self.evict(victim, tenants, ops);
            }
            self.victims = victims;
            self.admit(candidate, cost, tenants, ops);
        }
    }

    /// Walks the candidates best first for the next one that can enter
    /// the cache, and returns it with its cost, its victims (none when it
    /// fits the free space) left in `self.victims`. `None` on any of the
    /// three exits. Nothing but stale filed keys changes during a walk,
    /// so it is one pass of an iterator, not a search per candidate.
    fn next_entrant<T: Tenants>(
        &mut self,
        rounds: &mut u32,
        tenants: &mut T,
    ) -> Option<(Score, u64)> {
        // Set once a candidate displaced not even the weakest cached
        // program: `displaces` is monotone, so no later candidate of this
        // walk has a victim either.
        let mut floor_holds = false;
        for &candidate in self.candidates.iter().rev() {
            if *rounds == Self::MAX_ROUNDS {
                return None; // exit 2
            }
            *rounds += 1;
            self.probes += 1;
            let placeable = tenants.cost(candidate.2).map(u64::from);
            let Some(cost) = placeable.filter(|&c| c <= self.capacity) else {
                // Can never fit at any occupancy; step over it but keep
                // it tracked (count reporting must stay exact).
                continue;
            };
            self.victims.clear();
            if self.used + cost <= self.capacity {
                return Some((candidate, cost));
            }
            if floor_holds {
                continue; // no victims, as for the candidate before
            }
            // Gather displaced victims, weakest first, until the
            // candidate fits.
            let mut freed = 0u64;
            let mut weakest = Self::weakest_above(&mut self.cached, None, tenants);
            while let Some(victim) = weakest {
                if !tenants.displaces(candidate, victim) {
                    break;
                }
                freed += Self::cached_cost(victim, tenants);
                self.victims.push(victim);
                if self.used + cost - freed <= self.capacity {
                    return Some((candidate, cost));
                }
                weakest = Self::weakest_above(&mut self.cached, Some(victim), tenants);
            }
            if self.victims.is_empty() {
                if self.capacity - self.used < self.min_cost {
                    return None; // exit 3: nothing further can change the cache
                }
                floor_holds = true;
            }
            // Otherwise the dominated victims free too little: try the
            // next-best candidate.
        }
        None // exit 1
    }

    /// The weakest score in `cached` above `after` (the weakest of all for
    /// `None`), repairing stale filed keys on the way so the answer is
    /// exact.
    fn weakest_above<T: Tenants>(
        cached: &mut BTreeSet<Score>,
        after: Option<Score>,
        tenants: &mut T,
    ) -> Option<Score> {
        loop {
            let filed = match after {
                None => cached.first(),
                Some(a) => cached.range((Excluded(a), Unbounded)).next(),
            };
            let filed = *filed?;
            let current = tenants.refile(filed);
            if current == filed {
                return Some(filed);
            }
            // Keys only ever lag below the truth, so the repaired key
            // moves up and everything at or below `after` stays put.
            cached.remove(&filed);
            cached.insert(current);
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
