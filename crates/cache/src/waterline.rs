//! The waterline rebalance shared by the windowed-LFU family and the
//! Oracle.
//!
//! Both keep their programs' scores in two binary heaps — the cached
//! scores in a min-heap, weakest at the root, and the candidates' in a
//! max-heap, best at the root — and the *waterline* invariant between
//! them: no candidate that may displace a cached program (by the
//! strategy's own rule, see [`Tenants::displaces`]) is left outside while
//! it fits. [`Waterline`] owns the heaps, the slot accounting and the one
//! loop that restores the invariant; a strategy supplies its per-program
//! facts through [`Tenants`] and keeps, in its own per-program record,
//! the [`Place`] where each program's score is filed.
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
//!    the steady state of a full cache — one round per access, which
//!    reads the two roots and nothing else.
//!
//! The shorter rule "stop when nothing is displaced" is **not** exact: a
//! lower-ranked, smaller candidate may still fit the free space, and the
//! literal loop admits it (see the
//! `smaller_candidate_fills_free_space_behind_a_blocked_one` test).
//!
//! # Walking past a root
//!
//! With room to spare, a rebalance steps over candidate after candidate,
//! and a big candidate may need several victims. Nothing moves while it
//! does — only an entrant changes either heap — so the stretch between
//! two entrants is one best-first walk of each heap that moves nothing:
//! a small frontier heap holds the children of the entries visited so
//! far, and the next entry is the frontier's best, so a walk's `k`th step
//! costs `O(log k)` whatever the heap's size. Once one candidate has
//! displaced not even the weakest cached program, the rest of the walk
//! asks only whether a candidate fits the free space (monotonicity again:
//! none of them has a victim either). A swap then takes its victims off
//! the cached root one by one: they are the weakest, in the order the
//! walk met them.
//!
//! A walk is remembered until its heap next changes, and the next search
//! that walks the same heap reads the remembered entries before it
//! extends them. Short of an admission, an access changes one heap at
//! most: a hit refiles a cached score and leaves the candidates' heap as
//! it was, a miss the cached heap. On the benchmark's `grid_zoo` grid,
//! half to four fifths of its five waterline strategies' searches begin
//! by reading a remembered candidate walk, and a build that started every
//! walk afresh ran a pass about 9 % slower. A walk of a changed heap is
//! never read: a heap's scores change only through `Scores::change`,
//! which steps their generation, and a walk taken at another generation
//! starts over.
//!
//! # Eager filing
//!
//! Every score is filed at its current value: a strategy refiles a
//! program ([`Waterline::refile`]) whenever its score moves — a hit, an
//! event crossing a window edge — which sifts it a few levels through its
//! heap (often none: a hit on a program at a leaf of the cached heap
//! moves nothing, and tells nobody). The roots are then exact as they
//! stand, and the rebalance reads them without repairing anything.
//!
//! Filing cached scores lazily instead — a raised score left under its
//! stale lower key, the key being the heap entry itself — saves a hit its
//! sift, but the weakest-first walk must then treat every cached key as a
//! floor under a score it looks up, and a remembered walk must be checked
//! against the scores it read. Built and measured that way, it made a
//! `global-lfu` replay, whose feed hits cached programs the most, about
//! 9 % faster and the rest slower: the windowed LFU's accesses replayed
//! alone by about 8 %, the Oracle's by 15 to 20 %.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use cablevod_hfc::ids::ProgramId;

use crate::strategy::CacheOp;

/// Score of a program: access count, then recency (a sequence number,
/// kept below 2^32 by the LFU's renumbering), then id. The weakest cached
/// score is the best eviction victim and the highest candidate the best
/// admission.
pub(crate) type Score = (u32, u32, ProgramId);

/// Where a program's score is filed: in which heap, at which position,
/// or nowhere ([`Place::default`]). A strategy keeps it in its own
/// per-program record and hands it back to [`Waterline::refile`] and
/// [`Waterline::drop`]; the heaps keep it current through
/// [`Places::set_place`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct Place(u32);

impl Place {
    /// The bit that says the score is in the cached heap; the rest is the
    /// position plus one, so that zero is nowhere.
    const CACHED: u32 = 1 << 31;

    fn at<const CACHED: bool>(pos: usize) -> Place {
        debug_assert!(pos < (Self::CACHED - 1) as usize, "a heap of 2^31 scores");
        Place((pos as u32 + 1) | if CACHED { Self::CACHED } else { 0 })
    }

    /// Whether the score is in either heap.
    pub(crate) fn is_filed(self) -> bool {
        self.0 != 0
    }

    /// Whether the score is in the cached heap.
    pub(crate) fn is_cached(self) -> bool {
        self.0 & Self::CACHED != 0
    }

    fn pos(self) -> usize {
        debug_assert!(self.is_filed(), "a filed score");
        ((self.0 & !Self::CACHED) - 1) as usize
    }
}

/// Where a strategy keeps each program's [`Place`].
pub(crate) trait Places {
    /// `program`'s score now sits at `place`.
    fn set_place(&mut self, program: ProgramId, place: Place);
}

/// The per-program facts a strategy lends to [`Waterline::rebalance`].
pub(crate) trait Tenants: Places {
    /// Slots `program` occupies, or `None` if it can never be placed.
    fn cost(&self, program: ProgramId) -> Option<u32>;

    /// Whether `candidate` may push `victim` out. Must be monotone: if it
    /// is false for a pair it is false for every lower candidate against
    /// every higher victim (exit 3 of the module docs rests on this).
    fn displaces(&self, candidate: Score, victim: Score) -> bool;

    /// `score`'s program left the cache, and is filed nowhere; returns
    /// whether it remains an admission candidate.
    fn evicted(&mut self, score: Score) -> bool;
}

/// A binary heap of scores, the weakest at the root of the cached heap
/// (`CACHED`) and the best at the root of the candidates'. Every score it
/// moves has its program's [`Place`] updated.
#[derive(Debug, Default)]
struct Heap<const CACHED: bool> {
    scores: Scores,
}

mod scores {
    use std::ops::Deref;

    use super::Score;

    /// A heap's scores, readable as they are and changeable only through
    /// [`Scores::change`], which counts the change: a remembered walk
    /// knows from the count alone whether it still holds.
    #[derive(Debug, Default)]
    pub(super) struct Scores {
        scores: Vec<Score>,
        generation: u64,
    }

    impl Scores {
        /// The scores, lent to be changed.
        pub(super) fn change(&mut self) -> &mut Vec<Score> {
            self.generation += 1;
            &mut self.scores
        }

        /// How many times the scores were lent to be changed.
        pub(super) fn generation(&self) -> u64 {
            self.generation
        }
    }

    impl Deref for Scores {
        type Target = Vec<Score>;

        fn deref(&self) -> &Vec<Score> {
            &self.scores
        }
    }
}

use scores::Scores;

impl<const CACHED: bool> Heap<CACHED> {
    /// Whether `a` belongs nearer the root than `b`.
    #[inline]
    fn above(a: Score, b: Score) -> bool {
        if CACHED {
            a < b
        } else {
            a > b
        }
    }

    fn push<P: Places + ?Sized>(&mut self, score: Score, places: &mut P) {
        self.scores.change().push(score);
        let pos = self.sift_up(self.scores.len() - 1, score, places);
        places.set_place(score.2, Place::at::<CACHED>(pos));
    }

    /// Takes out the score at `pos` (which is then filed nowhere) and
    /// returns it.
    fn remove<P: Places + ?Sized>(&mut self, pos: usize, places: &mut P) -> Score {
        let last = self.scores.change().pop().expect("a filed score");
        let removed = if pos < self.scores.len() {
            let removed = self.scores[pos];
            // The last score fills the hole, and goes whichever way it
            // belongs.
            let to = if pos > 0 && Self::above(last, self.scores[(pos - 1) / 2]) {
                self.sift_up(pos, last, places)
            } else {
                self.sift_down(pos, last, places)
            };
            places.set_place(last.2, Place::at::<CACHED>(to));
            removed
        } else {
            last
        };
        places.set_place(removed.2, Place::default());
        removed
    }

    /// Moves the score at `pos` to `score` (the same program's): up if it
    /// now belongs nearer the root, down otherwise. Its place changes
    /// only if it moves.
    fn replace<P: Places + ?Sized>(&mut self, pos: usize, score: Score, places: &mut P) {
        let old = self.scores[pos];
        debug_assert_eq!(old.2, score.2, "refiling another program");
        let to = if Self::above(score, old) {
            self.sift_up(pos, score, places)
        } else {
            self.sift_down(pos, score, places)
        };
        if to != pos {
            places.set_place(score.2, Place::at::<CACHED>(to));
        }
    }

    /// Files `score` from the hole at `pos` toward the root, telling every
    /// program it moves where it is now, and returns where it stopped
    /// (whose place the caller sets).
    fn sift_up<P: Places + ?Sized>(
        &mut self,
        mut pos: usize,
        score: Score,
        places: &mut P,
    ) -> usize {
        let scores = self.scores.change();
        while pos > 0 {
            let parent = (pos - 1) / 2;
            let moved = scores[parent];
            if !Self::above(score, moved) {
                break;
            }
            scores[pos] = moved;
            places.set_place(moved.2, Place::at::<CACHED>(pos));
            pos = parent;
        }
        scores[pos] = score;
        pos
    }

    /// As [`Heap::sift_up`], away from the root.
    fn sift_down<P: Places + ?Sized>(
        &mut self,
        mut pos: usize,
        score: Score,
        places: &mut P,
    ) -> usize {
        let scores = self.scores.change();
        let len = scores.len();
        loop {
            let mut child = 2 * pos + 1;
            if child >= len {
                break;
            }
            if child + 1 < len && Self::above(scores[child + 1], scores[child]) {
                child += 1;
            }
            let moved = scores[child];
            if !Self::above(moved, score) {
                break;
            }
            scores[pos] = moved;
            places.set_place(moved.2, Place::at::<CACHED>(pos));
            pos = child;
        }
        scores[pos] = score;
        pos
    }
}

/// A score and its heap position (below 2^31, as a [`Place`] holds it),
/// ordered as the heap orders scores — the greater nearer the root — so
/// that a [`BinaryHeap`] of them pops the one nearest the root first.
/// Scores differ by their ids, so the position never decides.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Ranked<const CACHED: bool>(Score, u32);

impl<const CACHED: bool> Ord for Ranked<CACHED> {
    fn cmp(&self, other: &Self) -> Ordering {
        let order = (self.0, self.1).cmp(&(other.0, other.1));
        if CACHED {
            order.reverse()
        } else {
            order
        }
    }
}

impl<const CACHED: bool> PartialOrd for Ranked<CACHED> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// The walk of a heap, nearest the root first, that moves nothing;
/// remembered while the heap stays unchanged (see the module docs).
#[derive(Debug, Default)]
struct Walk<const CACHED: bool> {
    /// The entries visited so far, in order, with their positions: the
    /// heap's best, nearest the root first.
    visited: Vec<(Score, u32)>,
    /// The children of the visited entries (but the last) not visited
    /// yet.
    frontier: BinaryHeap<Ranked<CACHED>>,
    /// The heap's generation the walk was taken at.
    generation: u64,
    /// How many of `visited` the current pass has read.
    cursor: usize,
}

impl<const CACHED: bool> Walk<CACHED> {
    #[cfg(test)]
    fn heap_bytes(&self) -> usize {
        use std::mem::size_of;
        self.visited.capacity() * size_of::<(Score, u32)>()
            + self.frontier.capacity() * size_of::<Ranked<CACHED>>()
    }

    /// Starts a pass from the root, forgetting the walk if the heap
    /// changed since.
    fn start(&mut self, heap: &Heap<CACHED>) {
        if self.generation != heap.scores.generation() {
            self.generation = heap.scores.generation();
            self.visited.clear();
            self.frontier.clear();
        }
        self.cursor = 0;
    }

    /// The pass's next score of `heap`, nearest the root first, with its
    /// position.
    fn next(&mut self, heap: &Heap<CACHED>) -> Option<(Score, usize)> {
        debug_assert_eq!(
            self.generation,
            heap.scores.generation(),
            "a walk of a changed heap"
        );
        if let Some(&(score, pos)) = self.visited.get(self.cursor) {
            self.cursor += 1;
            return Some((score, pos as usize));
        }
        let entry = match self.visited.last() {
            // The root is the first: the frontier is only needed past it.
            None => (*heap.scores.first()?, 0),
            Some(&(_, last)) => {
                for child in [2 * last + 1, 2 * last + 2] {
                    if let Some(&score) = heap.scores.get(child as usize) {
                        self.frontier.push(Ranked(score, child));
                    }
                }
                let Ranked(score, pos) = self.frontier.pop()?;
                (score, pos)
            }
        };
        self.visited.push(entry);
        self.cursor += 1;
        Some((entry.0, entry.1 as usize))
    }
}

/// The candidate a walk found able to enter.
struct Entrant {
    /// Its position in the candidates' heap.
    at: usize,
    cost: u64,
    /// How many of the weakest cached programs it displaces.
    victims: usize,
}

/// The two score heaps and the slot accounting of one cache.
#[derive(Debug)]
pub(crate) struct Waterline {
    capacity: u64,
    used: u64,
    cached: Heap<true>,
    candidates: Heap<false>,
    /// Smallest placeable cost ever noted: no candidate is cheaper.
    min_cost: u64,
    cached_walk: Walk<true>,
    candidate_walk: Walk<false>,
    probes: u64,
}

impl Waterline {
    /// Heap bytes held, from capacities: both heaps and both walks'
    /// frontiers.
    #[cfg(test)]
    pub(crate) fn heap_bytes(&self) -> usize {
        use std::mem::size_of;
        (self.cached.scores.capacity() + self.candidates.scores.capacity()) * size_of::<Score>()
            + self.cached_walk.heap_bytes()
            + self.candidate_walk.heap_bytes()
    }

    /// The cached scores and the candidates', each sorted ascending.
    #[cfg(test)]
    pub(crate) fn sorted_scores(&self) -> [Vec<Score>; 2] {
        [&*self.cached.scores, &*self.candidates.scores].map(|scores| {
            let mut scores = scores.clone();
            scores.sort_unstable();
            scores
        })
    }

    /// Bound on candidates visited per rebalance (exit 2 of the module
    /// docs — report-visible behaviour, not a tuning knob).
    const MAX_ROUNDS: u32 = 16;

    pub(crate) fn new(capacity: u64) -> Self {
        Waterline {
            capacity,
            used: 0,
            cached: Heap::default(),
            candidates: Heap::default(),
            min_cost: u64::MAX,
            cached_walk: Walk::default(),
            candidate_walk: Walk::default(),
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

    /// Files a program that is filed nowhere as a candidate at `score`.
    pub(crate) fn file<P: Places + ?Sized>(&mut self, score: Score, places: &mut P) {
        self.candidates.push(score, places);
    }

    /// Moves the program filed at `place`, in either heap, to its new
    /// `score`.
    pub(crate) fn refile<P: Places + ?Sized>(
        &mut self,
        place: Place,
        score: Score,
        places: &mut P,
    ) {
        if place.is_cached() {
            self.cached.replace(place.pos(), score, places);
        } else {
            self.candidates.replace(place.pos(), score, places);
        }
    }

    /// Takes the candidate filed at `place` out: it is no longer one.
    pub(crate) fn drop<P: Places + ?Sized>(&mut self, place: Place, places: &mut P) {
        debug_assert!(!place.is_cached(), "only a candidate is dropped");
        self.candidates.remove(place.pos(), places);
    }

    /// Rewrites every filed score through `rescore`, which must keep
    /// their order (the LFU's renumbering), so nothing moves.
    pub(crate) fn rescore(&mut self, rescore: impl Fn(Score) -> Score) {
        for score in self.cached.scores.change().iter_mut() {
            *score = rescore(*score);
        }
        for score in self.candidates.scores.change().iter_mut() {
            *score = rescore(*score);
        }
    }

    /// Restores the waterline: admits the best candidates, evicting
    /// displaced cached programs when that frees enough room. Swaps are
    /// transactional — either the whole victim set is evicted and the
    /// candidate admitted, or nothing changes. See the module docs for
    /// the visiting order and the exits.
    pub(crate) fn rebalance<T: Tenants>(&mut self, tenants: &mut T, ops: &mut Vec<CacheOp>) {
        let mut rounds = 0;
        // An entrant moves both heaps, so the walk for the next one starts
        // over from the best candidate.
        while let Some(entrant) = self.next_entrant(&mut rounds, tenants) {
            let candidate = self.candidates.remove(entrant.at, tenants);
            for _ in 0..entrant.victims {
                let victim = self.cached.remove(0, tenants);
                self.used -= Self::cached_cost(victim, tenants);
                if tenants.evicted(victim) {
                    self.candidates.push(victim, tenants);
                }
                ops.push(CacheOp::Evict(victim.2));
            }
            self.cached.push(candidate, tenants);
            self.used += entrant.cost;
            ops.push(CacheOp::Admit(candidate.2));
        }
    }

    /// Walks the candidates best first for the next one that can enter
    /// the cache, and how many of the weakest cached programs it
    /// displaces (none when it fits the free space). `None` on any of the
    /// three exits.
    fn next_entrant<T: Tenants>(&mut self, rounds: &mut u32, tenants: &T) -> Option<Entrant> {
        // Set once a candidate displaced not even the weakest cached
        // program: `displaces` is monotone, so no later candidate of this
        // walk has a victim either.
        let mut floor_holds = false;
        self.candidate_walk.start(&self.candidates);
        while let Some((candidate, at)) = self.candidate_walk.next(&self.candidates) {
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
            if self.used + cost <= self.capacity {
                return Some(Entrant {
                    at,
                    cost,
                    victims: 0,
                });
            }
            if floor_holds {
                continue; // no victims, as for the candidate before
            }
            // Gather displaced victims, weakest first, until the
            // candidate fits.
            let (mut freed, mut victims) = (0u64, 0);
            self.cached_walk.start(&self.cached);
            while let Some((victim, _)) = self.cached_walk.next(&self.cached) {
                if !tenants.displaces(candidate, victim) {
                    break;
                }
                freed += Self::cached_cost(victim, tenants);
                victims += 1;
                if self.used + cost - freed <= self.capacity {
                    return Some(Entrant { at, cost, victims });
                }
            }
            if victims == 0 {
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

    fn cached_cost<T: Tenants>(score: Score, tenants: &T) -> u64 {
        u64::from(
            tenants
                .cost(score.2)
                .expect("only placeable programs are cached"),
        )
    }
}

#[cfg(test)]
mod tests {
    use cablevod_hfc::ids::ProgramId;
    use cablevod_hfc::units::{SimDuration, SimTime};

    use crate::event::AccessEvent;
    use crate::lfu::WindowedLfu;
    use crate::oracle::Oracle;
    use crate::schedule::ScheduleWindow;
    use crate::strategy::{CacheOp, CacheStrategy};

    /// `n` program ids skewed toward the low end of `0..programs`, from a
    /// xorshift stream: a few stay hot, most come and go.
    fn skewed(programs: u32, n: usize) -> Vec<ProgramId> {
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        (0..n)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                let u = (x >> 11) as f64 / (1u64 << 53) as f64;
                ProgramId::new((f64::from(programs) * u * u * u) as u32)
            })
            .collect()
    }

    /// One to six slots, and every 97th program too big for the cache.
    fn cost(program: ProgramId) -> u32 {
        match program.value() {
            q if q % 97 == 96 => 1_000,
            q => 1 + q * 7 % 6,
        }
    }

    /// Admissions and evictions in `ops`.
    fn moves(ops: &[CacheOp]) -> (u64, u64) {
        let admits = ops
            .iter()
            .filter(|op| matches!(op, CacheOp::Admit(_)))
            .count();
        (admits as u64, (ops.len() - admits) as u64)
    }

    /// Which candidates a rebalance visits is behaviour, not an artefact of
    /// the structure that orders the scores: these counts were taken from
    /// the rebalance over two ordered sets, and a structure that walks the
    /// candidates in another order, or stops at another one, moves them.
    #[test]
    fn fixed_runs_visit_the_candidates_they_always_visited() {
        let mut lfu = WindowedLfu::new(60, SimDuration::from_hours(6));
        let mut ops = Vec::new();
        for (i, program) in skewed(300, 4_000).into_iter().enumerate() {
            let now = SimTime::from_secs(i as u64 * 40);
            lfu.on_access(program, cost(program), now, &mut ops);
        }
        assert_eq!(
            (lfu.candidate_probes(), moves(&ops)),
            (11_235, (179, 161)),
            "lfu"
        );

        // Every 50th program is zero-length, so unplaceable.
        let costs: Vec<u32> = (0..300)
            .map(ProgramId::new)
            .map(|q| if q.value() % 50 == 49 { 0 } else { cost(q) })
            .collect();
        let events: Vec<AccessEvent> = skewed(300, 4_000)
            .into_iter()
            .enumerate()
            .map(|(i, q)| AccessEvent::new(SimTime::from_secs(i as u64 * 40), q).expect("early"))
            .collect();
        let mut window = ScheduleWindow::new(costs.into());
        window.extend(&events, SimTime::MAX).expect("in order");
        let mut oracle = Oracle::new(60, SimDuration::from_hours(6), window);
        ops.clear();
        for i in 0..1_000u64 {
            let now = SimTime::from_secs(i * 150);
            oracle.prepare(now).expect("covered");
            oracle.on_access(ProgramId::new(0), 1, now, &mut ops);
        }
        assert_eq!(
            (oracle.candidate_probes(), moves(&ops)),
            (6_418, (607, 587)),
            "oracle"
        );
    }
}
