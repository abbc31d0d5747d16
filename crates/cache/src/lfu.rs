//! Windowed least-frequently-used strategy (§IV-B.2).
//!
//! > "To compute the cache contents, the index server keeps a history of
//! > all events that occur within the last N hours (where N is a parameter
//! > to the algorithm). It calculates the number of accesses for each
//! > program in this history. Items that are accessed the most frequently
//! > are stored in the cache, with ties being resolved using an LRU
//! > strategy."
//!
//! Implementation: a sliding event window maintains per-program counts; a
//! pair of ordered score sets (cached / candidates) keeps the *waterline*
//! invariant — no uncached program strictly out-*counts* a cached one —
//! via transactional swaps on every access.
//!
//! # What an access costs
//!
//! Every access rebalances, but only over what can change the cache. The
//! rebalance (`waterline.rs`, shared with the Oracle) tries
//! candidates best first and ends on the first of three exits, each of
//! which leaves the emitted ops exactly those of walking every round:
//!
//! * *no candidate left* — there is nothing more to try;
//! * *sixteen candidates visited* — the cap bounds an access's work while
//!   the waterline self-corrects over later accesses. It is behaviour
//!   that reports depend on (it decides at which access an admission
//!   lands), not a tuning knob;
//! * *the candidate just tried does not out-count even the weakest cached
//!   program by the swap margin, and the free space is below the smallest
//!   cost ever recorded* — later candidates count no more, so none can
//!   swap; none can enter through free space either, since each costs at
//!   least that smallest cost. Both halves are needed: with room to
//!   spare, a lower-ranked, smaller candidate is still admitted.
//!
//! The third exit is the steady state of a full cache: one candidate
//! probe per access ([`WindowedLfu::candidate_probes`] counts them).
//! Likewise a hit does not re-sort the cached set, which is only ever
//! read from its weak end: the stale key is repaired if it surfaces there.
//!
//! Tie handling matters enormously here. Swapping on recency among
//! equal-count programs (the literal reading of "ties resolved using LRU")
//! thrashes: in a 10 TB cache the capacity boundary falls among count-1
//! programs, every tail access would displace an already-materialized
//! program with a cold one, and the fill-on-broadcast cost of re-admission
//! wipes out the cache's benefit (measured: ~26 % of requests became cold
//! misses). We therefore require **strict count dominance** for a swap;
//! the LRU rule decides *which* of several equal-count victims leaves
//! first, not whether an equal-count newcomer displaces an incumbent.
//! The paper's own "history 0 is simply an LRU strategy" is realized by
//! substituting the real LRU strategy at history 0 (see
//! `scenarios/paper/fig11.scn`), matching §VI-A.

use std::collections::VecDeque;

use cablevod_hfc::ids::ProgramId;
use cablevod_hfc::units::{SimDuration, SimTime};

use crate::error::CacheError;
use crate::event::AccessEvent;
use crate::history::HistoryWindow;
use crate::slots::ProgramSlots;
use crate::strategy::{CacheOp, CacheStrategy};
use crate::waterline::{Score, Tenants, Waterline};

/// What the strategy keeps about one live program: one counted in the
/// window, or a candidate, or cached. Twenty bytes.
#[derive(Debug, Clone, Copy, Default)]
struct Record {
    count: u32,
    cost: u32,
    /// Recency: the sequence number of the program's latest access (see
    /// [`WindowedLfu::next_seq`]).
    last_seq: u32,
    /// While cached: the `(count, last_seq)` this program is filed under
    /// in the cached set, at or below its current score (see
    /// [`WindowedLfu::count`]). `filed_seq` is 0 while it is not cached:
    /// sequence numbers start at 1.
    filed_count: u32,
    filed_seq: u32,
}

impl Record {
    fn cached(&self) -> bool {
        self.filed_seq != 0
    }

    fn score(&self, program: ProgramId) -> Score {
        (self.count, self.last_seq, program)
    }

    fn filed(&self, program: ProgramId) -> Score {
        (self.filed_count, self.filed_seq, program)
    }

    fn file(&mut self, (count, seq, _): Score) {
        (self.filed_count, self.filed_seq) = (count, seq);
    }
}

/// The windowed-LFU cache strategy.
///
/// Per-program state is a `ProgramSlots` map (`slots.rs`): a 4-byte slot
/// per program id in front of a 20-byte record per *live* program — one
/// counted in the window, a candidate or cached. A program whose last
/// access left the window and that is not cached dies, and its record is
/// recycled.
///
/// # Who remembers the window
///
/// Every access in the window has to be taken back out of its count when
/// it expires, so it has to be found again. The neighborhood's own
/// accesses are found where the replay already holds them: built with a
/// [`HistoryWindow`] ([`fed_by`](WindowedLfu::fed_by), which the engine
/// does whenever the factory declares a history window), the strategy
/// keeps none of them and its record supply hands each one back as it
/// leaves (see [`crate::history`]). What no supply can hand back stays
/// in the strategy's own ring: the remote events a global feed makes
/// visible and the delayed-hits LFU's double-weight extras. Built without
/// one — a unit test, the reference model, a registry plugin — the
/// strategy appends its own accesses to the same ring, exactly as if they
/// were handed back. There is one expiry: it retires whatever is due from
/// both, and the only difference between the two builds is who appends
/// the neighborhood's own accesses.
///
/// The ring is a monotonic `VecDeque` rather than an ordered map: local
/// accesses arrive in nondecreasing time order (`record` pushes at the
/// back), so expiry pops from the front. Global-feed events become
/// visible a batch at a time, after newer local accesses were recorded;
/// such a run arrives in one piece (`record_run`) and is merged into the
/// ring's tail in one pass, keeping expiry exact.
///
/// The ring holds one 8-byte [`AccessEvent`] per event it keeps (half a
/// `(SimTime, ProgramId)` pair); a self-fed ring keeps every access in
/// the window — thousands of events a neighborhood, for the whole run,
/// more than the rest of the index — which is why the engine hands them
/// back instead. An event's seconds are a `u32`, so the ring carries
/// times below [`AccessEvent::HORIZON`] only; the index server refuses a
/// later access before it reaches the strategy (see [`crate::event`]).
///
/// The ring is sorted by event time, arrival order on ties. It carries no
/// sequence number to say so: an arriving event is the newest there is, so
/// it belongs behind every event not later than it, which is where both
/// entry points put it. Nor would a different order among equal-time
/// events show: `expire` compares times only, so such events leave in the
/// same call, each program's bookkeeping is touched by its own events
/// alone, and nothing reads the state between two pops
/// (`equal_time_events_may_leave_in_any_order` permutes them). The same
/// argument lets one expiry retire the handed-back events and the ring's
/// in either order.
///
/// # Sequence numbers
///
/// Recency is a sequence number, stepped once for every access counted.
/// Nothing bounds how many accesses one index counts — a global feed
/// hands every index the whole plant's — so a 32-bit number would run out
/// on a long enough run. It never wraps: when it reaches `u32::MAX`, every
/// number still held (each live record's `last_seq`, and `filed_seq` for
/// the cached) is replaced by its rank among them, in one pass, and the
/// count goes on from the highest rank. Only the order of sequence
/// numbers is ever read — both score sets compare them, nothing does
/// arithmetic on them — and ranking keeps the order, so renumbering
/// changes no decision (`renumbering_changes_no_decision` runs an LFU
/// through it beside one that never reaches it). After it, at most two
/// numbers a live program are in use, so it frees room for at least half
/// the 32-bit range while fewer than 2^30 programs are live.
#[derive(Debug)]
pub struct WindowedLfu {
    window: SimDuration,
    /// A candidate must out-count a victim by at least this much to swap
    /// it out (free-space admissions are unaffected). Margin 1 is pure
    /// strict dominance; the default of 2 damps the 1↔2 boundary
    /// oscillation that otherwise wipes materialized segments weekly (the
    /// paper leaves admission damping unspecified; see module docs).
    swap_margin: u32,
    /// The latest sequence number handed out (see the type docs).
    seq: u32,
    /// Events in the window that no supply hands back (every event, when
    /// self-fed), sorted ascending by time, in arrival order within one
    /// time.
    history: VecDeque<AccessEvent>,
    /// Where the neighborhood's own accesses are handed back; `None` when
    /// the strategy keeps them in `history` itself.
    fed: Option<HistoryWindow>,
    /// Scratch for the tail events a run is merged with, kept for its
    /// allocation.
    displaced: Vec<AccessEvent>,
    /// The live programs' records.
    records: ProgramSlots<Record>,
    line: Waterline,
}

/// The program table as the waterline rebalance sees it.
struct Table<'a> {
    records: &'a mut ProgramSlots<Record>,
    swap_margin: u32,
}

impl Table<'_> {
    fn record(&mut self, program: ProgramId) -> &mut Record {
        self.records
            .get_mut(program)
            .expect("a scored program is live")
    }
}

impl Tenants for Table<'_> {
    fn cost(&self, program: ProgramId) -> Option<u32> {
        let record = self.records.get(program).expect("a scored program is live");
        Some(record.cost)
    }

    /// Strict count dominance by the swap margin: equal-count incumbents
    /// are never displaced (see module docs).
    fn displaces(&self, candidate: Score, victim: Score) -> bool {
        victim.0 + self.swap_margin <= candidate.0
    }

    fn refile(&mut self, filed: Score) -> Score {
        let record = self.record(filed.2);
        let current = record.score(filed.2);
        record.file(current);
        current
    }

    fn admitted(&mut self, score: Score) {
        let record = self.record(score.2);
        debug_assert!(!record.cached(), "admitting a known candidate");
        record.file(score);
    }

    fn evicted(&mut self, score: Score) -> bool {
        let record = self.record(score.2);
        debug_assert!(record.cached(), "evicting a cached program");
        record.filed_seq = 0;
        let live = record.count > 0;
        if !live {
            self.records.remove(score.2);
        }
        live
    }
}

impl WindowedLfu {
    /// Default swap margin (see the `swap_margin` field docs).
    pub const DEFAULT_SWAP_MARGIN: u32 = 2;

    /// Creates an LFU with `capacity_slots` capacity and history window
    /// `window`.
    pub fn new(capacity_slots: u64, window: SimDuration) -> Self {
        WindowedLfu {
            window,
            swap_margin: Self::DEFAULT_SWAP_MARGIN,
            seq: 0,
            history: VecDeque::new(),
            fed: None,
            displaced: Vec::new(),
            records: ProgramSlots::default(),
            line: Waterline::new(capacity_slots),
        }
    }

    /// Has the neighborhood's own accesses handed back through `history`
    /// instead of keeping them (see the type docs); `None` keeps them.
    pub fn fed_by(mut self, history: Option<HistoryWindow>) -> Self {
        self.fed = history;
        self
    }

    /// Overrides the swap margin (1 = pure strict dominance).
    ///
    /// # Panics
    ///
    /// Panics if `margin` is zero (a zero margin re-enables equal-count
    /// thrash).
    pub fn set_swap_margin(&mut self, margin: u32) {
        assert!(margin >= 1, "swap margin must be at least 1");
        self.swap_margin = margin;
    }

    /// The configured history window.
    pub fn window(&self) -> SimDuration {
        self.window
    }

    /// Records a local access without rebalancing. Fed by a
    /// [`HistoryWindow`], the strategy only counts it: the record supply
    /// hands it back when it leaves. Otherwise it is kept like an
    /// [extra](Self::record_extra).
    ///
    /// # Panics
    ///
    /// Panics for an access at or past [`AccessEvent::HORIZON`], which the
    /// index server refuses before any strategy sees it.
    pub(crate) fn record(&mut self, program: ProgramId, cost: u32, at: SimTime) {
        match self.fed.as_mut() {
            Some(fed) => {
                fed.note_access();
                self.count(program, cost);
            }
            None => self.record_extra(program, cost, at),
        }
    }

    /// Records an access no supply will hand back — the delayed-hits
    /// LFU's double weight — in the ring. Local accesses arrive in
    /// nondecreasing time — the index server's contract — and nothing a
    /// feed has made visible is newer, so the event goes to the ring's
    /// back.
    ///
    /// # Panics
    ///
    /// As [`record`](Self::record).
    pub(crate) fn record_extra(&mut self, program: ProgramId, cost: u32, at: SimTime) {
        let event = Self::event(at, program);
        debug_assert!(
            self.history.back().is_none_or(|e| e.at() <= at),
            "local accesses are recorded in time order"
        );
        self.count(program, cost);
        self.history.push_back(event);
    }

    /// The ring entry for an access. Every access a strategy is handed
    /// lies below the horizon: the index server refuses any other before
    /// it reaches one, and feed events are published from accesses the
    /// engine admitted.
    fn event(at: SimTime, program: ProgramId) -> AccessEvent {
        AccessEvent::new(at, program).expect("accesses reach a strategy below the event horizon")
    }

    /// Records a run of `(program, cost, event time)` accesses, sorted by
    /// time, without rebalancing — the remote events a global feed has
    /// just made visible, which may all be older than local events
    /// already recorded. The ring's tail from the run's first instant on
    /// is lifted out and merged back with the run in one pass, an old
    /// event ahead of a run event of the same time, so expiry stays exact
    /// and the cost is the run plus the few tail events it interleaves
    /// with, not a search and a shift per event.
    pub(crate) fn record_run(&mut self, run: impl IntoIterator<Item = (ProgramId, u32, SimTime)>) {
        let mut run = run.into_iter().peekable();
        let Some(&(_, _, first)) = run.peek() else {
            return;
        };
        let late = self
            .history
            .iter()
            .rev()
            .take_while(|e| e.at() > first)
            .count();
        let mut displaced = std::mem::take(&mut self.displaced);
        displaced.clear();
        displaced.extend(self.history.drain(self.history.len() - late..));
        let mut old = displaced.iter().copied().peekable();
        for (program, cost, at) in run {
            let event = Self::event(at, program);
            while let Some(old_event) = old.next_if(|e| e.at() <= at) {
                self.history.push_back(old_event);
            }
            debug_assert!(
                self.history.back().is_none_or(|e| e.at() <= at),
                "a run is sorted by time"
            );
            self.count(program, cost);
            self.history.push_back(event);
        }
        self.history.extend(old);
        self.displaced = displaced;
    }

    /// The next sequence number, renumbering those in use first when the
    /// 32 bits are spent (see the type docs).
    fn next_seq(&mut self) -> u32 {
        if self.seq == u32::MAX {
            self.renumber();
        }
        self.seq += 1;
        self.seq
    }

    /// Replaces every sequence number still held by its rank among them,
    /// in the records and in both score sets, keeping their order.
    #[cold]
    fn renumber(&mut self) {
        let mut held: Vec<u32> = self
            .records
            .records_mut()
            .iter()
            .flat_map(|r| [r.last_seq, r.filed_seq])
            .filter(|&seq| seq != 0)
            .collect();
        held.sort_unstable();
        held.dedup();
        let rank = |seq: u32| -> u32 {
            match seq {
                0 => 0,
                seq => {
                    let at = held.binary_search(&seq).expect("a held number");
                    at as u32 + 1
                }
            }
        };
        for record in self.records.records_mut() {
            record.last_seq = rank(record.last_seq);
            record.filed_seq = rank(record.filed_seq);
        }
        for set in [&mut self.line.cached, &mut self.line.candidates] {
            *set = std::mem::take(set)
                .into_iter()
                .map(|(count, seq, program)| (count, rank(seq), program))
                .collect();
        }
        self.seq = held.len() as u32;
        assert!(
            self.seq < u32::MAX,
            "more live programs than 32-bit sequence numbers can order"
        );
    }

    /// Counts one access of `program`: its score rises and it becomes the
    /// most recent of its count.
    ///
    /// A hit on a cached program only *raises* its score, and the cached
    /// set is only ever read from its weak end, so the set keeps the
    /// stale lower key (`Record::filed_seq`) and the rebalance repairs it
    /// if it ever surfaces there.
    fn count(&mut self, program: ProgramId, cost: u32) {
        let seq = self.next_seq();
        self.line.note_cost(cost);
        let record = self.records.get_or_insert(program);
        let old = record.score(program);
        record.count += 1;
        record.last_seq = seq;
        record.cost = cost;
        if !record.cached() {
            let new = record.score(program);
            self.line.candidates.remove(&old); // no-op for brand-new records
            self.line.candidates.insert(new);
        }
    }

    /// The window's trailing edge at `now`: events at or before it have
    /// left. `None` while the window still reaches back past the epoch.
    fn cutoff(&self, now: SimTime) -> Option<SimTime> {
        now.checked_sub(self.window)
    }

    /// Checks that every access leaving the window at `now` has been
    /// handed back (a no-op when self-fed).
    ///
    /// # Errors
    ///
    /// [`CacheError::History`] when the hand-backs fall short.
    pub(crate) fn check_history(&self, now: SimTime) -> Result<(), CacheError> {
        match (&self.fed, self.cutoff(now)) {
            (Some(fed), Some(cutoff)) => fed.ensure_covered(cutoff),
            _ => Ok(()),
        }
    }

    /// Hands the strategy accesses leaving the window (ignored when
    /// self-fed: it keeps its own).
    pub(crate) fn hand_back(
        &mut self,
        events: &[AccessEvent],
        covered: SimTime,
    ) -> Result<(), CacheError> {
        match self.fed.as_mut() {
            Some(fed) => fed.extend(events, covered),
            None => Ok(()),
        }
    }

    /// Drops events older than the window and decrements their counts.
    pub(crate) fn expire(&mut self, now: SimTime) {
        let Some(cutoff) = self.cutoff(now) else {
            return;
        };
        debug_assert!(
            self.check_history(now).is_ok(),
            "expiring past what was handed back"
        );
        // Everything with event time <= cutoff leaves the window: what was
        // handed back, then the sorted ring from the front.
        loop {
            let event = match self.fed.as_mut().and_then(|fed| fed.next_leaving(cutoff)) {
                Some(event) => event,
                None => match self.history.front() {
                    Some(&event) if event.at() <= cutoff => {
                        self.history.pop_front();
                        event
                    }
                    _ => break,
                },
            };
            let program = event.program();
            let record = self
                .records
                .get_mut(program)
                .expect("history refers to a live program");
            let old = record.score(program);
            record.count -= 1;
            let new = record.score(program);
            if record.cached() {
                // A filed key may lag below the score but never sit above
                // it, so a lowered score is refiled as soon as it dips
                // under its key.
                let filed = record.filed(program);
                if new < filed {
                    record.file(new);
                    self.line.cached.remove(&filed);
                    self.line.cached.insert(new);
                }
            } else {
                self.line.candidates.remove(&old);
                if record.count == 0 {
                    self.records.remove(program);
                } else {
                    self.line.candidates.insert(new);
                }
            }
        }
    }

    /// Restores the waterline (see [`crate::waterline`]).
    pub(crate) fn rebalance(&mut self, ops: &mut Vec<CacheOp>) {
        let mut table = Table {
            records: &mut self.records,
            swap_margin: self.swap_margin,
        };
        self.line.rebalance(&mut table, ops);
    }

    /// Candidates visited by every rebalance so far — the deterministic
    /// work count behind the per-access timing: exactly one per access
    /// once the cache is full and its weakest program is not out-counted.
    pub fn candidate_probes(&self) -> u64 {
        self.line.probes()
    }

    /// Windowed access count of `program` (0 when unknown).
    pub fn count_of(&self, program: ProgramId) -> u32 {
        self.records.get(program).map_or(0, |r| r.count)
    }

    /// Guarantees the just-accessed program is an admission candidate even
    /// if its own event already expired (window 0): it then carries a
    /// count-0, freshest-recency score — exactly the LRU degeneration.
    pub(crate) fn ensure_candidate(&mut self, program: ProgramId, cost: u32) {
        if self.records.get(program).is_none() {
            let seq = self.next_seq();
            self.line.note_cost(cost);
            let record = Record {
                cost,
                last_seq: seq,
                ..Record::default()
            };
            self.records.insert(program, record);
            self.line.candidates.insert(record.score(program));
        }
    }
}

impl CacheStrategy for WindowedLfu {
    fn name(&self) -> &'static str {
        "LFU"
    }

    fn prepare(&mut self, now: SimTime) -> Result<(), CacheError> {
        self.check_history(now)
    }

    fn extend_history(
        &mut self,
        events: &[AccessEvent],
        covered: SimTime,
    ) -> Result<(), CacheError> {
        self.hand_back(events, covered)
    }

    fn on_access(&mut self, program: ProgramId, cost: u32, now: SimTime, ops: &mut Vec<CacheOp>) {
        self.record(program, cost, now);
        self.expire(now);
        self.ensure_candidate(program, cost);
        self.rebalance(ops);
    }

    fn contains(&self, program: ProgramId) -> bool {
        self.records.get(program).is_some_and(Record::cached)
    }

    fn cost_of(&self, program: ProgramId) -> Option<u32> {
        self.records.get(program).map(|r| r.cost)
    }

    fn used_slots(&self) -> u64 {
        self.line.used()
    }

    fn capacity_slots(&self) -> u64 {
        self.line.capacity()
    }

    #[cfg(test)]
    fn heap_bytes(&self) -> usize {
        let WindowedLfu {
            window: _,
            swap_margin: _,
            seq: _,
            history,
            fed,
            displaced,
            records,
            line,
        } = self;
        (history.capacity() + displaced.capacity()) * std::mem::size_of::<AccessEvent>()
            + fed.as_ref().map_or(0, HistoryWindow::heap_bytes)
            + records.heap_bytes()
            + line.heap_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(i: u32) -> ProgramId {
        ProgramId::new(i)
    }

    fn access(lfu: &mut WindowedLfu, program: u32, cost: u32, secs: u64) -> Vec<CacheOp> {
        let mut ops = Vec::new();
        lfu.on_access(p(program), cost, SimTime::from_secs(secs), &mut ops);
        ops
    }

    fn day(n: u64) -> SimDuration {
        SimDuration::from_days(n)
    }

    #[test]
    fn admits_while_space_is_free() {
        let mut lfu = WindowedLfu::new(10, day(1));
        assert_eq!(access(&mut lfu, 0, 4, 0), vec![CacheOp::Admit(p(0))]);
        assert_eq!(access(&mut lfu, 1, 4, 10), vec![CacheOp::Admit(p(1))]);
        assert_eq!(lfu.used_slots(), 8);
    }

    #[test]
    fn frequent_program_displaces_infrequent() {
        let mut lfu = WindowedLfu::new(8, day(1));
        access(&mut lfu, 0, 4, 0); // count 1, cached
        access(&mut lfu, 1, 4, 1); // count 1, cached; cache full
                                   // Program 2 accessed three times: must displace one of the singles.
        access(&mut lfu, 2, 4, 2);
        access(&mut lfu, 2, 4, 3);
        let ops = access(&mut lfu, 2, 4, 4);
        assert!(lfu.contains(p(2)), "hot program cached, ops {ops:?}");
        assert_eq!(lfu.used_slots(), 8);
        // The victim was program 0 (older recency among equal counts).
        assert!(!lfu.contains(p(0)));
        assert!(lfu.contains(p(1)));
    }

    #[test]
    fn equal_counts_never_thrash() {
        let mut lfu = WindowedLfu::new(4, day(1));
        access(&mut lfu, 0, 4, 0);
        // Program 1 also count-1: equal counts keep the incumbent; the
        // recency rule orders evictions, it does not trigger swaps (see
        // module docs — literal recency swaps destroy materialized cache
        // state on every tail access).
        let ops = access(&mut lfu, 1, 4, 1);
        assert!(ops.is_empty(), "tie must not displace: {ops:?}");
        assert!(lfu.contains(p(0)));
        // A second access (count 2 vs 1) is still inside the swap margin.
        let ops = access(&mut lfu, 1, 4, 2);
        assert!(ops.is_empty(), "margin damps count-2 vs count-1: {ops:?}");
        // The third access clears the margin: swap.
        let ops = access(&mut lfu, 1, 4, 3);
        assert_eq!(ops, vec![CacheOp::Evict(p(0)), CacheOp::Admit(p(1))]);
    }

    #[test]
    fn higher_count_resists_recency() {
        let mut lfu = WindowedLfu::new(4, day(1));
        access(&mut lfu, 0, 4, 0);
        access(&mut lfu, 0, 4, 1); // count 2
        let ops = access(&mut lfu, 1, 4, 2); // count 1, more recent
        assert!(ops.is_empty(), "count 1 must not displace count 2: {ops:?}");
        assert!(lfu.contains(p(0)));
    }

    #[test]
    fn window_expiry_restores_lru_behavior() {
        let mut lfu = WindowedLfu::new(4, SimDuration::from_hours(1));
        for i in 0..5 {
            access(&mut lfu, 0, 4, i); // count 5 within the hour
        }
        assert_eq!(lfu.count_of(p(0)), 5);
        // Two hours later all history expired (program 0 sits at count 0);
        // program 1 clears the swap margin at count 2.
        access(&mut lfu, 1, 4, 2 * 3_600 + 10);
        let ops = access(&mut lfu, 1, 4, 2 * 3_600 + 20);
        assert_eq!(ops, vec![CacheOp::Evict(p(0)), CacheOp::Admit(p(1))]);
        assert_eq!(lfu.count_of(p(0)), 0);
    }

    #[test]
    fn zero_window_fills_free_space_then_freezes() {
        // With no history every count is zero: admissions happen while
        // space is free, but no zero-count candidate can strictly dominate
        // a zero-count incumbent, so the contents freeze. The paper's
        // "history 0 is simply an LRU strategy" is realized by substituting
        // the real LRU strategy at history 0 (see fig11).
        let mut lfu = WindowedLfu::new(8, SimDuration::ZERO);
        assert_eq!(access(&mut lfu, 0, 4, 0), vec![CacheOp::Admit(p(0))]);
        assert_eq!(access(&mut lfu, 1, 4, 1), vec![CacheOp::Admit(p(1))]);
        assert!(access(&mut lfu, 2, 4, 2).is_empty());
        assert!(lfu.contains(p(0)) && lfu.contains(p(1)));
    }

    #[test]
    fn transactional_swap_evicts_multiple_small_victims() {
        let mut lfu = WindowedLfu::new(6, day(1));
        access(&mut lfu, 0, 2, 0);
        access(&mut lfu, 1, 2, 1);
        access(&mut lfu, 2, 2, 2);
        // Program 3 (cost 6) accessed three times: clears the swap margin
        // over all three count-1 programs.
        access(&mut lfu, 3, 6, 3);
        access(&mut lfu, 3, 6, 4);
        let ops = access(&mut lfu, 3, 6, 5);
        assert!(lfu.contains(p(3)), "ops {ops:?}");
        assert!(!lfu.contains(p(0)) && !lfu.contains(p(1)) && !lfu.contains(p(2)));
        assert_eq!(lfu.used_slots(), 6);
    }

    #[test]
    fn dominated_candidate_cannot_force_partial_eviction() {
        let mut lfu = WindowedLfu::new(4, day(1));
        access(&mut lfu, 0, 4, 0);
        access(&mut lfu, 0, 4, 1); // count 2, fills cache
                                   // Candidate with count 1 and cost 4 cannot displace count 2.
        let before = lfu.used_slots();
        access(&mut lfu, 1, 4, 2);
        assert_eq!(lfu.used_slots(), before);
        assert!(lfu.contains(p(0)));
    }

    #[test]
    fn oversized_programs_never_evict() {
        let mut lfu = WindowedLfu::new(4, day(1));
        access(&mut lfu, 0, 4, 0);
        for t in 1..5 {
            let ops = access(&mut lfu, 1, 9, t); // cost exceeds capacity
            assert!(
                !ops.iter().any(|o| matches!(o, CacheOp::Evict(_))),
                "{ops:?}"
            );
        }
        assert!(lfu.contains(p(0)));
    }

    #[test]
    fn smaller_candidate_fills_free_space_behind_a_blocked_one() {
        let mut lfu = WindowedLfu::new(10, day(1));
        for t in 0..3 {
            access(&mut lfu, 0, 6, t); // count 3, cached; 4 slots stay free
        }
        access(&mut lfu, 1, 5, 3);
        let ops = access(&mut lfu, 1, 5, 4); // count 2: neither fits nor out-counts
        assert!(ops.is_empty(), "{ops:?}");
        // Program 2 ranks below program 1, which is tried first and is
        // blocked by the undominated floor. "Nothing displaced" is not a
        // reason to stop: program 2 fits the free space.
        assert_eq!(access(&mut lfu, 2, 3, 5), vec![CacheOp::Admit(p(2))]);
        assert_eq!(lfu.used_slots(), 9);
    }

    #[test]
    fn full_cache_with_undominated_floor_costs_one_probe() {
        let mut lfu = WindowedLfu::new(8, day(1));
        access(&mut lfu, 0, 4, 0);
        access(&mut lfu, 1, 4, 1); // full
        for q in 2..22 {
            access(&mut lfu, q, 4, u64::from(q)); // twenty count-1 candidates
        }
        let before = lfu.candidate_probes();
        assert!(access(&mut lfu, 0, 4, 100).is_empty()); // a hit
        assert_eq!(lfu.candidate_probes(), before + 1);
        assert!(access(&mut lfu, 30, 4, 101).is_empty()); // a new candidate
        assert_eq!(lfu.candidate_probes(), before + 2);
    }

    #[test]
    fn stale_floor_key_is_repaired_before_choosing_victims() {
        let mut lfu = WindowedLfu::new(8, day(1));
        access(&mut lfu, 0, 4, 0);
        access(&mut lfu, 1, 4, 1); // both count 1; program 0 is the older
        for t in 2..5 {
            access(&mut lfu, 0, 4, t); // count 4, still filed under count 1
        }
        access(&mut lfu, 2, 4, 5);
        access(&mut lfu, 2, 4, 6);
        // Count 3 clears the margin over program 1 only.
        let ops = access(&mut lfu, 2, 4, 7);
        assert_eq!(ops, vec![CacheOp::Evict(p(1)), CacheOp::Admit(p(2))]);
    }

    #[test]
    fn used_never_exceeds_capacity_under_churn() {
        let mut lfu = WindowedLfu::new(20, SimDuration::from_hours(6));
        for i in 0..2_000u64 {
            let program = (i * 7919 % 53) as u32;
            let cost = 1 + (program % 6);
            access(&mut lfu, program, cost, i * 97);
            assert!(lfu.used_slots() <= lfu.capacity_slots(), "step {i}");
        }
    }

    #[test]
    fn ring_expiry_at_exact_window_edges() {
        // The ring must drop events with time <= now - window and keep
        // events one second inside it — exactly the BTreeMap cutoff the
        // ring replaced.
        let window = 3_600u64;
        let mut lfu = WindowedLfu::new(8, SimDuration::from_secs(window));
        access(&mut lfu, 0, 4, 0); // event at t=0
        access(&mut lfu, 1, 4, 1); // event at t=1

        // At now = window exactly: the t=0 event sits on the cutoff
        // (0 <= now - window) and leaves; t=1 survives.
        lfu.expire(SimTime::from_secs(window));
        assert_eq!(lfu.count_of(p(0)), 0, "event at cutoff must expire");
        assert_eq!(
            lfu.count_of(p(1)),
            1,
            "event one inside the window survives"
        );

        // One second later the t=1 event hits the cutoff too.
        lfu.expire(SimTime::from_secs(window + 1));
        assert_eq!(lfu.count_of(p(1)), 0);
    }

    #[test]
    fn ring_handles_same_second_bursts_across_the_edge() {
        let window = 100u64;
        let mut lfu = WindowedLfu::new(16, SimDuration::from_secs(window));
        for _ in 0..3 {
            access(&mut lfu, 0, 2, 50); // three events in the same second
        }
        assert_eq!(lfu.count_of(p(0)), 3);
        // now - window == 49: all three still inside.
        lfu.expire(SimTime::from_secs(149));
        assert_eq!(lfu.count_of(p(0)), 3);
        // now - window == 50: the whole burst expires atomically.
        lfu.expire(SimTime::from_secs(150));
        assert_eq!(lfu.count_of(p(0)), 0);
    }

    #[test]
    fn out_of_order_remote_events_keep_expiry_exact() {
        // Global variants record remote events with timestamps older than
        // already-recorded local ones; the ring's tail merge must keep
        // front-to-back expiry exact.
        let mut lfu = WindowedLfu::new(16, SimDuration::from_secs(100));
        lfu.record(p(0), 2, SimTime::from_secs(80)); // local, newer
        lfu.record_run([(p(1), 2, SimTime::from_secs(30))]); // remote, older
        lfu.record_run([(p(2), 2, SimTime::from_secs(55))]); // remote, middle
        assert_eq!(
            (lfu.count_of(p(0)), lfu.count_of(p(1)), lfu.count_of(p(2))),
            (1, 1, 1)
        );
        // now - window == 30: only the t=30 remote event expires, even
        // though it was inserted after the t=80 local one.
        lfu.expire(SimTime::from_secs(130));
        assert_eq!(
            (lfu.count_of(p(0)), lfu.count_of(p(1)), lfu.count_of(p(2))),
            (1, 0, 1)
        );
        lfu.expire(SimTime::from_secs(155));
        assert_eq!(
            (lfu.count_of(p(0)), lfu.count_of(p(1)), lfu.count_of(p(2))),
            (1, 0, 0)
        );
        lfu.expire(SimTime::from_secs(180));
        assert_eq!(lfu.count_of(p(0)), 0);
    }

    #[test]
    fn a_run_merges_into_the_tail_behind_equal_times() {
        let t = SimTime::from_secs;
        let mut lfu = WindowedLfu::new(16, SimDuration::from_secs(100));
        for (program, secs) in [(0, 10), (1, 20), (2, 20), (3, 40), (4, 50)] {
            lfu.record(p(program), 1, t(secs));
        }
        // Older than the whole tail, level with part of it, inside it,
        // level with its end and past it.
        lfu.record_run([(5, 20), (6, 30), (7, 40), (8, 50), (9, 60)].map(|(q, s)| (p(q), 1, t(s))));
        let ring: Vec<(u64, u32)> = lfu
            .history
            .iter()
            .map(|e| (e.at().as_secs(), e.program().value()))
            .collect();
        assert_eq!(
            ring,
            [
                (10, 0),
                (20, 1),
                (20, 2),
                (20, 5),
                (30, 6),
                (40, 3),
                (40, 7),
                (50, 4),
                (50, 8),
                (60, 9)
            ]
        );
        // An empty run, and one that only appends, leave the rest alone.
        lfu.record_run([]);
        lfu.record_run([(p(1), 1, t(60))]);
        assert_eq!(lfu.history.len(), 11);
        assert_eq!(
            lfu.history.back(),
            Some(&AccessEvent::new(t(60), p(1)).unwrap())
        );
        assert_eq!(lfu.count_of(p(1)), 2);
    }

    /// The ring's order among events of one time is not observable (see
    /// the type docs): reversing every equal-time group before an expiry
    /// leaves the same counts, the same sets and the same ops afterwards.
    #[test]
    fn equal_time_events_may_leave_in_any_order() {
        let build = || {
            let mut lfu = WindowedLfu::new(9, SimDuration::from_secs(100));
            for i in 0..400u64 {
                // Bursts of up to five programs a second, some cached.
                let program = (i * 7 % 11) as u32;
                access(&mut lfu, program, 1 + program % 3, i / 5);
            }
            lfu
        };
        let (mut as_arrived, mut reversed) = (build(), build());
        let ring = reversed.history.make_contiguous();
        for group in ring.chunk_by_mut(|a, b| a.at() == b.at()) {
            group.reverse();
        }
        assert_ne!(as_arrived.history, reversed.history);
        for now in [110, 125, 140, 179, 180, 500] {
            as_arrived.expire(SimTime::from_secs(now));
            reversed.expire(SimTime::from_secs(now));
            assert_eq!(as_arrived.line.cached, reversed.line.cached, "at {now}");
            assert_eq!(
                as_arrived.line.candidates, reversed.line.candidates,
                "at {now}"
            );
            for q in 0..11 {
                assert_eq!(as_arrived.count_of(p(q)), reversed.count_of(p(q)));
                assert_eq!(as_arrived.contains(p(q)), reversed.contains(p(q)));
            }
            let (ops_a, ops_b) = (
                access(&mut as_arrived, 3, 1, now),
                access(&mut reversed, 3, 1, now),
            );
            assert_eq!(ops_a, ops_b, "at {now}");
        }
    }

    /// A live program's record is what the strategy keeps a program
    /// beyond its 4-byte slot and its key in one score set.
    #[test]
    fn a_record_is_twenty_bytes() {
        assert_eq!(std::mem::size_of::<Record>(), 20);
    }

    /// Renumbering keeps the order of every sequence number held (see the
    /// type docs): an LFU pushed to the end of the 32 bits again and again
    /// decides exactly as one that never gets near it.
    #[test]
    fn renumbering_changes_no_decision() {
        let window = SimDuration::from_hours(6);
        let (mut plain, mut pushed) = (WindowedLfu::new(20, window), WindowedLfu::new(20, window));
        let mut renumbered = 0;
        for i in 0..3_000u64 {
            if i % 400 == 0 {
                // Any number above every one held is as good as the next.
                pushed.seq = pushed.seq.max(u32::MAX - 40);
            }
            let before = pushed.seq;
            let program = (i * 7919 % 53) as u32;
            let cost = 1 + program % 6;
            assert_eq!(
                access(&mut plain, program, cost, i * 97),
                access(&mut pushed, program, cost, i * 97),
                "step {i}"
            );
            renumbered += usize::from(pushed.seq < before);
            for q in 0..53 {
                assert_eq!(plain.count_of(p(q)), pushed.count_of(p(q)), "step {i}");
                assert_eq!(plain.contains(p(q)), pushed.contains(p(q)), "step {i}");
            }
        }
        assert_eq!(renumbered, 8);
    }

    #[test]
    fn ops_mirror_contains_state() {
        // Replaying the emitted ops against a shadow set must equal the
        // strategy's own view.
        let mut lfu = WindowedLfu::new(12, day(2));
        let mut shadow = std::collections::HashSet::new();
        for i in 0..3_000u64 {
            let program = (i * 31 % 41) as u32;
            let mut ops = Vec::new();
            lfu.on_access(
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
            assert!(lfu.contains(*q));
        }
    }
}
