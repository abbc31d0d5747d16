//! The Oracle strategy (§VI-A).
//!
//! > "We benchmark both methods against an Oracle method, which caches the
//! > files that will be used the most frequently in the next three days.
//! > This final algorithm is impossible to implement, and is presented as
//! > an example of ideal cache performance."
//!
//! The Oracle slides a look-ahead window over the neighborhood's future
//! access schedule, keeping per-program future counts, and maintains the
//! same waterline invariant as the LFU. Content appears on peers the
//! moment it is admitted ([`FillPolicy::Prefetch`]) — it is an upper
//! bound, not an implementable policy.
//!
//! The future itself is consumed through a [`ScheduleWindow`], fed
//! through [`CacheStrategy::extend_schedule`] by the record supply as it
//! reads ahead, so the window's state is bounded by the look-ahead span
//! (see [`crate::schedule`]). However the hand-overs fall, the Oracle sees
//! the identical event sequence, so decisions are bit-identical.
//!
//! # What a window step costs
//!
//! Program ids are dense catalog indices and the window's cost table names
//! the catalog, so the per-program state — future count and where the
//! program's score sits in the waterline's heaps, eight bytes — is one
//! `Vec` sized from it: no hashing. Every event crossing a window edge
//! refiles its program at its new count in whichever heap it is in (a
//! min-heap of the cached, a max-heap of the candidates), exactly as the
//! LFU refiles its own (`lfu.rs`): a sift of a few levels. A candidate
//! whose count falls to zero leaves its heap, and one whose count rises
//! from zero joins it. The rebalance then reads the two roots, and walks
//! past them only when the best candidate neither enters nor ends the
//! rebalance (`waterline.rs`).
//!
//! # Ties
//!
//! A program is filed under its future count alone — its score's
//! recency field is always 0 — so two programs with equal future counts
//! are ordered by program id: of those, the higher id is admitted first
//! and the lower id evicted first. This is part of the semantics: the
//! Oracle's choices, and so its report, depend on how the catalogue is
//! numbered. It is the one registry strategy whose report moves when
//! the program ids are relabelled (`tests/conservation.rs`,
//! `reversing_program_ids_changes_no_report`); the LFU files each
//! program's last-access sequence number between its count and its id.

use cablevod_hfc::ids::ProgramId;
use cablevod_hfc::units::{SimDuration, SimTime};

use crate::error::CacheError;
use crate::event::AccessEvent;
use crate::schedule::ScheduleWindow;
use crate::strategy::{CacheOp, CacheStrategy, FillPolicy};
use crate::waterline::{Place, Places, Score, Tenants, Waterline};

/// Per-program state, indexed by `ProgramId::index()`.
#[derive(Debug, Clone, Copy, Default)]
struct Slot {
    /// Accesses inside the current window.
    future: u32,
    /// Where the program's score is filed: cached, a candidate (a future
    /// count above zero) or nowhere.
    place: Place,
}

impl Places for [Slot] {
    fn set_place(&mut self, program: ProgramId, place: Place) {
        self[program.index()].place = place;
    }
}

/// The clairvoyant cache strategy.
///
/// Scores are `(future count, 0, id)`: the Oracle has no recency, so the
/// waterline score's middle field stays zero and the order is count then
/// id.
#[derive(Debug)]
pub struct Oracle {
    lookahead: SimDuration,
    window: ScheduleWindow,
    /// Dense per-program table, one slot per entry of the window's cost
    /// table (grown for an id scheduled from beyond it, which is
    /// unplaceable but still counted).
    programs: Vec<Slot>,
    line: Waterline,
}

/// The schedule's costs and the program table as the waterline rebalance
/// sees them.
struct Catalog<'a> {
    window: &'a ScheduleWindow,
    programs: &'a mut [Slot],
}

impl Places for Catalog<'_> {
    fn set_place(&mut self, program: ProgramId, place: Place) {
        self.programs.set_place(program, place);
    }
}

impl Tenants for Catalog<'_> {
    /// Zero-length programs are unplaceable; their future counts stay
    /// tracked.
    fn cost(&self, program: ProgramId) -> Option<u32> {
        Some(self.window.cost(program)).filter(|&c| c > 0)
    }

    fn displaces(&self, candidate: Score, victim: Score) -> bool {
        victim < candidate
    }

    fn evicted(&mut self, score: Score) -> bool {
        score.0 > 0
    }
}

impl Oracle {
    /// Creates an Oracle with `capacity_slots` capacity looking
    /// `lookahead` into the schedule behind `window`.
    pub fn new(capacity_slots: u64, lookahead: SimDuration, window: ScheduleWindow) -> Self {
        let mut line = Waterline::new(capacity_slots);
        // Every candidate's cost comes from this table.
        (0..window.cost_count())
            .map(|i| window.cost(ProgramId::new(i as u32)))
            .filter(|&cost| cost > 0)
            .for_each(|cost| line.note_cost(cost));
        Oracle {
            lookahead,
            programs: vec![Slot::default(); window.cost_count()],
            window,
            line,
        }
    }

    /// The look-ahead window length.
    pub fn lookahead(&self) -> SimDuration {
        self.lookahead
    }

    /// The schedule window this Oracle slides (retention tests read its
    /// residency counters).
    pub fn schedule_window(&self) -> &ScheduleWindow {
        &self.window
    }

    /// Moves `program`'s future count by one event crossing a window
    /// edge: `entering` the leading one or leaving by the trailing one.
    fn bump(&mut self, program: ProgramId, entering: bool) {
        let idx = program.index();
        if idx >= self.programs.len() {
            self.programs.resize(idx + 1, Slot::default());
        }
        let slot = &mut self.programs[idx];
        slot.future = if entering {
            slot.future + 1
        } else {
            slot.future.saturating_sub(1)
        };
        let (place, score) = (slot.place, (slot.future, 0, program));
        let programs = self.programs.as_mut_slice();
        match (place.is_filed(), score.0 > 0) {
            (false, true) => self.line.file(score, programs),
            (false, false) => {}
            // A candidate with no future left leaves; a cached program
            // stays cached at zero.
            (true, false) if !place.is_cached() => self.line.drop(place, programs),
            (true, _) => self.line.refile(place, score, programs),
        }
    }

    /// Slides the window to `[now, now + lookahead)`. It must be covered
    /// through the horizon ([`CacheStrategy::prepare`] checks this).
    fn advance(&mut self, now: SimTime) {
        let horizon = now.saturating_add(self.lookahead);
        while let Some(p) = self.window.next_entering(horizon) {
            self.bump(p, true);
        }
        while let Some(p) = self.window.next_leaving(now) {
            self.bump(p, false);
        }
    }

    fn rebalance(&mut self, ops: &mut Vec<CacheOp>) {
        let mut catalog = Catalog {
            window: &self.window,
            programs: &mut self.programs,
        };
        self.line.rebalance(&mut catalog, ops);
    }

    /// Candidates visited by every rebalance so far — the deterministic
    /// work count behind the per-access timing, as
    /// [`WindowedLfu::candidate_probes`](crate::lfu::WindowedLfu::candidate_probes)
    /// counts the LFU's.
    pub fn candidate_probes(&self) -> u64 {
        self.line.probes()
    }

    /// Future access count of `program` within the current window.
    pub fn future_count(&self, program: ProgramId) -> u32 {
        self.programs
            .get(program.index())
            .map_or(0, |slot| slot.future)
    }
}

impl CacheStrategy for Oracle {
    fn name(&self) -> &'static str {
        "Oracle"
    }

    fn prepare(&mut self, now: SimTime) -> Result<(), CacheError> {
        // An under-fed window fails here, so advancing in `on_access`
        // never sees a short one.
        self.window
            .ensure_covered(now.saturating_add(self.lookahead))
    }

    fn extend_schedule(
        &mut self,
        events: &[AccessEvent],
        covered: SimTime,
    ) -> Result<(), CacheError> {
        self.window.extend(events, covered)
    }

    fn on_access(&mut self, _program: ProgramId, _cost: u32, now: SimTime, ops: &mut Vec<CacheOp>) {
        // The access itself is part of the schedule; sliding the window is
        // all the Oracle needs.
        self.advance(now);
        self.rebalance(ops);
    }

    fn contains(&self, program: ProgramId) -> bool {
        self.programs
            .get(program.index())
            .is_some_and(|slot| slot.place.is_cached())
    }

    fn cost_of(&self, program: ProgramId) -> Option<u32> {
        (program.index() < self.window.cost_count()).then(|| self.window.cost(program))
    }

    fn used_slots(&self) -> u64 {
        self.line.used()
    }

    fn capacity_slots(&self) -> u64 {
        self.line.capacity()
    }

    fn fill_policy(&self) -> FillPolicy {
        FillPolicy::Prefetch
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::testing::{event, Feeder};

    fn p(i: u32) -> ProgramId {
        ProgramId::new(i)
    }

    fn t(secs: u64) -> SimTime {
        SimTime::from_secs(secs)
    }

    /// A window handed its whole future up front, as the online engine's
    /// is.
    fn schedule(events: &[(u64, u32)], costs: Vec<u32>) -> ScheduleWindow {
        let events: Vec<_> = events.iter().map(|&(s, q)| event(s, q)).collect();
        let mut window = ScheduleWindow::new(costs.into());
        window.extend(&events, SimTime::MAX).expect("in order");
        window
    }

    fn day() -> u64 {
        86_400
    }

    #[test]
    fn caches_the_future_favorite() {
        // Program 1 will be hit 3 times in the next 3 days; program 0 once.
        let sched = schedule(&[(0, 0), (100, 1), (200, 1), (300, 1)], vec![1, 1]);
        let mut oracle = Oracle::new(1, SimDuration::from_days(3), sched);
        let mut ops = Vec::new();
        oracle.on_access(p(0), 1, t(0), &mut ops);
        assert!(
            oracle.contains(p(1)),
            "oracle must hold the future favorite: {ops:?}"
        );
        assert!(!oracle.contains(p(0)));
        assert_eq!(oracle.future_count(p(1)), 3);
    }

    #[test]
    fn window_slides_and_preferences_change() {
        // Program 0 is hot today; program 1 is hot in four days.
        let mut events = vec![(0, 0), (10, 0), (20, 0)];
        let late = 4 * day();
        events.extend([(late, 1), (late + 1, 1), (late + 2, 1), (late + 3, 1)]);
        let sched = schedule(&events, vec![1, 1]);
        let mut oracle = Oracle::new(1, SimDuration::from_days(3), sched);
        let mut ops = Vec::new();
        oracle.on_access(p(0), 1, t(0), &mut ops);
        assert!(oracle.contains(p(0)));
        // Two days later program 0 has no future; 1's burst is inside the
        // look-ahead.
        ops.clear();
        oracle.on_access(p(0), 1, t(2 * day()), &mut ops);
        assert!(oracle.contains(p(1)), "ops {ops:?}");
        assert!(!oracle.contains(p(0)));
    }

    #[test]
    fn respects_capacity_with_costs() {
        // Three future-popular programs with cost 2 in a 4-slot cache: only
        // the two most popular fit.
        let sched = schedule(
            &[
                (10, 0),
                (11, 0),
                (12, 0), // p0: 3 accesses
                (20, 1),
                (21, 1), // p1: 2
                (30, 2), // p2: 1
            ],
            vec![2, 2, 2],
        );
        let mut oracle = Oracle::new(4, SimDuration::from_days(3), sched);
        let mut ops = Vec::new();
        oracle.on_access(p(0), 2, t(0), &mut ops);
        assert!(oracle.contains(p(0)) && oracle.contains(p(1)));
        assert!(!oracle.contains(p(2)));
        assert_eq!(oracle.used_slots(), 4);
    }

    #[test]
    fn prefetch_fill_policy() {
        let sched = schedule(&[], vec![]);
        let oracle = Oracle::new(4, SimDuration::from_days(3), sched);
        assert_eq!(oracle.fill_policy(), FillPolicy::Prefetch);
    }

    #[test]
    fn empty_schedule_caches_nothing() {
        let sched = schedule(&[], vec![]);
        let mut oracle = Oracle::new(4, SimDuration::from_days(3), sched);
        let mut ops = Vec::new();
        oracle.on_access(p(0), 1, t(0), &mut ops);
        assert!(ops.is_empty());
        assert_eq!(oracle.used_slots(), 0);
    }

    #[test]
    fn used_never_exceeds_capacity_under_sweep() {
        // Random-ish schedule; walk the window across it.
        let events: Vec<(u64, u32)> = (0..2_000u64)
            .map(|i| (i * 500, (i * 7919 % 37) as u32))
            .collect();
        let costs = (0..37).map(|c| 1 + c % 5).collect();
        let sched = schedule(&events, costs);
        let mut oracle = Oracle::new(30, SimDuration::from_days(3), sched);
        let mut ops = Vec::new();
        for i in 0..200 {
            oracle.on_access(p(0), 1, t(i * 5_000), &mut ops);
            assert!(oracle.used_slots() <= oracle.capacity_slots(), "step {i}");
        }
    }

    #[test]
    fn streaming_window_decides_identically_to_resident() {
        let events: Vec<(u64, u32)> = (0..3_000u64)
            .map(|i| (i * 400, (i * 6101 % 29) as u32))
            .collect();
        let costs: Vec<u32> = (0..29).map(|c| 1 + c % 5).collect();
        for batch in [1usize, 64, 4_096] {
            let mut resident = Oracle::new(
                25,
                SimDuration::from_days(3),
                schedule(&events, costs.clone()),
            );
            let mut windowed = Oracle::new(
                25,
                SimDuration::from_days(3),
                ScheduleWindow::new(costs.clone().into()),
            );
            let unfed = windowed.prepare(t(0)).unwrap_err();
            assert!(matches!(unfed, CacheError::Schedule { .. }), "{unfed}");
            let mut feeder = Feeder::over(&events, batch);
            for i in 0..150u64 {
                let now = t(i * 8_000);
                let mut ops_a = Vec::new();
                let mut ops_b = Vec::new();
                feeder
                    .cover(now + windowed.lookahead(), |events, covered| {
                        windowed.extend_schedule(events, covered)
                    })
                    .expect("extend");
                resident.prepare(now).expect("resident prepare");
                windowed.prepare(now).expect("windowed prepare");
                resident.on_access(p(0), 1, now, &mut ops_a);
                windowed.on_access(p(0), 1, now, &mut ops_b);
                assert_eq!(ops_a, ops_b, "batch {batch}, step {i}");
                assert_eq!(resident.used_slots(), windowed.used_slots());
            }
            // The window fed as it went never held more than the look-ahead span
            // (3 days at 400 s spacing = 648 events) plus one batch plus
            // one access step's backlog (8,000 s / 400 s = 20 events — the
            // peak is sampled at hand-over, before the trailing edge pops).
            assert!(
                windowed.schedule_window().peak_resident_events() <= 648 + 20 + batch,
                "batch {batch}: peak {}",
                windowed.schedule_window().peak_resident_events()
            );
        }
    }
}
