//! The windowed schedule: how the Oracle sees its future.
//!
//! The Oracle (§VI-A) needs the neighborhood's *future* accesses — one
//! `(time, program)` event per session record. Holding that future fully
//! resident ([`AccessSchedule`]) is fine when the trace itself is
//! resident, but it is the one piece of auxiliary state that would grow
//! with trace length on the out-of-core replay paths. So the
//! [`Oracle`](crate::oracle::Oracle) consumes it through a
//! [`ScheduleWindow`]: a two-edged cursor over one neighborhood's
//! time-ordered future events, in one of two kinds.
//!
//! * The **resident** window walks a shared [`AccessSchedule`] with two
//!   indices (zero copies, the classic hot path, untouched);
//!   [`ResidentSchedules`] hands one out per neighborhood.
//! * The **streaming** window is a bounded buffer its owner feeds: the
//!   engine's record supply reads the same records `lookahead` further
//!   along and hands each stretch over with
//!   [`extend`](ScheduleWindow::extend), together with the instant the
//!   hand-overs now cover. Events are buffered when they are handed over
//!   and dropped the moment they fall behind `now`, so resident state is
//!   O(events inside the look-ahead window + one hand-over), never
//!   O(trace).
//!
//! # Fallibility: `prepare`, then infallible advancing
//!
//! The strategy access hook
//! ([`CacheStrategy::on_access`](crate::strategy::CacheStrategy::on_access))
//! is infallible by design, and a streaming window that was fed too
//! little must not pass for a short schedule. The split:
//! [`CacheStrategy::prepare`](crate::strategy::CacheStrategy::prepare) —
//! called by the index server before every access — checks through
//! [`ScheduleWindow::ensure_covered`] (the only fallible step) that the
//! hand-overs reach the access's horizon, after which
//! [`next_entering`](ScheduleWindow::next_entering) /
//! [`next_leaving`](ScheduleWindow::next_leaving) cannot come up short.
//!
//! Both window kinds replay the **same event sequence in the same
//! order**, so a strategy driven through either produces bit-identical
//! decisions — the engine's streaming-parity property tests pin this
//! end to end.

use std::collections::VecDeque;
use std::fmt;
use std::sync::Arc;

use cablevod_hfc::ids::{NeighborhoodId, ProgramId};
use cablevod_hfc::units::SimTime;

use crate::error::CacheError;
use crate::oracle::AccessSchedule;

/// The two window kinds (see the module docs).
enum WindowState {
    /// Two indices over a shared, fully resident schedule:
    /// `events[left..right]` is the current look-ahead window.
    Resident {
        schedule: Arc<AccessSchedule>,
        left: usize,
        right: usize,
    },
    /// A bounded buffer of handed-over events: `buf[..entered]` is the
    /// current look-ahead window, `buf[entered..]` the rest of the last
    /// hand-overs, not across the leading edge yet.
    Streaming {
        costs: Arc<[u32]>,
        buf: VecDeque<(SimTime, ProgramId)>,
        entered: usize,
        /// No event still to come may be earlier: the last one handed
        /// over or the last instant covered, whichever is later.
        floor: SimTime,
        /// Every event before this instant has been handed over.
        covered: SimTime,
        /// High-water mark of `buf.len()` — what the retention tests
        /// assert stays bounded by the look-ahead window.
        peak_resident: usize,
    },
}

impl fmt::Debug for WindowState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WindowState::Resident { left, right, .. } => f
                .debug_struct("Resident")
                .field("left", left)
                .field("right", right)
                .finish_non_exhaustive(),
            WindowState::Streaming {
                entered,
                buf,
                covered,
                ..
            } => f
                .debug_struct("Streaming")
                .field("entered", entered)
                .field("resident", &buf.len())
                .field("covered", covered)
                .finish_non_exhaustive(),
        }
    }
}

/// A two-edged cursor over one neighborhood's time-ordered future
/// accesses (see the module docs). The Oracle slides it forward with
/// monotonically non-decreasing `now`; edges never move backwards.
#[derive(Debug)]
pub struct ScheduleWindow {
    state: WindowState,
}

impl ScheduleWindow {
    /// A zero-copy window over a fully resident schedule.
    pub fn resident(schedule: Arc<AccessSchedule>) -> Self {
        ScheduleWindow {
            state: WindowState::Resident {
                schedule,
                left: 0,
                right: 0,
            },
        }
    }

    /// An empty bounded window, to be fed through
    /// [`extend`](ScheduleWindow::extend). `costs[p]` is program `p`'s
    /// size in slots (the whole catalog — the Oracle is asked for costs
    /// of programs it has never seen scheduled).
    pub fn streaming(costs: Arc<[u32]>) -> Self {
        ScheduleWindow {
            state: WindowState::Streaming {
                costs,
                buf: VecDeque::new(),
                entered: 0,
                floor: SimTime::EPOCH,
                covered: SimTime::EPOCH,
                peak_resident: 0,
            },
        }
    }

    /// Hands a streaming window the next stretch of its future:
    /// `events`, in time order, none earlier than anything handed over
    /// or covered before, after which every event before `covered` has
    /// been handed over. (A resident window holds its whole future
    /// already and takes nothing.)
    ///
    /// # Errors
    ///
    /// Rejects events that break the time order.
    pub fn extend(
        &mut self,
        events: &[(SimTime, ProgramId)],
        covered: SimTime,
    ) -> Result<(), CacheError> {
        let WindowState::Streaming {
            buf,
            floor,
            covered: reach,
            peak_resident,
            ..
        } = &mut self.state
        else {
            return Ok(());
        };
        for &(t, p) in events {
            if t < *floor {
                return Err(CacheError::Schedule {
                    reason: format!(
                        "schedule hand-over broke time order: {}s after {}s",
                        t.as_secs(),
                        floor.as_secs()
                    ),
                });
            }
            *floor = t;
            buf.push_back((t, p));
        }
        *floor = (*floor).max(covered);
        *reach = covered;
        *peak_resident = (*peak_resident).max(buf.len());
        Ok(())
    }

    /// Checks that every event with time below `horizon` is in the
    /// window's reach (the only fallible step; always true of a resident
    /// window). After it returns,
    /// [`next_entering`](ScheduleWindow::next_entering) up to the same
    /// `horizon` yields the whole window, never a short one.
    ///
    /// # Errors
    ///
    /// [`CacheError::Schedule`] when a streaming window has been handed
    /// less than `horizon` asks for.
    pub fn ensure_covered(&self, horizon: SimTime) -> Result<(), CacheError> {
        match &self.state {
            WindowState::Streaming { covered, .. } if *covered < horizon => {
                Err(CacheError::Schedule {
                    reason: format!(
                        "the look-ahead was fed up to {}s, an access needs it up to {}s",
                        covered.as_secs(),
                        horizon.as_secs()
                    ),
                })
            }
            _ => Ok(()),
        }
    }

    /// The next event crossing the window's leading edge (time below
    /// `horizon`), or `None` when no event qualifies. Streaming windows
    /// must be [covered](ScheduleWindow::ensure_covered) through
    /// `horizon` first.
    pub fn next_entering(&mut self, horizon: SimTime) -> Option<ProgramId> {
        match &mut self.state {
            WindowState::Resident {
                schedule, right, ..
            } => match schedule.events().get(*right) {
                Some(&(t, p)) if t < horizon => {
                    *right += 1;
                    Some(p)
                }
                _ => None,
            },
            WindowState::Streaming {
                buf,
                entered,
                covered,
                ..
            } => match buf.get(*entered) {
                Some(&(t, p)) if t < horizon => {
                    *entered += 1;
                    Some(p)
                }
                Some(_) => None,
                None => {
                    debug_assert!(
                        *covered >= horizon,
                        "next_entering past the covered instant"
                    );
                    None
                }
            },
        }
    }

    /// The next event falling behind the window's trailing edge (time
    /// below `now`), or `None`. Streaming windows drop the event from the
    /// resident buffer — this is what keeps them bounded.
    pub fn next_leaving(&mut self, now: SimTime) -> Option<ProgramId> {
        match &mut self.state {
            WindowState::Resident {
                schedule,
                left,
                right,
            } => {
                if left < right {
                    let (t, p) = schedule.events()[*left];
                    if t < now {
                        *left += 1;
                        return Some(p);
                    }
                }
                None
            }
            WindowState::Streaming { buf, entered, .. } => {
                if *entered > 0 {
                    if let Some(&(t, p)) = buf.front() {
                        if t < now {
                            buf.pop_front();
                            *entered -= 1;
                            return Some(p);
                        }
                    }
                }
                None
            }
        }
    }

    /// Slot cost of `program` (0 for ids beyond the cost table).
    pub fn cost(&self, program: ProgramId) -> u32 {
        match &self.state {
            WindowState::Resident { schedule, .. } => schedule.cost(program),
            WindowState::Streaming { costs, .. } => {
                costs.get(program.index()).copied().unwrap_or(0)
            }
        }
    }

    /// Number of programs the cost table covers.
    pub fn cost_count(&self) -> usize {
        match &self.state {
            WindowState::Resident { schedule, .. } => schedule.cost_count(),
            WindowState::Streaming { costs, .. } => costs.len(),
        }
    }

    /// Events currently held in the window's own buffer. Zero for
    /// resident windows — they borrow the shared schedule and buffer
    /// nothing.
    pub fn resident_events(&self) -> usize {
        match &self.state {
            WindowState::Resident { .. } => 0,
            WindowState::Streaming { buf, .. } => buf.len(),
        }
    }

    /// High-water mark of [`resident_events`](ScheduleWindow::resident_events)
    /// over the window's lifetime.
    pub fn peak_resident_events(&self) -> usize {
        match &self.state {
            WindowState::Resident { .. } => 0,
            WindowState::Streaming { peak_resident, .. } => *peak_resident,
        }
    }
}

/// Prebuilt resident [`AccessSchedule`]s, one per neighborhood — what the
/// resident engine paths build their index servers from. Windows are
/// zero-copy cursor pairs over the shared schedules.
#[derive(Debug, Clone, Default)]
pub struct ResidentSchedules {
    schedules: Vec<Option<Arc<AccessSchedule>>>,
}

impl ResidentSchedules {
    /// Wraps prebuilt per-neighborhood schedules (index = dense
    /// neighborhood index).
    pub fn new(schedules: Vec<Option<Arc<AccessSchedule>>>) -> Self {
        ResidentSchedules { schedules }
    }

    /// No schedule for any of `neighborhoods` — what strategies that
    /// never consult a schedule run with.
    pub fn none(neighborhoods: usize) -> Self {
        ResidentSchedules {
            schedules: vec![None; neighborhoods],
        }
    }

    /// The windowed schedule for `nbhd`, or `None` when there is none for
    /// it (strategies that need one fail construction with
    /// [`CacheError::MissingSchedule`]).
    pub fn window(&self, nbhd: NeighborhoodId) -> Option<ScheduleWindow> {
        self.schedules
            .get(nbhd.index())
            .and_then(Clone::clone)
            .map(ScheduleWindow::resident)
    }
}

/// Test support shared by this crate's window-consuming test suites
/// (here and in [`crate::oracle`]): one feeder, so streaming windows are
/// fed identically everywhere.
#[cfg(test)]
pub(crate) mod testing {
    use super::*;

    /// Feeds a streaming window the way a record supply does: `batch`
    /// events a hand-over, as far ahead as the next access needs.
    #[derive(Debug)]
    pub(crate) struct Feeder {
        events: Vec<(SimTime, ProgramId)>,
        next: usize,
        batch: usize,
    }

    impl Feeder {
        /// A feeder over time-ordered `(secs, program id)` pairs.
        pub(crate) fn over(events: &[(u64, u32)], batch: usize) -> Self {
            Feeder {
                events: events
                    .iter()
                    .map(|&(s, q)| (SimTime::from_secs(s), ProgramId::new(q)))
                    .collect(),
                next: 0,
                batch: batch.max(1),
            }
        }

        /// What the hand-overs so far cover: the first event still held
        /// back is the earliest one missing.
        fn reach(&self) -> SimTime {
            self.events.get(self.next).map_or(SimTime::MAX, |&(t, _)| t)
        }

        /// Hands `extend` whole batches until `horizon` is covered.
        pub(crate) fn cover(
            &mut self,
            horizon: SimTime,
            mut extend: impl FnMut(&[(SimTime, ProgramId)], SimTime) -> Result<(), CacheError>,
        ) -> Result<(), CacheError> {
            while self.reach() < horizon {
                let end = (self.next + self.batch).min(self.events.len());
                let from = std::mem::replace(&mut self.next, end);
                extend(&self.events[from..end], self.reach())?;
            }
            extend(&[], self.reach())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::testing::Feeder;
    use super::*;
    use cablevod_hfc::units::SimDuration;

    fn t(secs: u64) -> SimTime {
        SimTime::from_secs(secs)
    }

    fn p(i: u32) -> ProgramId {
        ProgramId::new(i)
    }

    fn windows_for(events: &[(u64, u32)], costs: Vec<u32>) -> [ScheduleWindow; 2] {
        let resident = ScheduleWindow::resident(Arc::new(AccessSchedule::from_events(
            events.iter().map(|&(s, q)| (t(s), p(q))).collect(),
            costs.clone(),
        )));
        [resident, ScheduleWindow::streaming(costs.into())]
    }

    #[test]
    fn both_window_kinds_replay_the_same_events() {
        let events: Vec<(u64, u32)> = (0..500).map(|i| (i * 10, (i % 13) as u32)).collect();
        let costs: Vec<u32> = (0..13).map(|c| 1 + c % 4).collect();
        for batch in [1usize, 7, 64, 1_000] {
            let [mut resident, mut streaming] = windows_for(&events, costs.clone());
            let mut feeder = Feeder::over(&events, batch);
            // Walk both edges forward in lockstep through a sweep of nows.
            for step in 0..60u64 {
                let now = t(step * 100);
                let horizon = now + SimDuration::from_secs(1_000);
                feeder
                    .cover(horizon, |events, covered| streaming.extend(events, covered))
                    .expect("extend");
                streaming.ensure_covered(horizon).expect("covered");
                loop {
                    let a = resident.next_entering(horizon);
                    let b = streaming.next_entering(horizon);
                    assert_eq!(a, b, "entering at step {step}, batch {batch}");
                    if a.is_none() {
                        break;
                    }
                }
                loop {
                    let a = resident.next_leaving(now);
                    let b = streaming.next_leaving(now);
                    assert_eq!(a, b, "leaving at step {step}, batch {batch}");
                    if a.is_none() {
                        break;
                    }
                }
            }
            assert_eq!(resident.cost(p(3)), streaming.cost(p(3)));
            assert_eq!(resident.cost_count(), streaming.cost_count());
        }
    }

    #[test]
    fn streaming_window_residency_is_bounded_by_the_lookahead() {
        // 30 "days" of events, 100 per day, against a 3-day look-ahead:
        // the streaming window must never hold more than the events
        // inside the look-ahead span plus one hand-over.
        let day = 86_400u64;
        let per_day = 100u64;
        let events: Vec<(u64, u32)> = (0..30 * per_day)
            .map(|i| (i * (day / per_day), (i % 31) as u32))
            .collect();
        let batch = 64usize;
        let mut window = ScheduleWindow::streaming(vec![1u32; 31].into());
        let mut feeder = Feeder::over(&events, batch);
        let lookahead = SimDuration::from_days(3);
        for step in 0..300u64 {
            let now = t(step * (day / 10));
            let horizon = now + lookahead;
            feeder
                .cover(horizon, |events, covered| window.extend(events, covered))
                .expect("extend");
            while window.next_entering(horizon).is_some() {}
            while window.next_leaving(now).is_some() {}
            assert!(
                window.resident_events() <= 3 * per_day as usize + batch,
                "window leaked at step {step}: {} resident events",
                window.resident_events()
            );
        }
        // The peak is sampled at hand-over, before the trailing edge pops
        // the step's backlog, so it carries one step's events (10) on top
        // of the window span.
        assert!(window.peak_resident_events() <= 3 * per_day as usize + batch + 10);
        assert!(
            window.peak_resident_events() < events.len() / 2,
            "peak {} should be far below the {}-event schedule",
            window.peak_resident_events(),
            events.len()
        );
    }

    #[test]
    fn resident_window_buffers_nothing() {
        let [mut resident, _] = windows_for(&[(0, 0), (10, 1)], vec![1, 1]);
        resident
            .ensure_covered(SimTime::MAX)
            .expect("holds everything");
        while resident.next_entering(t(100)).is_some() {}
        assert_eq!(resident.resident_events(), 0);
        assert_eq!(resident.peak_resident_events(), 0);
    }

    #[test]
    fn out_of_order_readers_are_rejected() {
        let fresh = || ScheduleWindow::streaming(vec![1].into());
        // Inside one hand-over, across two, and behind an instant an
        // earlier hand-over declared covered.
        let mut window = fresh();
        let err = window
            .extend(&[(t(100), p(0)), (t(50), p(0))], t(200))
            .unwrap_err();
        assert!(matches!(err, CacheError::Schedule { .. }), "{err}");
        let mut window = fresh();
        window.extend(&[(t(100), p(0))], t(100)).expect("in order");
        window.extend(&[(t(100), p(0))], t(100)).expect("a tie");
        let err = window.extend(&[(t(99), p(0))], t(200)).unwrap_err();
        assert!(matches!(err, CacheError::Schedule { .. }), "{err}");
        let mut window = fresh();
        window.extend(&[], t(200)).expect("nothing before 200s");
        let err = window.extend(&[(t(150), p(0))], t(300)).unwrap_err();
        assert!(matches!(err, CacheError::Schedule { .. }), "{err}");
    }

    /// An under-fed streaming window is an error at the one fallible
    /// step, never a window that silently holds less than its span.
    #[test]
    fn a_horizon_past_the_covered_instant_fails_closed() {
        let mut window = ScheduleWindow::streaming(vec![1].into());
        let err = window.ensure_covered(t(1)).unwrap_err();
        assert!(matches!(err, CacheError::Schedule { .. }), "unfed: {err}");
        window.ensure_covered(t(0)).expect("nothing precedes 0s");

        window
            .extend(&[(t(10), p(0)), (t(90), p(0))], t(100))
            .expect("extend");
        window.ensure_covered(t(100)).expect("covered to 100s");
        let err = window.ensure_covered(t(101)).unwrap_err();
        assert!(
            matches!(&err, CacheError::Schedule { reason }
                if reason.contains("100s") && reason.contains("101s")),
            "{err}"
        );
        window
            .extend(&[], SimTime::MAX)
            .expect("the supply ran out");
        window
            .ensure_covered(SimTime::MAX)
            .expect("covered for good");
    }

    #[test]
    fn resident_source_hands_out_per_neighborhood_windows() {
        let sched = Arc::new(AccessSchedule::from_events(vec![(t(5), p(1))], vec![2, 3]));
        let source = ResidentSchedules::new(vec![None, Some(sched)]);
        assert!(source.window(NeighborhoodId::new(0)).is_none());
        let mut w = source.window(NeighborhoodId::new(1)).expect("present");
        assert_eq!(w.cost(p(1)), 3);
        assert_eq!(w.next_entering(t(10)), Some(p(1)));
        // Out-of-range neighborhoods have no schedule rather than panicking.
        assert!(source.window(NeighborhoodId::new(9)).is_none());
        // The no-schedule source never yields a window.
        let none = ResidentSchedules::none(3);
        assert!(none.window(NeighborhoodId::new(2)).is_none());
    }
}
