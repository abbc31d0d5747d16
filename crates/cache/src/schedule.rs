//! The schedule window: how the Oracle sees its future.
//!
//! The Oracle (§VI-A) needs the neighborhood's *future* accesses — one
//! [`AccessEvent`] per session record, 8 bytes, so a window holds only
//! times below [`AccessEvent::HORIZON`] — but only the next `lookahead`
//! of them at a time. It consumes them through a
//! [`ScheduleWindow`]: a two-edged cursor over one neighborhood's
//! time-ordered future events, held in a buffer its owner feeds with
//! [`extend`](ScheduleWindow::extend), each hand-over naming the instant
//! the hand-overs now cover. Events are buffered when they are handed
//! over and dropped the moment they fall behind `now`.
//!
//! Who feeds it is the engine's business, and it is the same on every
//! plan: the record supply reads the neighborhood's records `lookahead`
//! further along than the replay and hands each stretch over as it goes,
//! so the window holds O(events inside the look-ahead window + one
//! hand-over), never O(trace). However the stretches fall, the window
//! replays the **same event sequence in the same order**, so the Oracle's
//! decisions are bit-identical — the engine's plan-parity property tests
//! pin this end to end.
//!
//! # Fallibility: `prepare`, then infallible advancing
//!
//! The strategy access hook
//! ([`CacheStrategy::on_access`](crate::strategy::CacheStrategy::on_access))
//! is infallible by design, and a window that was fed too little must not
//! pass for a short schedule. The split:
//! [`CacheStrategy::prepare`](crate::strategy::CacheStrategy::prepare) —
//! called by the index server before every access — checks through
//! [`ScheduleWindow::ensure_covered`] (the only fallible step) that the
//! hand-overs reach the access's horizon, after which
//! [`next_entering`](ScheduleWindow::next_entering) /
//! [`next_leaving`](ScheduleWindow::next_leaving) cannot come up short.

use std::collections::VecDeque;
use std::sync::Arc;

use cablevod_hfc::ids::ProgramId;
use cablevod_hfc::units::SimTime;

use crate::error::CacheError;
use crate::event::AccessEvent;

/// A two-edged cursor over one neighborhood's time-ordered future
/// accesses (see the module docs). The Oracle slides it forward with
/// monotonically non-decreasing `now`; edges never move backwards.
#[derive(Debug)]
pub struct ScheduleWindow {
    costs: Arc<[u32]>,
    /// `buf[..entered]` is the current look-ahead window, `buf[entered..]`
    /// what has been handed over but is not across the leading edge yet.
    buf: VecDeque<AccessEvent>,
    entered: usize,
    /// No event still to come may be earlier: the last one handed over or
    /// the last instant covered, whichever is later.
    floor: SimTime,
    /// Every event before this instant has been handed over.
    covered: SimTime,
    /// High-water mark of `buf.len()` — what the retention tests assert
    /// stays bounded by the look-ahead window.
    peak_resident: usize,
}

impl ScheduleWindow {
    /// An empty window, to be fed through
    /// [`extend`](ScheduleWindow::extend). `costs[p]` is program `p`'s
    /// size in slots (the whole catalog — the Oracle is asked for costs
    /// of programs it has never seen scheduled); one table serves every
    /// window of a run.
    pub fn new(costs: Arc<[u32]>) -> Self {
        ScheduleWindow {
            costs,
            buf: VecDeque::new(),
            entered: 0,
            floor: SimTime::EPOCH,
            covered: SimTime::EPOCH,
            peak_resident: 0,
        }
    }

    /// Hands the window the next stretch of its future: `events`, in time
    /// order, none earlier than anything handed over or covered before,
    /// after which every event before `covered` has been handed over
    /// ([`SimTime::MAX`]: the future ends here).
    ///
    /// # Errors
    ///
    /// Rejects events that break the time order.
    pub fn extend(&mut self, events: &[AccessEvent], covered: SimTime) -> Result<(), CacheError> {
        self.buf.reserve(events.len());
        for &event in events {
            let t = event.at();
            if t < self.floor {
                return Err(CacheError::Schedule {
                    reason: format!(
                        "schedule hand-over broke time order: {}s after {}s",
                        t.as_secs(),
                        self.floor.as_secs()
                    ),
                });
            }
            self.floor = t;
            self.buf.push_back(event);
        }
        self.floor = self.floor.max(covered);
        self.covered = covered;
        self.peak_resident = self.peak_resident.max(self.buf.len());
        Ok(())
    }

    /// Checks that every event with time below `horizon` is in the
    /// window's reach (the only fallible step). After it returns,
    /// [`next_entering`](ScheduleWindow::next_entering) up to the same
    /// `horizon` yields the whole window, never a short one.
    ///
    /// # Errors
    ///
    /// [`CacheError::Schedule`] when the window has been handed less than
    /// `horizon` asks for.
    pub fn ensure_covered(&self, horizon: SimTime) -> Result<(), CacheError> {
        if self.covered < horizon {
            return Err(CacheError::Schedule {
                reason: format!(
                    "the look-ahead was fed up to {}s, an access needs it up to {}s",
                    self.covered.as_secs(),
                    horizon.as_secs()
                ),
            });
        }
        Ok(())
    }

    /// The next event crossing the window's leading edge (time below
    /// `horizon`), or `None` when no event qualifies. The window must be
    /// [covered](ScheduleWindow::ensure_covered) through `horizon` first.
    pub fn next_entering(&mut self, horizon: SimTime) -> Option<ProgramId> {
        match self.buf.get(self.entered) {
            Some(event) if event.at() < horizon => {
                self.entered += 1;
                Some(event.program())
            }
            Some(_) => None,
            None => {
                debug_assert!(
                    self.covered >= horizon,
                    "next_entering past the covered instant"
                );
                None
            }
        }
    }

    /// The next event falling behind the window's trailing edge (time
    /// below `now`), or `None`. The event is dropped from the buffer —
    /// this is what keeps a window fed as the replay goes bounded.
    pub fn next_leaving(&mut self, now: SimTime) -> Option<ProgramId> {
        if self.entered > 0 {
            if let Some(&event) = self.buf.front() {
                if event.at() < now {
                    self.buf.pop_front();
                    self.entered -= 1;
                    return Some(event.program());
                }
            }
        }
        None
    }

    /// Slot cost of `program` (0 for ids beyond the cost table).
    pub fn cost(&self, program: ProgramId) -> u32 {
        self.costs.get(program.index()).copied().unwrap_or(0)
    }

    /// Number of programs the cost table covers.
    pub fn cost_count(&self) -> usize {
        self.costs.len()
    }

    /// Events currently held in the window's buffer.
    pub fn resident_events(&self) -> usize {
        self.buf.len()
    }

    /// High-water mark of [`resident_events`](Self::resident_events)
    /// over the window's lifetime.
    pub fn peak_resident_events(&self) -> usize {
        self.peak_resident
    }
}

/// Test support shared by this crate's window-consuming test suites
/// (here and in [`crate::oracle`]): one feeder, so windows are fed as the
/// replay goes identically everywhere.
#[cfg(test)]
pub(crate) mod testing {
    use super::*;

    /// The access to program `q` at `secs`.
    pub(crate) fn event(secs: u64, q: u32) -> AccessEvent {
        AccessEvent::new(SimTime::from_secs(secs), ProgramId::new(q)).expect("below the horizon")
    }

    /// Feeds a window the way a streaming record supply does: `batch`
    /// events a hand-over, as far ahead as the next access needs.
    #[derive(Debug)]
    pub(crate) struct Feeder {
        events: Vec<AccessEvent>,
        next: usize,
        batch: usize,
    }

    impl Feeder {
        /// A feeder over time-ordered `(secs, program id)` pairs.
        pub(crate) fn over(events: &[(u64, u32)], batch: usize) -> Self {
            Feeder {
                events: events.iter().map(|&(s, q)| event(s, q)).collect(),
                next: 0,
                batch: batch.max(1),
            }
        }

        /// What the hand-overs so far cover: the first event still held
        /// back is the earliest one missing.
        fn reach(&self) -> SimTime {
            self.events.get(self.next).map_or(SimTime::MAX, |e| e.at())
        }

        /// Hands `extend` whole batches until `horizon` is covered.
        pub(crate) fn cover(
            &mut self,
            horizon: SimTime,
            mut extend: impl FnMut(&[AccessEvent], SimTime) -> Result<(), CacheError>,
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
    use super::testing::{event, Feeder};
    use super::*;
    use cablevod_hfc::units::SimDuration;

    fn t(secs: u64) -> SimTime {
        SimTime::from_secs(secs)
    }

    fn p(i: u32) -> ProgramId {
        ProgramId::new(i)
    }

    /// The two ways a window is fed: the whole future in one piece (the
    /// online engine's replayed schedule), and batch by batch as far as
    /// each access needs (every offline supply).
    #[test]
    fn both_window_kinds_replay_the_same_events() {
        let events: Vec<(u64, u32)> = (0..500).map(|i| (i * 10, (i % 13) as u32)).collect();
        let costs: Arc<[u32]> = (0..13).map(|c| 1 + c % 4).collect();
        let whole: Vec<AccessEvent> = events.iter().map(|&(s, q)| event(s, q)).collect();
        for batch in [1usize, 7, 64, 1_000] {
            let mut resident = ScheduleWindow::new(Arc::clone(&costs));
            resident.extend(&whole, SimTime::MAX).expect("in order");
            let mut streaming = ScheduleWindow::new(Arc::clone(&costs));
            let mut feeder = Feeder::over(&events, batch);
            // Walk both edges forward in lockstep through a sweep of nows.
            for step in 0..60u64 {
                let now = t(step * 100);
                let horizon = now + SimDuration::from_secs(1_000);
                feeder
                    .cover(horizon, |events, covered| streaming.extend(events, covered))
                    .expect("extend");
                resident.ensure_covered(horizon).expect("holds everything");
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
        let mut window = ScheduleWindow::new(vec![1u32; 31].into());
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

    /// The online engine's window: handed its whole future up front, it
    /// covers every horizon from then on and still drops each event as it
    /// falls behind `now`.
    #[test]
    fn a_window_handed_everything_lets_go_of_what_leaves() {
        let events: Vec<_> = (0..100u64).map(|i| event(i * 10, 0)).collect();
        let mut window = ScheduleWindow::new(vec![1].into());
        window.extend(&events, SimTime::MAX).expect("in order");
        window
            .ensure_covered(SimTime::MAX)
            .expect("holds everything");
        assert_eq!(window.resident_events(), 100);
        for step in 0..=10u64 {
            let now = t(step * 100);
            while window
                .next_entering(now + SimDuration::from_secs(50))
                .is_some()
            {}
            while window.next_leaving(now).is_some() {}
            assert_eq!(window.resident_events(), 100 - 10 * step as usize);
        }
        assert_eq!(window.peak_resident_events(), 100);
        // Nothing may follow the end of the future.
        let err = window.extend(&[event(2_000, 0)], SimTime::MAX).unwrap_err();
        assert!(matches!(err, CacheError::Schedule { .. }), "{err}");
    }

    #[test]
    fn out_of_order_readers_are_rejected() {
        let fresh = || ScheduleWindow::new(vec![1].into());
        // Inside one hand-over, across two, and behind an instant an
        // earlier hand-over declared covered.
        let mut window = fresh();
        let err = window
            .extend(&[event(100, 0), event(50, 0)], t(200))
            .unwrap_err();
        assert!(matches!(err, CacheError::Schedule { .. }), "{err}");
        let mut window = fresh();
        window.extend(&[event(100, 0)], t(100)).expect("in order");
        window.extend(&[event(100, 0)], t(100)).expect("a tie");
        let err = window.extend(&[event(99, 0)], t(200)).unwrap_err();
        assert!(matches!(err, CacheError::Schedule { .. }), "{err}");
        let mut window = fresh();
        window.extend(&[], t(200)).expect("nothing before 200s");
        let err = window.extend(&[event(150, 0)], t(300)).unwrap_err();
        assert!(matches!(err, CacheError::Schedule { .. }), "{err}");
    }

    /// An under-fed window is an error at the one fallible step, never a
    /// window that silently holds less than its span.
    #[test]
    fn a_horizon_past_the_covered_instant_fails_closed() {
        let mut window = ScheduleWindow::new(vec![1].into());
        let err = window.ensure_covered(t(1)).unwrap_err();
        assert!(matches!(err, CacheError::Schedule { .. }), "unfed: {err}");
        window.ensure_covered(t(0)).expect("nothing precedes 0s");

        window
            .extend(&[event(10, 0), event(90, 0)], t(100))
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
}
