//! The history window: how a windowed LFU lets go of its past.
//!
//! The paper's LFU "keeps a history of all events that occur within the
//! last N hours" (§IV-B.2), and takes each event back out of its counts
//! when it is N hours old. Most of those events are the neighborhood's own
//! accesses, and the replay that made them already walks them in order:
//! the record supply can hand each one back when it leaves the window,
//! instead of the strategy copying every access into a ring of its own to
//! find it again later. A [`HistoryWindow`] is where those hand-backs
//! arrive — the trailing twin of the Oracle's
//! [`ScheduleWindow`](crate::schedule::ScheduleWindow): an owner feeds it
//! with [`extend`](HistoryWindow::extend), each hand-over naming the
//! instant the hand-overs now cover, and the strategy's expiry takes the
//! events out one by one as they fall due
//! ([`next_leaving`](HistoryWindow::next_leaving)).
//!
//! Every supply hands back, before an access, just what leaves the window
//! at it, so the window holds at most what has been handed back and not
//! yet counted (below) — never the window itself: a week-long history on
//! a six-day trace is never handed anything.
//!
//! # Handed back, then counted
//!
//! A hand-back may run ahead of the replay. With a zero-length window an
//! access leaves in the very call that counts it, so the supply has to
//! hand it over before the access happens — and with it the later
//! accesses of the same second, which it cannot tell apart. The window
//! therefore retires an event only once the strategy has counted as many
//! of its own accesses ([`note_access`](HistoryWindow::note_access)):
//! hand-backs arrive in the order the accesses are made, so the `k`-th
//! event handed back is the `k`-th access counted.
//!
//! # Fallibility
//!
//! Like the schedule, a window fed too little must not pass for a short
//! history: the strategy's `prepare` checks through
//! [`ensure_covered`](HistoryWindow::ensure_covered) that every access
//! old enough to leave at `now` has been handed back.

use std::collections::VecDeque;

use cablevod_hfc::units::SimTime;

use crate::error::CacheError;
use crate::event::AccessEvent;

/// One neighborhood's accesses as the record supply hands them back on
/// their way out of a history window (see the module docs).
#[derive(Debug, Default)]
pub struct HistoryWindow {
    /// Handed back, not yet retired, in time order.
    leaving: VecDeque<AccessEvent>,
    /// The strategy's own accesses counted and not yet retired.
    counted: u64,
    /// No event still to come may be earlier.
    floor: SimTime,
    /// Every access before this instant has been handed back.
    covered: SimTime,
}

impl HistoryWindow {
    /// An empty window, to be fed through
    /// [`extend`](HistoryWindow::extend).
    pub fn new() -> Self {
        HistoryWindow::default()
    }

    /// Hands the window the next stretch of its neighborhood's leaving
    /// accesses: `events`, in time order, none earlier than anything
    /// handed back or covered before, after which every access before
    /// `covered` has been handed back.
    ///
    /// # Errors
    ///
    /// [`CacheError::History`] for events that break the time order.
    pub fn extend(&mut self, events: &[AccessEvent], covered: SimTime) -> Result<(), CacheError> {
        for &event in events {
            let t = event.at();
            if t < self.floor {
                return Err(CacheError::History {
                    reason: format!(
                        "history hand-back broke time order: {}s after {}s",
                        t.as_secs(),
                        self.floor.as_secs()
                    ),
                });
            }
            self.floor = t;
            self.leaving.push_back(event);
        }
        self.floor = self.floor.max(covered);
        self.covered = self.covered.max(covered);
        Ok(())
    }

    /// Checks that every access at or before `cutoff` — everything that
    /// leaves a window whose trailing edge is at `cutoff` — has been
    /// handed back.
    ///
    /// # Errors
    ///
    /// [`CacheError::History`] when the hand-backs fall short of it.
    pub fn ensure_covered(&self, cutoff: SimTime) -> Result<(), CacheError> {
        if self.covered <= cutoff {
            return Err(CacheError::History {
                reason: format!(
                    "the history was handed back up to {}s, an access needs it through {}s",
                    self.covered.as_secs(),
                    cutoff.as_secs()
                ),
            });
        }
        Ok(())
    }

    /// Notes that the strategy counted one of its own accesses.
    pub fn note_access(&mut self) {
        self.counted += 1;
    }

    /// The next access leaving the window — handed back, at or before
    /// `cutoff`, and already counted — or `None`.
    pub fn next_leaving(&mut self, cutoff: SimTime) -> Option<AccessEvent> {
        if self.counted == 0 {
            return None;
        }
        let event = self.leaving.front().filter(|e| e.at() <= cutoff)?;
        let event = *event;
        self.leaving.pop_front();
        self.counted -= 1;
        Some(event)
    }

    /// Events handed back and not yet retired.
    #[cfg(test)]
    pub(crate) fn resident_events(&self) -> usize {
        self.leaving.len()
    }

    /// Heap bytes the buffer holds.
    #[cfg(test)]
    pub(crate) fn heap_bytes(&self) -> usize {
        self.leaving.capacity() * std::mem::size_of::<AccessEvent>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cablevod_hfc::ids::ProgramId;

    fn t(secs: u64) -> SimTime {
        SimTime::from_secs(secs)
    }

    fn event(secs: u64, q: u32) -> AccessEvent {
        AccessEvent::new(t(secs), ProgramId::new(q)).expect("below the horizon")
    }

    #[test]
    fn events_leave_once_due_and_counted() {
        let mut window = HistoryWindow::new();
        window
            .extend(&[event(10, 0), event(20, 1), event(20, 2)], t(21))
            .expect("in order");
        // Nothing counted yet: nothing can leave, however old.
        assert_eq!(window.next_leaving(t(100)), None);
        for _ in 0..3 {
            window.note_access();
        }
        assert_eq!(window.next_leaving(t(9)), None, "not due");
        assert_eq!(window.next_leaving(t(10)), Some(event(10, 0)));
        assert_eq!(window.next_leaving(t(19)), None);
        assert_eq!(window.next_leaving(t(20)), Some(event(20, 1)));
        assert_eq!(window.next_leaving(t(20)), Some(event(20, 2)));
        assert_eq!(window.next_leaving(t(1_000)), None, "handed back out");
        assert_eq!(window.resident_events(), 0);
    }

    /// A hand-back running ahead of the accesses (a zero window's
    /// same-second burst) waits for them to be counted.
    #[test]
    fn a_hand_back_ahead_of_the_replay_waits_for_its_access() {
        let mut window = HistoryWindow::new();
        window
            .extend(&[event(5, 0), event(5, 1)], t(6))
            .expect("in order");
        window.note_access();
        assert_eq!(window.next_leaving(t(5)), Some(event(5, 0)));
        assert_eq!(window.next_leaving(t(5)), None, "the second is not counted");
        window.note_access();
        assert_eq!(window.next_leaving(t(5)), Some(event(5, 1)));
    }

    #[test]
    fn an_underfed_or_disordered_window_fails_closed() {
        let mut window = HistoryWindow::new();
        let err = window.ensure_covered(t(0)).unwrap_err();
        assert!(matches!(err, CacheError::History { .. }), "{err}");
        window.extend(&[event(10, 0)], t(50)).expect("in order");
        window.ensure_covered(t(49)).expect("covered through 49s");
        let err = window.ensure_covered(t(50)).unwrap_err();
        assert!(
            matches!(&err, CacheError::History { reason }
                if reason.contains("50s")),
            "{err}"
        );
        let err = window.extend(&[event(40, 0)], t(60)).unwrap_err();
        assert!(matches!(err, CacheError::History { .. }), "{err}");
    }

    /// The two feeders of one window, held to each other: a strategy
    /// keeping its own accesses (the reference model's, a unit test's)
    /// and the same strategy handed them back by a trailing cursor the way
    /// a record supply does — before every access and every idle sweep,
    /// everything at or before `now − window`, which at a zero window runs
    /// ahead of the replay into the rest of the second. Windows of zero,
    /// below the accesses' span and above it; bursts in one second and
    /// gaps of days; every kind of windowed LFU, the global one at three
    /// lags with a remote access as an idle sweep. The ops, the counts
    /// and the rebalance's probes must agree access by access.
    mod feeders {
        use super::*;
        use crate::delayed::DelayedLfu;
        use crate::feed::{FeedEvent, GlobalLfu};
        use crate::lfu::WindowedLfu;
        use crate::strategy::{CacheOp, CacheStrategy};
        use cablevod_hfc::ids::NeighborhoodId;
        use cablevod_hfc::units::SimDuration;
        use proptest::prelude::*;

        const PROGRAMS: u32 = 12;

        #[derive(Debug, Clone, Copy)]
        enum Kind {
            Lfu,
            Global(u64),
            Prior,
            Delayed(u64),
        }

        enum Under {
            Lfu(WindowedLfu),
            Global(GlobalLfu),
            Delayed(DelayedLfu),
        }

        impl Under {
            fn build(kind: Kind, capacity: u64, window: SimDuration, fed: bool) -> Self {
                let history = fed.then(HistoryWindow::new);
                let home = NeighborhoodId::new(0);
                match kind {
                    Kind::Lfu => Under::Lfu(WindowedLfu::new(capacity, window).fed_by(history)),
                    Kind::Global(lag) => Under::Global(
                        GlobalLfu::new(capacity, window, SimDuration::from_secs(lag), home)
                            .fed_by(history),
                    ),
                    Kind::Prior => Under::Global(
                        GlobalLfu::prior_storing(capacity, window, home).fed_by(history),
                    ),
                    Kind::Delayed(ms) => {
                        Under::Delayed(DelayedLfu::new(capacity, window, ms).fed_by(history))
                    }
                }
            }

            fn strategy(&mut self) -> &mut dyn CacheStrategy {
                match self {
                    Under::Lfu(s) => s,
                    Under::Global(s) => s,
                    Under::Delayed(s) => s,
                }
            }

            fn core(&self) -> &WindowedLfu {
                match self {
                    Under::Lfu(s) => s,
                    Under::Global(s) => &s.core,
                    Under::Delayed(s) => &s.core,
                }
            }
        }

        /// What one replay shows: every access's ops, and after each the
        /// counts, the contents and the probes so far.
        type Trail = Vec<(Vec<CacheOp>, Vec<(u32, bool)>, u64)>;

        /// Replays `events` — `(time, neighborhood, program)`, neighborhood
        /// 0 the strategy's own — through one strategy.
        fn replay(
            kind: Kind,
            capacity: u64,
            window: SimDuration,
            events: &[(SimTime, u32, ProgramId)],
            fed: bool,
        ) -> Trail {
            let cost = |q: ProgramId| 1 + q.value() % 4;
            let feed: Vec<FeedEvent> = events
                .iter()
                .map(|&(time, nbhd, program)| FeedEvent {
                    time,
                    neighborhood: NeighborhoodId::new(nbhd),
                    program,
                    cost: cost(program),
                })
                .collect();
            let own: Vec<AccessEvent> = events
                .iter()
                .filter(|e| e.1 == 0)
                .map(|&(time, _, q)| AccessEvent::new(time, q).expect("below the horizon"))
                .collect();
            let mut under = Under::build(kind, capacity, window, fed);
            let (mut behind, mut consumed, mut trail) = (0, 0, Trail::new());
            for (seq, &(now, nbhd, program)) in events.iter().enumerate() {
                if let (true, Some(until)) = (fed, now.checked_sub(window)) {
                    let from = behind;
                    while own.get(behind).is_some_and(|e| e.at() <= until) {
                        behind += 1;
                    }
                    let covered = until.saturating_add(SimDuration::from_secs(1));
                    under
                        .strategy()
                        .extend_history(&own[from..behind], covered)
                        .expect("in order");
                }
                let strategy = under.strategy();
                consumed += strategy.sync_global(&feed[consumed..=seq], now);
                if nbhd != 0 {
                    continue; // an idle sweep
                }
                strategy.prepare(now).expect("handed back in time");
                let mut ops = Vec::new();
                strategy.on_access(program, cost(program), now, &mut ops);
                let core = under.core();
                let seen = (0..PROGRAMS)
                    .map(ProgramId::new)
                    .map(|q| (core.count_of(q), core.contains(q)))
                    .collect();
                trail.push((ops, seen, core.candidate_probes()));
            }
            trail
        }

        proptest! {
            #![proptest_config(ProptestConfig { cases: 192, ..ProptestConfig::default() })]

            #[test]
            fn a_trailing_feeder_and_a_self_fed_window_agree(
                steps in prop::collection::vec((0u8..10, 1u64..3_600, 0u32..3, 0u32..PROGRAMS), 1..250),
                shape in (0usize..3, 2u64..16, 0usize..6),
            ) {
                let (window_pick, capacity, kind_pick) = shape;
                let mut now = 0u64;
                let events: Vec<(SimTime, u32, ProgramId)> = steps
                    .iter()
                    .map(|&(gap, step, nbhd, q)| {
                        now += match gap {
                            0..=3 => 0,     // the same second
                            4..=7 => step,  // up to an hour
                            8 => step * 24, // up to a day
                            _ => step * 96, // up to four days
                        };
                        (SimTime::from_secs(now), nbhd, ProgramId::new(q))
                    })
                    .collect();
                let window = SimDuration::from_secs([0, now / 3, now * 2 + 1][window_pick]);
                let kind = [
                    Kind::Lfu,
                    Kind::Global(0),
                    Kind::Global(1_800),
                    Kind::Global(7_200),
                    Kind::Prior,
                    Kind::Delayed(10_000),
                ][kind_pick];
                let kept = replay(kind, capacity, window, &events, false);
                let fed = replay(kind, capacity, window, &events, true);
                prop_assert_eq!(kept, fed, "{:?}, window {:?}", kind, window);
            }
        }
    }
}
