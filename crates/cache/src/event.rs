//! The one access event a strategy keeps.
//!
//! Two strategies hold accesses themselves rather than counts of them:
//! the windowed LFU keeps the events inside its history window that no
//! record supply hands back to it — remote feed events, double-weight
//! extras, or, built without a
//! [`HistoryWindow`](crate::history::HistoryWindow), every access — to
//! take each one back out when it expires (`lfu.rs`), and the Oracle's
//! [`ScheduleWindow`](crate::schedule::ScheduleWindow) buffers the
//! look-ahead span of the future. Both keep an [`AccessEvent`], and so do
//! the hand-overs that feed them: the access's start in whole seconds as
//! a `u32` and the program — 8 bytes, half of a `(SimTime, ProgramId)`
//! pair. Such a ring is held per neighborhood for the whole run, so its
//! width is multiplied by the number of events in the window and again by
//! the number of neighborhoods.
//!
//! The narrowing sets a **horizon**: an event can name any second below
//! [`AccessEvent::HORIZON`] (2^32 s, about 136 years after the trace
//! epoch) and none at or past it. An access beyond it is refused with
//! [`CacheError::BeyondHorizon`], never truncated to a second it did not
//! happen at. The simulator refuses such a record where it enters the
//! engine, before any strategy sees it; the index server checks again
//! before an access reaches its strategy.

use cablevod_hfc::ids::ProgramId;
use cablevod_hfc::units::SimTime;

use crate::error::CacheError;

/// One program access, as a strategy remembers it (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessEvent {
    secs: u32,
    program: ProgramId,
}

impl AccessEvent {
    /// The first instant an event cannot carry: 2^32 s past the epoch.
    pub const HORIZON: SimTime = SimTime::from_secs(1 << 32);

    /// The access to `program` at `at`.
    ///
    /// # Errors
    ///
    /// [`CacheError::BeyondHorizon`] when `at` is at or past
    /// [`HORIZON`](Self::HORIZON).
    pub fn new(at: SimTime, program: ProgramId) -> Result<Self, CacheError> {
        Ok(AccessEvent {
            secs: Self::secs(at)?,
            program,
        })
    }

    /// `at` in the event's seconds.
    ///
    /// # Errors
    ///
    /// [`CacheError::BeyondHorizon`] when `at` is at or past
    /// [`HORIZON`](Self::HORIZON).
    pub fn secs(at: SimTime) -> Result<u32, CacheError> {
        u32::try_from(at.as_secs()).map_err(|_| CacheError::BeyondHorizon { at })
    }

    /// When the access happened.
    pub fn at(self) -> SimTime {
        SimTime::from_secs(u64::from(self.secs))
    }

    /// The program accessed.
    pub fn program(self) -> ProgramId {
        self.program
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn an_event_is_eight_bytes() {
        assert_eq!(std::mem::size_of::<AccessEvent>(), 8);
    }

    #[test]
    fn the_last_second_before_the_horizon_round_trips_and_the_horizon_does_not() {
        let p = ProgramId::new(9);
        let last = SimTime::from_secs(u64::from(u32::MAX));
        let event = AccessEvent::new(last, p).expect("below the horizon");
        assert_eq!((event.at(), event.program()), (last, p));
        for at in [
            AccessEvent::HORIZON,
            SimTime::from_secs(1 << 40),
            SimTime::MAX,
        ] {
            let err = AccessEvent::new(at, p).unwrap_err();
            assert!(
                matches!(err, CacheError::BeyondHorizon { at: refused } if refused == at),
                "{err}"
            );
        }
    }
}
