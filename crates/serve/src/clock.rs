//! The clock seam the ingress tier is paced by.
//!
//! Everything above the decision tier asks a [`ClockSource`] what
//! simulated "now" is and (for replay) waits on it; swapping
//! [`WallClock`] for [`AcceleratedClock`] turns a real-time service into
//! a test or bench that runs as fast as the engine can step, with the
//! same code in between.

use std::time::{Duration, Instant};

use cablevod_hfc::units::SimTime;

/// A source of simulated time for the ingress tier.
pub trait ClockSource {
    /// The current simulated time.
    fn now(&mut self) -> SimTime;

    /// Blocks (or jumps) until the clock reads at least `t`.
    fn wait_until(&mut self, t: SimTime);

    /// How long until [`now`](ClockSource::now) reads a later second, for
    /// a clock that can tell. `None` — the default — means "unknown": the
    /// serve loop then looks at the clock every millisecond, which is
    /// right for a clock that another thread or a test moves.
    fn until_next_tick(&mut self) -> Option<Duration> {
        None
    }
}

/// Real time: one wall-clock second per simulated second, anchored at
/// construction.
#[derive(Debug)]
pub struct WallClock {
    started: Instant,
    origin: SimTime,
}

impl WallClock {
    /// A wall clock whose simulated origin is `origin` at the moment of
    /// construction.
    #[must_use]
    pub fn new(origin: SimTime) -> Self {
        WallClock {
            started: Instant::now(),
            origin,
        }
    }
}

impl Default for WallClock {
    fn default() -> Self {
        WallClock::new(SimTime::from_secs(0))
    }
}

impl ClockSource for WallClock {
    fn now(&mut self) -> SimTime {
        SimTime::from_secs(self.origin.as_secs() + self.started.elapsed().as_secs())
    }

    fn wait_until(&mut self, t: SimTime) {
        // Sleep in short slices so shutdown signals are observed promptly
        // by callers polling between waits.
        while self.now() < t {
            let behind = t.as_secs() - self.now().as_secs();
            std::thread::sleep(Duration::from_millis(10).min(Duration::from_secs(behind.max(1))));
        }
    }

    fn until_next_tick(&mut self) -> Option<Duration> {
        let into_second = Duration::new(0, self.started.elapsed().subsec_nanos());
        Some(Duration::from_secs(1) - into_second)
    }
}

/// Virtual time: `wait_until` jumps instantly, so tests and benches run
/// as fast as the engine can step. A clock that is never waited on stays
/// frozen — the overload test exploits this to keep the ingress queue
/// from draining.
#[derive(Debug, Clone)]
pub struct AcceleratedClock {
    now: SimTime,
}

impl AcceleratedClock {
    /// An accelerated clock starting at `origin`.
    #[must_use]
    pub fn new(origin: SimTime) -> Self {
        AcceleratedClock { now: origin }
    }
}

impl Default for AcceleratedClock {
    fn default() -> Self {
        AcceleratedClock::new(SimTime::from_secs(0))
    }
}

impl ClockSource for AcceleratedClock {
    fn now(&mut self) -> SimTime {
        self.now
    }

    fn wait_until(&mut self, t: SimTime) {
        if t > self.now {
            self.now = t;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wall_clock_says_when_it_next_ticks_and_the_others_do_not() {
        // Anchored 950 ms ago, so the tick is 50 ms away, not a second.
        let now = Instant::now();
        let mut wall = WallClock {
            started: now.checked_sub(Duration::from_millis(950)).unwrap_or(now),
            origin: SimTime::from_secs(7),
        };
        let before = wall.now();
        let wait = wall.until_next_tick().expect("a wall clock knows");
        assert!(wait <= Duration::from_secs(1) && wait > Duration::ZERO);
        std::thread::sleep(wait);
        assert_eq!(wall.now().as_secs(), before.as_secs() + 1);
        assert_eq!(AcceleratedClock::default().until_next_tick(), None);
    }
}
