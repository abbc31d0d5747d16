//! The fiber-optic distribution side of the HFC plant (§II).
//!
//! The cable operator's central media servers feed headends over a switched
//! fiber network. The evaluation's primary metric — "the amount of VoD video
//! data that must be served by centralized media servers" (§V) — is the
//! aggregate rate recorded by [`CentralServer`]. Per-headend fiber links are
//! not metered: no report reads them.

use serde::{Deserialize, Serialize};

use crate::meter::{RateMeter, RateStats};
use crate::units::{DataSize, SimTime};

/// The cable operator's central media server farm.
///
/// While separate services may be served from different geographic areas,
/// the paper represents the operator as a single source; so do we.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CentralServer {
    meter: RateMeter,
    requests: u64,
}

impl CentralServer {
    /// Creates a server with an hourly meter.
    pub fn new() -> Self {
        CentralServer {
            meter: RateMeter::hourly(),
            requests: 0,
        }
    }

    /// Records the server streaming `size` bytes over `[start, end)` to
    /// satisfy one cache miss.
    pub fn record_service(&mut self, start: SimTime, end: SimTime, size: DataSize) {
        self.requests += 1;
        self.meter.record(start, end, size);
    }

    /// Number of segment requests served (cache misses system-wide).
    pub fn requests(&self) -> u64 {
        self.requests
    }

    /// Total data served.
    pub fn total(&self) -> DataSize {
        self.meter.total()
    }

    /// The underlying hour-bucketed meter.
    pub fn meter(&self) -> &RateMeter {
        &self.meter
    }

    /// Peak-window (7–11 PM) statistics — the paper's headline number.
    pub fn peak_stats(&self, first_day: u64, last_day: u64) -> RateStats {
        self.meter.peak_stats(first_day, last_day)
    }
}

impl Default for CentralServer {
    fn default() -> Self {
        CentralServer::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::units::{BitRate, SimDuration};

    #[test]
    fn server_counts_requests_and_bytes() {
        let mut server = CentralServer::new();
        let t = SimTime::from_days_hours(0, 19);
        let seg = BitRate::STREAM_MPEG2_SD * SimDuration::from_minutes(5);
        server.record_service(t, t + SimDuration::from_minutes(5), seg);
        assert_eq!(server.requests(), 1);
        assert_eq!(server.total(), seg);
        assert!(server.peak_stats(0, 1).mean.as_bps() > 0);
    }
}
