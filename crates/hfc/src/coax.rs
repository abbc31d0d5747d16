//! The coaxial neighborhood network (§II).
//!
//! Two properties matter for the system design and are modelled here:
//!
//! 1. **Broadcast** — anything sent by the headend *or by any subscriber* is
//!    seen by every subscriber in the neighborhood (given the bidirectional
//!    amplifiers the paper requires in §IV-B.4). Consequently a segment
//!    consumes the same coax bandwidth whether a peer or the headend sends
//!    it, which is why Fig 14 reports one number per neighborhood.
//! 2. **Rate limits** — downstream 4.9–6.6 Gb/s (3.3 Gb/s of which carries
//!    broadcast TV), upstream ≈ 215 Mb/s.

use serde::{Deserialize, Serialize};

use crate::meter::{RateMeter, RateStats};
use crate::units::{BitRate, DataSize, SimTime};

/// Capacity envelope of a coaxial segment.
///
/// # Examples
///
/// ```
/// use cablevod_hfc::coax::CoaxSpec;
/// let spec = CoaxSpec::paper_default();
/// assert!(spec.vod_headroom().as_gbps() > 1.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CoaxSpec {
    /// Total downstream capacity.
    pub downstream: BitRate,
    /// Portion of downstream reserved for broadcast cable television.
    pub tv_allocation: BitRate,
    /// Upstream capacity (cable modem, set-top control, VoIP).
    pub upstream: BitRate,
}

impl CoaxSpec {
    /// The paper's conservative configuration: 4.9 Gb/s downstream with
    /// 3.3 Gb/s reserved for TV, and the standardized 215 Mb/s upstream.
    pub fn paper_default() -> Self {
        CoaxSpec {
            downstream: BitRate::COAX_DOWNSTREAM_LOW,
            tv_allocation: BitRate::COAX_TV_ALLOCATION,
            upstream: BitRate::COAX_UPSTREAM,
        }
    }

    /// The high-capacity variant (6.6 Gb/s plant).
    pub fn high_capacity() -> Self {
        CoaxSpec {
            downstream: BitRate::COAX_DOWNSTREAM_HIGH,
            ..CoaxSpec::paper_default()
        }
    }

    /// Downstream capacity left for VoD after the TV allocation.
    pub fn vod_headroom(&self) -> BitRate {
        self.downstream.saturating_sub(self.tv_allocation)
    }
}

impl Default for CoaxSpec {
    fn default() -> Self {
        CoaxSpec::paper_default()
    }
}

/// Bandwidth state of one neighborhood's coaxial network.
///
/// Every VoD segment transmission in the neighborhood — whether served by a
/// peer (cache hit) or rebroadcast by the headend (cache miss) — is recorded
/// here, because the broadcast medium carries it either way.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CoaxNetwork {
    spec: CoaxSpec,
    meter: RateMeter,
    broadcasts: u64,
}

impl CoaxNetwork {
    /// Creates a coax network with the given capacity envelope.
    pub fn new(spec: CoaxSpec) -> Self {
        CoaxNetwork {
            spec,
            meter: RateMeter::hourly(),
            broadcasts: 0,
        }
    }

    /// The capacity envelope.
    pub fn spec(&self) -> &CoaxSpec {
        &self.spec
    }

    /// Records one segment broadcast over `[start, end)` of `size` bytes.
    #[inline]
    pub fn record_broadcast(&mut self, start: SimTime, end: SimTime, size: DataSize) {
        self.broadcasts += 1;
        self.meter.record(start, end, size);
    }

    /// Number of segment broadcasts seen.
    pub fn broadcasts(&self) -> u64 {
        self.broadcasts
    }

    /// Total data carried.
    pub fn total(&self) -> DataSize {
        self.meter.total()
    }

    /// The underlying hour-bucketed meter.
    pub fn meter(&self) -> &RateMeter {
        &self.meter
    }

    /// Peak-window (7–11 PM) statistics over the given day range.
    pub fn peak_stats(&self, first_day: u64, last_day: u64) -> RateStats {
        self.meter.peak_stats(first_day, last_day)
    }

    /// Fraction of the VoD headroom used by the mean peak rate; the paper
    /// reports "less than 17 % of the capacity of the coaxial line in
    /// extreme cases" (§VI-B).
    pub fn peak_utilization(&self, first_day: u64, last_day: u64) -> f64 {
        self.peak_stats(first_day, last_day)
            .mean
            .utilization_of(self.spec.vod_headroom())
    }
}

impl Default for CoaxNetwork {
    fn default() -> Self {
        CoaxNetwork::new(CoaxSpec::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::units::SimDuration;

    #[test]
    fn headroom_subtracts_tv() {
        let spec = CoaxSpec::paper_default();
        assert_eq!(spec.vod_headroom(), BitRate::from_mbps(1600));
        assert_eq!(
            CoaxSpec::high_capacity().vod_headroom(),
            BitRate::from_mbps(3300)
        );
    }

    #[test]
    fn broadcasts_accumulate_on_meter() {
        let mut coax = CoaxNetwork::default();
        let t = SimTime::from_days_hours(0, 20);
        let seg = BitRate::STREAM_MPEG2_SD * SimDuration::from_minutes(5);
        coax.record_broadcast(t, t + SimDuration::from_minutes(5), seg);
        coax.record_broadcast(t, t + SimDuration::from_minutes(5), seg);
        assert_eq!(coax.broadcasts(), 2);
        assert_eq!(coax.total(), seg * 2);
    }

    #[test]
    fn peak_utilization_is_fractional() {
        let mut coax = CoaxNetwork::default();
        // Saturate hour 20 of day 0 at 450 Mb/s.
        let t = SimTime::from_days_hours(0, 20);
        let size = BitRate::from_mbps(450) * SimDuration::from_hours(1);
        coax.record_broadcast(t, t + SimDuration::from_hours(1), size);
        let util = coax.peak_utilization(0, 1);
        // 450 Mb/s over 4 peak hours -> mean 112.5 Mb/s of 1600 Mb/s headroom.
        assert!((util - 112.5 / 1600.0).abs() < 1e-6, "got {util}");
    }
}
