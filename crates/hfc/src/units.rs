//! Strongly-typed physical units used throughout the simulator.
//!
//! Three newtypes cover everything the paper's evaluation needs:
//!
//! * [`BitRate`] — a data rate in bits per second (e.g. the 8.06 Mb/s
//!   MPEG-2 stream rate of §IV-B.1);
//! * [`DataSize`] — an amount of data, stored internally in **bits** so that
//!   `rate × duration` is exact integer arithmetic;
//! * [`SimTime`] / [`SimDuration`] — seconds since the trace epoch
//!   (midnight of trace day 0) and spans thereof.
//!
//! # Examples
//!
//! ```
//! use cablevod_hfc::units::{BitRate, SimDuration};
//!
//! // One 5-minute segment at the paper's stream rate:
//! let seg = BitRate::STREAM_MPEG2_SD * SimDuration::from_secs(300);
//! assert_eq!(seg.as_bytes(), 302_250_000);
//! ```

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

use serde::{Deserialize, Serialize};

/// A data rate in bits per second.
///
/// The paper's constants are provided as associated constants. `BitRate`
/// multiplies with [`SimDuration`] to yield a [`DataSize`].
///
/// # Examples
///
/// ```
/// use cablevod_hfc::units::BitRate;
/// assert_eq!(BitRate::STREAM_MPEG2_SD.as_bps(), 8_060_000);
/// assert!(BitRate::COAX_DOWNSTREAM_LOW < BitRate::COAX_DOWNSTREAM_HIGH);
/// ```
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct BitRate(u64);

impl BitRate {
    /// Minimum rate sustaining uninterrupted playback of high-quality
    /// MPEG-2 standard-definition TV (§IV-B.1): 8.06 Mb/s.
    pub const STREAM_MPEG2_SD: BitRate = BitRate::from_bps(8_060_000);
    /// Low end of coax downstream capacity (§II): 4.9 Gb/s.
    pub const COAX_DOWNSTREAM_LOW: BitRate = BitRate::from_gbps_int(4_900);
    /// High end of coax downstream capacity (§II): 6.6 Gb/s.
    pub const COAX_DOWNSTREAM_HIGH: BitRate = BitRate::from_gbps_int(6_600);
    /// Portion of downstream reserved for broadcast cable TV (§II): 3.3 Gb/s.
    pub const COAX_TV_ALLOCATION: BitRate = BitRate::from_gbps_int(3_300);
    /// Standardized upstream allocation (§II): approximately 215 Mb/s.
    pub const COAX_UPSTREAM: BitRate = BitRate::from_bps(215_000_000);
    /// A zero rate.
    pub const ZERO: BitRate = BitRate(0);

    /// Creates a rate from bits per second.
    pub const fn from_bps(bps: u64) -> Self {
        BitRate(bps)
    }

    /// Creates a rate from megabits per second (decimal: 1 Mb = 10^6 bits).
    pub const fn from_mbps(mbps: u64) -> Self {
        BitRate(mbps * 1_000_000)
    }

    /// Creates a rate from whole milli-gigabits per second; used for the
    /// paper's fractional Gb/s constants (4.9 Gb/s = `from_gbps_int(4_900)`).
    const fn from_gbps_int(milli_gbps: u64) -> Self {
        BitRate(milli_gbps * 1_000_000)
    }

    /// Creates a rate from (possibly fractional) gigabits per second.
    ///
    /// # Panics
    ///
    /// Panics if `gbps` is negative or not finite.
    pub fn from_gbps(gbps: f64) -> Self {
        assert!(
            gbps.is_finite() && gbps >= 0.0,
            "rate must be finite and non-negative"
        );
        BitRate((gbps * 1e9).round() as u64)
    }

    /// This rate in bits per second.
    pub const fn as_bps(self) -> u64 {
        self.0
    }

    /// This rate in megabits per second.
    pub fn as_mbps(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// This rate in gigabits per second.
    pub fn as_gbps(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Saturating subtraction, clamping at zero.
    #[must_use]
    pub fn saturating_sub(self, rhs: BitRate) -> BitRate {
        BitRate(self.0.saturating_sub(rhs.0))
    }

    /// Fraction of `capacity` this rate represents (0.0 when capacity is 0).
    pub fn utilization_of(self, capacity: BitRate) -> f64 {
        if capacity.0 == 0 {
            0.0
        } else {
            self.0 as f64 / capacity.0 as f64
        }
    }
}

impl fmt::Display for BitRate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000_000 {
            write!(f, "{:.2} Gb/s", self.as_gbps())
        } else if self.0 >= 1_000_000 {
            write!(f, "{:.2} Mb/s", self.as_mbps())
        } else {
            write!(f, "{} b/s", self.0)
        }
    }
}

impl Add for BitRate {
    type Output = BitRate;
    fn add(self, rhs: BitRate) -> BitRate {
        BitRate(self.0 + rhs.0)
    }
}

impl AddAssign for BitRate {
    fn add_assign(&mut self, rhs: BitRate) {
        self.0 += rhs.0;
    }
}

impl Sub for BitRate {
    type Output = BitRate;
    fn sub(self, rhs: BitRate) -> BitRate {
        BitRate(self.0 - rhs.0)
    }
}

impl Mul<SimDuration> for BitRate {
    type Output = DataSize;
    fn mul(self, rhs: SimDuration) -> DataSize {
        DataSize::from_bits(self.0 * rhs.as_secs())
    }
}

impl Sum for BitRate {
    fn sum<I: Iterator<Item = BitRate>>(iter: I) -> Self {
        BitRate(iter.map(|r| r.0).sum())
    }
}

/// An amount of data.
///
/// Stored internally in bits so that stream-rate arithmetic stays exact;
/// constructors and accessors speak bytes / gigabytes (decimal, matching the
/// paper's "10 GB per peer" style of numbers).
///
/// # Examples
///
/// ```
/// use cablevod_hfc::units::DataSize;
/// let contribution = DataSize::from_gigabytes(10);
/// assert_eq!(contribution.as_bytes(), 10_000_000_000);
/// ```
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct DataSize(u64);

impl DataSize {
    /// Zero bytes.
    pub const ZERO: DataSize = DataSize(0);

    /// Creates a size from raw bits.
    pub const fn from_bits(bits: u64) -> Self {
        DataSize(bits)
    }

    /// Creates a size from bytes.
    pub const fn from_bytes(bytes: u64) -> Self {
        DataSize(bytes * 8)
    }

    /// Creates a size from decimal gigabytes (10^9 bytes), the unit the
    /// paper uses for per-peer storage.
    pub const fn from_gigabytes(gb: u64) -> Self {
        DataSize(gb * 8_000_000_000)
    }

    /// Creates a size from decimal terabytes (10^12 bytes), the unit the
    /// paper uses for total cache sizes.
    pub const fn from_terabytes(tb: u64) -> Self {
        DataSize(tb * 8_000_000_000_000)
    }

    /// This size in bits.
    pub const fn as_bits(self) -> u64 {
        self.0
    }

    /// This size in whole bytes (truncating a trailing partial byte).
    pub const fn as_bytes(self) -> u64 {
        self.0 / 8
    }

    /// This size in decimal gigabytes.
    pub fn as_gigabytes(self) -> f64 {
        self.0 as f64 / 8e9
    }

    /// This size in decimal terabytes.
    pub fn as_terabytes(self) -> f64 {
        self.0 as f64 / 8e12
    }

    /// Saturating subtraction, clamping at zero.
    #[must_use]
    pub fn saturating_sub(self, rhs: DataSize) -> DataSize {
        DataSize(self.0.saturating_sub(rhs.0))
    }

    /// Checked subtraction.
    pub fn checked_sub(self, rhs: DataSize) -> Option<DataSize> {
        self.0.checked_sub(rhs.0).map(DataSize)
    }

    /// The average rate achieved by moving this much data over `dur`.
    ///
    /// # Panics
    ///
    /// Panics if `dur` is zero.
    pub fn over(self, dur: SimDuration) -> BitRate {
        assert!(
            dur.as_secs() > 0,
            "cannot compute a rate over a zero duration"
        );
        BitRate(self.0 / dur.as_secs())
    }
}

impl fmt::Display for DataSize {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let bytes = self.as_bytes();
        if bytes >= 1_000_000_000_000 {
            write!(f, "{:.2} TB", self.as_terabytes())
        } else if bytes >= 1_000_000_000 {
            write!(f, "{:.2} GB", self.as_gigabytes())
        } else if bytes >= 1_000_000 {
            write!(f, "{:.2} MB", bytes as f64 / 1e6)
        } else {
            write!(f, "{bytes} B")
        }
    }
}

impl Add for DataSize {
    type Output = DataSize;
    fn add(self, rhs: DataSize) -> DataSize {
        DataSize(self.0 + rhs.0)
    }
}

impl AddAssign for DataSize {
    fn add_assign(&mut self, rhs: DataSize) {
        self.0 += rhs.0;
    }
}

impl Sub for DataSize {
    type Output = DataSize;
    fn sub(self, rhs: DataSize) -> DataSize {
        DataSize(self.0 - rhs.0)
    }
}

impl SubAssign for DataSize {
    fn sub_assign(&mut self, rhs: DataSize) {
        self.0 -= rhs.0;
    }
}

impl Mul<u64> for DataSize {
    type Output = DataSize;
    fn mul(self, rhs: u64) -> DataSize {
        DataSize(self.0 * rhs)
    }
}

impl Div<u64> for DataSize {
    type Output = DataSize;
    fn div(self, rhs: u64) -> DataSize {
        DataSize(self.0 / rhs)
    }
}

impl Sum for DataSize {
    fn sum<I: Iterator<Item = DataSize>>(iter: I) -> Self {
        DataSize(iter.map(|s| s.0).sum())
    }
}

/// Seconds since the trace epoch (midnight before the first trace event).
///
/// The simulation clock. Calendar helpers (`hour_of_day`, `day`) assume the
/// epoch falls on a midnight, which the synthetic trace generator guarantees.
///
/// # Examples
///
/// ```
/// use cablevod_hfc::units::{SimTime, SimDuration};
/// let t = SimTime::from_days_hours(2, 20) + SimDuration::from_secs(120);
/// assert_eq!(t.day(), 2);
/// assert_eq!(t.hour_of_day(), 20);
/// ```
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct SimTime(u64);

/// Seconds in one hour.
pub const SECS_PER_HOUR: u64 = 3_600;
/// Seconds in one day.
pub const SECS_PER_DAY: u64 = 86_400;

impl SimTime {
    /// The trace epoch.
    pub const EPOCH: SimTime = SimTime(0);

    /// The last representable second: no event is later, so "until
    /// `MAX`" reads as "forever".
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Creates a time from raw seconds since the epoch.
    pub const fn from_secs(secs: u64) -> Self {
        SimTime(secs)
    }

    /// Creates a time at `hour` o'clock on trace day `day`.
    ///
    /// # Panics
    ///
    /// Panics if `hour >= 24`.
    pub const fn from_days_hours(day: u64, hour: u64) -> Self {
        assert!(hour < 24, "hour of day must be < 24");
        SimTime(day * SECS_PER_DAY + hour * SECS_PER_HOUR)
    }

    /// Seconds since the epoch.
    pub const fn as_secs(self) -> u64 {
        self.0
    }

    /// The trace day this instant falls in (0-based).
    pub const fn day(self) -> u64 {
        self.0 / SECS_PER_DAY
    }

    /// Hour of day, 0–23.
    pub const fn hour_of_day(self) -> u64 {
        (self.0 % SECS_PER_DAY) / SECS_PER_HOUR
    }

    /// Day of week, 0–6 (the epoch is day-of-week 0).
    pub const fn day_of_week(self) -> u64 {
        self.day() % 7
    }

    /// Time elapsed since `earlier`, or zero if `earlier` is later.
    pub fn since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// Saturating subtraction of a duration, clamping at the epoch.
    #[must_use]
    pub fn saturating_sub(self, dur: SimDuration) -> SimTime {
        SimTime(self.0.saturating_sub(dur.0))
    }

    /// Subtraction of a duration; `None` before the epoch.
    #[must_use]
    pub fn checked_sub(self, dur: SimDuration) -> Option<SimTime> {
        self.0.checked_sub(dur.0).map(SimTime)
    }

    /// Saturating addition of a duration, clamping at the last
    /// representable second.
    #[must_use]
    pub fn saturating_add(self, dur: SimDuration) -> SimTime {
        SimTime(self.0.saturating_add(dur.0))
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let rem = self.0 % SECS_PER_DAY;
        write!(
            f,
            "d{}+{:02}:{:02}:{:02}",
            self.day(),
            rem / SECS_PER_HOUR,
            (rem % SECS_PER_HOUR) / 60,
            rem % 60
        )
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

/// A span of simulated time in whole seconds.
///
/// # Examples
///
/// ```
/// use cablevod_hfc::units::SimDuration;
/// assert_eq!(SimDuration::from_minutes(5).as_secs(), 300);
/// assert_eq!(SimDuration::from_days(3), SimDuration::from_hours(72));
/// ```
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct SimDuration(u64);

impl SimDuration {
    /// A zero-length span.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Creates a duration from seconds.
    pub const fn from_secs(secs: u64) -> Self {
        SimDuration(secs)
    }

    /// Creates a duration from minutes.
    pub const fn from_minutes(minutes: u64) -> Self {
        SimDuration(minutes * 60)
    }

    /// Creates a duration from hours.
    pub const fn from_hours(hours: u64) -> Self {
        SimDuration(hours * SECS_PER_HOUR)
    }

    /// Creates a duration from days.
    pub const fn from_days(days: u64) -> Self {
        SimDuration(days * SECS_PER_DAY)
    }

    /// This duration in seconds.
    pub const fn as_secs(self) -> u64 {
        self.0
    }

    /// This duration in (fractional) minutes.
    pub fn as_minutes(self) -> f64 {
        self.0 as f64 / 60.0
    }

    /// This duration in (fractional) hours.
    pub fn as_hours(self) -> f64 {
        self.0 as f64 / SECS_PER_HOUR as f64
    }

    /// The smaller of two durations.
    #[must_use]
    pub fn min(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.min(other.0))
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= SECS_PER_HOUR {
            write!(f, "{:.2} h", self.as_hours())
        } else if self.0 >= 60 {
            write!(f, "{:.1} min", self.as_minutes())
        } else {
            write!(f, "{} s", self.0)
        }
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 - rhs.0)
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 * rhs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stream_rate_times_segment_is_exact() {
        let seg = BitRate::STREAM_MPEG2_SD * SimDuration::from_minutes(5);
        assert_eq!(seg.as_bits(), 2_418_000_000);
        assert_eq!(seg.as_bytes(), 302_250_000);
    }

    #[test]
    fn ten_gb_peer_holds_thirty_three_segments() {
        // Sanity check for the paper's 10 GB contribution: ~33 five-minute
        // segments at 8.06 Mb/s.
        let seg = BitRate::STREAM_MPEG2_SD * SimDuration::from_minutes(5);
        let per_peer = DataSize::from_gigabytes(10);
        assert_eq!(per_peer.as_bits() / seg.as_bits(), 33);
    }

    #[test]
    fn rate_display_picks_sensible_units() {
        assert_eq!(BitRate::STREAM_MPEG2_SD.to_string(), "8.06 Mb/s");
        assert_eq!(BitRate::from_gbps(4.9).to_string(), "4.90 Gb/s");
        assert_eq!(BitRate::from_bps(12).to_string(), "12 b/s");
    }

    #[test]
    fn size_display_picks_sensible_units() {
        assert_eq!(DataSize::from_terabytes(10).to_string(), "10.00 TB");
        assert_eq!(DataSize::from_gigabytes(3).to_string(), "3.00 GB");
        assert_eq!(DataSize::from_bytes(5).to_string(), "5 B");
    }

    #[test]
    fn size_over_duration_round_trips_rate() {
        let size = BitRate::STREAM_MPEG2_SD * SimDuration::from_hours(2);
        assert_eq!(
            size.over(SimDuration::from_hours(2)),
            BitRate::STREAM_MPEG2_SD
        );
    }

    #[test]
    #[should_panic(expected = "zero duration")]
    fn rate_over_zero_duration_panics() {
        let _ = DataSize::from_bytes(1).over(SimDuration::ZERO);
    }

    #[test]
    fn calendar_helpers() {
        let t = SimTime::from_days_hours(9, 23);
        assert_eq!(t.day(), 9);
        assert_eq!(t.hour_of_day(), 23);
        assert_eq!(t.day_of_week(), 2);
        assert_eq!((t + SimDuration::from_hours(1)).day(), 10);
    }

    #[test]
    fn since_saturates() {
        let early = SimTime::from_secs(100);
        let late = SimTime::from_secs(400);
        assert_eq!(late.since(early).as_secs(), 300);
        assert_eq!(early.since(late), SimDuration::ZERO);
        assert_eq!(early.saturating_sub(late.since(early)), SimTime::EPOCH);
        let forever = SimDuration::from_secs(u64::MAX);
        assert_eq!(late.saturating_add(forever), SimTime::MAX);
        assert_eq!(early.saturating_add(late.since(early)), late);
    }

    #[test]
    fn utilization_of_capacity() {
        let used = BitRate::from_mbps(450);
        assert!((used.utilization_of(BitRate::COAX_TV_ALLOCATION) - 0.1363).abs() < 1e-3);
        assert_eq!(used.utilization_of(BitRate::ZERO), 0.0);
    }

    #[test]
    fn display_of_time() {
        assert_eq!(SimTime::from_secs(90_061).to_string(), "d1+01:01:01");
    }

    #[test]
    fn sums() {
        let rates: BitRate = [BitRate::from_mbps(1), BitRate::from_mbps(2)]
            .into_iter()
            .sum();
        assert_eq!(rates, BitRate::from_mbps(3));
        let sizes: DataSize = [DataSize::from_bytes(1), DataSize::from_bytes(2)]
            .into_iter()
            .sum();
        assert_eq!(sizes, DataSize::from_bytes(3));
    }
}
