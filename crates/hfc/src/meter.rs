//! Time-bucketed bandwidth accounting.
//!
//! The paper's headline metric is "the average data rate that the various
//! architecture components must sustain" per hour of the day (§V-A, Fig 7),
//! evaluated over the 7–11 PM peak window with 5 %/95 % quantile error bars
//! (Figs 8–10). [`RateMeter`] accumulates transferred bits into fixed-length
//! time buckets (one hour by default) and answers exactly those queries.

use serde::{Deserialize, Serialize};

use crate::units::{BitRate, DataSize, SimDuration, SimTime, SECS_PER_DAY};

/// First hour (inclusive) of the paper's peak window: 7 PM.
pub const PEAK_START_HOUR: u64 = 19;
/// Last hour (exclusive) of the paper's peak window: 11 PM.
pub const PEAK_END_HOUR: u64 = 23;

/// Accumulates transferred data into fixed-length time buckets.
///
/// Transfers spanning a bucket boundary are split proportionally, so rates
/// are exact regardless of how transfers align with bucket edges.
///
/// # Examples
///
/// ```
/// use cablevod_hfc::meter::RateMeter;
/// use cablevod_hfc::units::{BitRate, DataSize, SimTime, SimDuration};
///
/// let mut meter = RateMeter::hourly();
/// let start = SimTime::from_days_hours(0, 20);
/// let size = BitRate::STREAM_MPEG2_SD * SimDuration::from_minutes(5);
/// meter.record(start, start + SimDuration::from_minutes(5), size);
/// let rate = meter.bucket_rate(meter.bucket_of(start));
/// assert!(rate.as_bps() > 0);
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RateMeter {
    bucket_len: SimDuration,
    bits: Vec<u64>,
    total: DataSize,
    transfers: u64,
    /// The bucket the last [`record`](Self::record) put its final share
    /// into.
    recent: RecentBucket,
}

/// A bucket of `bits` and its bounds in seconds, `[start, end)`; empty
/// (`end == 0`) until the first transfer is recorded.
#[derive(Debug, Clone, Copy, Default)]
struct RecentBucket {
    index: usize,
    start: u64,
    end: u64,
}

impl RateMeter {
    /// Creates a meter with the given bucket length.
    ///
    /// # Panics
    ///
    /// Panics if `bucket_len` is zero.
    pub fn new(bucket_len: SimDuration) -> Self {
        assert!(bucket_len.as_secs() > 0, "bucket length must be positive");
        RateMeter {
            bucket_len,
            bits: Vec::new(),
            total: DataSize::ZERO,
            transfers: 0,
            recent: RecentBucket::default(),
        }
    }

    /// Creates a meter with one-hour buckets (the paper's granularity).
    pub fn hourly() -> Self {
        RateMeter::new(SimDuration::from_hours(1))
    }

    /// Creates a meter with 15-minute buckets (used for the Fig 2 style
    /// "sessions in the last 15 minutes" analyses).
    pub fn quarter_hourly() -> Self {
        RateMeter::new(SimDuration::from_minutes(15))
    }

    /// The configured bucket length.
    pub fn bucket_len(&self) -> SimDuration {
        self.bucket_len
    }

    /// Total data recorded.
    pub fn total(&self) -> DataSize {
        self.total
    }

    /// Number of `record` calls.
    pub fn transfers(&self) -> u64 {
        self.transfers
    }

    /// Index of the bucket containing `t`.
    pub fn bucket_of(&self, t: SimTime) -> usize {
        (t.as_secs() / self.bucket_len.as_secs()) as usize
    }

    /// Number of buckets that have ever been touched (the highest recorded
    /// instant determines the length).
    pub fn bucket_count(&self) -> usize {
        self.bits.len()
    }

    /// Records a transfer of `size` spread uniformly over `[start, end)`.
    /// A zero-length transfer is attributed entirely to `start`'s bucket.
    ///
    /// The meter remembers the bucket the last transfer ended in, with its
    /// bounds. A transfer that lies wholly inside that bucket is added to
    /// it without a division: the split would put every one of its bits
    /// there, so the bucket gets the same bits either way. Drivers record
    /// in time order and a segment is shorter than a bucket, so most
    /// transfers take that path — inlined into the caller, while the
    /// split stays out of line.
    ///
    /// # Panics
    ///
    /// Panics if `end < start`.
    #[inline]
    pub fn record(&mut self, start: SimTime, end: SimTime, size: DataSize) {
        assert!(end >= start, "transfer must not end before it starts");
        self.total += size;
        self.transfers += 1;
        let bits = size.as_bits();
        let (start, end) = (start.as_secs(), end.as_secs());
        let recent = self.recent;
        if recent.start <= start && start < recent.end && end <= recent.end {
            self.bits[recent.index] += bits;
            return;
        }
        self.split(start, end, bits);
    }

    /// [`record`](Self::record)'s proportional split of `bits` over
    /// `[start, end)`, in seconds.
    fn split(&mut self, start: u64, end: u64, bits: u64) {
        if bits == 0 {
            return;
        }
        let blen = self.bucket_len.as_secs();
        let first = start / blen;
        let dur = end - start;
        if dur == 0 {
            self.add_to_last(first, bits);
            return;
        }
        let last = (end - 1) / blen;
        self.grow_to(last as usize + 1);
        let mut assigned = 0u64;
        for bucket in first..last {
            let bucket_end = (bucket + 1) * blen;
            let overlap = bucket_end - start.max(bucket * blen);
            let share = bits * overlap / dur;
            self.bits[bucket as usize] += share;
            assigned += share;
        }
        // Remainder (including rounding residue) lands in the final bucket
        // so that recorded bits always sum exactly to `size`.
        self.add_to_last(last, bits - assigned);
    }

    /// Adds `bits` to `bucket`, the last one a transfer touches, and
    /// remembers it for the next [`record`](Self::record).
    fn add_to_last(&mut self, bucket: u64, bits: u64) {
        let index = bucket as usize;
        self.grow_to(index + 1);
        self.bits[index] += bits;
        let blen = self.bucket_len.as_secs();
        self.recent = RecentBucket {
            index,
            start: bucket * blen,
            end: (bucket + 1).saturating_mul(blen),
        };
    }

    /// Average rate in bucket `bucket` (zero for untouched buckets).
    pub fn bucket_rate(&self, bucket: usize) -> BitRate {
        let bits = self.bits.get(bucket).copied().unwrap_or(0);
        BitRate::from_bps(bits / self.bucket_len.as_secs())
    }

    /// Data volume in bucket `bucket`.
    pub fn bucket_size(&self, bucket: usize) -> DataSize {
        DataSize::from_bits(self.bits.get(bucket).copied().unwrap_or(0))
    }

    /// Mean rate for each hour of the day, averaged across all days that the
    /// meter covers (Fig 7). Requires hourly buckets.
    ///
    /// # Panics
    ///
    /// Panics if the meter does not use one-hour buckets.
    pub fn hourly_profile(&self) -> [BitRate; 24] {
        assert_eq!(
            self.bucket_len,
            SimDuration::from_hours(1),
            "hourly_profile requires one-hour buckets"
        );
        let mut sums = [0u64; 24];
        let days = self.bits.len().div_ceil(24).max(1) as u64;
        for (i, bits) in self.bits.iter().enumerate() {
            sums[i % 24] += bits;
        }
        let mut out = [BitRate::ZERO; 24];
        for (h, sum) in sums.iter().enumerate() {
            out[h] = BitRate::from_bps(sum / (days * 3600));
        }
        out
    }

    /// Per-bucket rates inside the daily window `[start_hour, end_hour)` for
    /// every day in `[first_day, last_day)` — the samples behind the paper's
    /// averages and 5 %/95 % error bars.
    ///
    /// # Panics
    ///
    /// Panics if the window is empty, reversed, or not within a day, or if
    /// the bucket length does not divide one hour.
    pub fn window_samples(
        &self,
        first_day: u64,
        last_day: u64,
        start_hour: u64,
        end_hour: u64,
    ) -> Vec<BitRate> {
        assert!(
            start_hour < end_hour && end_hour <= 24,
            "invalid daily window"
        );
        assert_eq!(
            3600 % self.bucket_len.as_secs(),
            0,
            "bucket length must divide one hour for window queries"
        );
        let per_hour = (3600 / self.bucket_len.as_secs()) as usize;
        let mut out = Vec::new();
        for day in first_day..last_day {
            for hour in start_hour..end_hour {
                let base = self.bucket_of(SimTime::from_secs(day * SECS_PER_DAY + hour * 3600));
                for k in 0..per_hour {
                    out.push(self.bucket_rate(base + k));
                }
            }
        }
        out
    }

    /// Summary statistics over the paper's 7–11 PM peak window.
    pub fn peak_stats(&self, first_day: u64, last_day: u64) -> RateStats {
        RateStats::from_samples(&self.window_samples(
            first_day,
            last_day,
            PEAK_START_HOUR,
            PEAK_END_HOUR,
        ))
    }

    /// Folds `other` into `self` bucket by bucket.
    ///
    /// Because [`RateMeter::record`] is commutative — each transfer's
    /// bucket split depends only on that transfer — merging per-shard
    /// meters reconstructs *exactly* the meter a single serial run would
    /// have produced, regardless of the order transfers were recorded in.
    /// This is the primitive the sharded simulation engine uses to rebuild
    /// the shared central-server meter from per-neighborhood meters.
    ///
    /// # Panics
    ///
    /// Panics if the bucket lengths differ.
    pub fn merge(&mut self, other: &RateMeter) {
        assert_eq!(
            self.bucket_len, other.bucket_len,
            "cannot merge meters with different bucket lengths"
        );
        self.grow_to(other.bits.len());
        for (mine, theirs) in self.bits.iter_mut().zip(&other.bits) {
            *mine += theirs;
        }
        self.total += other.total;
        self.transfers += other.transfers;
    }

    fn grow_to(&mut self, len: usize) {
        if self.bits.len() < len {
            self.bits.resize(len, 0);
        }
    }
}

/// Mean / quantile summary of a set of rate samples.
///
/// Matches the presentation of the paper's bar charts: a mean bar with error
/// bars demarcating the 5 % and 95 % quantiles.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RateStats {
    /// Mean rate across samples.
    pub mean: BitRate,
    /// 5 % quantile.
    pub q05: BitRate,
    /// 95 % quantile.
    pub q95: BitRate,
    /// Largest sample.
    pub max: BitRate,
    /// Number of samples aggregated.
    pub samples: usize,
}

impl RateStats {
    /// Computes statistics from raw samples. Empty input yields all-zero
    /// statistics.
    pub fn from_samples(samples: &[BitRate]) -> Self {
        if samples.is_empty() {
            return RateStats {
                mean: BitRate::ZERO,
                q05: BitRate::ZERO,
                q95: BitRate::ZERO,
                max: BitRate::ZERO,
                samples: 0,
            };
        }
        let mut sorted: Vec<u64> = samples.iter().map(|r| r.as_bps()).collect();
        sorted.sort_unstable();
        let mean = sorted.iter().sum::<u64>() / sorted.len() as u64;
        RateStats {
            mean: BitRate::from_bps(mean),
            q05: BitRate::from_bps(quantile(&sorted, 0.05)),
            q95: BitRate::from_bps(quantile(&sorted, 0.95)),
            max: BitRate::from_bps(*sorted.last().expect("non-empty")),
            samples: sorted.len(),
        }
    }
}

impl std::fmt::Display for RateStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} (5%: {}, 95%: {}, n={})",
            self.mean, self.q05, self.q95, self.samples
        )
    }
}

/// Linear-interpolated quantile of pre-sorted data.
fn quantile(sorted: &[u64], q: f64) -> u64 {
    debug_assert!((0.0..=1.0).contains(&q));
    if sorted.is_empty() {
        return 0;
    }
    if sorted.len() == 1 {
        return sorted[0];
    }
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        let frac = pos - lo as f64;
        (sorted[lo] as f64 * (1.0 - frac) + sorted[hi] as f64 * frac).round() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mb(n: u64) -> DataSize {
        DataSize::from_bytes(n * 1_000_000)
    }

    #[test]
    fn record_within_one_bucket() {
        let mut m = RateMeter::hourly();
        let t = SimTime::from_days_hours(0, 20);
        m.record(t, t + SimDuration::from_minutes(5), mb(300));
        assert_eq!(m.bucket_size(20), mb(300));
        assert_eq!(m.bucket_rate(20).as_bps(), mb(300).as_bits() / 3600);
    }

    #[test]
    fn record_splits_proportionally_across_boundary() {
        let mut m = RateMeter::hourly();
        // 30 min before and 30 min after the hour boundary.
        let start = SimTime::from_secs(3600 - 1800);
        let end = SimTime::from_secs(3600 + 1800);
        m.record(start, end, DataSize::from_bits(1_000_000));
        assert_eq!(m.bucket_size(0).as_bits(), 500_000);
        assert_eq!(m.bucket_size(1).as_bits(), 500_000);
    }

    #[test]
    fn split_conserves_total_bits_exactly() {
        let mut m = RateMeter::new(SimDuration::from_minutes(15));
        // Awkward span and size that do not divide evenly.
        m.record(
            SimTime::from_secs(137),
            SimTime::from_secs(137 + 3777),
            DataSize::from_bits(999_999_937),
        );
        let sum: u64 = (0..m.bucket_count())
            .map(|b| m.bucket_size(b).as_bits())
            .sum();
        assert_eq!(sum, 999_999_937);
        assert_eq!(m.total().as_bits(), 999_999_937);
    }

    #[test]
    fn zero_duration_transfer_lands_in_start_bucket() {
        let mut m = RateMeter::hourly();
        let t = SimTime::from_days_hours(1, 3);
        m.record(t, t, mb(1));
        assert_eq!(m.bucket_size(27), mb(1));
    }

    #[test]
    fn hourly_profile_averages_across_days() {
        let mut m = RateMeter::hourly();
        for day in 0..4u64 {
            let t = SimTime::from_days_hours(day, 20);
            m.record(
                t,
                t + SimDuration::from_hours(1),
                DataSize::from_bits(3600 * 1000),
            );
        }
        let profile = m.hourly_profile();
        // 4 days recorded; bits only at hour 20. Bucket count is 3*24+21 →
        // div_ceil gives 4 days.
        assert_eq!(profile[20].as_bps(), 1000);
        assert_eq!(profile[19].as_bps(), 0);
    }

    #[test]
    fn peak_window_stats() {
        let mut m = RateMeter::hourly();
        // Two days, constant 1000 b/s during 19–23 on each.
        for day in 0..2u64 {
            for hour in PEAK_START_HOUR..PEAK_END_HOUR {
                let t = SimTime::from_days_hours(day, hour);
                m.record(
                    t,
                    t + SimDuration::from_hours(1),
                    DataSize::from_bits(3600 * 1000),
                );
            }
        }
        let stats = m.peak_stats(0, 2);
        assert_eq!(stats.samples, 8);
        assert_eq!(stats.mean.as_bps(), 1000);
        assert_eq!(stats.q05.as_bps(), 1000);
        assert_eq!(stats.q95.as_bps(), 1000);
    }

    #[test]
    fn quantiles_interpolate() {
        let sorted: Vec<u64> = (1..=100).collect();
        assert_eq!(quantile(&sorted, 0.0), 1);
        assert_eq!(quantile(&sorted, 1.0), 100);
        assert_eq!(quantile(&sorted, 0.5), 51); // midpoint of 1..=100 at pos 49.5 -> 50.5 rounds to 51? (50*0.5+51*0.5 = 50.5 -> 51)
    }

    #[test]
    fn stats_from_empty_is_zero() {
        let s = RateStats::from_samples(&[]);
        assert_eq!(s.samples, 0);
        assert_eq!(s.mean, BitRate::ZERO);
    }

    #[test]
    fn display_of_stats() {
        let s = RateStats::from_samples(&[BitRate::from_mbps(10), BitRate::from_mbps(20)]);
        let text = s.to_string();
        assert!(text.contains("n=2"), "{text}");
    }

    #[test]
    #[should_panic(expected = "must not end before")]
    fn reversed_transfer_panics() {
        let mut m = RateMeter::hourly();
        m.record(SimTime::from_secs(10), SimTime::from_secs(5), mb(1));
    }

    /// Splitting one transfer stream across two meters and merging must
    /// reproduce the single-meter result exactly, including transfers that
    /// straddle bucket boundaries with non-dividing remainders.
    #[test]
    fn merge_reconstructs_serial_meter_exactly() {
        let transfers: Vec<(u64, u64, u64)> = vec![
            (0, 100, 1_000),
            (3_599, 3_601, 999_999_937), // boundary straddle, awkward size
            (137, 137 + 3_777, 123_456_789),
            (7_200, 7_200, 5_000), // zero-duration
            (10, 50_000, 42),      // long span, tiny size
        ];
        let mut serial = RateMeter::hourly();
        let mut a = RateMeter::hourly();
        let mut b = RateMeter::hourly();
        for (i, &(s, e, bits)) in transfers.iter().enumerate() {
            let (s, e, size) = (
                SimTime::from_secs(s),
                SimTime::from_secs(e),
                DataSize::from_bits(bits),
            );
            serial.record(s, e, size);
            // Interleave between the two "shards" in a different order
            // than serial sees them.
            if i % 2 == 0 { &mut a } else { &mut b }.record(s, e, size);
        }
        let mut merged = RateMeter::hourly();
        merged.merge(&b); // reverse shard order on purpose
        merged.merge(&a);
        assert_eq!(merged.total(), serial.total());
        assert_eq!(merged.transfers(), serial.transfers());
        assert_eq!(merged.bucket_count(), serial.bucket_count());
        for bucket in 0..serial.bucket_count() {
            assert_eq!(
                merged.bucket_size(bucket),
                serial.bucket_size(bucket),
                "bucket {bucket}"
            );
        }
    }

    /// The remembered bucket is a shortcut, not a second rule: a meter
    /// recording a stream of transfers — mostly inside one bucket after
    /// another, some straddling, some zero-length or empty, some jumping
    /// back in time — holds exactly the bits of the merge of one fresh
    /// meter per transfer, each of which splits without a memory.
    #[test]
    fn remembered_bucket_matches_a_fresh_split() {
        let mut state = 0x5EED_u64;
        let mut next = |n: u64| {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            (state >> 33) % n
        };
        let mut meter = RateMeter::quarter_hourly();
        let mut fresh = RateMeter::quarter_hourly();
        let mut now = 0u64;
        for _ in 0..5_000 {
            now = match next(20) {
                0 => now.saturating_sub(next(4_000)),
                _ => now + next(400),
            };
            let len = [0, 1, 299, 300, 2_000][next(5) as usize];
            let bits = [0, 1, 7, 2_418_000_000][next(4) as usize];
            let (start, end, size) = (
                SimTime::from_secs(now),
                SimTime::from_secs(now + len),
                DataSize::from_bits(bits),
            );
            meter.record(start, end, size);
            let mut single = RateMeter::quarter_hourly();
            single.record(start, end, size);
            fresh.merge(&single);
        }
        assert_eq!(meter.total(), fresh.total());
        assert_eq!(meter.transfers(), fresh.transfers());
        assert_eq!(meter.bucket_count(), fresh.bucket_count());
        for bucket in 0..meter.bucket_count() {
            assert_eq!(
                meter.bucket_size(bucket),
                fresh.bucket_size(bucket),
                "bucket {bucket}"
            );
        }
    }

    #[test]
    fn merge_with_empty_meters_is_identity() {
        let mut m = RateMeter::hourly();
        m.record(
            SimTime::from_days_hours(0, 20),
            SimTime::from_days_hours(0, 21),
            mb(7),
        );
        let snapshot = (m.total(), m.transfers(), m.bucket_count());

        // Empty into populated: no change.
        m.merge(&RateMeter::hourly());
        assert_eq!((m.total(), m.transfers(), m.bucket_count()), snapshot);

        // Populated into empty: exact copy.
        let mut empty = RateMeter::hourly();
        empty.merge(&m);
        assert_eq!(empty.total(), m.total());
        assert_eq!(empty.transfers(), m.transfers());
        for bucket in 0..m.bucket_count() {
            assert_eq!(empty.bucket_size(bucket), m.bucket_size(bucket));
        }

        // Empty into empty: still empty.
        let mut both = RateMeter::hourly();
        both.merge(&RateMeter::hourly());
        assert_eq!(both.bucket_count(), 0);
        assert_eq!(both.total(), DataSize::ZERO);
    }

    #[test]
    #[should_panic(expected = "different bucket lengths")]
    fn merge_rejects_mismatched_bucket_lengths() {
        let mut hourly = RateMeter::hourly();
        hourly.merge(&RateMeter::quarter_hourly());
    }
}
