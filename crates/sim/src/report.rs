//! Simulation results.

use serde::{Deserialize, Serialize};

use cablevod_cache::IndexStats;
use cablevod_hfc::meter::RateStats;
use cablevod_hfc::units::{BitRate, DataSize};

/// Everything a simulation run measured.
///
/// The headline number is [`SimReport::server_peak`] — "the average server
/// rate during peak hours" that every evaluation figure reports — with
/// 5 %/95 % quantiles over peak-hour samples as error bars.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimReport {
    /// Central-server rate statistics over the peak window (7–11 PM),
    /// measured days only.
    pub server_peak: RateStats,
    /// Total bytes served by the central server over the whole run
    /// (including warm-up).
    pub server_total: DataSize,
    /// Mean server rate per hour of the day, whole run (Fig 7 shape).
    pub server_hourly: [BitRate; 24],
    /// Peak-window coax statistics pooled over all neighborhoods — the
    /// Fig 14 metric (mean = "average traffic rate", q95 = "poor cases").
    pub coax_peak: RateStats,
    /// Per-neighborhood mean peak coax rate.
    pub coax_per_neighborhood: Vec<BitRate>,
    /// Aggregated index-server counters.
    pub cache: IndexStats,
    /// Sessions simulated (including, under enforcing admission, the
    /// blocked and interrupted ones — every trace record is a session).
    pub sessions: u64,
    /// Segment requests resolved.
    pub segment_requests: u64,
    /// Session starts that pushed the viewer's own STB beyond its slot
    /// limit. Admission has two modes (see
    /// [`AdmissionMode`](crate::config::AdmissionMode)): under the
    /// default **counting** mode, over-limit starts — this counter, and
    /// likewise coax traffic beyond the channel budget — are counted,
    /// never blocked, which preserves the paper's perfect-plant figures
    /// bit for bit. Under **enforcing** mode,
    /// plant-level admission (outages, channel budget) blocks or
    /// interrupts sessions instead, and the consequences land in
    /// [`SimReport::degradation`].
    pub viewer_overcommits: u64,
    /// Degraded-plant measurements. `None` exactly when the run used the
    /// default counting admission mode over a healthy (empty) fault
    /// plan, so pre-fault reports are untouched; `Some` whenever a fault
    /// plan or enforcing admission was configured.
    pub degradation: Option<DegradationReport>,
    /// First measured day (after warm-up).
    pub measured_from_day: u64,
    /// One past the last measured day.
    pub measured_to_day: u64,
}

/// One neighborhood's degradation measurements.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct NeighborhoodDegradation {
    /// Sessions refused for good (enforcing) or refusal-worthy starts
    /// (counting — the trajectory is unchanged).
    pub blocked_sessions: u64,
    /// In-flight sessions dropped by an outage (enforcing) or
    /// interruption-worthy sessions (counting).
    pub interrupted_sessions: u64,
    /// Retry attempts scheduled (always zero in counting mode).
    pub retries: u64,
    /// Seconds this neighborhood spent in outage (merged intervals).
    pub outage_secs: u64,
    /// Outage recoveries whose time-to-recover was measured (an
    /// admission happened at or after the recovery instant).
    pub recoveries_measured: u64,
    /// Summed lag from outage recovery to the first admitted session.
    pub recovery_lag_total_secs: u64,
    /// Worst single recovery lag.
    pub recovery_lag_max_secs: u64,
}

/// The degradation section of a [`SimReport`]: what the fault plan and
/// the admission mode did to sessions. Merged across shards in
/// neighborhood order, bit-identically to every other metric.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct DegradationReport {
    /// Total sessions blocked (see [`NeighborhoodDegradation::blocked_sessions`]).
    pub blocked_sessions: u64,
    /// Total sessions interrupted mid-stream.
    pub interrupted_sessions: u64,
    /// Total retry attempts scheduled.
    pub retries: u64,
    /// `retry_histogram[k]` — sessions admitted after exactly `k`
    /// retries (`k = 0` is first-try admissions; blocked sessions are
    /// not in the histogram).
    pub retry_histogram: Vec<u64>,
    /// Per-neighborhood breakdown, in neighborhood order.
    pub per_neighborhood: Vec<NeighborhoodDegradation>,
}

impl DegradationReport {
    /// Assembles the section from per-neighborhood parts, computing the
    /// totals.
    pub fn from_parts(
        per_neighborhood: Vec<NeighborhoodDegradation>,
        retry_histogram: Vec<u64>,
    ) -> Self {
        let mut report = DegradationReport {
            blocked_sessions: 0,
            interrupted_sessions: 0,
            retries: 0,
            retry_histogram,
            per_neighborhood,
        };
        for nbhd in &report.per_neighborhood {
            report.blocked_sessions += nbhd.blocked_sessions;
            report.interrupted_sessions += nbhd.interrupted_sessions;
            report.retries += nbhd.retries;
        }
        report
    }

    /// Fraction of `sessions` that were blocked.
    pub fn blocked_rate(&self, sessions: u64) -> f64 {
        if sessions == 0 {
            return 0.0;
        }
        self.blocked_sessions as f64 / sessions as f64
    }

    /// Mean time-to-recover over the measured recoveries, in seconds.
    pub fn mean_recovery_lag_secs(&self) -> f64 {
        let measured: u64 = self
            .per_neighborhood
            .iter()
            .map(|n| n.recoveries_measured)
            .sum();
        if measured == 0 {
            return 0.0;
        }
        let total: u64 = self
            .per_neighborhood
            .iter()
            .map(|n| n.recovery_lag_total_secs)
            .sum();
        total as f64 / measured as f64
    }
}

impl SimReport {
    /// Fraction of central-server peak load saved relative to `baseline`
    /// (e.g. the 17 Gb/s no-cache load). Zero for a zero baseline.
    pub fn savings_vs(&self, baseline: BitRate) -> f64 {
        if baseline.as_bps() == 0 {
            return 0.0;
        }
        1.0 - self.server_peak.mean.as_bps() as f64 / baseline.as_bps() as f64
    }

    /// Segment-level cache hit rate.
    pub fn hit_rate(&self) -> f64 {
        self.cache.hit_rate()
    }

    /// Mean peak coax rate across neighborhoods.
    pub fn coax_mean(&self) -> BitRate {
        if self.coax_per_neighborhood.is_empty() {
            return BitRate::ZERO;
        }
        let sum: u64 = self.coax_per_neighborhood.iter().map(|r| r.as_bps()).sum();
        BitRate::from_bps(sum / self.coax_per_neighborhood.len() as u64)
    }
}

impl std::fmt::Display for SimReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "server peak: {}", self.server_peak)?;
        writeln!(
            f,
            "cache: {:.1}% hits ({} hits, {} uncached, {} cold, {} busy)",
            self.hit_rate() * 100.0,
            self.cache.hits,
            self.cache.miss_uncached,
            self.cache.miss_not_materialized,
            self.cache.miss_peer_busy
        )?;
        write!(
            f,
            "coax peak: {} (95%: {}), {} sessions, days {}..{}",
            self.coax_peak.mean,
            self.coax_peak.q95,
            self.sessions,
            self.measured_from_day,
            self.measured_to_day
        )?;
        if let Some(deg) = &self.degradation {
            write!(
                f,
                "\ndegradation: {} blocked ({:.2}%), {} interrupted, {} retries, \
                 mean recovery {:.0}s",
                deg.blocked_sessions,
                deg.blocked_rate(self.sessions) * 100.0,
                deg.interrupted_sessions,
                deg.retries,
                deg.mean_recovery_lag_secs()
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report() -> SimReport {
        SimReport {
            server_peak: RateStats::from_samples(&[BitRate::from_gbps(2.0)]),
            server_total: DataSize::from_terabytes(1),
            server_hourly: [BitRate::ZERO; 24],
            coax_peak: RateStats::from_samples(&[BitRate::from_mbps(400)]),
            coax_per_neighborhood: vec![BitRate::from_mbps(350), BitRate::from_mbps(450)],
            cache: IndexStats {
                hits: 80,
                miss_uncached: 20,
                ..IndexStats::default()
            },
            sessions: 100,
            segment_requests: 100,
            viewer_overcommits: 0,
            degradation: None,
            measured_from_day: 14,
            measured_to_day: 28,
        }
    }

    #[test]
    fn savings_relative_to_baseline() {
        let r = report();
        let savings = r.savings_vs(BitRate::from_gbps(17.0));
        assert!((savings - (1.0 - 2.0 / 17.0)).abs() < 1e-9);
        assert_eq!(r.savings_vs(BitRate::ZERO), 0.0);
    }

    #[test]
    fn coax_mean_averages_neighborhoods() {
        assert_eq!(report().coax_mean(), BitRate::from_mbps(400));
    }

    #[test]
    fn display_is_informative() {
        let text = report().to_string();
        assert!(text.contains("server peak"));
        assert!(text.contains("80.0% hits"));
    }
}
