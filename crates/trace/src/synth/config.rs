//! Configuration of the synthetic PowerInfo-like workload.

use serde::{Deserialize, Serialize};

use crate::synth::diurnal::DiurnalProfile;

/// All knobs of the synthetic workload generator.
///
/// Defaults are calibrated against every quantitative property of the
/// PowerInfo trace the paper publishes; each field's doc names its
/// target. The three presets are:
///
/// * [`SynthConfig::powerinfo`] — full scale (41,698 users, 8,278 programs,
///   214 days ≈ May–December 2004, ≈ 21 M sessions);
/// * [`SynthConfig::experiment_default`] — full population but a 28-day
///   window, the default for reproduced experiments;
/// * [`SynthConfig::smoke_test`] — small and fast, for tests and Criterion.
///
/// # Examples
///
/// ```
/// use cablevod_trace::synth::SynthConfig;
///
/// let cfg = SynthConfig::smoke_test();
/// let expected = cfg.expected_sessions();
/// assert!(expected > 0.0);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SynthConfig {
    /// Number of subscribers. PowerInfo: 41,698.
    pub users: u32,
    /// Catalog size. PowerInfo: 8,278.
    pub programs: u32,
    /// Trace length in days. PowerInfo: ~214 (seven months).
    pub days: u64,
    /// Mean sessions initiated per user per day. The calibrated default
    /// (2.39) reproduces both PowerInfo's ~20 M records over 214 days and
    /// the paper's 17 Gb/s no-cache peak load.
    pub sessions_per_user_day: f64,
    /// Zipf exponent of base program popularity.
    pub zipf_exponent: f64,
    /// Residual popularity of an old program relative to its day-0 value
    /// (the long flat tail of Fig 12). Calibrated so a cache holding 36 %
    /// of catalog bytes can capture ≈ 88 % of watched bytes, the paper's
    /// 10 TB operating point.
    pub decay_floor: f64,
    /// Popularity on day 7 relative to day 0. The paper: "A week after
    /// introduction, programs are accessed 80 % less often than the first
    /// day" → 0.2.
    pub decay_day7_fraction: f64,
    /// Days before the trace start over which pre-existing programs were
    /// introduced. Keeps catalog dynamics stationary for short windows.
    pub backfill_days: u64,
    /// Probability a session plays the program to completion (the ECDF jump
    /// of Fig 6).
    pub complete_view_prob: f64,
    /// Beta(α, β) shape of the partial-viewing fraction; the defaults give
    /// a median near 8 % of program length with ~3 % of partial sessions
    /// passing the halfway mark (Fig 3: "50 % of the sessions last less
    /// than 8 minutes \[of 100\]; only 13 % surpass the half way mark" —
    /// including the completers).
    pub partial_alpha: f64,
    /// Beta β shape parameter (see [`SynthConfig::partial_alpha`]).
    pub partial_beta: f64,
    /// Minimum session length in seconds.
    pub min_session_secs: u64,
    /// σ of the log-normal per-user activity weight (user heterogeneity).
    pub user_activity_sigma: f64,
    /// Multiplier on weekend daily activity (weekly mean is renormalized,
    /// so this shifts shape, not volume).
    pub weekend_boost: f64,
    /// Probability a session starts at an interior jump point instead of
    /// position zero — the paper's fast-forward design (§IV-B.1) as a
    /// workload extension. PowerInfo has no seek data; defaults to 0.
    pub seek_prob: f64,
    /// Spacing of the predetermined jump points (the 5-minute segment
    /// boundary by default).
    pub seek_boundary_secs: u64,
    /// Hour-of-day activity shape (Fig 7).
    pub diurnal: DiurnalProfile,
    /// RNG seed; every run with the same config is identical.
    pub seed: u64,
}

impl SynthConfig {
    /// Full PowerInfo scale: the whole 214-day, 41,698-user trace.
    pub fn powerinfo() -> Self {
        SynthConfig {
            users: 41_698,
            programs: 8_278,
            days: 214,
            sessions_per_user_day: 2.39,
            zipf_exponent: 0.8,
            decay_floor: 0.015,
            decay_day7_fraction: 0.2,
            backfill_days: 186,
            complete_view_prob: 0.10,
            partial_alpha: 0.45,
            partial_beta: 2.5,
            min_session_secs: 30,
            user_activity_sigma: 1.0,
            weekend_boost: 1.15,
            seek_prob: 0.0,
            seek_boundary_secs: 300,
            diurnal: DiurnalProfile::paper_default(),
            seed: 0x9A9E12,
        }
    }

    /// Full population over a 28-day window — the default scale for the
    /// reproduced experiments (fast enough to sweep, long enough for LFU
    /// history and Oracle look-ahead studies).
    pub fn experiment_default() -> Self {
        SynthConfig {
            days: 28,
            ..SynthConfig::powerinfo()
        }
    }

    /// A small, fast configuration for unit tests and benches.
    pub fn smoke_test() -> Self {
        SynthConfig {
            users: 2_000,
            programs: 600,
            days: 10,
            ..SynthConfig::powerinfo()
        }
    }

    /// Expected number of sessions the generator will produce.
    pub fn expected_sessions(&self) -> f64 {
        self.users as f64 * self.sessions_per_user_day * self.days as f64
    }

    /// Expected mean session length in seconds given a mean program length.
    pub fn expected_mean_session_secs(&self, mean_program_secs: f64) -> f64 {
        let partial_mean = self.partial_alpha / (self.partial_alpha + self.partial_beta);
        self.complete_view_prob * mean_program_secs
            + (1.0 - self.complete_view_prob) * partial_mean * mean_program_secs
    }

    /// Analytic estimate of concurrent streams during the busiest hour —
    /// the quantity that, multiplied by the stream rate, must land near the
    /// paper's 17 Gb/s no-cache peak.
    pub fn expected_peak_concurrency(&self, mean_program_secs: f64) -> f64 {
        let starts_per_peak_sec =
            self.users as f64 * self.sessions_per_user_day * self.diurnal.peak_hour_share()
                / 3_600.0;
        starts_per_peak_sec * self.expected_mean_session_secs(mean_program_secs)
    }

    /// Checks the configuration, panicking with a descriptive message when
    /// a field is out of range. Called by the generator.
    ///
    /// # Panics
    ///
    /// Panics if users, programs, days or rates are zero/negative, or any
    /// probability is outside `[0, 1]`.
    pub fn validate(&self) {
        assert!(self.users > 0, "users must be positive");
        assert!(self.programs > 0, "programs must be positive");
        assert!(self.days > 0, "days must be positive");
        assert!(
            self.sessions_per_user_day > 0.0 && self.sessions_per_user_day.is_finite(),
            "sessions_per_user_day must be positive"
        );
        assert!(
            (0.0..=1.0).contains(&self.complete_view_prob),
            "complete_view_prob in [0,1]"
        );
        assert!(
            (0.0..=1.0).contains(&self.decay_floor),
            "decay_floor in [0,1]"
        );
        assert!(
            self.decay_day7_fraction > self.decay_floor && self.decay_day7_fraction <= 1.0,
            "decay_day7_fraction must lie in (decay_floor, 1]"
        );
        assert!(
            self.partial_alpha > 0.0 && self.partial_beta > 0.0,
            "beta shapes positive"
        );
        assert!(self.weekend_boost > 0.0, "weekend_boost positive");
        assert!(
            self.user_activity_sigma >= 0.0,
            "activity sigma non-negative"
        );
        assert!((0.0..=1.0).contains(&self.seek_prob), "seek_prob in [0,1]");
        assert!(
            self.seek_boundary_secs > 0,
            "seek boundary must be positive"
        );
    }
}

impl Default for SynthConfig {
    fn default() -> Self {
        SynthConfig::experiment_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn powerinfo_preset_matches_published_counts() {
        let cfg = SynthConfig::powerinfo();
        assert_eq!(cfg.users, 41_698);
        assert_eq!(cfg.programs, 8_278);
        // "over 20 million transaction records"
        assert!(cfg.expected_sessions() > 20_000_000.0);
        assert!(cfg.expected_sessions() < 23_000_000.0);
    }

    #[test]
    fn calibration_lands_near_17_gbps() {
        let cfg = SynthConfig::powerinfo();
        // Mean program length of the synthetic catalog is ~55 minutes.
        let concurrency = cfg.expected_peak_concurrency(55.0 * 60.0);
        let gbps = concurrency * 8.06e6 / 1e9;
        assert!((14.0..20.0).contains(&gbps), "predicted peak {gbps} Gb/s");
    }

    #[test]
    fn validate_accepts_presets() {
        SynthConfig::powerinfo().validate();
        SynthConfig::experiment_default().validate();
        SynthConfig::smoke_test().validate();
    }

    #[test]
    #[should_panic(expected = "users must be positive")]
    fn validate_rejects_zero_users() {
        SynthConfig {
            users: 0,
            ..SynthConfig::smoke_test()
        }
        .validate();
    }

    #[test]
    #[should_panic(expected = "decay_day7_fraction")]
    fn validate_rejects_decay_below_floor() {
        SynthConfig {
            decay_floor: 0.5,
            decay_day7_fraction: 0.3,
            ..SynthConfig::smoke_test()
        }
        .validate();
    }
}
