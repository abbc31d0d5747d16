//! Session-length model (Figs 3 and 6).
//!
//! PowerInfo sessions are strikingly short: for the most popular 100-minute
//! program, half of all sessions end within 8 minutes and only 13 % pass
//! the halfway mark — yet a visible fraction watches to the very end,
//! producing the ECDF jump at the full program length that the paper uses
//! to deduce program lengths (§V-A).
//!
//! The model: with probability `complete_view_prob` the session runs the
//! full length; otherwise the watched fraction is `Beta(α, β)` with a
//! median near 0.08.

use rand::Rng;

use cablevod_hfc::units::SimDuration;

use crate::dist::Beta;

/// Samples session lengths for a program of known length.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SessionLengthModel {
    complete_view_prob: f64,
    /// The partial-viewing fraction, its Gamma constants computed once.
    partial: Beta,
    min_secs: u64,
}

impl SessionLengthModel {
    /// Creates a model.
    ///
    /// # Panics
    ///
    /// Panics if `complete_view_prob` is outside `[0, 1]` or a Beta shape
    /// is non-positive or not finite.
    pub fn new(complete_view_prob: f64, alpha: f64, b: f64, min_secs: u64) -> Self {
        assert!(
            (0.0..=1.0).contains(&complete_view_prob),
            "probability in [0,1]"
        );
        assert!(alpha > 0.0 && b > 0.0, "beta shapes must be positive");
        SessionLengthModel {
            complete_view_prob,
            partial: Beta::new(alpha, b),
            min_secs,
        }
    }

    /// The paper-calibrated defaults (10 % completion, Beta(0.45, 2.5),
    /// 30 s minimum).
    pub fn paper_default() -> Self {
        SessionLengthModel::new(0.10, 0.45, 2.5, 30)
    }

    /// Samples one session length for a program of `program_len`.
    /// The result never exceeds `program_len` and is at least the
    /// configured minimum (clamped to `program_len` for very short
    /// programs).
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R, program_len: SimDuration) -> SimDuration {
        let len = program_len.as_secs();
        if len == 0 {
            return SimDuration::ZERO;
        }
        if rng.random::<f64>() < self.complete_view_prob {
            return program_len;
        }
        let frac = self.partial.sample(rng);
        let secs = ((frac * len as f64) as u64).clamp(self.min_secs.min(len), len);
        SimDuration::from_secs(secs)
    }

    /// Probability of a complete view.
    pub fn complete_view_prob(&self) -> f64 {
        self.complete_view_prob
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn samples(n: usize, minutes: u64) -> Vec<u64> {
        let model = SessionLengthModel::paper_default();
        let mut rng = StdRng::seed_from_u64(0xBEEF);
        (0..n)
            .map(|_| {
                model
                    .sample(&mut rng, SimDuration::from_minutes(minutes))
                    .as_secs()
            })
            .collect()
    }

    #[test]
    fn median_session_is_about_8_minutes_of_100() {
        let mut s = samples(40_000, 100);
        s.sort_unstable();
        let median_min = s[s.len() / 2] as f64 / 60.0;
        assert!((5.0..11.0).contains(&median_min), "median {median_min} min");
    }

    #[test]
    fn about_13_percent_pass_halfway() {
        let s = samples(40_000, 100);
        let past_half = s.iter().filter(|&&d| d > 50 * 60).count() as f64 / s.len() as f64;
        assert!(
            (0.10..0.17).contains(&past_half),
            "past-half fraction {past_half}"
        );
    }

    #[test]
    fn completion_atom_is_visible() {
        let s = samples(40_000, 100);
        let full = s.iter().filter(|&&d| d == 100 * 60).count() as f64 / s.len() as f64;
        assert!((0.08..0.13).contains(&full), "completion fraction {full}");
    }

    #[test]
    fn sessions_never_exceed_program_length() {
        for minutes in [1, 22, 100] {
            let s = samples(2_000, minutes);
            assert!(s.iter().all(|&d| d <= minutes * 60));
            assert!(s.iter().all(|&d| d >= 30.min(minutes * 60)));
        }
    }

    #[test]
    fn zero_length_program_yields_zero_sessions() {
        let model = SessionLengthModel::paper_default();
        let mut rng = StdRng::seed_from_u64(1);
        assert_eq!(model.sample(&mut rng, SimDuration::ZERO), SimDuration::ZERO);
    }

    #[test]
    #[should_panic(expected = "probability")]
    fn invalid_probability_panics() {
        let _ = SessionLengthModel::new(1.5, 1.0, 1.0, 0);
    }
}
