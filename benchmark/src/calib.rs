//! Host-speed calibration: every CPU-bound timing is reported *at
//! reference host speed*.
//!
//! On a small shared box the same binary's iteration time drifts by tens
//! of percent between back-to-back invocations (CPU time tracks wall
//! time, so the host is slowing, not preempting). A fixed kernel run
//! immediately before and after each measured interval slows by the
//! same factor, so `norm = raw × CALIB_REF_MS / calib_ms` cancels the
//! drift. Raw values stay in the `host.*` layer metrics.

use std::time::{Duration, Instant};

/// What the kernel takes on the reference host, in milliseconds. A
/// constant of the benchmark: changing it rescales every normalised
/// metric, so it never changes.
pub const CALIB_REF_MS: f64 = 10.0;

/// Calibration on each side of a measured interval lasts this share of
/// it.
const CALIB_SHARE: f64 = 0.04;
const MAX_SAMPLES: usize = 25;

const ARRAY_WORDS: usize = 1 << 20; // 4 MiB of u32: beyond L2, like the engine's tables
const STEPS: u32 = 3_000_000;

/// The calibration kernel: an xorshift64 read-modify-write walk over a
/// 4 MiB array — dependent loads and stores at cache-missing addresses,
/// the access pattern of the engine's index and meter tables.
pub struct Calibrator {
    array: Vec<u32>,
    state: u64,
    samples_ms: Vec<f64>,
}

impl Calibrator {
    pub fn new() -> Self {
        let mut c = Calibrator {
            array: vec![1; ARRAY_WORDS],
            state: 0x9E37_79B9_7F4A_7C15,
            samples_ms: Vec::new(),
        };
        // Fault the array in and settle the clock before the first
        // sample that counts.
        c.kernel();
        c.kernel();
        c
    }

    fn kernel(&mut self) -> Duration {
        let started = Instant::now();
        let mut x = self.state;
        for _ in 0..STEPS {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let slot = &mut self.array[(x as usize) & (ARRAY_WORDS - 1)];
            *slot = slot.wrapping_add(x as u32);
        }
        self.state = std::hint::black_box(x);
        started.elapsed()
    }

    /// One calibration sample in milliseconds (also kept for
    /// `host.calib_ms_*`).
    pub fn sample_ms(&mut self) -> f64 {
        let ms = self.kernel().as_secs_f64() * 1e3;
        self.samples_ms.push(ms);
        ms
    }

    /// The median of enough samples to cover `CALIB_SHARE` of an interval
    /// of `interval_s` seconds (always at least one): a single 10 ms
    /// sample is itself noisy, and beside a long interval the noise of
    /// the sample would dominate the normalised value.
    pub fn sample_for(&mut self, interval_s: f64) -> f64 {
        let wanted = (interval_s * CALIB_SHARE * 1e3 / CALIB_REF_MS).ceil();
        let samples: Vec<f64> = (0..(wanted as usize).clamp(1, MAX_SAMPLES))
            .map(|_| self.sample_ms())
            .collect();
        crate::stats::median(&samples)
    }

    /// Every sample taken so far, in milliseconds.
    pub fn samples_ms(&self) -> &[f64] {
        &self.samples_ms
    }

    /// Times `work` between two calibration samples and returns its
    /// result with `(raw, normalised)` seconds.
    pub fn timed<T>(&mut self, work: impl FnOnce() -> T) -> (T, f64, f64) {
        let before = self.sample_ms();
        let started = Instant::now();
        let out = work();
        let raw = started.elapsed().as_secs_f64();
        let after = self.sample_for(raw);
        (out, raw, normalise(raw, (before + after) / 2.0))
    }
}

/// `raw` rescaled to reference host speed given the calibration kernel
/// took `calib_ms` around it.
pub fn normalise(raw: f64, calib_ms: f64) -> f64 {
    raw * CALIB_REF_MS / calib_ms
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalisation_formula() {
        // A host running the kernel in 20 ms is half speed: halve the time.
        assert_eq!(normalise(3.0, 20.0), 1.5);
        // At reference speed nothing changes.
        assert_eq!(normalise(3.0, CALIB_REF_MS), 3.0);
        // A faster host's time is scaled up.
        assert_eq!(normalise(1.0, 5.0), 2.0);
    }

    #[test]
    fn timed_reports_raw_and_normalised_consistently() {
        let mut calib = Calibrator::new();
        let ((), raw, norm) = calib.timed(|| std::thread::sleep(Duration::from_millis(5)));
        assert!(raw >= 0.005);
        let used = calib.samples_ms();
        assert_eq!(used.len(), 2);
        let expect = normalise(raw, (used[0] + used[1]) / 2.0);
        assert!((norm - expect).abs() < 1e-12);
        // A long interval is bracketed by the median of several samples.
        let before = calib.samples_ms().len();
        calib.sample_for(1.0);
        assert_eq!(calib.samples_ms().len() - before, 4);
        calib.sample_for(1_000.0);
        assert_eq!(calib.samples_ms().len() - before, 4 + MAX_SAMPLES);
    }
}
