//! What every workload shares: the per-run temp directory, the timed
//! loop with calibration on both sides of each iteration, and the
//! result of a run.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU32, Ordering};
use std::time::{Duration, Instant};

use crate::calib::{normalise, Calibrator};
use crate::metrics::Ledger;
use crate::stats;

/// Everything a run writes — trace files, journals, the socket — lives
/// under one directory inside the benchmark's own `out/`, removed when
/// the guard drops: on success, on an error return, and on a panic
/// unwinding through `main`.
pub struct TempDir {
    path: PathBuf,
}

static TEMP_SEQ: AtomicU32 = AtomicU32::new(0);

/// `benchmark/out`, beside the sources this binary was built from (the
/// checkout builds the benchmark where it runs it).
pub fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

impl TempDir {
    pub fn create() -> Result<TempDir, String> {
        let n = TEMP_SEQ.fetch_add(1, Ordering::Relaxed);
        let path = out_dir().join(format!("tmp-{}-{n}", std::process::id()));
        std::fs::create_dir_all(&path).map_err(|e| format!("create {}: {e}", path.display()))?;
        Ok(TempDir { path })
    }

    pub fn join(&self, name: &str) -> PathBuf {
        self.path.join(name)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        // Drop must not panic; a leftover directory is under the
        // ignored `out/` and named by pid.
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

/// What one run reports (the last line of its standard output).
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Ledger,
}

impl Outcome {
    pub fn to_json(&self) -> String {
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
            self.correct,
            self.attempted,
            self.failed,
            self.metrics.to_json()
        )
    }
}

/// One timed iteration's result: the sessions it simulated and the
/// CRC-32 of each report it produced (one per run, one per grid cell).
pub struct IterOut {
    pub sessions: u64,
    pub crcs: Vec<u32>,
}

/// The timed iterations of an offline workload.
#[derive(Default)]
pub struct Timed {
    /// Wall seconds per iteration.
    pub raw_s: Vec<f64>,
    /// The same at reference host speed.
    pub norm_s: Vec<f64>,
    /// The mean of the calibration samples on both sides of each
    /// iteration, in milliseconds.
    pub calib_ms: Vec<f64>,
    /// Report CRCs per iteration; `None` for one that returned an error.
    pub crcs: Vec<Option<Vec<u32>>>,
    /// Sessions per iteration (of the last successful one).
    pub sessions: u64,
    pub errors: Vec<String>,
}

impl Timed {
    pub fn iterations(&self) -> u64 {
        self.raw_s.len() as u64
    }

    /// Iterations that errored or whose reports differ from `reference`.
    pub fn failed_against(&self, reference: &[u32]) -> u64 {
        self.crcs
            .iter()
            .filter(|crcs| crcs.as_deref() != Some(reference))
            .count() as u64
    }

    /// The iterations whose group number is even and those whose is odd
    /// (the first timed iteration is group `first_group`): a traced run
    /// turns spans on in the odd ones.
    pub fn split_by_parity(self, first_group: u32) -> (Timed, Timed) {
        let mut halves = (Timed::default(), Timed::default());
        for i in 0..self.raw_s.len() {
            let half = if (i + first_group as usize).is_multiple_of(2) {
                &mut halves.0
            } else {
                &mut halves.1
            };
            half.raw_s.push(self.raw_s[i]);
            half.norm_s.push(self.norm_s[i]);
            half.calib_ms.push(self.calib_ms[i]);
            half.crcs.push(self.crcs[i].clone());
            half.sessions = self.sessions;
        }
        halves.1.errors = self.errors;
        halves
    }

    pub fn norm_median_s(&self) -> f64 {
        stats::median(&self.norm_s)
    }

    pub fn raw_median_s(&self) -> f64 {
        stats::median(&self.raw_s)
    }
}

/// Runs `warmups` discarded iterations, then iterations until `seconds`
/// have passed (always at least one), each between two calibration
/// samples; adjacent iterations share the sample between them.
pub fn timed_loop(
    calib: &mut Calibrator,
    seconds: f64,
    warmups: u32,
    mut iterate: impl FnMut(u64) -> Result<IterOut, String>,
) -> Timed {
    let mut timed = Timed::default();
    for w in 0..warmups {
        if let Err(e) = iterate(u64::from(w)) {
            timed.errors.push(format!("warm-up: {e}"));
        }
    }
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut before = calib.sample_ms();
    let mut group = u64::from(warmups);
    loop {
        let started = Instant::now();
        let out = iterate(group);
        let raw = started.elapsed().as_secs_f64();
        let after = calib.sample_for(raw);
        let calib_ms = (before + after) / 2.0;
        timed.raw_s.push(raw);
        timed.norm_s.push(normalise(raw, calib_ms));
        timed.calib_ms.push(calib_ms);
        match out {
            Ok(out) => {
                timed.sessions = out.sessions;
                timed.crcs.push(Some(out.crcs));
            }
            Err(e) => {
                timed.crcs.push(None);
                timed.errors.push(e);
            }
        }
        before = after;
        group += 1;
        if Instant::now() >= deadline {
            return timed;
        }
    }
}

/// The end-to-end metrics of an offline workload, read before any
/// reference run can raise the peak resident set. The raw figures go to
/// standard error, for reading a normalised value against its base.
pub fn offline_end_to_end(
    workload: &str,
    setup_s: &[f64],
    timed: &Timed,
    calib: &Calibrator,
) -> Result<Ledger, String> {
    let rss = peak_rss_mb()?;
    let (q1, q2, q3) = stats::quartiles(calib.samples_ms());
    eprintln!(
        "{workload}: {} iterations of {} sessions, raw median {:.3} ms, calibration {q2:.3} ms \
         [{q1:.3}, {q3:.3}] against the reference {} ms",
        timed.iterations(),
        timed.sessions,
        timed.raw_median_s() * 1e3,
        crate::calib::CALIB_REF_MS
    );
    let mut metrics = Ledger::end_to_end();
    metrics.set("setup_s", stats::median(setup_s));
    metrics.set(
        "norm_sessions_per_s",
        timed.sessions as f64 / timed.norm_median_s(),
    );
    metrics.set("answer_ms_p50", timed.norm_median_s() * 1e3);
    metrics.set("peak_rss_mb", rss);
    Ok(metrics)
}

/// Attempted and failed iterations against the reference CRCs, one per
/// label; at the golden seed the reference must also equal the committed
/// CRCs, or every iteration counts as failed.
pub fn verdict(
    workload: &str,
    seed: u64,
    labels: &[String],
    timed: &Timed,
    expected: &[u32],
    metrics: Ledger,
) -> Outcome {
    for error in &timed.errors {
        eprintln!("{workload}: {error}");
    }
    let attempted = timed.iterations();
    let mut failed = timed.failed_against(expected);
    for (label, crc) in labels.iter().zip(expected) {
        if crate::golden::lookup(seed, workload, label).is_some_and(|golden| golden != *crc) {
            eprintln!("{workload}: {label} CRC {crc:08x} differs from golden.json");
            failed = attempted;
        }
    }
    Outcome {
        correct: failed == 0,
        attempted,
        failed,
        metrics,
    }
}

/// The `host.*` rows of a traced offline run: spans were on in `traced`
/// and off in `untraced`, iteration about.
pub fn traced_rows(m: &mut Ledger, untraced: &Timed, traced: &Timed) {
    m.set(
        "host.trace_overhead_pct",
        (traced.norm_median_s() / untraced.norm_median_s() - 1.0) * 100.0,
    );
    m.set("host.iterations", traced.iterations() as f64);
    m.set(
        "host.raw_sessions_per_s",
        traced.sessions as f64 / traced.raw_median_s(),
    );
}

/// This process's peak resident set in MiB (`VmHWM`).
pub fn peak_rss_mb() -> Result<f64, String> {
    cablevod_sim::peak_rss_kb()
        .map(|kb| kb as f64 / 1024.0)
        .ok_or_else(|| "VmHWM is not readable: the benchmark needs Linux /proc".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn temp_dir_is_removed_on_drop_and_on_panic() {
        let kept;
        {
            let dir = TempDir::create().unwrap();
            std::fs::write(dir.join("f"), b"x").unwrap();
            kept = dir.join("");
            assert!(kept.exists());
        }
        assert!(!kept.exists());

        let seen = std::sync::Mutex::new(PathBuf::new());
        let result = std::panic::catch_unwind(|| {
            let dir = TempDir::create().unwrap();
            *seen.lock().unwrap() = dir.join("");
            panic!("boom");
        });
        assert!(result.is_err());
        let path = seen.lock().unwrap().clone();
        assert!(path.starts_with(out_dir()) && !path.exists());
    }

    #[test]
    fn timed_loop_discards_warmups_and_counts_failures() {
        let mut calib = Calibrator::new();
        let mut calls = 0;
        let timed = timed_loop(&mut calib, 0.0, 2, |group| {
            calls += 1;
            assert_eq!(group, calls - 1);
            Ok(IterOut {
                sessions: 10,
                crcs: vec![7],
            })
        });
        assert_eq!(calls, 3, "two warm-ups and the one guaranteed iteration");
        assert_eq!(timed.iterations(), 1);
        assert_eq!(timed.failed_against(&[7]), 0);
        assert_eq!(timed.failed_against(&[8]), 1);
        assert_eq!(timed.sessions, 10);

        let (even, odd) = timed.split_by_parity(2);
        assert_eq!((even.iterations(), odd.iterations()), (1, 0));

        let failing = timed_loop(&mut calib, 0.0, 0, |_| Err("nope".into()));
        assert_eq!(failing.failed_against(&[7]), 1);
        assert_eq!(failing.errors, ["nope"]);
    }
}
