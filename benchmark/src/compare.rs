//! `compare A.json B.json`: per workload and metric, is B no worse than
//! A by more than the metric's bound?
//!
//! * `ok` — B's median is within the bound of A's (or better).
//! * `regressed` — it is worse by more than the bound, and the runs are
//!   steady enough to say so (spread within the bound, or every run of B
//!   reads worse than every run of A).
//! * `unresolved` — the run-to-run spread is wider than the bound, so
//!   the medians cannot settle it (unless every run of B reads better
//!   than every run of A, which is `ok`).
//! * `count-drift` — a count that repeats exactly for a seed differs.
//!
//! Layer timings carry no bound; their change is printed with `-`.

use crate::metrics::{Better, END_TO_END, PER_LAYER};
use crate::stats;
use crate::suite::SuiteResult;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Regressed,
    Unresolved,
    CountDrift,
    Unbounded,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
            Verdict::CountDrift => "count-drift",
            Verdict::Unbounded => "-",
        }
    }
}

/// The verdict on a bounded metric from its samples on both sides.
pub fn bounded(better: Better, bound: f64, a: &[f64], b: &[f64]) -> Verdict {
    let worsening = better.worsening(stats::median(a), stats::median(b));
    let spread = stats::spread(a).max(stats::spread(b));
    // Every run of `x` reads strictly better than every run of `y`.
    let all_better = |x: &[f64], y: &[f64]| {
        x.iter()
            .all(|x| y.iter().all(|y| better.worsening(*y, *x) < 0.0))
    };
    if worsening > bound && (spread <= bound || all_better(a, b)) {
        Verdict::Regressed
    } else if spread > bound && !all_better(b, a) {
        Verdict::Unresolved
    } else {
        Verdict::Ok
    }
}

/// The verdict on an exact count: every run on both sides reads the
/// same.
pub fn exact(a: &[f64], b: &[f64]) -> Verdict {
    match a.first() {
        Some(first) if a.iter().chain(b).all(|v| v == first) => Verdict::Ok,
        Some(_) => Verdict::CountDrift,
        None => Verdict::Ok,
    }
}

/// Prints the comparison and returns whether B passes: nothing
/// regressed, no count drifted, and no larger share of operations
/// failed.
pub fn compare(a: &SuiteResult, b: &SuiteResult) -> bool {
    let mut pass = true;
    for (workload, wa) in a {
        let Some(wb) = b.get(workload) else {
            println!("== {workload}: missing from B");
            pass = false;
            continue;
        };
        let share = |failed: u64, attempted: u64| failed as f64 / attempted.max(1) as f64;
        let (fa, fb) = (
            share(wa.failed, wa.attempted),
            share(wb.failed, wb.attempted),
        );
        let failed_ok = fb <= fa && (wb.correct || !wa.correct);
        println!(
            "== {workload}: failed share A {}/{} = {fa:.6}, B {}/{} = {fb:.6}: {}",
            wa.failed,
            wa.attempted,
            wb.failed,
            wb.attempted,
            if failed_ok { "ok" } else { "regressed" }
        );
        pass &= failed_ok;
        for (name, unit, va) in &wa.metrics {
            let Some((_, _, vb)) = wb.metrics.iter().find(|m| m.0 == *name) else {
                println!("{name:<36} missing from B");
                pass = false;
                continue;
            };
            if va.iter().chain(vb).all(|v| *v == 0.0) {
                // Not on this workload's path on either side.
                continue;
            }
            let e2e = END_TO_END.iter().find(|m| m.name == name);
            let layer = PER_LAYER.iter().find(|m| m.name == name);
            let (better, verdict, bound) = match (e2e, layer) {
                (Some(m), _) => (m.better, bounded(m.better, m.bound, va, vb), Some(m.bound)),
                (_, Some(m)) if m.exact => (m.better, exact(va, vb), None),
                (_, Some(m)) => (m.better, Verdict::Unbounded, None),
                (None, None) => (Better::Lower, Verdict::Unbounded, None),
            };
            pass &= !matches!(verdict, Verdict::Regressed | Verdict::CountDrift);
            let (a1, a2, a3) = stats::quartiles(va);
            let (b1, b2, b3) = stats::quartiles(vb);
            let bound = bound.map_or_else(String::new, |b| format!(" (bound {:.0}%)", b * 100.0));
            let change = better.worsening(a2, b2) * 100.0;
            println!(
                "{name:<36} A {a2:.4} [{a1:.4}, {a3:.4}] n={} | B {b2:.4} [{b1:.4}, {b3:.4}] n={} \
                 {unit} | {:.2}% {} of A's median{bound} | {}",
                va.len(),
                vb.len(),
                change.abs(),
                if change > 0.0 { "worse" } else { "better" },
                verdict.as_str()
            );
        }
    }
    println!("{}", if pass { "PASS" } else { "FAIL" });
    pass
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::suite::WorkloadResult;

    const STEADY: [f64; 5] = [100.0, 101.0, 99.0, 100.5, 99.5];

    fn scaled(values: &[f64], by: f64) -> Vec<f64> {
        values.iter().map(|v| v * by).collect()
    }

    #[test]
    fn bounded_verdicts() {
        use Better::{Higher, Lower};
        assert_eq!(
            bounded(Lower, 0.10, &STEADY, &scaled(&STEADY, 1.05)),
            Verdict::Ok
        );
        assert_eq!(
            bounded(Lower, 0.10, &STEADY, &scaled(&STEADY, 1.2)),
            Verdict::Regressed
        );
        assert_eq!(
            bounded(Lower, 0.10, &STEADY, &scaled(&STEADY, 0.5)),
            Verdict::Ok
        );
        assert_eq!(
            bounded(Higher, 0.10, &STEADY, &scaled(&STEADY, 0.8)),
            Verdict::Regressed
        );
        assert_eq!(
            bounded(Higher, 0.10, &STEADY, &scaled(&STEADY, 1.3)),
            Verdict::Ok
        );

        // Runs that scatter by more than the bound settle nothing ...
        let noisy = [60.0, 100.0, 140.0, 80.0, 120.0];
        assert_eq!(
            bounded(Lower, 0.10, &noisy, &scaled(&noisy, 1.05)),
            Verdict::Unresolved
        );
        assert_eq!(
            bounded(Lower, 0.10, &noisy, &scaled(&noisy, 1.2)),
            Verdict::Unresolved
        );
        // ... unless one side beats the other run for run.
        assert_eq!(
            bounded(Lower, 0.10, &noisy, &scaled(&noisy, 0.1)),
            Verdict::Ok
        );
        assert_eq!(
            bounded(Lower, 0.10, &noisy, &scaled(&noisy, 10.0)),
            Verdict::Regressed
        );
        // One sample a side has no spread to hide behind.
        assert_eq!(bounded(Lower, 0.10, &[1.0], &[1.2]), Verdict::Regressed);
        assert_eq!(bounded(Lower, 0.10, &[1.0], &[1.05]), Verdict::Ok);
    }

    #[test]
    fn exact_counts_must_repeat() {
        assert_eq!(exact(&[5.0, 5.0], &[5.0]), Verdict::Ok);
        assert_eq!(exact(&[5.0, 5.0], &[5.0, 6.0]), Verdict::CountDrift);
        assert_eq!(exact(&[5.0, 4.0], &[5.0]), Verdict::CountDrift);
    }

    fn suite(setup: &[f64], sessions: f64, failed: u64) -> SuiteResult {
        let mut s = SuiteResult::new();
        s.insert(
            "resident_lfu".into(),
            WorkloadResult {
                attempted: 100,
                failed,
                correct: failed == 0,
                metrics: vec![
                    ("setup_s".into(), "s".into(), setup.to_vec()),
                    ("sim.sessions".into(), "count".into(), vec![sessions]),
                    ("sim.report_json_us".into(), "us".into(), vec![10.0]),
                ],
            },
        );
        s
    }

    #[test]
    fn compare_fails_on_regression_drift_and_failures() {
        let base = suite(&STEADY, 7.0, 0);
        assert!(compare(&base, &base));
        assert!(compare(&base, &suite(&scaled(&STEADY, 1.2), 7.0, 0)));
        assert!(!compare(&base, &suite(&scaled(&STEADY, 1.3), 7.0, 0)));
        assert!(!compare(&base, &suite(&STEADY, 8.0, 0)));
        assert!(!compare(&base, &suite(&STEADY, 7.0, 1)));
        assert!(!compare(&base, &SuiteResult::new()));
    }
}
