//! A scale probe, `#[ignore]`d: in a release build it takes a few
//! seconds and about 60 MB. Run it with
//!
//! ```text
//! cargo test --release --test scale -- --ignored --nocapture
//! ```
//!
//! It replays a week of 100 000 subscribers over the paper's 8 278-program
//! catalog, time-major and serially — the blocked replay, every one of the
//! 200 neighborhoods' drivers alive from the first block to the last — under
//! a week-long `lfu`, and prints the wall time and the process's peak
//! resident set (`VmHWM`, Linux only). That replay's memory is the index
//! servers' per-program state times the neighborhoods; the probe is a
//! tenth of a 1 M-subscriber plant.

use std::path::PathBuf;
use std::time::Instant;

use cablevod_cache::StrategySpec;
use cablevod_hfc::units::DataSize;
use cablevod_sim::{peak_rss_kb, SimConfig, Simulation};
use cablevod_trace::columnar::ColumnarReader;
use cablevod_trace::source::TraceSource;
use cablevod_trace::synth::{generate_to_disk, SynthConfig};

struct TempDir(PathBuf);

impl Drop for TempDir {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.0).ok();
    }
}

fn mb(kb: Option<u64>) -> String {
    kb.map_or_else(|| "n/a".into(), |kb| format!("{:.1} MB", kb as f64 / 1e3))
}

#[test]
#[ignore = "a scale probe: run it in a release build (see the module docs)"]
fn a_week_of_100k_subscribers_over_the_paper_catalog_time_major() {
    let dir = TempDir(std::env::temp_dir().join(format!("cvtc_scale_{}", std::process::id())));
    std::fs::create_dir_all(&dir.0).expect("create probe dir");
    let synth = SynthConfig {
        users: 100_000,
        programs: 8_278,
        days: 7,
        seed: 2007,
        ..SynthConfig::powerinfo()
    };
    let path = dir.0.join("tm.cvtc");
    let start = Instant::now();
    generate_to_disk(&synth, &path, 65_536).expect("generate");
    let generated = start.elapsed();
    let after_generation = peak_rss_kb();
    let reader = ColumnarReader::open(&path).expect("open");
    let config = SimConfig::paper_default()
        .with_neighborhood_size(500)
        .with_per_peer_storage(DataSize::from_gigabytes(2))
        .with_warmup_days(3);
    let outcome = Simulation::over(&reader)
        .config(config)
        .strategy(StrategySpec::parse("lfu:7d").expect("a strategy"))
        .serial()
        .run()
        .expect("replays");
    assert!(
        !outcome.telemetry.fastpath,
        "a time-major file is replayed blocked"
    );
    let wall = outcome.telemetry.wall;
    let sessions = outcome.report.sessions;
    println!(
        "scale probe: {} records generated in {:.1} s (VmHWM {}); lfu:7d time-major serial: \
         {sessions} sessions in {:.1} s ({:.2} M sessions/s), VmHWM {}",
        reader.record_count(),
        generated.as_secs_f64(),
        mb(after_generation),
        wall.as_secs_f64(),
        sessions as f64 / wall.as_secs_f64() / 1e6,
        mb(outcome.telemetry.peak_rss_kb),
    );
}
