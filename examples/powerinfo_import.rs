//! Importing a real PowerInfo-schema trace.
//!
//! The PowerInfo trace is proprietary, so this example writes a synthetic
//! trace to CSV, then walks the full import path a real trace would take:
//! parse → fingerprint against the published PowerInfo properties →
//! simulate. Point the paths at real `sessions.csv` / `catalog.csv` files
//! to reproduce the paper on the authentic workload.
//!
//! ```text
//! cargo run --release --example powerinfo_import [sessions.csv catalog.csv]
//! ```

use cablevod_hfc::units::BitRate;
use cablevod_sim::{baseline, SimConfig, Simulation};
use cablevod_trace::fingerprint::WorkloadFingerprint;
use cablevod_trace::synth::{generate, SynthConfig};
use cablevod_trace::{io, record::Trace};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let trace: Trace = if args.len() == 2 {
        println!("importing {} / {}", args[0], args[1]);
        let catalog = io::read_catalog(std::fs::File::open(&args[1])?)?;
        io::read_records(std::fs::File::open(&args[0])?, catalog)?
    } else {
        println!("no files given; writing and re-importing a synthetic trace");
        let synthetic = generate(&SynthConfig {
            users: 3_000,
            programs: 800,
            days: 16,
            ..SynthConfig::powerinfo()
        });
        let dir = std::env::temp_dir();
        let sessions = dir.join("cablevod_sessions.csv");
        let catalog_path = dir.join("cablevod_catalog.csv");
        io::write_records(&synthetic, std::fs::File::create(&sessions)?)?;
        io::write_catalog(synthetic.catalog(), std::fs::File::create(&catalog_path)?)?;
        println!(
            "  wrote {} and {}",
            sessions.display(),
            catalog_path.display()
        );
        let catalog = io::read_catalog(std::fs::File::open(&catalog_path)?)?;
        io::read_records(std::fs::File::open(&sessions)?, catalog)?
    };

    println!(
        "\nimported {} sessions / {} users / {} programs / {} days\n",
        trace.len(),
        trace.user_count(),
        trace.catalog().len(),
        trace.days()
    );

    // Does the workload look like the one the paper's conclusions assume?
    let fingerprint = WorkloadFingerprint::measure(&trace, BitRate::STREAM_MPEG2_SD);
    println!("workload fingerprint:\n{fingerprint}\n");
    let deviations = fingerprint.deviations_from(&WorkloadFingerprint::powerinfo_reference(), 0.5);
    if deviations.is_empty() {
        println!("fingerprint is PowerInfo-like (within ±50% on every property)");
    } else {
        println!("deviations from the PowerInfo reference:");
        for d in &deviations {
            println!("  - {d}");
        }
    }

    // Simulate the paper's deployment on it.
    let config = SimConfig::paper_default().with_warmup_days(trace.days() / 2);
    let report = Simulation::over(&trace)
        .config(config.clone())
        .run()?
        .report;
    let no_cache = baseline::no_cache_peak(
        &trace,
        config.stream_rate(),
        report.measured_from_day,
        report.measured_to_day,
    );
    println!(
        "\npaper deployment on this workload: peak server {} (no cache {}), savings {:.0}%",
        report.server_peak.mean,
        no_cache.mean,
        report.savings_vs(no_cache.mean) * 100.0
    );
    Ok(())
}
