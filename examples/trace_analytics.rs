//! Workload analytics: reproduce the paper's §V-A trace methodology —
//! popularity skew, session-length ECDFs, hour-of-day demand, popularity
//! decay, and the program-length deduction from ECDF jumps (validated
//! against ground truth, which the paper could not do) — and §IV-A's
//! multicast comparison, the paper's figures that are not sweeps (the
//! sweeps are `scenarios/paper/*.scn`).
//!
//! ```text
//! cargo run --release --example trace_analytics
//! ```

use cablevod::experiments;
use cablevod_hfc::units::BitRate;
use cablevod_trace::synth::{generate, SynthConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let trace = generate(&SynthConfig {
        users: 8_000,
        programs: 2_000,
        days: 14,
        ..SynthConfig::powerinfo()
    });
    println!(
        "trace: {} sessions / {} users / {} programs / {} days\n",
        trace.len(),
        trace.user_count(),
        trace.catalog().len(),
        trace.days()
    );

    // Fig 2 — skew.
    print!("{}", experiments::fig02(&trace).to_markdown());
    println!();

    // Fig 3 — session lengths.
    print!("{}", experiments::fig03(&trace).to_markdown());
    println!();

    // §V-A — program length deduction, validated.
    print!("{}", experiments::fig06(&trace).to_markdown());
    println!();

    // Fig 7 — diurnal demand.
    print!(
        "{}",
        experiments::fig07(&trace, BitRate::STREAM_MPEG2_SD).to_markdown()
    );
    println!();

    // Fig 12 — popularity decay after introduction.
    print!("{}", experiments::fig12(&trace).to_markdown());
    println!();

    // §IV-A — why not multicast: analytic bounds beside one cache run.
    print!(
        "{}",
        experiments::multicast_comparison(&trace)?.to_markdown()
    );
    Ok(())
}
