//! Scaling study: what happens when the subscriber base and the catalog
//! both grow (the paper's Figs 15–16 and Table 16(a), reduced scale).
//!
//! ```text
//! cargo run --release --example scaling_study
//! ```

use cablevod::experiments::scaling::scaling_grid;
use cablevod_hfc::units::BitRate;
use cablevod_sim::baseline;
use cablevod_trace::synth::{generate, SynthConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let trace = generate(&SynthConfig {
        users: 3_000,
        programs: 800,
        days: 10,
        ..SynthConfig::powerinfo()
    });
    let no_cache = baseline::no_cache_peak(&trace, BitRate::STREAM_MPEG2_SD, 5, trace.days());
    println!(
        "base workload: {} sessions / {} users; no-cache peak {}\n",
        trace.len(),
        trace.user_count(),
        no_cache.mean
    );

    let pops = [1u32, 2, 3];
    let cats = [1u32, 2, 3];
    let cells = scaling_grid(&trace, &pops, &cats)?;

    println!("server load (Gb/s), population (rows) x catalog (columns):");
    print!("{:>6}", "");
    for c in cats {
        print!("{:>9}", format!("x{c}"));
    }
    println!();
    for (i, p) in pops.iter().enumerate() {
        print!("{:>6}", format!("x{p}"));
        for (j, _) in cats.iter().enumerate() {
            let (_, _, mean, _, _) = cells[i * cats.len() + j];
            print!("{mean:>9.3}");
        }
        println!();
    }

    println!("\nreadings (the paper's scalability claims):");
    let base = cells[0].2;
    let pop3 = cells[2 * cats.len()].2;
    println!(
        "- population x3 multiplies load by {:.2} (linear: new subscribers bring new cache peers)",
        pop3 / base
    );
    let cat3 = cells[2].2;
    println!(
        "- catalog x3 multiplies load by {:.2} (sub-linear: the head still dominates)",
        cat3 / base
    );
    Ok(())
}
