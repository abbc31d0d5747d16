//! Out-of-core replay scenario: a workload ~10x the Criterion bench
//! default (15,000 users, ~200k sessions over 6 days) is generated
//! **straight to disk** in the columnar chunked format — the record vector
//! never exists in memory — then replayed through the streaming engine on
//! one, two and four workers, with resident memory bounded by chunk size
//! plus session concurrency. The time-major file replays
//! *neighborhood-blocked*: each chunk is decoded once and demultiplexed,
//! and every neighborhood's shard runs through its part of the block, so
//! the decode counters read one pass over the file at any worker count.
//! The file is then re-chunked **neighborhood-major** and the sharded
//! replay repeated: still one decode per chunk, now by the shard that
//! owns it, which streams its whole neighborhood end to end (and whose
//! state is dropped as soon as it finishes). A per-strategy section
//! replays the same file under LRU, LFU and the windowed Oracle — whose
//! future is read off the same file by a second cursor three days ahead
//! of the replay, so its decode counters show 2x the file and its peak
//! RSS tracks the look-ahead window instead of the trace length.
//!
//! Every replay goes through the [`Simulation`] front door: sessions/sec,
//! chunk-decode counts, decoded bytes and the process peak RSS (`VmHWM`)
//! all come from the built-in [`RunOutcome`] telemetry — this example
//! consumes the numbers, it no longer implements the probes.
//!
//! ```text
//! cargo run --release --example out_of_core
//! ```

use std::time::Instant;

use cablevod_cache::StrategySpec;
use cablevod_hfc::units::DataSize;
use cablevod_sim::{RunOutcome, SimConfig, Simulation};
use cablevod_trace::columnar::{ColumnarReader, DEFAULT_CHUNK_SIZE};
use cablevod_trace::rechunk::{import_chunk_size, rechunk_by_neighborhood};
use cablevod_trace::source::TraceSource;
use cablevod_trace::synth::{generate_to_disk, SynthConfig};

/// Renders one outcome's telemetry: throughput, decode work, peak RSS.
fn telemetry_line(outcome: &RunOutcome) -> String {
    let t = &outcome.telemetry;
    let rss = t
        .peak_rss_kb
        .map(|kb| format!("{:.1} MiB", kb as f64 / 1024.0))
        .unwrap_or_else(|| "n/a".into());
    format!(
        "{:?} ({:.0} sessions/s; {} chunk decodes, {:.1} MiB decoded; peak RSS {rss})",
        t.wall,
        outcome.sessions_per_sec(),
        t.decode.chunks,
        t.decode.bytes as f64 / (1024.0 * 1024.0),
    )
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 10x the bench workload's 1,500 users (`bench_trace` in benches/engine.rs).
    let synth = SynthConfig {
        users: 15_000,
        programs: 400,
        days: 6,
        ..SynthConfig::powerinfo()
    };
    let mut path = std::env::temp_dir();
    path.push(format!("cvtc_out_of_core_{}.cvtc", std::process::id()));

    let t0 = Instant::now();
    generate_to_disk(&synth, &path, DEFAULT_CHUNK_SIZE)?;
    let file_bytes = std::fs::metadata(&path)?.len();
    println!(
        "generated {:.1} MiB columnar trace in {:?} (never materialized in memory)",
        file_bytes as f64 / (1024.0 * 1024.0),
        t0.elapsed(),
    );

    let reader = ColumnarReader::open(&path)?;
    let config = SimConfig::paper_default()
        .with_neighborhood_size(500)
        .with_per_peer_storage(DataSize::from_gigabytes(2))
        .with_warmup_days(3);
    println!(
        "workload: {} sessions / {} users in {} chunks of {} records",
        reader.record_count(),
        reader.user_count(),
        reader.chunk_count(),
        reader.chunk_size(),
    );

    let serial = Simulation::over(&reader).config(config.clone()).run()?;
    println!("streaming, 1 worker: {}", telemetry_line(&serial));

    for threads in [2usize, 4] {
        let sharded = Simulation::over(&reader)
            .config(config.clone())
            .threads(threads)
            .run()?;
        assert_eq!(
            sharded.report, serial.report,
            "sharded replay must be bit-identical"
        );
        println!(
            "streaming, {threads} workers: {} (bit-identical)",
            telemetry_line(&sharded)
        );
    }

    // Re-chunk by neighborhood: each shard then reads exactly its own
    // chunks (the time-major runs above also decode each chunk once, and
    // hand every shard its part of it).
    let mut nm_path = std::env::temp_dir();
    nm_path.push(format!("cvtc_out_of_core_nm_{}.cvtc", std::process::id()));
    let t0 = Instant::now();
    // Cap the import chunk size so the re-chunker's per-group buffers stay
    // inside a fixed budget — the peak-RSS telemetry covers this pass too.
    let import_chunk = import_chunk_size(reader.user_count(), 500, DEFAULT_CHUNK_SIZE, 64 << 20);
    rechunk_by_neighborhood(&reader, &nm_path, 500, import_chunk)?;
    println!(
        "re-chunked neighborhood-major (size 500) in {:?}",
        t0.elapsed()
    );
    let nm_reader = ColumnarReader::open(&nm_path)?;
    for threads in [2usize, 4] {
        let sharded = Simulation::over(&nm_reader)
            .config(config.clone())
            .threads(threads)
            .run()?;
        assert_eq!(
            sharded.report, serial.report,
            "neighborhood-major replay must be bit-identical"
        );
        println!(
            "nbhd-major sharded x{threads}: {} (bit-identical)",
            telemetry_line(&sharded)
        );
    }
    std::fs::remove_file(&nm_path).ok();

    // Per-strategy streaming replays of the same file. VmHWM is a
    // process-lifetime high-water mark (monotone across rows); the Oracle
    // row holding near LRU/LFU is the point — it holds the look-ahead's
    // worth of its future, not the trace's, and its decode count shows
    // the look-ahead cursor's pass (2x the file).
    println!("\nstrategy replays (streaming, 1 worker):");
    for (label, spec) in [
        ("lru", StrategySpec::Lru),
        ("lfu", StrategySpec::default_lfu()),
        ("oracle", StrategySpec::default_oracle()),
    ] {
        let outcome = Simulation::over(&reader)
            .config(config.clone())
            .strategy(spec)
            .run()?;
        println!(
            "  {label:>6}: {}; hit rate {:.1}%",
            telemetry_line(&outcome),
            outcome.report.hit_rate() * 100.0,
        );
    }

    match cablevod_sim::peak_rss_kb() {
        Some(kb) => println!(
            "peak RSS: {:.1} MiB for a {:.1} MiB trace file (bounded by chunk + session \
             concurrency, not trace length)",
            kb as f64 / 1024.0,
            file_bytes as f64 / (1024.0 * 1024.0),
        ),
        None => println!("peak RSS: unavailable (no /proc/self/status)"),
    }

    println!("\n{}", serial.report);
    std::fs::remove_file(&path).ok();
    Ok(())
}
