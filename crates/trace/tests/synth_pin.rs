//! The generator's bytes, pinned.
//!
//! The RNG draw sequence is the generator's contract: a faster weighted
//! draw, hour sort or Beta sampler must reproduce every trace exactly.
//! These CRC-32s were recorded before any of those were optimised, over
//! a canonical little-endian encoding of the records and the catalogue,
//! at shapes that cover the small tables, the paper's 8 278-program
//! catalogue over a 50 000-user table, and the seek draws. One
//! `generate_to_disk` file is pinned whole, format bytes included.

use cablevod_trace::checksum::{crc32, Crc32};
use cablevod_trace::columnar::DEFAULT_CHUNK_SIZE;
use cablevod_trace::synth::{generate, generate_to_disk, SynthConfig};
use cablevod_trace::Trace;

/// `(records, catalogue)` CRC-32s of `trace`.
fn crcs(trace: &Trace) -> (u32, u32) {
    let mut records = Crc32::new();
    for r in trace.records() {
        records.update(&r.user.value().to_le_bytes());
        records.update(&r.program.value().to_le_bytes());
        records.update(&r.start.as_secs().to_le_bytes());
        records.update(&r.duration.as_secs().to_le_bytes());
        records.update(&r.offset.as_secs().to_le_bytes());
    }
    let mut catalogue = Crc32::new();
    for (_, p) in trace.catalog().iter() {
        catalogue.update(&p.length.as_secs().to_le_bytes());
        catalogue.update(&p.introduced_day.to_le_bytes());
    }
    (records.finish(), catalogue.finish())
}

/// The benchmark's trace shape (400 programs, 6 days) at `users`.
fn bench_shape(users: u32, seed: u64) -> SynthConfig {
    SynthConfig {
        users,
        programs: 400,
        days: 6,
        seed,
        ..SynthConfig::powerinfo()
    }
}

#[test]
fn generated_traces_are_pinned() {
    let shapes = [
        (
            "smoke_test",
            SynthConfig::smoke_test(),
            46_604,
            (0xcb65_1d3b, 0x563c_0d1b),
        ),
        (
            "grid_zoo source",
            bench_shape(3_000, 2007),
            42_391,
            (0x7ca2_a07b, 0xbd23_7eea),
        ),
        (
            "50k users x 8 278 programs x 1 day",
            SynthConfig {
                users: 50_000,
                days: 1,
                seed: 2007,
                ..SynthConfig::powerinfo()
            },
            114_588,
            (0xb3c8_c492, 0x5646_eb00),
        ),
        (
            "smoke_test, seek_prob 0.3",
            SynthConfig {
                seek_prob: 0.3,
                ..SynthConfig::smoke_test()
            },
            46_997,
            (0xeb54_db6a, 0x563c_0d1b),
        ),
    ];
    for (name, config, len, pinned) in shapes {
        let trace = generate(&config);
        assert_eq!(
            (trace.len(), crcs(&trace)),
            (len, pinned),
            "{name}: (records, (record crc, catalogue crc))"
        );
    }
}

#[test]
fn generated_file_is_pinned() {
    let path = std::env::temp_dir().join(format!("cvtc_synth_pin_{}.cvtc", std::process::id()));
    generate_to_disk(&bench_shape(3_000, 4242), &path, DEFAULT_CHUNK_SIZE).expect("writes");
    let bytes = std::fs::read(&path).expect("reads back");
    std::fs::remove_file(&path).ok();
    assert_eq!(
        (bytes.len(), crc32(&bytes)),
        (1_008_336, 0x44d1_7726),
        "(file bytes, file crc)"
    );
}
