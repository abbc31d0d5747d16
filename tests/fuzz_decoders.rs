//! Decoder-hardening fuzz corpus: the columnar trace (`.cvtc`) decoder
//! is fed truncated, bit-flipped and length-lying inputs. Every case must
//! either fail with a [`TraceError`](cablevod_trace::TraceError) or
//! decode data identical to the uncorrupted original — never panic, never
//! return silently wrong records.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use proptest::prelude::*;

use cablevod_trace::columnar::{write_trace, ColumnarReader};
use cablevod_trace::synth::{generate, SynthConfig};

static SEQ: AtomicU64 = AtomicU64::new(0);

fn temp_path(tag: &str) -> PathBuf {
    let n = SEQ.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("fuzz_{tag}_{}_{n}.bin", std::process::id()))
}

/// A file dropped from disk when the guard goes out of scope, so failed
/// proptest cases do not litter the temp dir.
struct TempFile(PathBuf);

impl Drop for TempFile {
    fn drop(&mut self) {
        std::fs::remove_file(&self.0).ok();
    }
}

/// The three corruption families the corpus sweeps — truncation, a
/// single flipped bit, and an 8-byte "lie" (how a corrupt length,
/// offset or count field presents). `kind` picks the family, `at` the
/// fractional position, `value` the lie.
fn apply(bytes: &mut Vec<u8>, kind: usize, at: f64, value: u64) {
    let len = bytes.len();
    match kind {
        0 => bytes.truncate((len as f64 * at) as usize),
        1 => {
            let bit = ((len * 8 - 1) as f64 * at) as usize;
            bytes[bit / 8] ^= 1 << (bit % 8);
        }
        _ => {
            let start = ((len.saturating_sub(8)) as f64 * at) as usize;
            bytes[start..start + 8].copy_from_slice(&value.to_le_bytes());
        }
    }
}

fn synth(seed: u64) -> SynthConfig {
    SynthConfig {
        users: 60,
        programs: 12,
        days: 2,
        seed,
        ..SynthConfig::smoke_test()
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    /// Corrupted `.cvtc` files error or decode the original records.
    #[test]
    fn columnar_decoder_survives_corruption(
        seed in 0u64..500,
        kind in 0usize..3,
        at in 0.0..1.0f64,
        lie in 0u64..u64::MAX,
    ) {
        let trace = generate(&synth(seed));
        let path = TempFile(temp_path("cvtc"));
        // Small chunks so every corruption family can land mid-file.
        write_trace(&path.0, &trace, 128).expect("write valid trace");
        let mut bytes = std::fs::read(&path.0).expect("read trace back");
        apply(&mut bytes, kind, at, lie);
        std::fs::write(&path.0, &bytes).expect("write mutated trace");

        // Decoding may fail at open, at any chunk, or succeed — but a
        // success must reproduce the original records exactly.
        if let Ok(reader) = ColumnarReader::open(&path.0) {
            if let Ok(decoded) = reader.read_trace() {
                prop_assert_eq!(decoded.records(), trace.records());
            }
        }
    }

    /// The mmap and pread chunk backings are observationally identical
    /// over the same corruption corpus: identical records on success,
    /// identical error text on failure — a corrupt chunk must not behave
    /// differently just because the bytes arrive through a mapping.
    #[test]
    fn mmap_and_pread_backings_agree_under_corruption(
        seed in 0u64..500,
        kind in 0usize..3,
        at in 0.0..1.0f64,
        lie in 0u64..u64::MAX,
    ) {
        let trace = generate(&synth(seed));
        let path = TempFile(temp_path("cvtc_mm"));
        write_trace(&path.0, &trace, 128).expect("write valid trace");
        let mut bytes = std::fs::read(&path.0).expect("read trace back");
        apply(&mut bytes, kind, at, lie);
        std::fs::write(&path.0, &bytes).expect("write mutated trace");

        let via_mmap = ColumnarReader::open(&path.0).and_then(|r| r.read_trace());
        let via_pread = ColumnarReader::open_pread(&path.0).and_then(|r| r.read_trace());
        match (via_mmap, via_pread) {
            (Ok(a), Ok(b)) => {
                prop_assert_eq!(a.records(), b.records());
                prop_assert_eq!(a.records(), trace.records());
            }
            (Err(a), Err(b)) => prop_assert_eq!(a.to_string(), b.to_string()),
            (a, b) => prop_assert!(
                false,
                "backings disagree: mmap ok={} vs pread ok={}",
                a.is_ok(),
                b.is_ok()
            ),
        }
    }
}

/// The `.cvtc` bytes themselves, pinned: one fixed synthetic trace written
/// the three ways the import path writes files — time-major over several
/// chunks straight from the generator, neighborhood-major, and two-size
/// multi-index — must come out the same length with the same CRC-32 of the
/// whole file as when these constants were recorded (at PR 23, before the
/// writer encoded columns a run at a time and the CRC-32 went sixteen
/// bytes a step).
#[test]
fn cvtc_bytes_are_pinned() {
    use cablevod_trace::checksum::crc32;
    use cablevod_trace::rechunk::{rechunk_by_neighborhood, rechunk_multi_index};
    use cablevod_trace::synth::generate_to_disk;

    let config = SynthConfig {
        users: 600,
        programs: 40,
        days: 6,
        seed: 25,
        ..SynthConfig::smoke_test()
    };
    let time_major = TempFile(temp_path("pin_tm"));
    let nbhd_major = TempFile(temp_path("pin_nm"));
    let multi = TempFile(temp_path("pin_mi"));
    generate_to_disk(&config, &time_major.0, 3_000).expect("generate to disk");
    let source = ColumnarReader::open(&time_major.0).expect("open time-major");
    assert!(source.directory().len() > 2, "several time-major chunks");
    rechunk_by_neighborhood(&source, &nbhd_major.0, 100, 1_000).expect("rechunk");
    rechunk_multi_index(&source, &multi.0, &[100, 60], 1_000).expect("multi-index");

    let observed: Vec<(usize, u32)> = [&time_major, &nbhd_major, &multi]
        .iter()
        .map(|file| {
            let bytes = std::fs::read(&file.0).expect("read back");
            (bytes.len(), crc32(&bytes))
        })
        .collect();
    // (length, CRC-32): time-major, neighborhood-major, multi-index.
    assert_eq!(
        observed,
        [
            (205_432, 0xDB56_C1B4),
            (274_028, 0xF4C7_8281),
            (274_272, 0xCCA9_A022)
        ]
    );
}

/// A targeted (non-random) case: one flipped payload bit in an otherwise
/// pristine file must fail checksum verification naming the chunk — this
/// is the regression the CRC column exists for, since every header and
/// directory field would still parse cleanly.
#[test]
fn payload_bit_flip_is_caught_by_checksum() {
    let trace = generate(&synth(7));
    let path = TempFile(temp_path("cvtc_payload"));
    write_trace(&path.0, &trace, 128).expect("write valid trace");
    let reader = ColumnarReader::open(&path.0).expect("open pristine");
    let meta = reader.directory()[0];
    drop(reader);

    let mut bytes = std::fs::read(&path.0).expect("read back");
    // Flip a low bit of a duration column value: small enough to stay in
    // range, so only the checksum can notice.
    let flip_at = meta.file_offset as usize + 16 * meta.record_count as usize;
    bytes[flip_at] ^= 1;
    std::fs::write(&path.0, &bytes).expect("write mutated");

    let reader = ColumnarReader::open(&path.0).expect("directory still parses");
    let err = reader
        .read_trace()
        .expect_err("checksum must catch the flip");
    let message = err.to_string();
    assert!(
        message.contains("chunk 0") && message.contains("checksum"),
        "error should name the chunk and the checksum: {message}"
    );

    // The portable pread backing must report the identical failure.
    let reader = ColumnarReader::open_pread(&path.0).expect("directory still parses");
    let pread_message = reader
        .read_trace()
        .expect_err("checksum must catch the flip on the pread path too")
        .to_string();
    assert_eq!(
        message, pread_message,
        "mmap and pread paths must fail a corrupt chunk identically"
    );
}

/// The same flip, met in the middle of a replay: one byte of a middle
/// chunk of a time-major file, found only when the blocked replay gets
/// there — chunks before it already demultiplexed and run by every shard.
/// On one worker and on two the run must return the decoder's own error,
/// naming the chunk: no panic, no hang on a block that never comes, no
/// partial report.
/// Under `oracle:3d` over these two days it is the look-ahead cursor that
/// gets there, filling the first block, with the replay still in chunk 0.
#[test]
fn mid_file_corruption_fails_a_streaming_run_closed() {
    use cablevod_sim::{SimConfig, SimError, Simulation};
    use cablevod_trace::source::TraceSource;

    let trace = generate(&synth(7));
    let path = TempFile(temp_path("cvtc_midfile"));
    write_trace(&path.0, &trace, 128).expect("write valid trace");
    let reader = ColumnarReader::open(&path.0).expect("open pristine");
    let middle = reader.directory().len() / 2;
    assert!(middle > 0 && middle + 1 < reader.directory().len());
    let meta = reader.directory()[middle];
    drop(reader);

    let mut bytes = std::fs::read(&path.0).expect("read back");
    bytes[meta.file_offset as usize + 16 * meta.record_count as usize] ^= 1;
    std::fs::write(&path.0, &bytes).expect("write mutated");

    let reader = ColumnarReader::open(&path.0).expect("directory still parses");
    let config = SimConfig::paper_default()
        .with_neighborhood_size(20)
        .with_warmup_days(0);
    for strategy in ["lfu", "global-lfu", "oracle:3d"] {
        for threads in [None, Some(2)] {
            let before = reader.decode_stats();
            let sim = Simulation::over(&reader)
                .config(config.clone())
                .strategy_named(strategy);
            let err = match threads {
                None => sim.serial(),
                Some(n) => sim.threads(n),
            }
            .run()
            .expect_err("a corrupt chunk fails the run");
            let message = err.to_string();
            assert!(
                matches!(err, SimError::Trace(_))
                    && message.contains(&format!("chunk {middle}"))
                    && message.contains("checksum"),
                "{strategy}, threads {threads:?}: {message}"
            );
            // Chunks decoded before the bad one: by the replay, or by the
            // look-ahead with the replay one chunk in.
            let decoded = (reader.decode_stats() - before).chunks;
            let replayed = if strategy == "oracle:3d" { 1 } else { 0 };
            assert_eq!(decoded, (middle + replayed) as u64, "{strategy}");
        }
    }
}

/// Sequence numbers no checksum can vouch for: a neighborhood-major file
/// whose every cell ascends, as the reader checks, but where one number
/// appears in two cells and its neighbour in none. The blocked replay
/// publishes the feed under those numbers and starts every session on
/// the promise that all earlier ones are published, so its decoder must
/// refuse the file with a named error, not publish a slot twice.
#[test]
fn colliding_sequence_numbers_fail_a_streaming_run_closed() {
    use cablevod_sim::{SimConfig, SimError, Simulation};
    use cablevod_trace::columnar::ColumnarWriter;
    use cablevod_trace::rechunk::neighborhood_groups;

    let trace = generate(&synth(7));
    let groups = neighborhood_groups(trace.user_count(), 20).expect("groups");
    let group_of = |at: usize| groups[trace.records()[at].user.index()];
    let lie = (1..trace.len())
        .find(|&at| group_of(at) != group_of(at - 1))
        .expect("two groups interleave");

    let path = TempFile(temp_path("cvtc_collide"));
    let mut writer = ColumnarWriter::create_neighborhood_major(
        &path.0,
        trace.catalog(),
        trace.user_count(),
        trace.days(),
        16,
        20,
        groups.clone(),
    )
    .expect("create");
    for (at, rec) in trace.records().iter().enumerate() {
        let gseq = if at == lie { at - 1 } else { at };
        writer.push_indexed(gseq as u64, rec).expect("push");
    }
    writer.finish().expect("finish");

    let reader = ColumnarReader::open(&path.0).expect("every cell ascends");
    // Both ways into the central decoder: the file's own neighborhood
    // size under a strategy that takes the feed, and a foreign size.
    for (strategy, size) in [("global-lfu", 20), ("lfu", 30)] {
        let config = SimConfig::paper_default()
            .with_neighborhood_size(size)
            .with_warmup_days(0);
        for threads in [None, Some(2)] {
            let sim = Simulation::over(&reader)
                .config(config.clone())
                .strategy_named(strategy);
            let err = match threads {
                None => sim.serial(),
                Some(n) => sim.threads(n),
            }
            .run()
            .expect_err("colliding sequence numbers fail the run");
            let message = err.to_string();
            assert!(
                matches!(err, SimError::Trace(_))
                    && message.contains(&format!("record {} was due", lie)),
                "{strategy}, threads {threads:?}: {message}"
            );
        }
    }
}
