//! Equivalence properties of the out-of-core trace pipeline: replaying a
//! workload through a chunked [`TraceSource`] — in memory or from a
//! columnar file on disk, time-major or neighborhood-major — must be
//! **bit-identical** to the classic resident engine, serial and sharded,
//! for every strategy, chunk size, chunk layout and shard count. Plus
//! decode-work bounds (time-major and matched neighborhood-major replays
//! decode each chunk once at any worker count), streaming edge cases
//! (empty traces, one-record chunks, sessions straddling chunk
//! boundaries, same-second ties across them) and failing closed when a
//! shard fails — or panics — mid-run.

mod helpers;

use proptest::prelude::*;

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{mpsc, Arc};
use std::time::Duration;

use cablevod_cache::strategy::{CacheOp, StrategyContext, StrategyFactory};
use cablevod_cache::{AccessEvent, CacheError, CacheStrategy, StrategyRegistry, StrategySpec};
use cablevod_hfc::ids::{ProgramId, UserId};
use cablevod_hfc::units::{DataSize, SimDuration, SimTime};
use cablevod_sim::{
    run, serve_serial, AdmissionMode, AxisPoint, CellResult, FaultPlan, OnlineSpec,
    ResilienceOptions, RetryPolicy, Scenario, SimConfig, SimError, SimReport, Simulation,
    SourceSpec, ThreadPolicy,
};
use cablevod_trace::catalog::{ProgramCatalog, ProgramInfo};
use cablevod_trace::columnar::{write_trace, ColumnarReader};
use cablevod_trace::rechunk::{rechunk_by_neighborhood, rechunk_multi_index};
use cablevod_trace::record::{SessionRecord, Trace};
use cablevod_trace::source::{ChunkedTrace, TraceSource};
use cablevod_trace::synth::{generate, SynthConfig};
use helpers::{serve_trace, tiny_config};

/// The strategy matrix the equivalence properties sweep: the paper's five
/// (Global LFU's feed consumption exercises the watermark feed the
/// blocked replay's decoder publishes) plus the literature four — ARC, TLRU, the
/// prior-storing server (a second feed consumer) and the
/// delayed-hits-aware LFU (fetch-model accounting, merged counters).
fn strategy(pick: usize) -> StrategySpec {
    [
        StrategySpec::NoCache,
        StrategySpec::Lru,
        StrategySpec::default_lfu(),
        StrategySpec::default_oracle(),
        StrategySpec::GlobalLfu {
            history: SimDuration::from_days(3),
            lag: SimDuration::from_minutes(30),
        },
        StrategySpec::Arc { ghost: 0 },
        StrategySpec::Tlru {
            ttl: SimDuration::from_minutes(30),
        },
        StrategySpec::PriorStoring {
            horizon: SimDuration::from_days(1),
        },
        StrategySpec::DelayedLfu {
            history: SimDuration::from_days(3),
            latency_ms: 10_000,
        },
    ][pick]
}

fn config_for(nbhd: u32, gb: u64, spec: StrategySpec) -> SimConfig {
    SimConfig::paper_default()
        .with_neighborhood_size(nbhd)
        .with_per_peer_storage(DataSize::from_gigabytes(gb))
        .with_warmup_days(1)
        .with_strategy(spec)
}

/// Chunk sizes the sweeps replay through: one record per chunk (a block
/// edge after every record), three (edges that split same-second runs
/// unevenly), a small batch, and the whole trace in one chunk (streaming
/// machinery with resident-like staging). A `ChunkedTrace` is a
/// time-major source, so serial and sharded runs over it are the blocked
/// replay on one worker and on several.
fn chunk_sizes(trace_len: usize) -> [usize; 4] {
    [1, 3, 64, trace_len.max(1)]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 6, ..ProptestConfig::default() })]

    /// Serial streaming replay equals the resident serial engine across
    /// strategies and chunk sizes.
    #[test]
    fn streaming_run_equals_resident_run(
        users in 60u32..220,
        nbhd in 25u32..120,
        gb in 1u64..5,
        strategy_pick in 0usize..9,
        seed in 0u64..500,
    ) {
        let trace = generate(&tiny_config(users, 30, 3, seed));
        let config = config_for(nbhd, gb, strategy(strategy_pick));
        let resident = run(&trace, &config).expect("resident engine runs");
        for chunk in chunk_sizes(trace.len()) {
            let streamed =
                run(&ChunkedTrace::new(&trace, chunk), &config).expect("streaming engine runs");
            prop_assert_eq!(&streamed, &resident, "chunk size {}", chunk);
        }
    }

    /// The streaming-Oracle parity property: the windowed schedule path
    /// (the record supply's look-ahead feeding bounded `ScheduleWindow`s)
    /// is bit-identical to the resident Oracle across serial/parallel,
    /// chunk sizes, shard counts and look-ahead lengths — none, inside a
    /// block, the paper's, past the end of the trace, and past the end of
    /// time (the largest literal a `.scn` can spell, which saturates
    /// instead of wrapping and so reads like any other look-ahead longer
    /// than the trace). Oracle is pinned — the general sweeps above only
    /// sample it — because it is the one strategy whose auxiliary state
    /// takes a different carrier when streaming.
    #[test]
    fn oracle_windowed_replay_equals_resident_oracle(
        users in 60u32..220,
        nbhd in 25u32..120,
        gb in 1u64..5,
        seed in 0u64..500,
    ) {
        let trace = generate(&tiny_config(users, 30, 3, seed));
        let neighborhoods = users.div_ceil(nbhd) as usize;
        let whole_trace = format!("oracle:{}d", trace.days() + 1);
        let mut residents = Vec::new();
        for text in ["oracle:0s", "oracle:1h", "oracle:3d", &whole_trace, "oracle:18446744073709551615s"] {
            let config = config_for(nbhd, gb, StrategySpec::parse(text).expect("parses"));
            let resident = run(&trace, &config).expect("resident oracle runs");
            for chunk in chunk_sizes(trace.len()) {
                let source = ChunkedTrace::new(&trace, chunk);
                let streamed = run(&source, &config).expect("windowed serial oracle runs");
                prop_assert_eq!(&streamed, &resident, "{}, serial, chunk {}", text, chunk);
                for threads in [1, 2, neighborhoods] {
                    let sharded = Simulation::over(&source)
                        .config(config.clone())
                        .threads(threads)
                        .run()
                        .expect("windowed sharded oracle runs");
                    prop_assert_eq!(
                        &sharded.report, &resident, "{}, chunk {}, threads {}", text, chunk, threads
                    );
                }
            }
            residents.push(resident);
        }
        prop_assert_eq!(&residents[4], &residents[3], "every second there is: the whole trace");
    }

    /// Sharded streaming replay (watermark-ordered feed included) equals
    /// the serial resident engine across strategies, chunk sizes and
    /// shard-pool sizes.
    #[test]
    fn streaming_sharded_run_equals_serial_run(
        users in 60u32..220,
        nbhd in 25u32..120,
        gb in 1u64..5,
        strategy_pick in 0usize..9,
        seed in 0u64..500,
    ) {
        let trace = generate(&tiny_config(users, 30, 3, seed));
        let config = config_for(nbhd, gb, strategy(strategy_pick));
        let serial = run(&trace, &config).expect("serial engine runs");
        let neighborhoods = users.div_ceil(nbhd) as usize;
        for chunk in chunk_sizes(trace.len()) {
            let source = ChunkedTrace::new(&trace, chunk);
            for threads in [1, 2, neighborhoods] {
                let sharded = Simulation::over(&source)
                    .config(config.clone())
                    .threads(threads)
                    .run()
                    .expect("sharded engine runs");
                prop_assert_eq!(&sharded.report, &serial, "chunk {}, threads {}", chunk, threads);
            }
        }
    }
}

/// On-disk columnar replay — the full out-of-core pipeline, file and all —
/// equals the resident engine, serial and sharded, for every strategy.
#[test]
fn columnar_file_replay_is_bit_identical() {
    let trace: Trace = generate(&tiny_config(300, 40, 4, 7));
    let mut path = std::env::temp_dir();
    path.push(format!("cvtc_streaming_test_{}.cvtc", std::process::id()));
    write_trace(&path, &trace, 128).expect("write columnar");
    let reader = ColumnarReader::open(&path).expect("open columnar");
    assert!(reader.resident_records().is_none(), "reader must stream");

    for pick in 0..9 {
        let config = config_for(60, 2, strategy(pick));
        let resident = run(&trace, &config).expect("resident runs");
        let from_disk = run(&reader, &config).expect("disk replay runs");
        assert_eq!(from_disk, resident, "serial, strategy {pick}");
        let sharded = Simulation::over(&reader)
            .config(config)
            .threads(3)
            .run()
            .expect("sharded disk replay runs");
        assert_eq!(sharded.report, resident, "sharded, strategy {pick}");
    }
    std::fs::remove_file(&path).ok();
}

/// Neighborhood-major replay — matched, serial, and mismatched-size — is
/// bit-identical to the resident engine for every strategy.
#[test]
fn neighborhood_major_replay_is_bit_identical() {
    let trace: Trace = generate(&tiny_config(300, 40, 4, 11));
    let mut tm = std::env::temp_dir();
    tm.push(format!("cvtc_nm_equiv_tm_{}.cvtc", std::process::id()));
    let mut nm = std::env::temp_dir();
    nm.push(format!("cvtc_nm_equiv_nm_{}.cvtc", std::process::id()));
    write_trace(&tm, &trace, 128).expect("write time-major");
    let tm_reader = ColumnarReader::open(&tm).expect("open time-major");
    rechunk_by_neighborhood(&tm_reader, &nm, 60, 64).expect("rechunk");
    let reader = ColumnarReader::open(&nm).expect("open neighborhood-major");
    assert_eq!(
        reader
            .neighborhood_layout()
            .expect("indexed")
            .neighborhood_size,
        60
    );

    for pick in 0..9 {
        // Matched neighborhood size: shards read their own chunks only.
        let config = config_for(60, 2, strategy(pick));
        let resident = run(&trace, &config).expect("resident runs");
        let serial = run(&reader, &config).expect("serial merge replay runs");
        assert_eq!(serial, resident, "serial merge, strategy {pick}");
        for threads in [1usize, 3] {
            let sharded = Simulation::over(&reader)
                .config(config.clone())
                .threads(threads)
                .run()
                .expect("matched sharded runs");
            assert_eq!(sharded.report, resident, "matched sharded, strategy {pick}");
        }

        // Mismatched neighborhood size: the file's grouping disagrees with
        // the simulation's shuffle, so the decoder merges the file's runs
        // back into global order and replays blocked — results must not
        // change.
        let config = config_for(45, 2, strategy(pick));
        let resident = run(&trace, &config).expect("resident runs");
        let serial = run(&reader, &config).expect("mismatched serial runs");
        assert_eq!(serial, resident, "mismatched serial, strategy {pick}");
        let sharded = Simulation::over(&reader)
            .config(config)
            .threads(2)
            .run()
            .expect("mismatched sharded runs");
        assert_eq!(
            sharded.report, resident,
            "mismatched sharded, strategy {pick}"
        );
    }
    std::fs::remove_file(&tm).ok();
    std::fs::remove_file(&nm).ok();
}

/// Decode-once is counted, not assumed: a sharded streaming run decodes
/// each chunk exactly once over a **matching** neighborhood-major file
/// (every shard reads its own chunks) and over the time-major file it was
/// cut from (one decode feeds every shard) — and the layouts agree
/// bit-for-bit. So does every replay the central decoder merges out of
/// the neighborhood-major file: at a neighborhood size the file was not
/// grouped for, and at its own size under a strategy that takes the feed,
/// on one worker or several. Every history here is a week, longer than the
/// four-day trace, so no access ever leaves one and the read-behind never
/// decodes (a shorter history is
/// `a_history_window_decodes_what_leaves_it_a_second_time`).
#[test]
fn neighborhood_major_sharded_run_decodes_each_chunk_once() {
    let trace: Trace = generate(&tiny_config(400, 40, 4, 13));
    let mut tm = std::env::temp_dir();
    tm.push(format!("cvtc_decode_tm_{}.cvtc", std::process::id()));
    let mut nm = std::env::temp_dir();
    nm.push(format!("cvtc_decode_nm_{}.cvtc", std::process::id()));
    write_trace(&tm, &trace, 64).expect("write time-major");
    let tm_reader = ColumnarReader::open(&tm).expect("open time-major");
    rechunk_by_neighborhood(&tm_reader, &nm, 50, 64).expect("rechunk");
    let nm_reader = ColumnarReader::open(&nm).expect("open neighborhood-major");

    // LFU needs neither the feed nor a look-ahead, so replay decode work
    // is the whole story. 400 users / 50 = 8 shards.
    let config = config_for(50, 2, StrategySpec::default_lfu());

    let before = nm_reader.decode_stats();
    let nm_report = Simulation::over(&nm_reader)
        .config(config.clone())
        .threads(4)
        .run()
        .expect("matched sharded runs")
        .report;
    let nm_decodes = nm_reader.decode_stats() - before;
    assert_eq!(
        nm_decodes.chunks,
        nm_reader.chunk_count() as u64,
        "each neighborhood-major chunk decoded exactly once"
    );
    assert!(nm_decodes.bytes > 0, "decode bytes are tracked");

    let before = tm_reader.decode_stats();
    let tm_report = Simulation::over(&tm_reader)
        .config(config)
        .threads(4)
        .run()
        .expect("time-major sharded runs")
        .report;
    let tm_decodes = tm_reader.decode_stats() - before;
    assert_eq!(tm_report, nm_report, "layouts agree bit-for-bit");
    assert_eq!(
        tm_decodes.chunks,
        tm_reader.chunk_count() as u64,
        "each time-major chunk decoded exactly once, not once per shard"
    );

    let feed = StrategySpec::GlobalLfu {
        history: SimDuration::from_days(7),
        lag: SimDuration::from_minutes(30),
    };
    for (what, config) in [
        ("mismatched", config_for(45, 2, StrategySpec::default_lfu())),
        ("matched, feed", config_for(50, 2, feed)),
    ] {
        let resident = run(&trace, &config).expect("resident runs");
        for threads in [None, Some(2), Some(4)] {
            let sim = Simulation::over(&nm_reader).config(config.clone());
            let outcome = match threads {
                None => sim.serial(),
                Some(n) => sim.threads(n),
            }
            .run()
            .expect("merged blocked replay runs");
            assert_eq!(outcome.report, resident, "{what}, threads {threads:?}");
            assert_eq!(
                outcome.telemetry.decode.chunks,
                nm_reader.chunk_count() as u64,
                "{what}, threads {threads:?}: each chunk decoded exactly once"
            );
        }
    }
    std::fs::remove_file(&tm).ok();
    std::fs::remove_file(&nm).ok();
}

/// The time-major twin, across worker counts: `.serial()`, `threads(1)`,
/// `threads(2)` and `threads(4)` are one plan on more or fewer workers,
/// so each decodes every chunk of a time-major file exactly once (the
/// sharded ones used to rescan it per shard).
#[test]
fn time_major_run_decodes_each_chunk_once_at_any_worker_count() {
    let trace: Trace = generate(&tiny_config(400, 40, 4, 13));
    let mut path = std::env::temp_dir();
    path.push(format!("cvtc_decode_once_tm_{}.cvtc", std::process::id()));
    write_trace(&path, &trace, 64).expect("write time-major");
    let reader = ColumnarReader::open(&path).expect("open time-major");
    assert!(reader.chunk_count() > 8, "more chunks than shards");

    let config = config_for(50, 2, StrategySpec::default_lfu());
    let resident = run(&trace, &config).expect("resident runs");
    for threads in [None, Some(1), Some(2), Some(4)] {
        let sim = Simulation::over(&reader).config(config.clone());
        let outcome = match threads {
            None => sim.serial(),
            Some(n) => sim.threads(n),
        }
        .run()
        .expect("time-major replay runs");
        assert_eq!(outcome.report, resident, "threads {threads:?}");
        assert_eq!(
            outcome.telemetry.decode.chunks,
            reader.chunk_count() as u64,
            "threads {threads:?}: each chunk decoded exactly once"
        );
        assert!(!outcome.telemetry.fastpath, "no chunk index to match");
    }
    std::fs::remove_file(&path).ok();
}

/// A built-in whose factory keeps its history window to itself: the
/// engine hands nothing back and the strategy keeps its own accesses, as
/// the reference model's strategies do.
#[derive(Debug)]
struct SelfFed(StrategySpec);

impl StrategyFactory for SelfFed {
    fn name(&self) -> &str {
        self.0.label()
    }
    fn needs_feed(&self) -> bool {
        self.0.needs_feed()
    }
    fn fetch_model(&self) -> Option<cablevod_cache::FetchModel> {
        self.0.fetch_model()
    }
    fn build(&self, ctx: StrategyContext) -> Result<Box<dyn CacheStrategy>, CacheError> {
        assert!(
            ctx.history.is_none(),
            "the engine hands back only when asked"
        );
        StrategyFactory::build(&self.0, ctx)
    }
}

/// The read-behind's decode accounting, on both layouts — the
/// neighborhood-major one merged by the decoder and on the sweep fast
/// path — against the strategy keeping its own history, for plain LFU
/// and, at a day, the feed's (whose remote events stay in its own ring)
/// and the delayed-hits one (whose double weight does). A history
/// longer than the four-day trace lets nothing go, so the trailing cursor
/// never reads and every chunk is decoded once. A zero history lets every
/// access go as it happens, so the cursor reads the whole file behind the
/// replay: twice. A day's history decodes a second time exactly the
/// chunks the cursor reached — on a time-major file every chunk up to the
/// one holding the first access still inside the window when the last
/// session starts. Every run reports what the self-kept history does, on
/// every plan and online.
#[test]
fn a_history_window_decodes_what_leaves_it_a_second_time() {
    let trace: Trace = generate(&tiny_config(400, 40, 4, 13));
    let mut tm = std::env::temp_dir();
    tm.push(format!("cvtc_behind_tm_{}.cvtc", std::process::id()));
    let mut nm = std::env::temp_dir();
    nm.push(format!("cvtc_behind_nm_{}.cvtc", std::process::id()));
    write_trace(&tm, &trace, 64).expect("write time-major");
    let tm_reader = ColumnarReader::open(&tm).expect("open time-major");
    rechunk_by_neighborhood(&tm_reader, &nm, 50, 64).expect("rechunk");
    let nm_reader = ColumnarReader::open(&nm).expect("open neighborhood-major");
    let chunks = tm_reader.chunk_count() as u64;
    let last = trace.records().last().expect("records").start;

    let windows = [
        ("lfu:7d", None),
        ("lfu:1d", Some(1)),
        ("lfu:0s", Some(0)),
        ("global-lfu:1d:30m", Some(1)),
        ("delayed-lfu:1d:10s", Some(1)),
    ];
    // At 50 the neighborhood-major file matches the plant (the fast path);
    // at 45 the decoder merges its runs (the blocked replay).
    for (size, (text, window)) in [50, 45].into_iter().flat_map(|n| windows.map(|w| (n, w))) {
        let spec = StrategySpec::parse(text).expect("parses");
        let config = config_for(size, 2, spec);
        let self_fed = Simulation::over(&trace)
            .config(config.clone())
            .strategy_factory(Arc::new(SelfFed(spec)))
            .run()
            .expect("self-fed runs")
            .report;
        assert_eq!(run(&trace, &config).expect("resident"), self_fed, "{text}");
        let online = serve_trace(&trace, &config, &spec).expect("online runs");
        assert_eq!(online, self_fed, "{text}, online");
        // Chunks the trailing cursor decodes on the time-major file: up to
        // the one holding the first access after the last `until`.
        let behind_tm = window.map_or(0, |days| {
            let until = last.saturating_sub(SimDuration::from_days(days));
            trace
                .records()
                .iter()
                .position(|rec| rec.start > until)
                .map_or(chunks, |at| at as u64 / 64 + 1)
        });
        if window == Some(1) {
            assert!(
                0 < behind_tm && behind_tm < chunks,
                "{behind_tm} of {chunks}"
            );
        }
        for (layout, reader) in [
            ("time-major", &tm_reader),
            ("neighborhood-major", &nm_reader),
        ] {
            let fastpath = layout == "neighborhood-major" && size == 50 && !spec.needs_feed();
            let chunks = reader.chunk_count() as u64;
            for threads in [None, Some(3)] {
                let sim = Simulation::over(reader).config(config.clone());
                let outcome = match threads {
                    None => sim.serial(),
                    Some(n) => sim.threads(n),
                }
                .run()
                .expect("streamed replay runs");
                let what = format!("{text}, {layout} at {size}, threads {threads:?}");
                assert_eq!(outcome.report, self_fed, "{what}");
                assert_eq!(outcome.telemetry.fastpath, fastpath, "{what}");
                let decodes = outcome.telemetry.decode.chunks;
                match window {
                    None => assert_eq!(decodes, chunks, "{what}: nothing leaves"),
                    Some(0) => assert_eq!(decodes, 2 * chunks, "{what}: everything leaves"),
                    Some(_) if layout == "time-major" => {
                        assert_eq!(decodes, chunks + behind_tm, "{what}: what left, again");
                    }
                    Some(_) => assert!(
                        chunks < decodes && decodes <= 2 * chunks,
                        "{what}: {decodes} decodes of {chunks} chunks"
                    ),
                }
            }
        }
    }
    std::fs::remove_file(&tm).ok();
    std::fs::remove_file(&nm).ok();
}

/// Streaming Oracle decode accounting: the look-ahead is a second cursor
/// over the chunks the replay reads, through the source's counted chunk
/// API, so `decode_stats` reports look-ahead + replay — an Oracle run
/// decodes every chunk exactly twice, on every layout at every worker
/// count: time-major and mismatched neighborhood-major (the decoder's
/// cursor), matched single- and multi-index (each shard's own). The
/// look-ahead length does not enter: whatever is left past the last
/// session's horizon is read out at the end. (Guards against the second
/// cursor silently under-reporting in the out_of_core example's decode
/// counters.)
#[test]
fn oracle_streaming_decode_counts_include_the_schedule_pre_pass() {
    let trace: Trace = generate(&tiny_config(300, 40, 4, 17));
    let mut tm = std::env::temp_dir();
    tm.push(format!("cvtc_oracle_decode_tm_{}.cvtc", std::process::id()));
    let mut nm = std::env::temp_dir();
    nm.push(format!("cvtc_oracle_decode_nm_{}.cvtc", std::process::id()));
    let mut multi = std::env::temp_dir();
    multi.push(format!("cvtc_oracle_decode_mi_{}.cvtc", std::process::id()));
    write_trace(&tm, &trace, 64).expect("write time-major");
    let tm_reader = ColumnarReader::open(&tm).expect("open time-major");
    rechunk_by_neighborhood(&tm_reader, &nm, 50, 64).expect("rechunk");
    let nm_reader = ColumnarReader::open(&nm).expect("open neighborhood-major");
    rechunk_multi_index(&tm_reader, &multi, &[50, 75], 64).expect("multi-index rechunk");
    let multi_reader = ColumnarReader::open(&multi).expect("open multi-index");

    for (size, lookahead) in [(50u32, "oracle:3d"), (75, "oracle:1h")] {
        let spec = StrategySpec::parse(lookahead).expect("parses");
        let config = config_for(size, 2, spec);
        let resident = run(&trace, &config).expect("resident oracle runs");
        // The single-index file matches the plant at 50 only; the
        // multi-index one at both sizes, a group spanning several cells.
        for (layout, reader, fastpath) in [
            ("time-major", &tm_reader, false),
            ("single-index", &nm_reader, size == 50),
            ("multi-index", &multi_reader, true),
        ] {
            for threads in [None, Some(1), Some(3)] {
                let sim = Simulation::over(reader).config(config.clone());
                let outcome = match threads {
                    None => sim.serial(),
                    Some(n) => sim.threads(n),
                }
                .run()
                .expect("streaming oracle replay");
                let what = format!("{layout}, size {size}, threads {threads:?}");
                assert_eq!(outcome.report, resident, "{what}");
                assert_eq!(outcome.telemetry.fastpath, fastpath, "{what}");
                assert_eq!(
                    outcome.telemetry.decode.chunks,
                    2 * reader.chunk_count() as u64,
                    "{what}: look-ahead + replay, each chunk once"
                );
            }
        }
    }
    std::fs::remove_file(&tm).ok();
    std::fs::remove_file(&nm).ok();
    std::fs::remove_file(&multi).ok();
}

/// Multi-index sweep bit-identity: a neighborhood-size sweep served by
/// one multi-index file through the decode-once fast path produces
/// reports byte-identical to the single-index file (matched at one size,
/// blocked replay at the other) and to the resident engine — serial and
/// sharded alike — and the telemetry flag confirms the fast path engaged
/// at every indexed size for a feed-less strategy, and only for one.
#[test]
fn multi_index_sweep_fast_path_is_bit_identical() {
    let trace: Trace = generate(&tiny_config(300, 40, 4, 19));
    let mut tm = std::env::temp_dir();
    tm.push(format!("cvtc_multi_tm_{}.cvtc", std::process::id()));
    let mut nm = std::env::temp_dir();
    nm.push(format!("cvtc_multi_nm_{}.cvtc", std::process::id()));
    let mut multi = std::env::temp_dir();
    multi.push(format!("cvtc_multi_mi_{}.cvtc", std::process::id()));
    write_trace(&tm, &trace, 128).expect("write time-major");
    let tm_reader = ColumnarReader::open(&tm).expect("open time-major");
    // The reference: a single-index file at one of the sweep's sizes
    // (matched at 60, mismatched — hence blocked — at 100). The fast path:
    // one multi-index file carrying both sizes over the same shared
    // columns.
    rechunk_by_neighborhood(&tm_reader, &nm, 60, 64).expect("single-index rechunk");
    rechunk_multi_index(&tm_reader, &multi, &[60, 100], 64).expect("multi-index rechunk");
    let nm_reader = ColumnarReader::open(&nm).expect("open single-index");
    let multi_reader = ColumnarReader::open(&multi).expect("open multi-index");

    for &(size, threads) in &[(60u32, 3usize), (100, 2)] {
        for pick in 0..5 {
            let config = config_for(size, 2, strategy(pick));
            let resident = run(&trace, &config).expect("resident runs");
            assert_eq!(
                Simulation::over(&trace)
                    .config(config.clone())
                    .threads(threads)
                    .run()
                    .expect("resident sharded runs")
                    .report,
                resident,
                "resident sharded, size {size}, strategy {pick}"
            );
            assert_eq!(
                run(&nm_reader, &config).expect("merge-path serial runs"),
                resident,
                "merge serial, size {size}, strategy {pick}"
            );
            assert_eq!(
                Simulation::over(&nm_reader)
                    .config(config.clone())
                    .threads(threads)
                    .run()
                    .expect("merge-path sharded runs")
                    .report,
                resident,
                "merge sharded, size {size}, strategy {pick}"
            );
            assert_eq!(
                run(&multi_reader, &config).expect("fast-path serial runs"),
                resident,
                "fast serial, size {size}, strategy {pick}"
            );
            assert_eq!(
                Simulation::over(&multi_reader)
                    .config(config)
                    .threads(threads)
                    .run()
                    .expect("fast-path sharded runs")
                    .report,
                resident,
                "fast sharded, size {size}, strategy {pick}"
            );
        }

        // Telemetry: the multi-index file serves this size through its
        // matching index; the single-index file only matches at 60.
        let config = config_for(size, 2, StrategySpec::default_lfu());
        let fast = Simulation::over(&multi_reader)
            .config(config.clone())
            .run()
            .expect("fast-path telemetry run");
        assert!(
            fast.telemetry.fastpath,
            "multi-index replay at size {size} must take the fast path"
        );
        let merge = Simulation::over(&nm_reader)
            .config(config)
            .run()
            .expect("merge-path telemetry run");
        assert_eq!(
            merge.telemetry.fastpath,
            size == 60,
            "single-index replay matches only its own size"
        );
        // The flag reads the plan, and the plan reads the strategy: the
        // same matched file under a strategy that takes the feed is
        // decoded centrally, block by block.
        let coupled = Simulation::over(&multi_reader)
            .config(config_for(size, 2, strategy(4)))
            .run()
            .expect("feed-carrying telemetry run");
        assert_eq!(coupled.telemetry.strategy, "Global LFU");
        assert!(
            !coupled.telemetry.fastpath,
            "a global feed couples the shards at size {size}"
        );
        assert_eq!(fast.report, merge.report, "telemetry runs agree too");
    }
    std::fs::remove_file(&tm).ok();
    std::fs::remove_file(&nm).ok();
    std::fs::remove_file(&multi).ok();
}

fn hour_catalog(programs: u32) -> ProgramCatalog {
    (0..programs)
        .map(|_| ProgramInfo {
            length: SimDuration::from_hours(2),
            introduced_day: 0,
        })
        .collect()
}

fn rec(user: u32, program: u32, start: u64, dur: u64) -> SessionRecord {
    SessionRecord::new(
        UserId::new(user),
        ProgramId::new(program),
        SimTime::from_secs(start),
        SimDuration::from_secs(dur),
    )
}

/// An empty trace replays to an empty report through every path — the
/// streaming record supplies must handle zero chunks.
#[test]
fn empty_trace_streams_to_an_empty_report() {
    let trace = Trace::new(Vec::new(), hour_catalog(4), 50, 2).expect("empty trace is valid");
    let config = config_for(25, 1, StrategySpec::default_lfu());
    let resident = run(&trace, &config).expect("resident empty run");
    assert_eq!(resident.sessions, 0);
    assert_eq!(resident.segment_requests, 0);
    let streamed = run(&ChunkedTrace::new(&trace, 8), &config).expect("streaming empty run");
    assert_eq!(streamed, resident);
    let sharded = Simulation::over(&ChunkedTrace::new(&trace, 8))
        .config(config)
        .threads(2)
        .run()
        .expect("sharded empty run");
    assert_eq!(sharded.report, resident);
}

/// Sessions whose continuation events outlive their chunk — including a
/// session spanning *every* later chunk — replay identically from
/// one-record chunks, in memory and from a one-record-chunk columnar file.
#[test]
fn sessions_straddling_chunk_boundaries_replay_exactly() {
    // User 0 watches two full hours: its segment continuations stay in the
    // heap while every later record (in later one-record chunks) arrives.
    let records = vec![
        rec(0, 0, 1_000, 7_200),
        rec(1, 1, 1_060, 600),
        rec(2, 2, 1_500, 1_800),
        rec(3, 1, 2_400, 900),
        rec(4, 3, 6_000, 3_600),
    ];
    let trace = Trace::new(records, hour_catalog(4), 5, 1).expect("valid trace");
    let config = config_for(3, 1, StrategySpec::default_lfu()).with_warmup_days(0);
    let resident = run(&trace, &config).expect("resident runs");
    assert_eq!(resident.sessions, 5);

    // One record per chunk: every session with >1 segment straddles.
    let single = ChunkedTrace::new(&trace, 1);
    assert_eq!(single.chunk_count(), 5);
    let streamed = run(&single, &config).expect("single-record chunks run");
    assert_eq!(streamed, resident);
    let sharded = Simulation::over(&single)
        .config(config.clone())
        .threads(2)
        .run()
        .expect("sharded single-record chunks run");
    assert_eq!(sharded.report, resident);

    // Same from disk, chunk size 1.
    let mut path = std::env::temp_dir();
    path.push(format!("cvtc_straddle_{}.cvtc", std::process::id()));
    write_trace(&path, &trace, 1).expect("write single-record chunks");
    let reader = ColumnarReader::open(&path).expect("open");
    assert_eq!(reader.chunk_count(), 5);
    assert_eq!(run(&reader, &config).expect("disk replay"), resident);
    assert_eq!(
        Simulation::over(&reader)
            .config(config)
            .threads(2)
            .run()
            .expect("sharded disk replay")
            .report,
        resident
    );
    std::fs::remove_file(&path).ok();

    same_second_ties_replay_exactly_across_block_edges();
}

/// A start at 2^32 s, the first second an access event cannot carry, is
/// refused with the one named error wherever a record enters the engine —
/// `run`, a resident `Simulation`, a streamed `.cvtc` of
/// either layout on one worker and on two, and the online ingress —
/// under a strategy that keeps no events, one with a history ring and
/// one with a look-ahead. Never a panic, never a replay over a truncated
/// time; the last second below the horizon replays.
#[test]
fn a_start_past_the_event_horizon_fails_closed_on_every_path() {
    let horizon = AccessEvent::HORIZON.as_secs();
    let trace_at = |last: u64| {
        let records = vec![
            rec(0, 0, 1_000, 600),
            rec(1, 1, 2_000, 600),
            rec(2, 2, last, 600),
        ];
        Trace::new(records, hour_catalog(3), 4, 1).expect("valid trace")
    };
    let trace = trace_at(horizon);
    let refused = |what: &str, result: Result<(), SimError>| match result {
        Err(SimError::Cache(CacheError::BeyondHorizon { at })) => {
            assert_eq!(at.as_secs(), horizon, "{what}")
        }
        other => panic!("{what}: {other:?}"),
    };
    let dir = std::env::temp_dir();
    let tm = dir.join(format!("cvtc_horizon_tm_{}.cvtc", std::process::id()));
    let nm = dir.join(format!("cvtc_horizon_nm_{}.cvtc", std::process::id()));
    write_trace(&tm, &trace, 2).expect("a u64 start column carries it");
    let tm_reader = ColumnarReader::open(&tm).expect("open time-major");
    rechunk_by_neighborhood(&tm_reader, &nm, 2, 2).expect("rechunk");
    let nm_reader = ColumnarReader::open(&nm).expect("open neighborhood-major");
    for spec in [
        StrategySpec::NoCache,
        StrategySpec::default_lfu(),
        StrategySpec::default_oracle(),
    ] {
        let config = config_for(2, 1, spec).with_warmup_days(0);
        refused("reference", run(&trace, &config).map(drop));
        for source in [&trace as &dyn TraceSource, &tm_reader, &nm_reader] {
            for threads in [1, 2] {
                let replay = Simulation::over(source)
                    .config(config.clone())
                    .threads(threads);
                refused(&format!("{spec:?} on {threads}"), replay.run().map(drop));
            }
        }
        let spec_online = OnlineSpec::from_source(&trace);
        let online = serve_serial(&spec_online, &config, spec.factory().as_ref(), |engine| {
            for &rec in trace.records() {
                match engine.submit(rec) {
                    Ok(_) => {}
                    Err(err) => refused(&format!("{spec:?} online"), Err(err)),
                }
            }
            Ok(engine.submitted())
        });
        match online {
            // Only the two records below the horizon were taken.
            Ok((submitted, report)) => {
                assert_eq!((submitted, report.sessions), (2, 2), "{spec:?} online")
            }
            // The Oracle is handed the whole schedule when it is built.
            Err(err) => refused(&format!("{spec:?} online schedule"), Err(err)),
        }
        let last = trace_at(horizon - 1);
        assert_eq!(
            run(&last, &config).expect("in range").sessions,
            3,
            "{spec:?}"
        );
    }
    std::fs::remove_file(&tm).ok();
    std::fs::remove_file(&nm).ok();
}

/// Every path a run can take: `run`, a resident and a streamed
/// `Simulation` on one worker and on two, and the online engine.
fn every_path(trace: &Trace, config: &SimConfig) -> Vec<(String, Result<SimReport, SimError>)> {
    let mut outcomes = vec![("reference".to_string(), run(trace, config))];
    let chunked = ChunkedTrace::new(trace, 5);
    for (source, how) in [
        (trace as &dyn TraceSource, "resident"),
        (&chunked, "streamed"),
    ] {
        for threads in [1, 2] {
            let replay = Simulation::over(source)
                .config(config.clone())
                .threads(threads)
                .run();
            outcomes.push((format!("{how} on {threads}"), replay.map(|o| o.report)));
        }
    }
    let online = serve_trace(trace, config, config.strategy().factory().as_ref());
    outcomes.push(("online".to_string(), online));
    outcomes
}

/// A program's copies are named by `u16` segment indexes, so a catalog
/// program of more than `u16::MAX` copies (segments × replication) is
/// refused by name before any driver exists, on every path — never a
/// wrapped index, a "broken invariant" or an overflow panic. The repro:
/// one-second segments ten times over, which the synthetic catalog's
/// two-hour programs need 72 000 copies for; through a `.scn` spec the
/// cell fails with the same error and its sibling completes. The exact
/// edge, at replication 5 and at 1: a program of `u16::MAX` copies is
/// placed whole and replays alike on every path; one segment more is
/// refused.
#[test]
fn a_program_with_more_copies_than_an_index_counts_fails_closed_on_every_path() {
    let refused =
        |what: &str, outcome: Result<SimReport, SimError>, segments: &str, r: u8| match outcome {
            Err(SimError::Config { reason }) => assert!(
                reason.contains(&format!("has {segments} segments of 1 s"))
                    && reason.contains(&format!("at replication {r}"))
                    && reason.contains("more than the 65535 an index counts"),
                "{what}: {reason}"
            ),
            other => panic!("{what}: {other:?}"),
        };
    let trace = generate(&tiny_config(300, 40, 2, 7));
    let config = config_for(100, 2, StrategySpec::default_lfu())
        .with_segment_len(SimDuration::from_secs(1))
        .with_replication(10);
    let segments = trace
        .catalog()
        .iter()
        .map(|(_, info)| info.length.as_secs())
        .find(|&secs| secs * 10 > 65_535)
        .expect("a program too long")
        .to_string();
    for (what, outcome) in every_path(&trace, &config) {
        refused(&what, outcome, &segments, 10);
    }

    let spec = "name = overflow\nthreads = serial\n\n\
                [source]\nkind = synth\npreset = smoke_test\nusers = 300\nprograms = 40\n\
                days = 2\nseed = 7\n\n\
                [config]\nstrategy = lfu\nneighborhood_size = 100\nsegment_len_secs = 1\n\n\
                [series]\nTen = replication=10\nOne = replication=1\n";
    let scenario = Scenario::from_spec_str(spec).expect("the spec parses");
    let options = ResilienceOptions {
        keep_going: true,
        ..ResilienceOptions::default()
    };
    let grid = scenario
        .execute_resilient(&StrategyRegistry::builtin(), &options, &|_| {})
        .expect("the grid survives the refused cell");
    match &grid.cells[0].result {
        CellResult::Failed { error, .. } => refused(
            ".scn",
            Err(SimError::Config {
                reason: error.clone(),
            }),
            &segments,
            10,
        ),
        other => panic!("the overflowing cell did not fail: {other:?}"),
    }
    assert!(
        matches!(&grid.cells[1].result, CellResult::Completed { .. }),
        "{:?}",
        grid.cells[1].result
    );

    for (replication, fits) in [(5u8, 13_107u64), (1, 65_535)] {
        let trace_of = |secs: u64| {
            let catalog = [ProgramInfo {
                length: SimDuration::from_secs(secs),
                introduced_day: 0,
            }]
            .into_iter()
            .collect();
            let records = vec![
                rec(0, 0, 1_000, 900),
                rec(1, 0, 1_200, 600),
                rec(2, 0, 1_450, 12_000),
                rec(3, 0, 5_000, 300),
            ];
            Trace::new(records, catalog, 4, 1).expect("valid trace")
        };
        let config = config_for(4, 20, StrategySpec::default_lfu())
            .with_warmup_days(0)
            .with_segment_len(SimDuration::from_secs(1))
            .with_replication(replication);
        let edge = trace_of(fits);
        let reference = run(&edge, &config).expect("the largest program that fits replays");
        assert_eq!(reference.cache.admissions, 1, "replication {replication}");
        assert!(reference.cache.hits > 0, "replication {replication}");
        for (what, outcome) in every_path(&edge, &config) {
            assert_eq!(
                outcome.expect(&what),
                reference,
                "{what}, replication {replication}"
            );
        }
        let past = (fits + 1).to_string();
        for (what, outcome) in every_path(&trace_of(fits + 1), &config) {
            refused(&what, outcome, &past, replication);
        }
    }
}

/// A trace built to put ties on block edges: every session starts on a
/// multiple of the five-minute segment length and lasts a whole number of
/// segments, five sessions a wave, so each wave's start second is also
/// the second every earlier, still-running session of the neighborhood
/// has a continuation due — and chunks of one, two or three records cut
/// every wave in two. Records sort ahead of continuations at an equal
/// second; a shard parked at a block's edge must hold such a continuation
/// back for the records the next block may still bring. Six half-hour
/// programs over caches that hold four keep admissions, evictions and
/// hits frequent, so processing one tie in the wrong order changes the
/// report (checked by flipping the edge comparison in
/// `SessionDriver::step`).
fn same_second_trace() -> Trace {
    let mut records = Vec::new();
    let mut x = 0x2007_u64;
    for wave in 0..24u64 {
        for _ in 0..5 {
            x = x
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            let user = ((x >> 33) % 12) as u32;
            let program = ((x >> 40) % 6) as u32;
            let segments = 1 + (x >> 50) % 6;
            records.push(rec(user, program, 900 + wave * 300, segments * 300));
        }
    }
    let catalog = (0..6)
        .map(|_| ProgramInfo {
            length: SimDuration::from_minutes(30),
            introduced_day: 0,
        })
        .collect();
    Trace::new(records, catalog, 12, 1).expect("valid trace")
}

/// The tie-break at block edges, swept: chunk sizes 1, 2, 3 and 64, in
/// memory and from a `.cvtc`, on one worker and on two, and online —
/// advanced to the second before each new second's first submission, so
/// every wave's continuations wait at an advanced horizon for the wave's
/// sessions — for every registry strategy under counting and enforcing
/// admission over a seeded fault plan, each equal to the resident run.
fn same_second_ties_replay_exactly_across_block_edges() {
    let trace = same_second_trace();
    let faults = FaultPlan::seeded(11, 3, SimDuration::from_secs(6_000), 3, 2);
    let registry = StrategyRegistry::builtin();
    for name in registry.names() {
        let factory = registry.resolve(name).expect("a registry strategy");
        for admission in [AdmissionMode::Counting, AdmissionMode::Enforcing] {
            let config = SimConfig::paper_default()
                .with_neighborhood_size(4)
                .with_per_peer_storage(DataSize::from_gigabytes(1))
                .with_warmup_days(0)
                .with_faults(faults.clone())
                .with_admission(admission)
                .with_retry(RetryPolicy::paper_default());
            let replay = |source: &dyn TraceSource, threads: Option<usize>| {
                let sim = Simulation::over(source)
                    .config(config.clone())
                    .strategy_named(name);
                match threads {
                    None => sim.serial(),
                    Some(n) => sim.threads(n),
                }
                .run()
                .expect("replay runs")
                .report
            };
            let resident = replay(&trace, None);
            assert_eq!(resident.sessions, 120);
            assert!(
                name == "no-cache" || resident.cache.hits > 0,
                "{name}: a replay with no hits cannot tell event orders apart"
            );
            let online =
                serve_trace(&trace, &config, factory.as_ref()).expect("online replay runs");
            assert_eq!(online, resident, "online: {name}, {admission:?}");
            for chunk in [1u32, 2, 3, 64] {
                let mut path = std::env::temp_dir();
                path.push(format!("cvtc_ties_{}_{chunk}.cvtc", std::process::id()));
                write_trace(&path, &trace, chunk).expect("write time-major");
                let reader = ColumnarReader::open(&path).expect("open");
                let chunked = ChunkedTrace::new(&trace, chunk as usize);
                for threads in [None, Some(2)] {
                    let what = format!("{name}, {admission:?}, chunk {chunk}, {threads:?}");
                    assert_eq!(replay(&chunked, threads), resident, "in memory: {what}");
                    assert_eq!(replay(&reader, threads), resident, "from disk: {what}");
                }
                std::fs::remove_file(&path).ok();
            }
        }
    }
}

/// The lifecycle's continuation queue appends a push that arrives in key
/// order and falls back to a heap for the rest. This trace makes the rest
/// common: three sessions in ten seek to a jump point two minutes apart,
/// so a first segment is often cut short and its continuation falls due
/// ahead of ones already queued, and a seeded fault plan's outages make
/// enforcing admission schedule backoff retries. Under every registry
/// strategy and both admission modes, `run`, a resident and a streamed
/// `Simulation` on one worker and on two, and the online engine all
/// agree.
#[test]
fn unaligned_seeks_and_retries_replay_exactly_on_every_path() {
    let trace = generate(&SynthConfig {
        seek_prob: 0.3,
        seek_boundary_secs: 120,
        ..tiny_config(600, 20, 1, 29)
    });
    assert!(trace
        .records()
        .iter()
        .any(|r| r.offset.as_secs() % 300 != 0));
    let faults = FaultPlan::seeded(13, 2, SimDuration::from_days(1), 10, 4);
    let mut retries = 0;
    for pick in 0..9 {
        for admission in [AdmissionMode::Counting, AdmissionMode::Enforcing] {
            let config = config_for(300, 1, strategy(pick))
                .with_warmup_days(0)
                .with_faults(faults.clone())
                .with_admission(admission)
                .with_retry(RetryPolicy::paper_default());
            let reference = run(&trace, &config).expect("reference runs");
            assert_eq!(reference.sessions, trace.len() as u64);
            retries += reference.degradation.as_ref().map_or(0, |d| d.retries);
            for (what, outcome) in every_path(&trace, &config) {
                let what = format!("{what}: {:?}, {admission:?}", strategy(pick));
                assert_eq!(outcome.expect(&what), reference, "{what}");
            }
        }
    }
    assert!(retries > 0, "enforcing admission scheduled no retry");
}

/// An LRU whose neighborhood 1 fails — with an error, or with a panic —
/// at its `fail_at`-th access: a shard failing part-way through a run,
/// on whichever block that access falls.
#[derive(Debug)]
struct FailingFactory {
    inner: Arc<dyn StrategyFactory>,
    fail_at: u32,
    panics: bool,
}

#[derive(Debug)]
struct FailingStrategy {
    inner: Box<dyn CacheStrategy>,
    accesses_left: Option<u32>,
    panics: bool,
}

impl StrategyFactory for FailingFactory {
    fn name(&self) -> &str {
        "failing-lru"
    }
    fn build(&self, ctx: StrategyContext) -> Result<Box<dyn CacheStrategy>, CacheError> {
        let accesses_left = (ctx.home.index() == 1).then_some(self.fail_at);
        Ok(Box::new(FailingStrategy {
            inner: self.inner.build(ctx)?,
            accesses_left,
            panics: self.panics,
        }))
    }
}

impl CacheStrategy for FailingStrategy {
    fn name(&self) -> &'static str {
        "failing-lru"
    }
    fn prepare(&mut self, _now: SimTime) -> Result<(), CacheError> {
        match self.accesses_left.as_mut() {
            Some(0) if self.panics => panic!("neighborhood 1 panics here"),
            Some(0) => Err(CacheError::Schedule {
                reason: "neighborhood 1 fails here".into(),
            }),
            Some(left) => {
                *left -= 1;
                Ok(())
            }
            None => Ok(()),
        }
    }
    fn on_access(&mut self, program: ProgramId, cost: u32, now: SimTime, ops: &mut Vec<CacheOp>) {
        self.inner.on_access(program, cost, now, ops);
    }
    fn contains(&self, program: ProgramId) -> bool {
        self.inner.contains(program)
    }
    fn cost_of(&self, program: ProgramId) -> Option<u32> {
        self.inner.cost_of(program)
    }
    fn used_slots(&self) -> u64 {
        self.inner.used_slots()
    }
    fn capacity_slots(&self) -> u64 {
        self.inner.capacity_slots()
    }
}

/// A shard failing inside a block fails the run closed: the decoder
/// feeds no further block, and the run returns the shard's own error at
/// every worker count. No panic, no hang, no partial report.
#[test]
fn a_shard_failing_inside_a_block_fails_the_run_closed() {
    let trace: Trace = generate(&tiny_config(300, 40, 4, 23));
    let config = config_for(60, 2, StrategySpec::Lru);
    for fail_at in [0u32, 7, 90] {
        for chunk in [1usize, 64] {
            let source = ChunkedTrace::new(&trace, chunk);
            for threads in [None, Some(2), Some(5)] {
                let sim = Simulation::over(&source)
                    .config(config.clone())
                    .strategy_factory(Arc::new(FailingFactory {
                        inner: StrategySpec::Lru.factory(),
                        fail_at,
                        panics: false,
                    }));
                let err = match threads {
                    None => sim.serial(),
                    Some(n) => sim.threads(n),
                }
                .run()
                .expect_err("the failing shard fails the run");
                assert!(
                    matches!(&err, SimError::Cache(CacheError::Schedule { reason })
                        if reason == "neighborhood 1 fails here"),
                    "fail_at {fail_at}, chunk {chunk}, threads {threads:?}: {err}"
                );
            }
        }
    }
}

/// An LRU that looks a day ahead and whose neighborhoods `homes` each
/// fail at their `fail_at`-th look-ahead hand-over. Every live shard of
/// the blocked replay is handed its slice of each block's look-ahead at
/// the start of the block, so those shards all fail in the same block.
#[derive(Debug)]
struct FailingAheadFactory {
    homes: [u32; 2],
    fail_at: u32,
}

#[derive(Debug)]
struct FailingAheadStrategy {
    inner: Box<dyn CacheStrategy>,
    home: u32,
    hand_overs_left: Option<u32>,
}

impl StrategyFactory for FailingAheadFactory {
    fn name(&self) -> &str {
        "failing-ahead-lru"
    }
    fn schedule_lookahead(&self) -> Option<SimDuration> {
        Some(SimDuration::from_days(1))
    }
    fn build(&self, ctx: StrategyContext) -> Result<Box<dyn CacheStrategy>, CacheError> {
        let home = ctx.home.value();
        Ok(Box::new(FailingAheadStrategy {
            inner: StrategySpec::Lru.factory().build(ctx)?,
            home,
            hand_overs_left: self.homes.contains(&home).then_some(self.fail_at),
        }))
    }
}

impl CacheStrategy for FailingAheadStrategy {
    fn name(&self) -> &'static str {
        "failing-ahead-lru"
    }
    fn extend_schedule(&mut self, _: &[AccessEvent], _: SimTime) -> Result<(), CacheError> {
        match self.hand_overs_left.as_mut() {
            Some(0) => Err(CacheError::Schedule {
                reason: format!("neighborhood {} fails here", self.home),
            }),
            Some(left) => {
                *left -= 1;
                Ok(())
            }
            None => Ok(()),
        }
    }
    fn on_access(&mut self, program: ProgramId, cost: u32, now: SimTime, ops: &mut Vec<CacheOp>) {
        self.inner.on_access(program, cost, now, ops);
    }
    fn contains(&self, program: ProgramId) -> bool {
        self.inner.contains(program)
    }
    fn cost_of(&self, program: ProgramId) -> Option<u32> {
        self.inner.cost_of(program)
    }
    fn used_slots(&self) -> u64 {
        self.inner.used_slots()
    }
    fn capacity_slots(&self) -> u64 {
        self.inner.capacity_slots()
    }
}

/// Two shards failing in the same block: the run returns the
/// lowest-numbered neighborhood's error, whichever worker stepped which
/// shard first.
#[test]
fn two_shards_failing_in_one_block_return_the_lowest_neighborhoods_error() {
    let trace: Trace = generate(&tiny_config(300, 40, 4, 23));
    let config = config_for(60, 2, StrategySpec::Lru);
    for fail_at in [0u32, 3] {
        for chunk in [1usize, 64] {
            let source = ChunkedTrace::new(&trace, chunk);
            for threads in [None, Some(2), Some(5)] {
                let sim = Simulation::over(&source)
                    .config(config.clone())
                    .strategy_factory(Arc::new(FailingAheadFactory {
                        homes: [3, 1],
                        fail_at,
                    }));
                let err = match threads {
                    None => sim.serial(),
                    Some(n) => sim.threads(n),
                }
                .run()
                .expect_err("the failing shards fail the run");
                assert!(
                    matches!(&err, SimError::Cache(CacheError::Schedule { reason })
                        if reason == "neighborhood 1 fails here"),
                    "fail_at {fail_at}, chunk {chunk}, threads {threads:?}: {err}"
                );
            }
        }
    }
}

/// A shard *panicking* fails the run too, instead of hanging it, and its
/// own payload resumes on the caller's thread whichever worker ran it —
/// where the scenario layer's bulkhead turns it into that one cell's
/// `job panicked`. The same on every plan: the blocked replay, the
/// resident plan, and the fast path over a matched neighborhood-major
/// file. Driven from a second thread so that a run that never returns
/// fails this test on a timeout rather than hanging the suite.
#[test]
fn a_shard_panicking_inside_a_block_fails_the_run_instead_of_hanging_it() {
    let (done, watchdog) = mpsc::channel();
    std::thread::spawn(move || {
        let trace: Trace = generate(&tiny_config(300, 40, 4, 23));
        let config = config_for(60, 2, StrategySpec::Lru);
        let panicking = |fail_at| {
            Arc::new(FailingFactory {
                inner: StrategySpec::Lru.factory(),
                fail_at,
                panics: true,
            })
        };
        let mut tm = std::env::temp_dir();
        tm.push(format!("cvtc_panic_tm_{}.cvtc", std::process::id()));
        let mut nm = std::env::temp_dir();
        nm.push(format!("cvtc_panic_nm_{}.cvtc", std::process::id()));
        write_trace(&tm, &trace, 64).expect("write time-major");
        let tm_reader = ColumnarReader::open(&tm).expect("open time-major");
        rechunk_by_neighborhood(&tm_reader, &nm, 60, 64).expect("rechunk");
        let matched = ColumnarReader::open(&nm).expect("open neighborhood-major");
        let fast = Simulation::over(&matched)
            .config(config.clone())
            .run()
            .expect("an lru replay");
        assert!(fast.telemetry.fastpath, "the file matches the plant");
        let blocked: Vec<_> = [1usize, 64]
            .into_iter()
            .map(|chunk| {
                (
                    format!("blocked, chunk {chunk}"),
                    ChunkedTrace::new(&trace, chunk),
                )
            })
            .collect();
        let mut sources: Vec<(String, &dyn TraceSource)> = blocked
            .iter()
            .map(|(what, source)| (what.clone(), source as &dyn TraceSource))
            .collect();
        sources.push(("resident".into(), &trace));
        sources.push(("fast path".into(), &matched));
        for fail_at in [0u32, 7, 90] {
            for (what, source) in &sources {
                for threads in [None, Some(2), Some(5)] {
                    let sim = Simulation::over(*source)
                        .config(config.clone())
                        .strategy_factory(panicking(fail_at));
                    let sim = match threads {
                        None => sim.serial(),
                        Some(n) => sim.threads(n),
                    };
                    let payload = catch_unwind(AssertUnwindSafe(|| sim.run()))
                        .expect_err("the shard's panic reaches the caller");
                    assert_eq!(
                        payload.downcast_ref::<&str>(),
                        Some(&"neighborhood 1 panics here"),
                        "{what}, fail_at {fail_at}, threads {threads:?}"
                    );
                }
            }
        }
        std::fs::remove_file(&tm).ok();
        std::fs::remove_file(&nm).ok();

        // The same through a grid on two engine workers: the panicking
        // series' cell fails alone, its sibling completes.
        let mut registry = StrategyRegistry::builtin();
        registry.register("panicking-lru", panicking(7));
        let scenario = Scenario::new(
            "panicking-shard",
            SourceSpec::SynthDisk {
                synth: tiny_config(300, 40, 4, 23),
                chunk_records: 64,
                rechunk: Vec::new(),
            },
            config,
        )
        .with_threads(ThreadPolicy::Fixed(2))
        .with_series(vec![
            AxisPoint::new("Panics").with_strategy_named("panicking-lru"),
            AxisPoint::new("LRU").with_strategy(StrategySpec::Lru),
        ]);
        let options = ResilienceOptions {
            keep_going: true,
            ..ResilienceOptions::default()
        };
        let grid = scenario
            .execute_resilient(&registry, &options, &|_| {})
            .expect("the grid survives a panicking cell");
        match &grid.cells[0].result {
            CellResult::Failed { error, .. } => assert_eq!(
                error, "job panicked: neighborhood 1 panics here",
                "the bulkhead names the panic"
            ),
            other => panic!("the panicking cell did not fail: {other:?}"),
        }
        assert!(
            matches!(&grid.cells[1].result, CellResult::Completed { outcome, .. }
                if outcome.report.sessions > 0),
            "the sibling cell completes: {:?}",
            grid.cells[1].result
        );
        done.send(()).expect("the watchdog is still listening");
    });
    watchdog
        .recv_timeout(Duration::from_secs(120))
        .expect("a panicking shard hung the run (timeout) or an assertion above failed");
}
