//! Engine throughput benches: simulated sessions per second for each
//! strategy (on one worker, sharded-parallel, and out-of-core streaming
//! from a columnar disk trace), plus workload generation and trace
//! scaling.
//!
//! Rows run through the [`Simulation`] builder — the public front door —
//! which replays per neighborhood at every worker count, so
//! `engine/{no_cache,lru,lfu,oracle}` are the one-worker rows of
//! `engine_parallel/threads/N`.
//!
//! Set `BENCH_JSON=BENCH_engine.json` to append one JSON line per
//! measurement — CI uses this to track the one-worker / parallel /
//! streaming throughput trajectory.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

use std::hint::black_box;
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;
use std::time::{Duration, Instant};

use cablevod_cache::{
    CacheStrategy, IndexServer, PlacementPolicy, SlotLedger, StrategySpec, WindowedLfu,
};
use cablevod_hfc::ids::{NeighborhoodId, ProgramId};
use cablevod_hfc::plant::Plant;
use cablevod_hfc::segment::Segmenter;
use cablevod_hfc::topology::{Topology, TopologyConfig};
use cablevod_hfc::units::{DataSize, SimDuration, SimTime};
use cablevod_serve::clock::{AcceleratedClock, ClockSource};
use cablevod_serve::replay::{replay_trace, DecisionTier};
use cablevod_serve::server::{Server, ServerConfig};
use cablevod_sim::engine::online::{serve_serial, OnlineSpec};
use cablevod_sim::{SimConfig, Simulation};
use cablevod_trace::checksum::crc32;
use cablevod_trace::columnar::{ColumnarReader, DEFAULT_CHUNK_SIZE};
use cablevod_trace::rechunk::{neighborhood_groups, rechunk_by_neighborhood, rechunk_multi_index};
use cablevod_trace::record::Trace;
use cablevod_trace::scale;
use cablevod_trace::source::TraceSource;
use cablevod_trace::synth::{generate, generate_to_disk, SynthConfig};

/// The shared bench workload: ~1,500 users over 6 days — large enough for
/// caches and quantiles to be meaningful, small enough for Criterion.
/// The paper-scale sweeps are spec files (`scenarios/paper/`) that the
/// `cablevod-scenario` bin runs.
fn bench_trace() -> &'static Trace {
    static TRACE: OnceLock<Trace> = OnceLock::new();
    TRACE.get_or_init(|| {
        generate(&SynthConfig {
            users: 1_500,
            programs: 400,
            days: 6,
            ..SynthConfig::powerinfo()
        })
    })
}

fn engine_throughput(c: &mut Criterion) {
    let trace = bench_trace();
    let mut group = c.benchmark_group("engine");
    group.sample_size(10);
    group.throughput(Throughput::Elements(trace.len() as u64));
    let base = SimConfig::paper_default()
        .with_neighborhood_size(500)
        .with_per_peer_storage(DataSize::from_gigabytes(2))
        .with_warmup_days(3);
    for (name, spec) in [
        ("no_cache", StrategySpec::NoCache),
        ("lru", StrategySpec::Lru),
        ("lfu", StrategySpec::default_lfu()),
        ("oracle", StrategySpec::default_oracle()),
    ] {
        let config = base.clone().with_strategy(spec);
        group.bench_function(name, |b| {
            b.iter(|| {
                Simulation::over(trace)
                    .config(config.clone())
                    .run()
                    .expect("runs")
            })
        });
    }
    group.finish();
}

/// `WindowedLfu::on_access` alone, replayed with the bench trace's own
/// per-neighborhood access sequences and costs (one strategy instance
/// per neighborhood, as the engine builds them) — the layer row under
/// `engine/lfu`. The default 7-day window outlasts the 6-day trace, so
/// `lfu_on_access` is record + rebalance only; `lfu_on_access_window_1d`
/// also drives `expire` and the repair of lazily filed cached scores.
fn lfu_on_access(c: &mut Criterion) {
    let trace = bench_trace();
    let config = SimConfig::paper_default()
        .with_neighborhood_size(500)
        .with_per_peer_storage(DataSize::from_gigabytes(2));
    let groups = neighborhood_groups(trace.user_count(), config.neighborhood_size())
        .expect("valid neighborhood size");
    let segmenter = Segmenter::new(config.segment_len(), config.stream_rate());
    let costs: Vec<u32> = trace
        .catalog()
        .iter()
        .map(|(_, info)| segmenter.segment_count(info.length))
        .collect();
    let nbhds = groups.iter().copied().max().map_or(0, |g| g as usize + 1);
    let mut accesses: Vec<Vec<(SimTime, ProgramId)>> = vec![Vec::new(); nbhds];
    for rec in trace.records() {
        accesses[groups[rec.user.index()] as usize].push((rec.start, rec.program));
    }
    let nominal = config.stream_rate() * config.segment_len();
    let capacity = config.per_peer_storage().as_bits() / nominal.as_bits()
        * u64::from(config.neighborhood_size());

    let mut group = c.benchmark_group("cache");
    group.sample_size(10);
    group.throughput(Throughput::Elements(trace.len() as u64));
    for (name, history) in [
        ("lfu_on_access", SimDuration::from_days(7)),
        ("lfu_on_access_window_1d", SimDuration::from_days(1)),
    ] {
        group.bench_function(name, |b| {
            b.iter(|| {
                let mut ops = Vec::new();
                let mut probes = 0;
                for sequence in &accesses {
                    let mut lfu = WindowedLfu::new(capacity, history);
                    for &(now, program) in sequence {
                        lfu.on_access(program, costs[program.index()], now, &mut ops);
                        ops.clear();
                    }
                    probes += lfu.candidate_probes();
                }
                black_box(probes)
            })
        });
    }
    group.finish();
}

/// What an admission and an eviction cost below the strategy: the slot
/// ledger's place / release and the boxes' store / delete. One
/// neighborhood's accesses from the bench trace through an [`IndexServer`]
/// under `tlru:30m`, whose half-hour time-to-use keeps the cache mostly
/// empty and churning — the run the ledger's bookkeeping has to stay fixed
/// under. Elements are the admissions and evictions executed, so the row
/// reads as ops per second; the strategy's own bookkeeping rides along.
fn admit_evict_churn(c: &mut Criterion) {
    let trace = bench_trace();
    let home = NeighborhoodId::new(0);
    let topo = Topology::build(
        TopologyConfig::new(trace.user_count(), 500)
            .with_per_peer_storage(DataSize::from_gigabytes(2)),
    )
    .expect("valid topology");
    let segmenter = Segmenter::paper_default();
    let nominal = segmenter.stream_rate() * segmenter.segment_len();
    let slots = (topo.config().per_peer_storage().as_bits() / nominal.as_bits()) as u32;
    let members = topo.neighborhood(home).expect("exists").members();
    let accesses: Vec<(SimTime, ProgramId, SimDuration)> = trace
        .records()
        .iter()
        .filter(|rec| topo.neighborhood_of_user(rec.user).expect("a subscriber") == home)
        .map(|rec| {
            let length = trace.catalog().length(rec.program).expect("cataloged");
            (rec.start, rec.program, length)
        })
        .collect();
    let replay = || {
        let ledger = SlotLedger::new(
            members.iter().map(|&p| (p, slots)),
            PlacementPolicy::Balanced,
        );
        let strategy = StrategySpec::parse("tlru:30m")
            .expect("a built-in")
            .build(ledger.total_slots(), home, None)
            .expect("needs no schedule");
        let mut index = IndexServer::new(home, strategy, segmenter, ledger);
        let mut plant = Plant::over(&topo, home).expect("in range");
        for &(now, program, length) in &accesses {
            index
                .on_program_access(program, length, now, &mut plant)
                .expect("placement holds");
        }
        index.stats().admissions + index.stats().evictions
    };

    let mut group = c.benchmark_group("cache");
    group.sample_size(10);
    group.throughput(Throughput::Elements(replay()));
    group.bench_function("admit_evict_churn", |b| b.iter(|| black_box(replay())));
    group.finish();
}

/// The sharded engine on the same workload and config as the serial
/// `engine` group, so `engine/lfu` vs `engine_parallel/threads/1` is what
/// sharding alone costs or buys (ROADMAP item 4(b)) and `threads/2` adds
/// the host's second core; wider pools are flat by construction here.
fn engine_parallel_throughput(c: &mut Criterion) {
    let trace = bench_trace();
    let mut group = c.benchmark_group("engine_parallel");
    group.sample_size(10);
    group.throughput(Throughput::Elements(trace.len() as u64));
    let config = SimConfig::paper_default()
        .with_neighborhood_size(500)
        .with_per_peer_storage(DataSize::from_gigabytes(2))
        .with_warmup_days(3);
    // One worker is `engine/lfu`.
    group.bench_function(BenchmarkId::new("threads", 2), |b| {
        b.iter(|| {
            Simulation::over(trace)
                .config(config.clone())
                .threads(2)
                .run()
                .expect("runs")
        })
    });
    group.finish();
}

/// The out-of-core pipeline: traces are generated straight to disk in the
/// columnar chunked format at 10x and 50x the in-memory bench user count,
/// then replayed through the streaming engine (on one worker and on four)
/// with resident memory bounded by chunk size plus session concurrency — the
/// workloads this group runs never exist as an in-memory `Trace` at all.
fn engine_streaming_throughput(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine_streaming");
    let config = SimConfig::paper_default()
        .with_neighborhood_size(500)
        .with_per_peer_storage(DataSize::from_gigabytes(2))
        .with_warmup_days(3);
    // (label, user-count multiple of the in-memory bench workload).
    // Sample size stays at upstream criterion's minimum of 10 so the
    // vendored stand-in can be swapped back without source changes.
    for (scale_label, users) in [("10x", 15_000u32), ("50x", 75_000)] {
        let mut path = std::env::temp_dir();
        path.push(format!(
            "cvtc_bench_{}_{scale_label}.cvtc",
            std::process::id()
        ));
        generate_to_disk(
            &SynthConfig {
                users,
                programs: 400,
                days: 6,
                ..SynthConfig::powerinfo()
            },
            &path,
            DEFAULT_CHUNK_SIZE,
        )
        .expect("disk workload generated");
        let reader = ColumnarReader::open(&path).expect("columnar file opens");
        group.sample_size(10);
        group.throughput(Throughput::Elements(reader.record_count()));
        group.bench_function(BenchmarkId::new("serial_disk", scale_label), |b| {
            b.iter(|| {
                Simulation::over(&reader)
                    .config(config.clone())
                    .run()
                    .expect("runs")
            })
        });
        group.bench_function(BenchmarkId::new("parallel_disk_4", scale_label), |b| {
            b.iter(|| {
                Simulation::over(&reader)
                    .config(config.clone())
                    .threads(4)
                    .run()
                    .expect("runs")
            })
        });
        // The windowed Oracle from disk: each iteration pays the honest
        // full cost of a streaming Oracle run — the look-ahead cursor's
        // pass over the file beside the replay's, through bounded
        // ScheduleWindows. 10x scale only; the CI smoke gate requires
        // this row.
        if scale_label == "10x" {
            let oracle_config = config.clone().with_strategy(StrategySpec::default_oracle());
            group.bench_function(BenchmarkId::new("oracle_windowed", scale_label), |b| {
                b.iter(|| {
                    Simulation::over(&reader)
                        .config(oracle_config.clone())
                        .run()
                        .expect("runs")
                })
            });
        }
        // The neighborhood-major replay of the same workload: re-chunked
        // once at import, then each shard decodes only its own chunks and
        // streams its neighborhood end to end. Both layouts decode each
        // chunk once; `parallel_disk_4` vs `parallel_nbhd_major_4` is what
        // is left between a block's worth of a neighborhood at a stretch
        // (every shard's state live for the whole run) and all of it
        // (a finished shard's state dropped).
        let mut nm_path = std::env::temp_dir();
        nm_path.push(format!(
            "cvtc_bench_nm_{}_{scale_label}.cvtc",
            std::process::id()
        ));
        rechunk_by_neighborhood(&reader, &nm_path, 500, DEFAULT_CHUNK_SIZE)
            .expect("neighborhood-major rechunk");
        let nm_reader = ColumnarReader::open(&nm_path).expect("rechunked file opens");
        group.bench_function(
            BenchmarkId::new("parallel_nbhd_major_4", scale_label),
            |b| {
                b.iter(|| {
                    Simulation::over(&nm_reader)
                        .config(config.clone())
                        .threads(4)
                        .run()
                        .expect("runs")
                })
            },
        );
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(&nm_path).ok();
    }
    group.finish();
}

/// The CRC-32 kernel alone over one 1 MiB buffer — the checksum every
/// chunk write and every first (mmap) or every (pread) chunk fetch pays.
/// Throughput is bytes.
fn checksum_throughput(c: &mut Criterion) {
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    let bytes: Vec<u8> = (0..1 << 20)
        .map(|_| {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1);
            (state >> 56) as u8
        })
        .collect();
    let mut group = c.benchmark_group("checksum");
    group.sample_size(50);
    group.throughput(Throughput::Bytes(bytes.len() as u64));
    group.bench_function("crc32_1mib", |b| b.iter(|| crc32(black_box(&bytes))));
    group.finish();
}

/// The chunk-decode layer in isolation, on a 50x-class on-disk workload:
/// every chunk of the file fetched and column-decoded through each
/// backing. `mmap_decode` borrows column bytes straight out of the
/// mapping and validates each chunk's CRC once (the per-chunk memo), so
/// after its first iteration it times decode alone; `mmap_first_fetch`
/// opens a fresh reader every iteration and so pays every chunk's CRC
/// once, as a one-shot replay does; `pread_decode` is the portable
/// fallback — a buffered positioned read plus CRC per fetch. The pairs are
/// the zero-copy win and the verification cost with no simulation work
/// in the numerator.
fn chunk_decode_throughput(c: &mut Criterion) {
    let mut path = std::env::temp_dir();
    path.push(format!("cvtc_bench_decode_{}.cvtc", std::process::id()));
    generate_to_disk(
        &SynthConfig {
            users: 75_000,
            programs: 400,
            days: 6,
            ..SynthConfig::powerinfo()
        },
        &path,
        DEFAULT_CHUNK_SIZE,
    )
    .expect("disk workload generated");

    let mut group = c.benchmark_group("decode");
    group.sample_size(10);
    let sweep = |reader: &ColumnarReader| {
        let mut buf = Vec::new();
        let mut records = 0u64;
        for chunk in 0..reader.chunk_count() {
            reader.read_chunk(chunk, &mut buf).expect("chunk decodes");
            records += buf.len() as u64;
        }
        assert_eq!(records, reader.record_count(), "full file decoded");
    };
    let mmap_reader = ColumnarReader::open(&path).expect("mmap-backed open");
    group.throughput(Throughput::Elements(mmap_reader.record_count()));
    group.bench_function("mmap_decode", |b| b.iter(|| sweep(&mmap_reader)));
    group.bench_function("mmap_first_fetch", |b| {
        b.iter(|| sweep(&ColumnarReader::open(&path).expect("mmap-backed open")))
    });
    let pread_reader = ColumnarReader::open_pread(&path).expect("pread-backed open");
    group.bench_function("pread_decode", |b| b.iter(|| sweep(&pread_reader)));
    group.finish();
    std::fs::remove_file(&path).ok();
}

/// Neighborhood-size sweeps over one on-disk workload (10x scale): the
/// multi-index file serves **every** swept size through its own chunk
/// index (sharded fast path, each chunk decoded once per cell run), while
/// the single-index file — rechunked for just one of the sizes, the
/// pre-multi-index workflow — serves the foreign size through the blocked
/// replay, its runs merged back into global order by the central decoder.
/// `sweep_fastpath` vs `sweep_merge` is the wall-clock win of carrying
/// per-size indexes over shared columns.
fn engine_sweep_throughput(c: &mut Criterion) {
    const SIZES: [u32; 2] = [300, 500];
    let mut path = std::env::temp_dir();
    path.push(format!("cvtc_bench_sweep_{}.cvtc", std::process::id()));
    generate_to_disk(
        &SynthConfig {
            users: 15_000,
            programs: 400,
            days: 6,
            ..SynthConfig::powerinfo()
        },
        &path,
        DEFAULT_CHUNK_SIZE,
    )
    .expect("disk workload generated");
    let reader = ColumnarReader::open(&path).expect("columnar file opens");
    let mut multi_path = std::env::temp_dir();
    multi_path.push(format!("cvtc_bench_sweep_mi_{}.cvtc", std::process::id()));
    rechunk_multi_index(&reader, &multi_path, &SIZES, DEFAULT_CHUNK_SIZE)
        .expect("multi-index rechunk");
    let mut single_path = std::env::temp_dir();
    single_path.push(format!("cvtc_bench_sweep_si_{}.cvtc", std::process::id()));
    rechunk_by_neighborhood(&reader, &single_path, SIZES[1], DEFAULT_CHUNK_SIZE)
        .expect("single-index rechunk");
    let multi_reader = ColumnarReader::open(&multi_path).expect("multi-index opens");
    let single_reader = ColumnarReader::open(&single_path).expect("single-index opens");

    let mut group = c.benchmark_group("engine_sweep");
    group.sample_size(10);
    group.throughput(Throughput::Elements(
        reader.record_count() * SIZES.len() as u64,
    ));
    let base = SimConfig::paper_default()
        .with_per_peer_storage(DataSize::from_gigabytes(2))
        .with_warmup_days(3);
    let sweep = |source: &ColumnarReader, expect_fast: &[bool]| {
        for (&size, &fast) in SIZES.iter().zip(expect_fast) {
            let outcome = Simulation::over(source)
                .config(base.clone().with_neighborhood_size(size))
                .threads(4)
                .run()
                .expect("sweep cell runs");
            assert_eq!(outcome.telemetry.fastpath, fast, "size {size}");
        }
    };
    group.bench_function("sweep_fastpath", |b| {
        b.iter(|| sweep(&multi_reader, &[true, true]))
    });
    group.bench_function("sweep_merge", |b| {
        b.iter(|| sweep(&single_reader, &[false, true]))
    });
    group.finish();
    std::fs::remove_file(&path).ok();
    std::fs::remove_file(&multi_path).ok();
    std::fs::remove_file(&single_path).ok();
}

fn workload_generation(c: &mut Criterion) {
    let config = SynthConfig {
        users: 1_500,
        programs: 400,
        days: 6,
        ..SynthConfig::powerinfo()
    };
    let mut group = c.benchmark_group("generation");
    group.sample_size(10);
    group.throughput(Throughput::Elements(config.expected_sessions() as u64));
    group.bench_function("synthesize_trace", |b| b.iter(|| generate(&config)));
    // The import path: the same trace generated straight to a time-major
    // file (generation plus encode, checksum and write), and that file
    // rechunked neighborhood-major (decode and verify, then encode,
    // checksum and write again).
    let dir = std::env::temp_dir();
    let time_major = dir.join(format!("cvtc_bench_gen_{}.cvtc", std::process::id()));
    let nbhd_major = dir.join(format!("cvtc_bench_gen_nm_{}.cvtc", std::process::id()));
    group.bench_function("to_disk", |b| {
        b.iter(|| generate_to_disk(&config, &time_major, DEFAULT_CHUNK_SIZE).expect("writes"))
    });
    let reader = ColumnarReader::open(&time_major).expect("generated file opens");
    group.throughput(Throughput::Elements(reader.record_count()));
    group.bench_function("rechunk", |b| {
        b.iter(|| {
            rechunk_by_neighborhood(&reader, &nbhd_major, 500, DEFAULT_CHUNK_SIZE)
                .expect("rechunks")
        })
    });
    drop(reader);
    std::fs::remove_file(&time_major).ok();
    std::fs::remove_file(&nbhd_major).ok();
    group.throughput(Throughput::Elements(config.expected_sessions() as u64));
    let trace = bench_trace();
    group.bench_function("scale_users_x3", |b| {
        b.iter(|| scale::scale_users(trace, 3, 1).expect("valid factor"))
    });
    group.bench_function("scale_catalog_x3", |b| {
        b.iter(|| scale::scale_catalog(trace, 3, 1).expect("valid factor"))
    });
    group.finish();
}

/// One millisecond of wall time is one simulated second: the decision
/// tier advances a thousand times a second, as in the repo benchmark.
struct MillisClock(Instant);

impl ClockSource for MillisClock {
    fn now(&mut self) -> SimTime {
        SimTime::from_secs(u64::try_from(self.0.elapsed().as_millis()).unwrap_or(u64::MAX))
    }

    fn wait_until(&mut self, t: SimTime) {
        while self.now() < t {
            std::thread::sleep(Duration::from_micros(200));
        }
    }
}

/// Times one request/reply ping-pong, `request(i)` on the `i`-th call,
/// against an otherwise idle [`Server`] on a Unix socket paced by
/// `clock`.
fn socket_roundtrip(
    c: &mut Criterion,
    bench: &str,
    config: &SimConfig,
    mut clock: impl ClockSource + Send,
    request: impl Fn(u32) -> String,
) {
    let trace = bench_trace();
    let path = std::env::temp_dir().join(format!(
        "cablevod-engine-{bench}-{}.sock",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&path);
    let server = Server::unix(&path).expect("bind unix socket");
    let term = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let term = &term;
        let served = scope.spawn(move || {
            serve_serial(
                &OnlineSpec::from_source(trace),
                config,
                config.strategy().factory().as_ref(),
                |engine| server.run(engine, &mut clock, term, &ServerConfig::default()),
            )
        });
        let mut stream = UnixStream::connect(&path).expect("connect");
        let mut reader = BufReader::new(stream.try_clone().expect("clone stream"));
        let mut reply = String::new();
        let mut sent = 0;
        let mut group = c.benchmark_group("serve");
        group.sample_size(1000);
        group.throughput(Throughput::Elements(1));
        group.bench_function(bench, |b| {
            b.iter(|| {
                stream.write_all(request(sent).as_bytes()).expect("send");
                sent += 1;
                reply.clear();
                reader.read_line(&mut reply).expect("reply")
            })
        });
        group.finish();
        term.store(true, Ordering::SeqCst);
        served.join().expect("server thread").expect("serve run");
    });
    let _ = std::fs::remove_file(&path);
}

/// The online tier under an accelerated clock: sustained requests/sec
/// through the full serve path (ingress stamping, feed publication,
/// cooperative stepping), plus the per-session decision-latency p99 from
/// one instrumented replay — the two rows ROADMAP item 2 trends next to
/// offline sessions/sec — and the two rows that go through the socket,
/// ns a round trip with an idle [`Server`] (two wake-ups, framing, the
/// reply flush): `socket_roundtrip`, a `LOOKUP` through the response
/// cache, and `session_roundtrip`, a `SESSION` through `submit` under a
/// clock that ticks every millisecond — the row that shows whether a
/// session start waits for the tick.
fn serve_online(c: &mut Criterion) {
    let trace = bench_trace();
    let config = SimConfig::paper_default()
        .with_neighborhood_size(500)
        .with_per_peer_storage(DataSize::from_gigabytes(2))
        .with_warmup_days(3)
        .with_strategy(StrategySpec::Lru);
    let strategy = config.strategy().factory();
    let mut group = c.benchmark_group("serve");
    group.sample_size(10);
    group.throughput(Throughput::Elements(trace.len() as u64));
    group.bench_function("throughput", |b| {
        b.iter(|| {
            let mut clock = AcceleratedClock::default();
            replay_trace(
                trace,
                &config,
                strategy.as_ref(),
                DecisionTier::Serial,
                &mut clock,
            )
            .expect("serve run")
        })
    });
    group.finish();

    let mut clock = AcceleratedClock::default();
    let outcome = replay_trace(
        trace,
        &config,
        strategy.as_ref(),
        DecisionTier::Serial,
        &mut clock,
    )
    .expect("serve run");
    c.record_measurement(
        "serve",
        "decision_p99",
        u128::from(outcome.latency.p99_ns()),
        u128::from(outcome.latency.mean_ns()),
        None,
    );

    socket_roundtrip(
        c,
        "socket_roundtrip",
        &config,
        AcceleratedClock::default(),
        |_| "LOOKUP 0 1\n".into(),
    );
    let (users, programs) = (trace.user_count(), trace.catalog().len() as u32);
    socket_roundtrip(
        c,
        "session_roundtrip",
        &config,
        MillisClock(Instant::now()),
        |i| format!("SESSION {} {} 600\n", i % users, i % programs),
    );
}

criterion_group!(
    benches,
    engine_throughput,
    lfu_on_access,
    admit_evict_churn,
    engine_parallel_throughput,
    engine_streaming_throughput,
    checksum_throughput,
    chunk_decode_throughput,
    engine_sweep_throughput,
    workload_generation,
    serve_online
);
criterion_main!(benches);
