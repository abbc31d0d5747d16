//! Engine unit tests: physics invariants of the serial reference path,
//! equivalence of the sharded and streaming drivers, and lifecycle
//! internals (the active-session slab).

use super::lifecycle::ActiveSessions;
use super::*;
use cablevod_cache::StrategySpec;
use cablevod_hfc::ids::{ProgramId, UserId};
use cablevod_hfc::units::{BitRate, DataSize, SimDuration};
use cablevod_trace::record::Trace;
use cablevod_trace::source::ChunkedTrace;
use cablevod_trace::synth::{generate, SynthConfig};

fn small_trace() -> Trace {
    generate(&SynthConfig {
        users: 600,
        programs: 150,
        days: 6,
        ..SynthConfig::smoke_test()
    })
}

fn base_config() -> SimConfig {
    SimConfig::paper_default()
        .with_neighborhood_size(200)
        .with_per_peer_storage(DataSize::from_gigabytes(2))
        .with_warmup_days(2)
}

#[test]
fn no_cache_equals_offered_load() {
    let trace = small_trace();
    let report = run(&trace, &base_config().with_strategy(StrategySpec::NoCache)).expect("runs");
    assert_eq!(report.cache.hits, 0);
    assert_eq!(report.hit_rate(), 0.0);
    // Server carries every watched second at the stream rate.
    let expected_bits = trace
        .records()
        .iter()
        .map(|r| {
            let len = trace.catalog().length(r.program).expect("valid");
            r.watched(len).as_secs() * BitRate::STREAM_MPEG2_SD.as_bps()
        })
        .sum::<u64>();
    assert_eq!(report.server_total.as_bits(), expected_bits);
    assert_eq!(report.sessions as usize, trace.len());
}

#[test]
fn caching_reduces_server_load() {
    let trace = small_trace();
    let none = run(&trace, &base_config().with_strategy(StrategySpec::NoCache)).expect("runs");
    let lfu = run(&trace, &base_config()).expect("runs");
    assert!(lfu.cache.hits > 0, "cache must produce hits");
    assert!(
        lfu.server_total < none.server_total,
        "lfu {} vs none {}",
        lfu.server_total,
        none.server_total
    );
    assert!(lfu.server_peak.mean < none.server_peak.mean);
}

#[test]
fn coax_load_is_identical_with_and_without_cache() {
    // §VI-B: broadcast means every segment crosses the coax once no
    // matter who serves it.
    let trace = small_trace();
    let none = run(&trace, &base_config().with_strategy(StrategySpec::NoCache)).expect("runs");
    let lfu = run(&trace, &base_config()).expect("runs");
    assert_eq!(none.coax_peak.mean, lfu.coax_peak.mean);
    assert_eq!(none.segment_requests, lfu.segment_requests);
}

#[test]
fn oracle_dominates_lfu_dominates_nothing() {
    let trace = small_trace();
    let none = run(&trace, &base_config().with_strategy(StrategySpec::NoCache)).expect("runs");
    let lfu = run(&trace, &base_config()).expect("runs");
    let oracle = run(
        &trace,
        &base_config().with_strategy(StrategySpec::default_oracle()),
    )
    .expect("runs");
    assert!(
        oracle.server_total <= lfu.server_total,
        "oracle must not lose to LFU"
    );
    assert!(lfu.server_total < none.server_total);
}

#[test]
fn deterministic_reports() {
    let trace = small_trace();
    let a = run(&trace, &base_config()).expect("runs");
    let b = run(&trace, &base_config()).expect("runs");
    assert_eq!(a, b);
}

#[test]
fn server_plus_peer_bytes_conserve_demand() {
    let trace = small_trace();
    let report = run(&trace, &base_config()).expect("runs");
    // Total coax bytes = total demand; server bytes = misses only.
    let coax_total: u64 = {
        // recompute demand from the trace
        trace
            .records()
            .iter()
            .map(|r| {
                let len = trace.catalog().length(r.program).expect("valid");
                r.watched(len).as_secs() * BitRate::STREAM_MPEG2_SD.as_bps()
            })
            .sum()
    };
    assert!(report.server_total.as_bits() <= coax_total);
    assert_eq!(
        report.cache.requests(),
        report.segment_requests,
        "every segment request is resolved exactly once"
    );
}

#[test]
fn global_lfu_runs_and_uses_feed() {
    let trace = small_trace();
    let config = base_config().with_strategy(StrategySpec::GlobalLfu {
        history: SimDuration::from_days(3),
        lag: SimDuration::from_minutes(30),
    });
    let report = run(&trace, &config).expect("runs");
    assert!(report.cache.hits > 0);
}

#[test]
fn seeking_sessions_request_interior_segments() {
    let trace = generate(&SynthConfig {
        users: 600,
        programs: 150,
        days: 6,
        seek_prob: 0.3,
        ..SynthConfig::smoke_test()
    });
    assert!(
        trace.iter().any(|r| r.offset.as_secs() > 0),
        "workload must contain seeks"
    );
    let none = run(&trace, &base_config().with_strategy(StrategySpec::NoCache)).expect("runs");
    // Conservation still holds with seeks.
    let expected_bits: u64 = trace
        .records()
        .iter()
        .map(|r| {
            let len = trace.catalog().length(r.program).expect("valid");
            r.watched(len).as_secs() * BitRate::STREAM_MPEG2_SD.as_bps()
        })
        .sum();
    assert_eq!(none.server_total.as_bits(), expected_bits);
    // Caching still works on a seeking workload.
    let lfu = run(&trace, &base_config()).expect("runs");
    assert!(lfu.cache.hits > 0);
    assert!(lfu.server_total < none.server_total);
}

#[test]
fn replication_two_runs() {
    let trace = small_trace();
    let report = run(&trace, &base_config().with_replication(2)).expect("runs");
    assert!(report.cache.hits > 0);
}

#[test]
fn parallel_matches_serial_on_every_strategy() {
    let trace = small_trace();
    for spec in [
        StrategySpec::NoCache,
        StrategySpec::Lru,
        StrategySpec::default_lfu(),
        StrategySpec::default_oracle(),
        StrategySpec::GlobalLfu {
            history: SimDuration::from_days(3),
            lag: SimDuration::from_minutes(30),
        },
    ] {
        let config = base_config().with_strategy(spec);
        let serial = run(&trace, &config).expect("serial runs");
        for threads in [1, 2, 8] {
            let parallel = run_parallel(&trace, &config, threads).expect("parallel runs");
            assert_eq!(parallel, serial, "strategy {spec:?}, threads {threads}");
        }
    }
}

#[test]
fn parallel_matches_serial_with_seeks_and_replication() {
    let trace = generate(&SynthConfig {
        users: 500,
        programs: 120,
        days: 5,
        seek_prob: 0.25,
        ..SynthConfig::smoke_test()
    });
    let config = base_config().with_replication(2);
    let serial = run(&trace, &config).expect("serial runs");
    let parallel = run_parallel(&trace, &config, 3).expect("parallel runs");
    assert_eq!(parallel, serial);
}

#[test]
fn parallel_matches_serial_under_random_placement() {
    let trace = small_trace();
    let config = base_config().with_placement(PlacementPolicy::Random { seed: 7 });
    let serial = run(&trace, &config).expect("serial runs");
    let parallel = run_parallel(&trace, &config, 4).expect("parallel runs");
    assert_eq!(parallel, serial);
}

#[test]
fn parallel_rejects_invalid_configs_like_serial() {
    let trace = small_trace();
    let config = base_config().with_neighborhood_size(0);
    assert!(run_parallel(&trace, &config, 2).is_err());
}

#[test]
fn streaming_serial_matches_resident_on_every_strategy() {
    let trace = small_trace();
    for spec in [
        StrategySpec::NoCache,
        StrategySpec::Lru,
        StrategySpec::default_lfu(),
        StrategySpec::default_oracle(),
        StrategySpec::GlobalLfu {
            history: SimDuration::from_days(3),
            lag: SimDuration::from_minutes(30),
        },
    ] {
        let config = base_config().with_strategy(spec);
        let resident = run(&trace, &config).expect("resident runs");
        for chunk in [64usize, trace.len()] {
            let streamed = run(&ChunkedTrace::new(&trace, chunk), &config).expect("streaming runs");
            assert_eq!(streamed, resident, "strategy {spec:?}, chunk {chunk}");
        }
    }
}

#[test]
fn streaming_parallel_matches_serial_with_watermark_feed() {
    let trace = small_trace();
    let config = base_config().with_strategy(StrategySpec::GlobalLfu {
        history: SimDuration::from_days(3),
        lag: SimDuration::from_minutes(30),
    });
    let serial = run(&trace, &config).expect("serial runs");
    for (chunk, threads) in [(1usize, 2usize), (64, 1), (64, 3), (trace.len(), 2)] {
        let source = ChunkedTrace::new(&trace, chunk);
        let streamed = run_parallel(&source, &config, threads).expect("streaming runs");
        assert_eq!(streamed, serial, "chunk {chunk}, threads {threads}");
    }
}

#[test]
fn streaming_rejects_invalid_configs() {
    let trace = small_trace();
    let source = ChunkedTrace::new(&trace, 64);
    let config = base_config().with_neighborhood_size(0);
    assert!(run(&source, &config).is_err());
    assert!(run_parallel(&source, &config, 2).is_err());
}

fn slab_entry(i: u32) -> (cablevod_trace::record::SessionRecord, SessionCtx) {
    let rec = cablevod_trace::record::SessionRecord::new(
        UserId::new(i),
        ProgramId::new(i),
        SimTime::from_secs(u64::from(i)),
        SimDuration::from_secs(60),
    );
    let ctx = SessionCtx {
        nbhd: 0,
        home: cablevod_hfc::ids::PeerId::new(i),
        length: SimDuration::from_hours(1),
        watched: SimDuration::from_secs(60),
        offset: 0,
        first_seg: 0,
    };
    (rec, ctx)
}

#[test]
fn active_sessions_reuse_freed_slots() {
    let mut slab = ActiveSessions::default();
    let (r0, c0) = slab_entry(0);
    let (r1, c1) = slab_entry(1);
    let a = slab.insert(r0, c0);
    let b = slab.insert(r1, c1);
    assert_ne!(a, b);
    assert_eq!(slab.allocated(), 2);

    // Freeing then inserting must reuse the slot, not grow the slab.
    slab.remove(a);
    assert_eq!(slab.free_count(), 1);
    let (r2, c2) = slab_entry(2);
    let c = slab.insert(r2, c2);
    assert_eq!(c, a, "freed slot is reused");
    assert_eq!(slab.allocated(), 2, "slab did not grow");
    assert_eq!(slab.free_count(), 0);
    assert_eq!(slab.get(c).0, r2, "slot holds the new session");
    assert_eq!(slab.get(b).0, r1, "other slot untouched");
}

/// The ROADMAP "idle-neighborhood feed retention" item: a session-less
/// neighborhood must not pin the streaming feed's retained window. The
/// blocked replay's idle sweep — every shard syncs at every block's edge —
/// keeps every consumption cursor moving, so live feed slots stay
/// O(block), not O(trace), on a 100k-event stream with one idle
/// neighborhood — whether the blocks are a time-major source's chunks or
/// merged back out of a neighborhood-major file.
#[test]
fn idle_neighborhood_does_not_pin_the_streaming_feed() {
    use cablevod_trace::catalog::{ProgramCatalog, ProgramInfo};
    use cablevod_trace::columnar::{write_trace, ColumnarReader};
    use cablevod_trace::rechunk::{neighborhood_groups, rechunk_by_neighborhood};
    use cablevod_trace::record::SessionRecord;

    let users = 150u32;
    let nbhd_size = 50u32;
    // Users of neighborhood 1 (under the same §V-B shuffle the engine
    // uses) never appear in the workload.
    let groups = neighborhood_groups(users, nbhd_size).expect("groups");
    let active: Vec<u32> = (0..users).filter(|&u| groups[u as usize] != 1).collect();
    assert!(active.len() < users as usize, "one neighborhood is idle");

    let programs = 40u32;
    let catalog: ProgramCatalog = (0..programs)
        .map(|_| ProgramInfo {
            length: SimDuration::from_hours(1),
            introduced_day: 0,
        })
        .collect();
    let total = 100_000u64;
    let records: Vec<SessionRecord> = (0..total)
        .map(|i| {
            SessionRecord::new(
                UserId::new(active[i as usize % active.len()]),
                ProgramId::new((i % u64::from(programs)) as u32),
                SimTime::from_secs(i),
                SimDuration::from_secs(60),
            )
        })
        .collect();
    let trace = Trace::new(records, catalog, users, 2).expect("valid trace");

    let config = SimConfig::paper_default()
        .with_neighborhood_size(nbhd_size)
        .with_per_peer_storage(DataSize::from_gigabytes(1))
        .with_warmup_days(0)
        .with_strategy(StrategySpec::GlobalLfu {
            history: SimDuration::from_days(1),
            lag: SimDuration::ZERO,
        });

    let mut tm = std::env::temp_dir();
    tm.push(format!("cvtc_idle_tm_{}.cvtc", std::process::id()));
    let mut nm = std::env::temp_dir();
    nm.push(format!("cvtc_idle_nm_{}.cvtc", std::process::id()));
    write_trace(&tm, &trace, 1_024).expect("write time-major");
    let tm_reader = ColumnarReader::open(&tm).expect("open time-major");
    rechunk_by_neighborhood(&tm_reader, &nm, nbhd_size, 1_024).expect("rechunk");
    let nm_reader = ColumnarReader::open(&nm).expect("open neighborhood-major");
    assert!(nm_reader.neighborhood_layout().is_some());

    let resident = run(&trace, &config).expect("resident runs");
    let factory = config.strategy().factory();
    let chunked = ChunkedTrace::new(&trace, 1_024);
    let sources: [(&str, &dyn TraceSource); 2] =
        [("time-major", &chunked), ("neighborhood-major", &nm_reader)];
    for (layout, source) in sources {
        let (report, streamed) =
            shard::run_streaming(source, &config, factory.as_ref(), 1).expect("streaming runs");
        let peak = streamed
            .peak_feed_slots
            .expect("global LFU consumes the feed");
        // Without the idle sweep, neighborhood 1's cursor floors
        // reclamation at zero and every one of the 100k slots stays live
        // (checked by removing the `sync_published` call). With it, the
        // floor trails the head by at most one 1,024-record block plus
        // segment rounding.
        assert!(
            peak <= 8 * cablevod_cache::watermark::DEFAULT_SEGMENT_SLOTS,
            "{layout}: idle neighborhood pinned the feed: {peak} live slots for a \
             {total}-event stream"
        );
        // The sweep must not change results.
        assert_eq!(report, resident, "{layout}");
    }
    std::fs::remove_file(&tm).ok();
    std::fs::remove_file(&nm).ok();
}

/// The one merge cursor: runs dealt round-robin out of a chunked trace —
/// uneven in length, one of them empty — come back as the dense global
/// sequence, in stretches or record by record, and stay exhausted.
#[test]
fn run_merge_restores_global_order_across_uneven_runs() {
    use super::stream::RunMerge;

    let trace = small_trace();
    let source = ChunkedTrace::new(&trace, 7);
    let chunks = source.chunk_count() as u32;
    let mut runs: Vec<Vec<u32>> = vec![Vec::new(); 4];
    for chunk in 0..chunks {
        // Run 2 stays empty; run 3 gets every other chunk of the rest.
        runs[[0, 1, 3, 0, 3][chunk as usize % 5]].push(chunk);
    }
    assert!(runs[2].is_empty() && runs[0].len() != runs[1].len());

    let mut cursor = RunMerge::new(&source, runs.iter().map(Vec::as_slice));
    let mut stretch = Vec::new();
    let mut seen = 0u64;
    while cursor.has_more() {
        cursor.refill(&mut stretch, 10).expect("refill");
        assert!(stretch.len() <= 10);
        for (gidx, rec) in &stretch {
            assert_eq!(*gidx, seen, "sequence numbers ascend without a gap");
            assert_eq!(*rec, trace.records()[seen as usize]);
            seen += 1;
        }
    }
    assert_eq!(
        seen,
        trace.len() as u64,
        "every record came out exactly once"
    );
    for _ in 0..2 {
        assert_eq!(cursor.next().expect("next"), None, "exhausted for good");
    }

    // Record by record, over the three non-empty runs alone.
    let mut cursor = RunMerge::new(&source, [&runs[3][..], &runs[0][..], &runs[1][..]]);
    for want in 0..trace.len() as u64 {
        let (gidx, _) = cursor.next().expect("next").expect("a record remains");
        assert_eq!(gidx, want);
    }
    assert!(!cursor.has_more());
}

/// Spilled schedule lifecycle: the sidecar exists while windows read it,
/// feeds them the spilled events, and is removed when the last reference
/// drops.
#[test]
fn schedule_spill_cleans_up_its_sidecar() {
    use super::schedule::SidecarSpill;
    use cablevod_cache::ScheduleSource;
    use cablevod_hfc::ids::NeighborhoodId;

    let mut spill = SidecarSpill::create(2, vec![3, 5]).expect("create");
    for i in 0..10u64 {
        spill
            .push(
                (i % 2) as u32,
                SimTime::from_secs(i * 10),
                ProgramId::new((i % 2) as u32),
            )
            .expect("push");
    }
    let schedules = spill.into_schedules().expect("finish");
    let path = schedules.spill_path();
    assert!(path.exists(), "sidecar exists while schedules are live");

    let mut window = schedules
        .window(NeighborhoodId::new(0))
        .expect("window")
        .expect("spilled sources always carry a schedule");
    window
        .prefetch(SimTime::from_secs(1_000))
        .expect("prefetch");
    let mut seen = 0;
    while window.next_entering(SimTime::from_secs(1_000)).is_some() {
        seen += 1;
    }
    assert_eq!(seen, 5, "neighborhood 0 reads exactly its events");
    assert_eq!(
        window.cost(ProgramId::new(1)),
        5,
        "costs ride in the sidecar"
    );
    assert!(
        schedules.decode_stats().chunks > 0,
        "sidecar reads are counted"
    );

    drop(window);
    drop(schedules);
    assert!(!path.exists(), "sidecar removed with the last reference");
}

#[test]
fn active_sessions_bound_allocation_by_concurrency() {
    // Churning insert/remove pairs must keep the slab at the concurrency
    // high-water mark, not the total session count.
    let mut slab = ActiveSessions::default();
    let mut live = Vec::new();
    for i in 0..1_000u32 {
        let (r, c) = slab_entry(i);
        live.push(slab.insert(r, c));
        if live.len() == 4 {
            // retire the oldest three
            for slot in live.drain(..3) {
                slab.remove(slot);
            }
        }
    }
    assert!(
        slab.allocated() <= 4,
        "slab grew to {} slots for 4-concurrent sessions",
        slab.allocated()
    );
}
