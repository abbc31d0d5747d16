//! Engine unit tests: physics invariants of a replay (`run`, one worker),
//! agreement of the same plans at other worker counts, chunkings and
//! layouts, what each supply reads and in what order, and lifecycle
//! internals (the active-session slab). What the plans are held to — a
//! naive reference model — lives in `tests/builder.rs`.

use super::lifecycle::{ActiveSessions, SessionCtx};
use super::*;
use crate::Simulation;
use cablevod_cache::{AccessEvent, StrategySpec};
use cablevod_hfc::ids::{ProgramId, UserId};
use cablevod_hfc::units::{BitRate, DataSize, SimDuration, SimTime};
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

/// The resident plan on one worker (`run`) and on several: the same
/// per-neighborhood drivers, scheduled differently.
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
            let parallel = Simulation::over(&trace)
                .config(config.clone())
                .threads(threads)
                .run()
                .expect("parallel runs");
            assert_eq!(
                parallel.report, serial,
                "strategy {spec:?}, threads {threads}"
            );
        }
    }
}

/// As above, with seeks and two replicas of every segment.
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
    let parallel = Simulation::over(&trace)
        .config(config)
        .threads(3)
        .run()
        .expect("parallel runs");
    assert_eq!(parallel.report, serial);
}

/// As above, under random placement: each neighborhood draws from its own
/// stream, whichever worker runs it.
#[test]
fn parallel_matches_serial_under_random_placement() {
    let trace = small_trace();
    let config = base_config().with_placement(PlacementPolicy::Random { seed: 7 });
    let serial = run(&trace, &config).expect("serial runs");
    let parallel = Simulation::over(&trace)
        .config(config)
        .threads(4)
        .run()
        .expect("parallel runs");
    assert_eq!(parallel.report, serial);
}

#[test]
fn parallel_rejects_invalid_configs_like_serial() {
    let trace = small_trace();
    let config = base_config().with_neighborhood_size(0);
    assert!(Simulation::over(&trace)
        .config(config)
        .threads(2)
        .run()
        .is_err());
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
fn streaming_parallel_matches_serial_under_a_feed_strategy() {
    let trace = small_trace();
    let config = base_config().with_strategy(StrategySpec::GlobalLfu {
        history: SimDuration::from_days(3),
        lag: SimDuration::from_minutes(30),
    });
    let serial = run(&trace, &config).expect("serial runs");
    for (chunk, threads) in [(1usize, 2usize), (64, 1), (64, 3), (trace.len(), 2)] {
        let source = ChunkedTrace::new(&trace, chunk);
        let streamed = Simulation::over(&source)
            .config(config.clone())
            .threads(threads)
            .run()
            .expect("streaming runs");
        assert_eq!(streamed.report, serial, "chunk {chunk}, threads {threads}");
    }
}

#[test]
fn streaming_rejects_invalid_configs() {
    let trace = small_trace();
    let source = ChunkedTrace::new(&trace, 64);
    let config = base_config().with_neighborhood_size(0);
    assert!(run(&source, &config).is_err());
    assert!(Simulation::over(&source)
        .config(config)
        .threads(2)
        .run()
        .is_err());
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

/// A 100k-event, one-event-a-second workload over three neighborhoods of
/// which neighborhood 1 never sees a session, under a global LFU that
/// ingests remote events at once: what the two idle-sweep tests below
/// replay.
fn idle_neighborhood_workload() -> (Trace, SimConfig) {
    use cablevod_trace::catalog::{ProgramCatalog, ProgramInfo};
    use cablevod_trace::rechunk::neighborhood_groups;
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
    let records: Vec<SessionRecord> = (0..100_000u64)
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
    (trace, config)
}

/// The batching lag of [`idle_neighborhood_workload`]'s strategy, in
/// seconds: the most events it keeps invisible at an edge, one a second.
fn idle_neighborhood_lag(config: &SimConfig) -> usize {
    match config.strategy() {
        StrategySpec::GlobalLfu { lag, .. } => lag.as_secs() as usize,
        other => unreachable!("the workload runs a global LFU, not {other:?}"),
    }
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
    use cablevod_trace::columnar::{write_trace, ColumnarReader};
    use cablevod_trace::rechunk::rechunk_by_neighborhood;

    let (trace, config) = idle_neighborhood_workload();
    let nbhd_size = config.neighborhood_size();
    let total = trace.len();
    let (block, lag) = (1_024u32, idle_neighborhood_lag(&config));

    let mut tm = std::env::temp_dir();
    tm.push(format!("cvtc_idle_tm_{}.cvtc", std::process::id()));
    let mut nm = std::env::temp_dir();
    nm.push(format!("cvtc_idle_nm_{}.cvtc", std::process::id()));
    write_trace(&tm, &trace, block).expect("write time-major");
    let tm_reader = ColumnarReader::open(&tm).expect("open time-major");
    rechunk_by_neighborhood(&tm_reader, &nm, nbhd_size, block).expect("rechunk");
    let nm_reader = ColumnarReader::open(&nm).expect("open neighborhood-major");
    assert!(nm_reader.neighborhood_layout().is_some());

    let resident = run(&trace, &config).expect("resident runs");
    let factory = config.strategy().factory();
    let chunked = ChunkedTrace::new(&trace, block as usize);
    let sources: [(&str, &dyn TraceSource); 2] =
        [("time-major", &chunked), ("neighborhood-major", &nm_reader)];
    let topo = build_topology(&trace, &config).expect("topology");
    let parts = DriverParts::new(&topo, trace.catalog(), &config, factory.as_ref()).expect("parts");
    for (layout, source) in sources {
        let (outcomes, streamed) = shard::run_streaming(source, &parts, 1).expect("streaming runs");
        let report = report::merge_outcomes(outcomes, trace.days(), &config).expect("merges");
        let peak = streamed
            .peak_feed_events
            .expect("global LFU consumes the feed");
        // Without the idle sweep, neighborhood 1's cursor floors
        // reclamation at zero and every one of the 100k events stays
        // retained (checked by removing the feed sync from
        // `SessionDriver::sync_published`). With it, every cursor
        // reaches the block's edge, so the feed retains one block of
        // 1,024 records plus what the lag keeps invisible there — the
        // records of its last `lag` seconds, one a second.
        assert!(
            peak <= block as usize + lag,
            "{layout}: idle neighborhood pinned the feed: {peak} events retained for a \
             {total}-event stream"
        );
        // The sweep must not change results.
        assert_eq!(report, resident, "{layout}");
    }
    std::fs::remove_file(&tm).ok();
    std::fs::remove_file(&nm).ok();
}

/// The same law online: every `advance_to` is a block edge, and each
/// neighborhood's driver, parked there, runs the blocked replay's idle
/// sweep (`SessionDriver::sync_published`). Over the same workload,
/// submitted a session at a time, the retained feed events stay one
/// advance's worth, not O(sessions submitted).
#[test]
fn idle_neighborhood_does_not_pin_the_online_feed() {
    let (trace, config) = idle_neighborhood_workload();
    let factory = config.strategy().factory();
    let spec = online::OnlineSpec::from_source(&trace);
    let ((), report, peak) = online::serve(&spec, &config, factory.as_ref(), |engine| {
        for rec in trace.records() {
            engine.submit(*rec)?;
            engine.advance_to(rec.start)?;
        }
        Ok(())
    })
    .expect("online run");
    let peak = peak.expect("global LFU consumes the feed");
    // Without the sweep, neighborhood 1's cursor floors reclamation at
    // zero and every one of the 100k events stays retained (checked by
    // removing the feed sync from `SessionDriver::sync_published`, which
    // `advance_to` calls). With it, every cursor reaches the clock, so
    // the feed retains one advance's submissions — a single session —
    // plus what the lag keeps invisible at the clock, the sessions of
    // its last `lag` seconds, one a second.
    let lag = idle_neighborhood_lag(&config);
    assert!(
        peak <= 1 + lag,
        "idle neighborhood pinned the feed: {peak} events retained for {} sessions",
        trace.len()
    );
    // The sweep must not change results.
    assert_eq!(report, run(&trace, &config).expect("resident runs"));
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

/// The look-ahead on every producer, under `oracle:1d` over 30 days in
/// 64-record chunks: the blocked replay's decoder, handing every block's
/// slices to the shards' supplies; the online ingress, advanced at every
/// session second and once a day, handing each neighborhood its whole
/// future in the first block; and a supply reading ahead over its own
/// runs of the neighborhood-major form of the same trace. Per
/// neighborhood the hand-overs, end to end, are the resident schedule's
/// events exactly — none twice, none skipped, same-second order kept;
/// each holds only events before the instant it declares covered, which
/// never moves back, is a day past every session by the time that
/// session is staged, and ends at "forever".
#[test]
fn look_ahead_hands_each_neighborhood_its_future_once_and_in_time() {
    use super::lifecycle::RecordSupply;
    use super::stream::{Block, BlockSupply, Demux, StreamSupply};
    use cablevod_trace::columnar::{write_trace, ColumnarReader};
    use cablevod_trace::rechunk::rechunk_by_neighborhood;

    let trace = generate(&SynthConfig {
        users: 600,
        programs: 150,
        days: 30,
        ..SynthConfig::smoke_test()
    });
    let config = base_config();
    let lookahead = SimDuration::from_days(1);
    let segmenter = Segmenter::new(config.segment_len(), config.stream_rate());
    let topo = build_topology(&trace, &config).expect("topology");
    let nbhd_count = topo.neighborhood_count();
    let mut resident = vec![Vec::new(); nbhd_count];
    for rec in trace.records() {
        let nbhd = topo.neighborhood_of_user(rec.user).expect("known user");
        resident[nbhd.index()].push(AccessEvent::new(rec.start, rec.program).expect("in range"));
    }

    /// What one neighborhood has been handed so far.
    struct Fed {
        events: Vec<AccessEvent>,
        covered: SimTime,
    }
    /// Runs `supply` dry (a block's worth, or all of it) the way the
    /// driver does: peek, take the hand-over, take the record.
    fn drain<R: RecordSupply>(supply: &mut R, lookahead: SimDuration, fed: &mut Fed) {
        loop {
            let staged = supply.peek().expect("peek");
            supply
                .read_ahead(|events, covered| {
                    assert!(covered >= fed.covered, "covered moved back");
                    assert!(
                        covered > fed.covered || events.is_empty(),
                        "handed over again what {covered:?} already covered"
                    );
                    assert!(events.iter().all(|e| e.at() < covered));
                    fed.events.extend_from_slice(events);
                    fed.covered = covered;
                    Ok(())
                })
                .expect("hand-over");
            let Some((start, _)) = staged else { break };
            assert!(
                start + lookahead <= fed.covered,
                "staged ahead of its look-ahead"
            );
            supply.take();
        }
    }
    let unfed = || -> Vec<Fed> {
        (0..nbhd_count)
            .map(|_| Fed {
                events: Vec::new(),
                covered: SimTime::EPOCH,
            })
            .collect()
    };
    let check = |what: &str, fed: Vec<Fed>| {
        for (n, fed) in fed.into_iter().enumerate() {
            assert_eq!(fed.events, resident[n], "{what}, neighborhood {n}");
            assert_eq!(fed.covered, SimTime::MAX, "{what}, neighborhood {n}");
        }
    };

    // The decoder, block by block, through every shard's supply.
    let source = ChunkedTrace::new(&trace, 64);
    let runs = serial_runs(&source);
    let mut demux = Demux::new(
        &source,
        &runs,
        &topo,
        &config,
        segmenter,
        &StrategySpec::Oracle { lookahead },
    );
    let mut supplies: Vec<_> = (0..nbhd_count)
        .map(|n| BlockSupply::new(n, trace.catalog(), &topo, &segmenter))
        .collect();
    let mut fed = unfed();
    let mut block = Arc::new(Block::default());
    let mut blocks = 0;
    loop {
        let filling = Arc::get_mut(&mut block).expect("every supply let go of the block");
        demux.fill(filling, None).expect("decode");
        blocks += 1;
        for (n, supply) in supplies.iter_mut().enumerate() {
            supply.attach(&block);
            drain(supply, lookahead, &mut fed[n]);
        }
        if block.edge.is_none() {
            break;
        }
    }
    assert!(blocks > 30, "a day spans many blocks: {blocks}");
    check("blocked", fed);

    // The online ingress, through the same supplies, advanced at the last
    // second of every `every` a session starts in, then drained.
    let oracle = StrategySpec::Oracle { lookahead };
    let parts = DriverParts::new(&topo, trace.catalog(), &config, &oracle).expect("parts");
    let spec = online::OnlineSpec::from_source(&trace);
    for every in [1, 86_400] {
        let mut ingress = online::Ingress::new(&parts, &spec).expect("ingress");
        let mut fed = unfed();
        let mut step = |ingress: &mut online::Ingress<'_>, now: Option<SimTime>| {
            let filling = Arc::get_mut(&mut block).expect("every supply let go of the block");
            ingress.fill(filling, now).expect("advance");
            for (n, supply) in supplies.iter_mut().enumerate() {
                supply.attach(&block);
                drain(supply, lookahead, &mut fed[n]);
            }
        };
        let mut horizon = None;
        for rec in trace.records() {
            if let Some(now) = horizon.filter(|&now| now < rec.start) {
                step(&mut ingress, Some(now));
            }
            ingress.admit(*rec, None).expect("submit");
            horizon = Some(SimTime::from_secs(
                rec.start.as_secs() / every * every + every - 1,
            ));
        }
        step(&mut ingress, horizon);
        step(&mut ingress, None);
        check(&format!("online, advanced every {every} s"), fed);
    }

    // Every shard's own supply, over its own runs.
    let mut tm = std::env::temp_dir();
    tm.push(format!("cvtc_ahead_tm_{}.cvtc", std::process::id()));
    let mut nm = std::env::temp_dir();
    nm.push(format!("cvtc_ahead_nm_{}.cvtc", std::process::id()));
    write_trace(&tm, &trace, 64).expect("write time-major");
    let tm_reader = ColumnarReader::open(&tm).expect("open time-major");
    rechunk_by_neighborhood(&tm_reader, &nm, config.neighborhood_size(), 64).expect("rechunk");
    let nm_reader = ColumnarReader::open(&nm).expect("open neighborhood-major");
    let layout = nm_reader
        .neighborhood_layout_for(config.neighborhood_size())
        .expect("indexed at this size");
    let mut fed = unfed();
    for (n, fed) in fed.iter_mut().enumerate() {
        let mut supply = StreamSupply::new(&nm_reader, &layout.runs[n], &parts);
        drain(&mut supply, lookahead, fed);
    }
    check("fast path", fed);
    std::fs::remove_file(&tm).ok();
    std::fs::remove_file(&nm).ok();
}

/// 12,000 sessions a minute apart over three 50-subscriber neighborhoods
/// of very unequal load — neighborhood 0 starts four sessions for every
/// one of neighborhood 2, neighborhood 1 never starts any — with seeks and
/// lengths that make every field of a context vary: what the two
/// run tests below replay. Neighborhood 0's 9,600 records span three
/// resident strides, neighborhood 2's 2,400 one.
fn uneven_workload() -> (Trace, SimConfig) {
    use cablevod_trace::catalog::{ProgramCatalog, ProgramInfo};
    use cablevod_trace::rechunk::neighborhood_groups;
    use cablevod_trace::record::SessionRecord;

    let (users, nbhd_size, programs) = (150u32, 50u32, 30u32);
    let groups = neighborhood_groups(users, nbhd_size).expect("groups");
    let of = |n: u32| -> Vec<u32> { (0..users).filter(|&u| groups[u as usize] == n).collect() };
    let (busy, quiet) = (of(0), of(2));
    let catalog: ProgramCatalog = (0..programs)
        .map(|p| ProgramInfo {
            length: SimDuration::from_minutes(20 + 7 * u64::from(p)),
            introduced_day: 0,
        })
        .collect();
    let records: Vec<SessionRecord> = (0..12_000u64)
        .map(|i| {
            let pool = if i % 5 == 3 { &quiet } else { &busy };
            let mut rec = SessionRecord::new(
                UserId::new(pool[(i * 7) as usize % pool.len()]),
                ProgramId::new((i * 11 % u64::from(programs)) as u32),
                SimTime::from_secs(60 * i),
                SimDuration::from_minutes(1 + i % 90),
            );
            rec.offset = SimDuration::from_minutes(i % 4 * 9);
            rec
        })
        .collect();
    let trace = Trace::new(records, catalog, users, 9).expect("valid trace");
    let config = SimConfig::paper_default()
        .with_neighborhood_size(nbhd_size)
        .with_per_peer_storage(DataSize::from_gigabytes(1))
        .with_warmup_days(0);
    (trace, config)
}

/// `trace` with some of its records replaced: a resident source whose
/// records [`Trace::new`] never vetted.
struct Tampered<'a> {
    trace: &'a Trace,
    records: Vec<cablevod_trace::record::SessionRecord>,
}

impl TraceSource for Tampered<'_> {
    fn catalog(&self) -> &cablevod_trace::catalog::ProgramCatalog {
        self.trace.catalog()
    }
    fn user_count(&self) -> u32 {
        self.trace.user_count()
    }
    fn days(&self) -> u64 {
        self.trace.days()
    }
    fn record_count(&self) -> u64 {
        self.records.len() as u64
    }
    fn chunk_count(&self) -> usize {
        1
    }
    fn chunk_first_index(&self, _chunk: usize) -> u64 {
        0
    }
    fn read_chunk(
        &self,
        _chunk: usize,
        out: &mut Vec<cablevod_trace::record::SessionRecord>,
    ) -> Result<(), cablevod_trace::TraceError> {
        out.clone_from(&self.records);
        Ok(())
    }
    fn resident_records(&self) -> Option<&[cablevod_trace::record::SessionRecord]> {
        Some(&self.records)
    }
}

/// The resident per-neighborhood plan reads what the index walk it
/// replaced read: every shard's supply over its gathered strides gives,
/// session for session — global index, record, context — its
/// neighborhood's records in trace order, on neighborhoods of unequal
/// size, one of them empty and one spanning three strides. Its
/// read-ahead hands the index exactly the walk's `(start, program)`
/// pairs, in order, each hand-over covering at least `lookahead` past the
/// session staged; its read-behind, under a one-hour history, hands each
/// access back once, in order, never before the window's edge has passed
/// it — and so does the online ingress's trailing ring, through the
/// blocks it fills, under that history and a zero one; the survey
/// publishes every record's feed event; and a record that names no
/// program or no subscriber fails the run with the same error at any
/// worker count, before any shard is built.
#[test]
fn gathered_runs_are_the_index_walk_session_for_session() {
    use super::lifecycle::{feed_event, RecordSupply};
    use super::stream::{past, Block, BlockSupply, StreamSupply, STRIDE};

    /// Has `supply` hand back what leaves a history window whose trailing
    /// edge is at `until`, onto `handed`, none of it before `until` has
    /// passed it and, once it is, every one of `pairs` before the instant
    /// it says it covers; returns that instant.
    fn hand_back<R: RecordSupply>(
        supply: &mut R,
        until: SimTime,
        handed: &mut Vec<(SimTime, ProgramId)>,
        pairs: &[(SimTime, ProgramId)],
    ) -> Option<SimTime> {
        let mut covered = None;
        supply
            .read_behind(until, |events, to| {
                assert!(to >= past(until), "covered {to:?}, short of {until:?}");
                assert!(
                    events.iter().all(|e| e.at() <= until),
                    "handed back before {until:?} passed it"
                );
                handed.extend(events.iter().map(|e| (e.at(), e.program())));
                let due = pairs.partition_point(|&(at, _)| at < to);
                assert_eq!(
                    handed.len(),
                    due,
                    "covered {to:?} before handing it all back"
                );
                covered = Some(to);
                Ok(())
            })
            .expect("hand-back");
        covered
    }

    let (trace, config) = uneven_workload();
    let strategy = config.strategy().factory();
    let topo = build_topology(&trace, &config).expect("topology");
    let parts =
        DriverParts::new(&topo, trace.catalog(), &config, strategy.as_ref()).expect("parts");
    let seg_len = parts.segmenter.segment_len().as_secs();
    let records = trace.records();
    let (lookahead, window) = (SimDuration::from_hours(1), SimDuration::from_hours(1));
    let ahead = StrategySpec::Oracle { lookahead };
    let ahead = DriverParts::new(&topo, trace.catalog(), &config, &ahead).expect("parts");
    let behind = StrategySpec::Lfu { history: window };
    let behind = DriverParts::new(&topo, trace.catalog(), &config, &behind).expect("parts");

    let (strides, feed) = parts.survey(records).expect("survey");
    assert!(feed.is_none(), "lfu takes no feed");
    let spans: Vec<usize> = strides.runs.iter().map(|runs| runs[0].len()).collect();
    assert_eq!(spans, [3, 0, 1], "strides of {STRIDE} records");
    let mut every_pairs = Vec::new();
    for n in 0..spans.len() {
        let walk: Vec<_> = records
            .iter()
            .enumerate()
            .filter_map(|(i, rec)| {
                let ctx = session_ctx(rec, trace.catalog(), &topo, seg_len).expect("valid");
                (ctx.nbhd as usize == n).then_some((i as u64, *rec, ctx))
            })
            .collect();
        let pairs: Vec<_> = walk
            .iter()
            .map(|(_, rec, _)| (rec.start, rec.program))
            .collect();

        let mut supply = StreamSupply::new(&strides, &strides.runs[n], &ahead);
        let (mut gathered, mut handed, mut covered) = (Vec::new(), Vec::new(), SimTime::EPOCH);
        loop {
            let staged = supply.peek().expect("peek");
            supply
                .read_ahead(|events, to| {
                    assert!(to > covered, "neighborhood {n}: covered did not move on");
                    assert!(events.iter().all(|e| e.at() < to));
                    handed.extend(events.iter().map(|e| (e.at(), e.program())));
                    covered = to;
                    Ok(())
                })
                .expect("hand-over");
            let Some((start, gidx)) = staged else { break };
            assert!(
                start + lookahead <= covered,
                "neighborhood {n}: record {gidx} staged ahead of its look-ahead"
            );
            let session = supply.take();
            assert_eq!((start, gidx), (session.rec.start, session.gidx));
            gathered.push((session.gidx, session.rec, session.ctx));
        }
        assert_eq!(gathered, walk, "neighborhood {n}");
        assert_eq!(handed, pairs, "neighborhood {n}");
        assert_eq!(covered, SimTime::MAX, "neighborhood {n}");

        // The driver hands back before every access, then once more at
        // the end of time here, which must leave nothing behind.
        let mut supply = StreamSupply::new(&strides, &strides.runs[n], &behind);
        let mut handed = Vec::new();
        let mut hand_back = |supply: &mut StreamSupply<'_, _>, until: SimTime| {
            let covered = hand_back(supply, until, &mut handed, &pairs);
            assert_eq!(covered, Some(past(until)), "neighborhood {n}");
        };
        while let Some((start, _)) = supply.peek().expect("peek") {
            supply.take();
            if let Some(until) = start.checked_sub(window) {
                hand_back(&mut supply, until);
            }
        }
        hand_back(&mut supply, SimTime::MAX);
        assert_eq!(handed, pairs, "neighborhood {n}");
        every_pairs.push(pairs);
    }

    // The online ingress, advanced at every session's second: the driver
    // hands back before every access and at each advance's sweep, and one
    // advance a window past the last session hands back the rest.
    let spec = online::OnlineSpec::from_source(&trace);
    let last = records.last().expect("records").start;
    for window in [window, SimDuration::ZERO] {
        let lfu = StrategySpec::Lfu { history: window };
        let parts = DriverParts::new(&topo, trace.catalog(), &config, &lfu).expect("parts");
        let mut ingress = online::Ingress::new(&parts, &spec).expect("ingress");
        let mut supplies: Vec<_> = (0..spans.len())
            .map(|n| BlockSupply::new(n, trace.catalog(), &topo, &parts.segmenter))
            .collect();
        let mut handed = vec![Vec::new(); spans.len()];
        let mut block = Arc::new(Block::default());
        let mut advance = |ingress: &mut online::Ingress<'_>, now: SimTime| {
            let filling = Arc::get_mut(&mut block).expect("every supply let go of the block");
            ingress.fill(filling, Some(now)).expect("advance");
            for (n, supply) in supplies.iter_mut().enumerate() {
                supply.attach(&block);
                while let Some((start, _)) = supply.peek().expect("peek") {
                    supply.take();
                    if let Some(until) = start.checked_sub(window) {
                        hand_back(supply, until, &mut handed[n], &every_pairs[n]);
                    }
                }
                if let Some(until) = now.checked_sub(window) {
                    hand_back(supply, until, &mut handed[n], &every_pairs[n]);
                }
            }
        };
        for rec in records {
            ingress.admit(*rec, None).expect("submit");
            advance(&mut ingress, rec.start);
        }
        advance(&mut ingress, past(last + window));
        for (n, pairs) in every_pairs.iter().enumerate() {
            assert_eq!(&handed[n], pairs, "online, {window:?}, neighborhood {n}");
        }
    }

    // Under a feed strategy the same pass publishes every record's event
    // under its global index before any shard runs.
    let global = StrategySpec::GlobalLfu {
        history: SimDuration::from_days(1),
        lag: SimDuration::ZERO,
    }
    .factory();
    let feeding =
        DriverParts::new(&topo, trace.catalog(), &config, global.as_ref()).expect("parts");
    let (_, feed) = feeding.survey(records).expect("survey");
    let feed = feed.expect("global lfu takes the feed");
    let events = feed.events(0..feed.end());
    assert_eq!(events.len(), records.len());
    for (seq, (rec, event)) in records.iter().zip(events).enumerate() {
        let ctx = session_ctx(rec, trace.catalog(), &topo, seg_len).expect("valid");
        assert_eq!(
            *event,
            feed_event(rec, &ctx, &config, &feeding.segmenter),
            "record {seq}"
        );
    }

    // The same failure whichever worker count.
    let mut dangling = records.to_vec();
    dangling[2_500].program = ProgramId::new(30);
    let mut stranger = records.to_vec();
    stranger[17].user = UserId::new(150);
    for (records, expect) in [(dangling, "prog30 not present"), (stranger, "unknown user")] {
        let source = Tampered {
            trace: &trace,
            records,
        };
        let reference = run(&source, &config).expect_err(expect).to_string();
        assert!(reference.contains(expect), "{reference}");
        for threads in [1, 3] {
            let err = replay(&source, &config, strategy.as_ref(), threads).expect_err(expect);
            assert_eq!(err.to_string(), reference, "{threads} workers");
        }
    }
}

/// The blocked replay's demultiplexer moves records, and moves them
/// right: over a time-major and a neighborhood-major form of the same
/// trace, every block's neighborhood runs are each ascending in global
/// index and made of that neighborhood's records, together they are
/// exactly the stretch of the global order the block decoded, and the
/// block's edge is the start of the last record *decoded* — which, more
/// often than not, the grouping has moved away from the block's tail.
#[test]
fn demux_groups_each_block_in_order_and_keeps_the_decoded_edge() {
    use super::lifecycle::RecordSupply;
    use super::stream::{Block, BlockSupply, Demux};
    use cablevod_trace::columnar::{write_trace, ColumnarReader};
    use cablevod_trace::rechunk::rechunk_by_neighborhood;

    let (trace, config) = uneven_workload();
    let segmenter = Segmenter::new(config.segment_len(), config.stream_rate());
    let topo = build_topology(&trace, &config).expect("topology");
    let nbhd_count = topo.neighborhood_count();
    let records = trace.records();

    let mut tm = std::env::temp_dir();
    tm.push(format!("cvtc_demux_tm_{}.cvtc", std::process::id()));
    let mut nm = std::env::temp_dir();
    nm.push(format!("cvtc_demux_nm_{}.cvtc", std::process::id()));
    write_trace(&tm, &trace, 97).expect("write time-major");
    let tm_reader = ColumnarReader::open(&tm).expect("open time-major");
    // A grouping the plant does not share: the decoder merges the runs.
    rechunk_by_neighborhood(&tm_reader, &nm, 30, 97).expect("rechunk");
    let nm_reader = ColumnarReader::open(&nm).expect("open neighborhood-major");
    let chunked = ChunkedTrace::new(&trace, 97);
    let sources: [(&str, &dyn TraceSource); 2] =
        [("time-major", &chunked), ("neighborhood-major", &nm_reader)];

    for (layout, source) in sources {
        let runs = serial_runs(source);
        let mut demux = Demux::new(source, &runs, &topo, &config, segmenter, &StrategySpec::Lru);
        let mut supplies: Vec<_> = (0..nbhd_count)
            .map(|n| BlockSupply::new(n, trace.catalog(), &topo, &segmenter))
            .collect();
        let mut block = Arc::new(Block::default());
        let (mut published, mut blocks, mut edge_moved) = (0u64, 0, 0);
        loop {
            let filling = Arc::get_mut(&mut block).expect("every supply let go of the block");
            demux.fill(filling, None).expect("decode");
            blocks += 1;
            let mut seen = Vec::new();
            let mut tail = None;
            for (n, supply) in supplies.iter_mut().enumerate() {
                supply.attach(&block);
                let mut last = None;
                while let Some((start, gidx)) = supply.peek().expect("peek") {
                    let session = supply.take();
                    assert_eq!((start, gidx), (session.rec.start, session.gidx));
                    assert_eq!(session.ctx.nbhd as usize, n, "{layout}, record {gidx}");
                    assert_eq!(session.rec, records[gidx as usize], "{layout}");
                    assert!(last < Some(gidx), "{layout}: {gidx} after {last:?} in {n}");
                    last = Some(gidx);
                    seen.push(gidx);
                }
                tail = last.or(tail);
            }
            let decoded = published + seen.len() as u64;
            seen.sort_unstable();
            assert!(
                seen.iter().copied().eq(published..decoded),
                "{layout}, block {blocks}: not a permutation of records {published}..{decoded}"
            );
            published = decoded;
            let Some(edge) = block.edge else { break };
            assert_eq!(
                edge,
                records[decoded as usize - 1].start,
                "{layout}, block {blocks}"
            );
            edge_moved += usize::from(tail != Some(decoded - 1));
        }
        assert_eq!(published, records.len() as u64, "{layout}");
        assert!(blocks > 30, "{layout}: {blocks} blocks");
        assert!(
            edge_moved * 2 > blocks,
            "{layout}: the grouped tail was the decoded tail in all but {edge_moved} of {blocks}"
        );
    }
    std::fs::remove_file(&tm).ok();
    std::fs::remove_file(&nm).ok();
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

/// The continuation queue's (pushes, spills) over a replay of `trace`,
/// summed over the per-neighborhood drivers of the resident plan.
fn queue_counts(trace: &Trace, config: &SimConfig) -> (u64, u64) {
    use super::stream::StreamSupply;

    let strategy = config.strategy().factory();
    let topo = build_topology(trace, config).expect("topology");
    let parts = DriverParts::new(&topo, trace.catalog(), config, strategy.as_ref()).expect("parts");
    let (strides, feed) = parts.survey(trace.records()).expect("survey");
    let mut counts = (0, 0);
    for (n, runs) in strides.runs.iter().enumerate() {
        let supply = StreamSupply::new(&strides, runs, &parts);
        let mut driver = parts.driver(n, supply).expect("shard driver");
        driver.run(feed.as_ref()).expect("shard replay");
        let (pushed, spilled) = driver.queue_counts();
        counts = (counts.0 + pushed, counts.1 + spilled);
    }
    counts
}

/// What the continuation queue's cheap path rests on, counted: on a trace
/// whose seeks all sit on segment boundaries every continuation is
/// appended or inserted within reach, on every shard — nothing falls back
/// to the heap. Unaligned seeks and the retries of enforcing admission
/// under a fault plan do fall back, and replay exactly all the same
/// (`tests/streaming.rs::unaligned_seeks_and_retries_replay_exactly_on_every_path`).
#[test]
fn only_unaligned_seeks_and_retries_leave_arrival_order() {
    use crate::config::{AdmissionMode, RetryPolicy};
    use cablevod_hfc::fault::FaultPlan;

    let aligned = SynthConfig {
        seek_prob: 0.3,
        ..SynthConfig::smoke_test()
    };
    let trace = generate(&SynthConfig {
        users: 600,
        programs: 150,
        days: 6,
        ..aligned.clone()
    });
    let counts = queue_counts(&trace, &base_config());
    assert!(counts.0 > 10_000, "{counts:?}");
    assert_eq!(counts.1, 0, "an aligned replay spills nothing: {counts:?}");

    let unaligned = generate(&SynthConfig {
        users: 600,
        programs: 150,
        days: 6,
        seek_boundary_secs: 120,
        ..aligned
    });
    let faulty = base_config()
        .with_faults(FaultPlan::seeded(13, 3, SimDuration::from_days(6), 12, 4))
        .with_admission(AdmissionMode::Enforcing)
        .with_retry(RetryPolicy::paper_default());
    for config in [base_config(), faulty] {
        let counts = queue_counts(&unaligned, &config);
        assert!(counts.1 > 0, "{counts:?}");
    }
}
