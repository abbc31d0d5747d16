//! Conservation invariants: bytes must balance exactly across the plant.

mod helpers;

use std::collections::HashSet;

use cablevod_cache::IndexStats;
use cablevod_cache::{FillPolicy, StrategyRegistry, StrategySpec};
use cablevod_hfc::ids::{NeighborhoodId, ProgramId, UserId};
use cablevod_hfc::topology::{Topology, TopologyConfig};
use cablevod_hfc::units::{BitRate, DataSize, SimDuration};
use cablevod_sim::{run, AdmissionMode, FaultEvent, FaultPlan, SimConfig, SimReport, Simulation};
use cablevod_trace::catalog::{ProgramCatalog, ProgramInfo};
use cablevod_trace::record::{SessionRecord, Trace};
use cablevod_trace::source::ChunkedTrace;
use cablevod_trace::synth::{generate, SynthConfig};
use helpers::{medium_trace, serve_trace, tiny_config};

/// Total watched bytes in the trace at the stream rate — the offered load.
fn offered_bits(trace: &cablevod_trace::record::Trace) -> u64 {
    trace
        .iter()
        .map(|r| {
            let len = trace.catalog().length(r.program).expect("valid program");
            r.watched(len).as_secs() * BitRate::STREAM_MPEG2_SD.as_bps()
        })
        .sum()
}

fn config() -> SimConfig {
    SimConfig::paper_default()
        .with_neighborhood_size(500)
        .with_per_peer_storage(DataSize::from_gigabytes(4))
        .with_warmup_days(4)
}

#[test]
fn no_cache_server_carries_exactly_the_offered_load() {
    let trace = medium_trace();
    let report = run(&trace, &config().with_strategy(StrategySpec::NoCache)).expect("runs");
    assert_eq!(report.server_total.as_bits(), offered_bits(&trace));
}

#[test]
fn cached_run_splits_offered_load_between_server_and_peers() {
    let trace = medium_trace();
    let report = run(&trace, &config()).expect("runs");
    // Server carries strictly less than offered; nothing is created.
    let offered = offered_bits(&trace);
    assert!(report.server_total.as_bits() < offered);
    assert!(report.server_total.as_bits() > 0);
    // Every segment request is resolved exactly once.
    assert_eq!(report.cache.requests(), report.segment_requests);
}

#[test]
fn coax_carries_offered_load_regardless_of_strategy() {
    // The broadcast argument of §VI-B: the coax carries each watched
    // segment exactly once whether a peer or the headend sends it.
    let trace = medium_trace();
    let offered = offered_bits(&trace);
    for strategy in [
        StrategySpec::NoCache,
        StrategySpec::default_lfu(),
        StrategySpec::Lru,
    ] {
        let report = run(&trace, &config().with_strategy(strategy)).expect("runs");
        let coax_total: u64 = report.segment_requests; // sanity anchor
        assert!(coax_total > 0);
        // Sum the coax meters: equal to offered bits for every strategy.
        // (The report exposes peak stats; totals are validated through the
        // server + hit identity below.)
        let server = report.server_total.as_bits();
        let peer_served = offered - server;
        let hit_fraction = report.cache.hits as f64 / report.cache.requests() as f64;
        if matches!(strategy, StrategySpec::NoCache) {
            assert_eq!(peer_served, 0);
            assert_eq!(hit_fraction, 0.0);
        } else {
            // Peer-served bytes only exist when there are hits, and vice
            // versa.
            assert_eq!(peer_served > 0, report.cache.hits > 0);
        }
    }
}

#[test]
fn prefetch_and_broadcast_fill_conserve_identically() {
    // Fill policy changes WHO serves, never how much is watched.
    let trace = medium_trace();
    let offered = offered_bits(&trace);
    let capture = run(
        &trace,
        &config().with_fill_override(FillPolicy::OnBroadcast),
    )
    .expect("runs");
    let push = run(&trace, &config().with_fill_override(FillPolicy::Prefetch)).expect("runs");
    assert_eq!(capture.segment_requests, push.segment_requests);
    assert!(capture.server_total.as_bits() <= offered);
    assert!(
        push.server_total <= capture.server_total,
        "push saves fill misses"
    );
}

#[test]
fn stats_identities_hold() {
    let trace = medium_trace();
    let report = run(&trace, &config()).expect("runs");
    let s = &report.cache;
    assert_eq!(
        s.requests(),
        s.hits + s.miss_uncached + s.miss_not_materialized + s.miss_peer_busy
    );
    assert!(
        s.evictions <= s.admissions,
        "cannot evict what was never admitted"
    );
    assert!(s.capture_fills <= s.miss_not_materialized + s.miss_peer_busy + s.hits + 1);
    let rate = s.hit_rate();
    assert!((0.0..=1.0).contains(&rate));
}

/// A metamorphic relation (degenerate caches collapse to the baseline):
/// with no storage on any box nothing can be served from a peer, so under
/// every registry strategy the central server carries exactly
/// `no-cache`'s bytes — in total, in every peak window and in every hour
/// of the day — and the coax exactly its rates, through `run`, a
/// streamed `Simulation` on two workers and the online engine.
#[test]
fn zero_storage_collapses_every_strategy_to_no_cache() {
    let trace = generate(&tiny_config(600, 120, 4, 29));
    let chunked = ChunkedTrace::new(&trace, 256);
    let base = config()
        .with_neighborhood_size(200)
        .with_per_peer_storage(DataSize::ZERO)
        .with_warmup_days(1);
    let no_cache = run(&trace, &base.clone().with_strategy(StrategySpec::NoCache)).expect("runs");
    assert!(no_cache.server_total.as_bits() > 0);
    for name in StrategyRegistry::builtin().names() {
        let spec = StrategySpec::parse(name).expect("a registry name parses");
        let config = base.clone().with_strategy(spec);
        let paths = [
            ("run", run(&trace, &config)),
            (
                "streamed on 2",
                Simulation::over(&chunked)
                    .config(config.clone())
                    .threads(2)
                    .run()
                    .map(|outcome| outcome.report),
            ),
            (
                "online",
                serve_trace(&trace, &config, spec.factory().as_ref()),
            ),
        ];
        for (path, report) in paths {
            let report = report.unwrap_or_else(|e| panic!("{name} through {path}: {e}"));
            let what = format!("{name} through {path}");
            assert_eq!(report.server_total, no_cache.server_total, "{what}");
            assert_eq!(report.server_peak, no_cache.server_peak, "{what}");
            assert_eq!(report.server_hourly, no_cache.server_hourly, "{what}");
            assert_eq!(report.coax_peak, no_cache.coax_peak, "{what}");
            assert_eq!(
                report.coax_per_neighborhood, no_cache.coax_per_neighborhood,
                "{what}"
            );
        }
    }
}

/// The bits of the compulsory misses of a replay of `trace` under
/// `config`: every segment request the trace implies — a session
/// watches `[offset, offset + watched)` of its program, one request per
/// segment it overlaps, at the second playback reaches it — ordered as
/// the paper's event loop orders them (time; at one second, session
/// starts before continuations; then record index), and of those the
/// first to each (neighborhood, program, segment), counted at the bits
/// it streams. Written from the records, the public `Topology` and
/// segment arithmetic alone.
fn compulsory_miss_bits(trace: &Trace, config: &SimConfig) -> u64 {
    let topo = Topology::build(TopologyConfig::new(
        trace.user_count(),
        config.neighborhood_size(),
    ))
    .expect("topology");
    let seg = config.segment_len().as_secs();
    let bps = config.stream_rate().as_bps();
    let mut requests = Vec::new();
    for (gidx, rec) in trace.iter().enumerate() {
        let length = trace.catalog().length(rec.program).expect("valid program");
        let nbhd = topo.neighborhood_of_user(rec.user).expect("placed").index();
        let offset = rec.offset.min(length).as_secs();
        let end = offset + rec.watched(length).as_secs();
        let mut pos = offset;
        while pos < end {
            let k = pos / seg;
            let upto = ((k + 1) * seg).min(end);
            let at = rec.start.as_secs() + (pos - offset);
            let continuation = pos != offset;
            requests.push((
                at,
                continuation,
                gidx,
                (nbhd, rec.program, k),
                (upto - pos) * bps,
            ));
            pos = upto;
        }
    }
    requests.sort_unstable();
    let mut seen = HashSet::new();
    requests
        .into_iter()
        .filter(|&(_, _, _, segment, _)| seen.insert(segment))
        .map(|(.., bits)| bits)
        .sum()
}

/// A metamorphic relation (compulsory misses): with storage for the
/// whole catalog in every neighborhood and the stream-slot limit lifted
/// (255), a strategy that admits what is accessed and never evicts with
/// room to spare fetches each segment from the central server exactly
/// once per neighborhood — at its first request, whose bits are what that
/// request streams (a seek or an early stop streams part of a segment) —
/// and serves every later request from the peer that captured it. So
/// `server_total` equals [`compulsory_miss_bits`], computed without the
/// engine, on a trace that seeks to jump points two minutes apart.
///
/// It holds for `lfu`, `lru`, `arc`, `delayed-lfu` (its fetch model
/// moves no bytes) and `global-lfu` (feed admissions of programs watched
/// elsewhere are captured off the first local broadcast, like any
/// other), through `run` and a `Simulation` on two workers. It does not
/// hold, by design, for the other four: `no-cache` serves everything from
/// the server; `oracle` and `prior-storing` push content before its first
/// local request, so the server carries less;
/// `tlru` expires content that is then fetched again, so it carries more.
#[test]
fn full_storage_fetches_each_segment_once_per_neighborhood() {
    let trace = generate(&SynthConfig {
        seek_prob: 0.3,
        seek_boundary_secs: 120,
        ..tiny_config(600, 120, 4, 31)
    });
    let nominal = BitRate::STREAM_MPEG2_SD * SimDuration::from_minutes(5);
    let catalog_slots: u64 = trace
        .catalog()
        .iter()
        .map(|(_, info)| info.length.as_secs().div_ceil(300))
        .sum();
    // 200 subscribers a neighborhood, the last one 200 too: each peer's
    // share of the catalog, rounded up.
    let base = config()
        .with_neighborhood_size(200)
        .with_per_peer_storage(nominal * catalog_slots.div_ceil(200))
        .with_stream_slots(255)
        .with_warmup_days(0);
    let compulsory = compulsory_miss_bits(&trace, &base);
    for name in StrategyRegistry::builtin().names() {
        let config = base
            .clone()
            .with_strategy(StrategySpec::parse(name).expect("a registry name parses"));
        let reference = run(&trace, &config).expect("runs");
        let sharded = Simulation::over(&trace)
            .config(config.clone())
            .threads(2)
            .run()
            .expect("runs")
            .report;
        for (path, report) in [("run", reference), ("2 workers", sharded)] {
            let server = report.server_total.as_bits();
            let what = format!("{name} through {path}: server {server}, compulsory {compulsory}");
            match name {
                "no-cache" | "tlru" => assert!(server > compulsory, "{what}"),
                "oracle" | "prior-storing" => assert!(server < compulsory, "{what}"),
                _ => assert_eq!(server, compulsory, "{what}"),
            }
        }
    }
}

/// `trace` with program `p` renamed `n - 1 - p` (of `n` programs), each
/// catalogue entry moving with its id: every order between two ids flips,
/// so any decision that breaks a tie by program id decides the other way.
fn reverse_program_ids(trace: &Trace) -> Trace {
    let n = trace.catalog().len() as u32;
    let relabel = |p: ProgramId| ProgramId::new(n - 1 - p.value());
    let catalog: ProgramCatalog = (0..n)
        .rev()
        .map(|p| *trace.catalog().get(ProgramId::new(p)).expect("in catalog"))
        .collect();
    let records = trace
        .iter()
        .map(|r| SessionRecord {
            program: relabel(r.program),
            ..*r
        })
        .collect();
    Trace::new(records, catalog, trace.user_count(), trace.days()).expect("relabelled trace")
}

/// A metamorphic relation (relabelling changes nothing): no report field
/// is keyed by program, so renaming the programs — with their catalogue
/// entries — must leave every report equal, under every registry
/// strategy, through `run` and a `Simulation` on two workers.
///
/// It holds exactly for eight of the nine strategies. `oracle` files a
/// program under its future count alone, so two programs with equal
/// future counts are ordered by id (`oracle.rs`, "Ties"): reversing the
/// ids reverses its choice between them and moves its server bytes. For
/// it only what no cache decision touches — sessions, segment requests
/// and the coax, which carries every watched segment once whoever sends
/// it — must be equal.
#[test]
fn reversing_program_ids_changes_no_report() {
    let trace = generate(&SynthConfig {
        seek_prob: 0.3,
        ..tiny_config(600, 120, 4, 37)
    });
    let relabelled = reverse_program_ids(&trace);
    let base = config()
        .with_neighborhood_size(200)
        .with_per_peer_storage(DataSize::from_gigabytes(1))
        .with_warmup_days(1);
    for name in StrategyRegistry::builtin().names() {
        let config = base
            .clone()
            .with_strategy(StrategySpec::parse(name).expect("a registry name parses"));
        let both = |trace: &Trace| {
            let reference = run(trace, &config).expect("runs");
            let sharded = Simulation::over(trace)
                .config(config.clone())
                .threads(2)
                .run()
                .expect("runs")
                .report;
            [("run", reference), ("2 workers", sharded)]
        };
        for ((path, a), (_, b)) in both(&trace).into_iter().zip(both(&relabelled)) {
            let what = format!("{name} through {path}");
            if name == "oracle" {
                assert_eq!(a.sessions, b.sessions, "{what}");
                assert_eq!(a.segment_requests, b.segment_requests, "{what}");
                assert_eq!(a.coax_peak, b.coax_peak, "{what}");
                assert_eq!(a.coax_per_neighborhood, b.coax_per_neighborhood, "{what}");
            } else {
                assert_eq!(a, b, "{what}");
            }
        }
    }
}

/// `trace` moved `weeks` whole weeks later: every start, every catalogue
/// entry's introduction day and the trace's length, so each session keeps
/// its hour of the day, its day of the week and its program's age.
fn shift_by_weeks(trace: &Trace, weeks: u64) -> Trace {
    let days = 7 * weeks;
    let catalog: ProgramCatalog = trace
        .catalog()
        .iter()
        .map(|(_, info)| ProgramInfo {
            introduced_day: info.introduced_day + days as i64,
            ..*info
        })
        .collect();
    let records = trace
        .iter()
        .map(|r| SessionRecord {
            start: r.start + SimDuration::from_days(days),
            ..*r
        })
        .collect();
    Trace::new(records, catalog, trace.user_count(), trace.days() + days).expect("shifted trace")
}

/// A metamorphic relation (time shift): a trace moved one or two whole
/// weeks later, with the warm-up moved with it, must report what the
/// unshifted trace reports, under every registry strategy, through the
/// reference `run` and a `Simulation` on two workers — the measured days
/// moved by exactly the shift. Anything else that moves depends on
/// absolute time.
///
/// One field is left out by construction: `server_hourly` averages each
/// hour of the day over every day from day 0, so the shifted trace's
/// leading empty weeks dilute it.
#[test]
fn shifting_by_whole_weeks_changes_no_report() {
    let trace = generate(&SynthConfig {
        seek_prob: 0.3,
        ..tiny_config(600, 120, 4, 41)
    });
    let base = config()
        .with_neighborhood_size(200)
        .with_per_peer_storage(DataSize::from_gigabytes(1));
    for name in StrategyRegistry::builtin().names() {
        let spec = StrategySpec::parse(name).expect("a registry name parses");
        let both = |trace: &Trace, warmup_days: u64| {
            let config = base
                .clone()
                .with_strategy(spec)
                .with_warmup_days(warmup_days);
            let reference = run(trace, &config).expect("runs");
            let sharded = Simulation::over(trace)
                .config(config)
                .threads(2)
                .run()
                .expect("runs")
                .report;
            [("run", reference), ("2 workers", sharded)]
        };
        let unshifted = both(&trace, 1);
        for weeks in [1, 2] {
            let days = 7 * weeks;
            let shifted = both(&shift_by_weeks(&trace, weeks), 1 + days);
            for ((path, a), (_, mut b)) in unshifted.iter().zip(shifted) {
                let what = format!("{name} through {path}, {weeks} week(s) later");
                assert_eq!(b.measured_from_day, a.measured_from_day + days, "{what}");
                assert_eq!(b.measured_to_day, a.measured_to_day + days, "{what}");
                b.measured_from_day = a.measured_from_day;
                b.measured_to_day = a.measured_to_day;
                b.server_hourly = a.server_hourly;
                assert_eq!(&b, a, "{what}");
            }
        }
    }
}

/// `trace`'s population replicated `k` times through the public
/// `Topology`: copy `j` of the `i`-th member of neighbourhood `n` (of
/// `N`, at `size`) is the `i`-th member of neighbourhood `n + j·N` of a
/// `k`-times plant, and watches what the original watched, when it
/// watched it — no jitter. Within each copy's neighbourhood the records
/// keep their original order. `size` must divide the user count, so
/// every neighbourhood is full at both populations.
fn replicate_population(trace: &Trace, size: u32, k: u32) -> Trace {
    let users = trace.user_count();
    assert_eq!(users % size, 0, "every neighbourhood full");
    let plant = |users| Topology::build(TopologyConfig::new(users, size)).expect("topology");
    let (base, big) = (plant(users), plant(k * users));
    let n = base.neighborhood_count() as u32;
    let mut copies = vec![Vec::new(); users as usize];
    for nbhd in base.neighborhoods() {
        for (i, peer) in nbhd.members().iter().enumerate() {
            copies[peer.index()] = (0..k)
                .map(|j| {
                    let id = NeighborhoodId::new(nbhd.id().value() + j * n);
                    let copy = big.neighborhood(id).expect("in the big plant").members()[i];
                    UserId::new(copy.value())
                })
                .collect();
        }
    }
    let records = trace
        .iter()
        .flat_map(|r| {
            copies[r.user.index()]
                .iter()
                .map(|&user| SessionRecord { user, ..*r })
        })
        .collect();
    Trace::new(records, trace.catalog().clone(), k * users, trace.days()).expect("replicated")
}

/// `plan` replicated like the population: an event scoped to
/// neighbourhood `n` of `n_count` recurs on every copy `n + j·n_count`;
/// a plant-wide event stays one event.
fn replicate_plan(plan: &FaultPlan, n_count: u32, k: u32) -> FaultPlan {
    let events = plan
        .events()
        .iter()
        .flat_map(|ev| {
            let copies = if ev.scope.is_some() { k } else { 1 };
            (0..copies).map(move |j| FaultEvent {
                scope: ev
                    .scope
                    .map(|n| NeighborhoodId::new(n.value() + j * n_count)),
                ..*ev
            })
        })
        .collect();
    FaultPlan::new(events).expect("a replicated plan is valid")
}

/// `trace` without the sessions that share their start second with
/// another session of their neighbourhood (at `size`). `Trace` orders
/// one second's records by user id, and the copies of a neighbourhood's
/// members need not keep their originals' id order, so on a tie the
/// copy of a neighbourhood could start its sessions in another order.
fn without_same_second_starts(trace: &Trace, size: u32) -> Trace {
    let topo = Topology::build(TopologyConfig::new(trace.user_count(), size)).expect("topology");
    let key = |r: &SessionRecord| {
        (
            topo.neighborhood_of_user(r.user).expect("a member"),
            r.start,
        )
    };
    let mut starts = std::collections::HashMap::new();
    for r in trace.iter() {
        *starts.entry(key(r)).or_insert(0u32) += 1;
    }
    let records = trace
        .iter()
        .filter(|r| starts[&key(r)] == 1)
        .copied()
        .collect();
    Trace::new(
        records,
        trace.catalog().clone(),
        trace.user_count(),
        trace.days(),
    )
    .expect("a subset")
}

/// Asserts the replicated run's report is `k` times the base run's in
/// every additive counter, and equal neighbourhood by neighbourhood
/// (copy `j` of neighbourhood `n` is `n + j·n_count`).
fn assert_k_times(base: &SimReport, big: &SimReport, k: u64, n_count: usize, what: &str) {
    assert_eq!(big.sessions, k * base.sessions, "{what}: sessions");
    let requests = k * base.segment_requests;
    assert_eq!(big.segment_requests, requests, "{what}: segment requests");
    let overcommits = k * base.viewer_overcommits;
    assert_eq!(big.viewer_overcommits, overcommits, "{what}: overcommits");
    let s = &base.cache;
    let cache = IndexStats {
        hits: k * s.hits,
        miss_uncached: k * s.miss_uncached,
        miss_not_materialized: k * s.miss_not_materialized,
        miss_peer_busy: k * s.miss_peer_busy,
        admissions: k * s.admissions,
        evictions: k * s.evictions,
        capture_fills: k * s.capture_fills,
        delayed_hits: k * s.delayed_hits,
        inflight_misses: k * s.inflight_misses,
    };
    assert_eq!(big.cache, cache, "{what}: index stats");
    let server = k * base.server_total.as_bits();
    assert_eq!(big.server_total.as_bits(), server, "{what}: server total");
    assert_eq!(base.coax_per_neighborhood.len(), n_count, "{what}");
    let coax = base.coax_per_neighborhood.repeat(k as usize);
    assert_eq!(
        big.coax_per_neighborhood, coax,
        "{what}: coax per neighbourhood"
    );
    let samples = k as usize * base.coax_peak.samples;
    assert_eq!(big.coax_peak.samples, samples, "{what}: coax samples");
    assert_eq!(big.coax_peak.max, base.coax_peak.max, "{what}: coax max");
    match (&base.degradation, &big.degradation) {
        (None, None) => {}
        (Some(a), Some(b)) => {
            assert_eq!(
                b.blocked_sessions,
                k * a.blocked_sessions,
                "{what}: blocked"
            );
            let interrupted = k * a.interrupted_sessions;
            assert_eq!(b.interrupted_sessions, interrupted, "{what}: interrupted");
            assert_eq!(b.retries, k * a.retries, "{what}: retries");
            let histogram: Vec<u64> = a.retry_histogram.iter().map(|h| k * h).collect();
            assert_eq!(b.retry_histogram, histogram, "{what}: retry histogram");
            let per = vec![a.per_neighborhood.clone(); k as usize].concat();
            assert_eq!(
                b.per_neighborhood, per,
                "{what}: degradation per neighbourhood"
            );
        }
        _ => panic!("{what}: one run has a degradation section and the other not"),
    }
}

/// A metamorphic relation (population replication is exactly linear):
/// `k` copies of every neighbourhood, each with the same members in the
/// same order watching the same sessions at the same times (k = 2, 3),
/// under every registry strategy that takes no global feed, under both
/// admission modes, over a healthy plant and a seeded fault plan
/// replicated the same way, report `k` times the sessions, segment
/// requests, overcommits, every `IndexStats` field, every degradation
/// counter and the server's bytes, and the same coax neighbourhood by
/// neighbourhood — through `run` (one driver per neighbourhood, serial).
///
/// The base trace drops the few sessions (16 of 3 649) that start in the
/// same second as another session of their neighbourhood: one second's
/// records are ordered by user id, which the copies' ids need not keep.
/// With them left in, `lru` and `tlru` overcommit 2 more boxes than `k`
/// times, and `arc` at k = 3 serves 0.02 % fewer server bytes.
///
/// Left out, because they are rates derived by integer division of
/// summed bits: `server_peak` and `server_hourly` (`⌊k·b/s⌋` need not be
/// `k·⌊b/s⌋`), and `coax_peak`'s mean and quantiles (pooled over `k`
/// times the samples). Default (balanced) placement only: `Random`
/// placement seeds each neighbourhood's draws with its id, so a copy
/// draws differently from its original.
///
/// `global-lfu` and `prior-storing` read the whole plant's popularity
/// feed, which `k` copies make `k` times louder, so no exact relation
/// holds for them: the test prints how far their counters move from
/// `k` times instead of asserting (run with `--nocapture`).
#[test]
fn replicating_the_population_scales_every_counter_exactly() {
    const SIZE: u32 = 100;
    let full = generate(&SynthConfig {
        seek_prob: 0.3,
        ..tiny_config(4 * SIZE, 100, 4, 43)
    });
    let trace = without_same_second_starts(&full, SIZE);
    assert!(trace.len() > full.len() * 99 / 100, "ties are rare");
    let n_count = trace.user_count() / SIZE;
    let seeded = FaultPlan::seeded(7, n_count, SimDuration::from_days(trace.days()), 6, 4);
    let base = config()
        .with_neighborhood_size(SIZE)
        .with_per_peer_storage(DataSize::from_gigabytes(1))
        .with_warmup_days(1);
    for k in [2, 3] {
        let big_trace = replicate_population(&trace, SIZE, k);
        for name in StrategyRegistry::builtin().names() {
            let spec = StrategySpec::parse(name).expect("a registry name parses");
            let exact = !spec.factory().needs_feed();
            for admission in [AdmissionMode::Counting, AdmissionMode::Enforcing] {
                for (plan_name, plan) in
                    [("healthy", FaultPlan::empty()), ("faults", seeded.clone())]
                {
                    let config = base.clone().with_strategy(spec).with_admission(admission);
                    let big_plan = replicate_plan(&plan, n_count, k);
                    let a = run(&trace, &config.clone().with_faults(plan)).expect("runs");
                    let b = run(&big_trace, &config.with_faults(big_plan)).expect("runs");
                    let what = format!("{name}, {admission:?}, {plan_name}, k = {k}");
                    if exact {
                        assert_k_times(&a, &b, u64::from(k), n_count as usize, &what);
                    } else {
                        let k = k as f64;
                        let off =
                            |big: u64, base: u64| 100.0 * (big as f64 / (k * base as f64) - 1.0);
                        eprintln!(
                            "{what}: server bytes {:+.2} %, hits {:+.2} %, admissions {:+.2} %, \
                             evictions {:+.2} % off k times",
                            off(b.server_total.as_bits(), a.server_total.as_bits()),
                            off(b.cache.hits, a.cache.hits),
                            off(b.cache.admissions, a.cache.admissions),
                            off(b.cache.evictions, a.cache.evictions),
                        );
                    }
                }
            }
        }
    }
}
