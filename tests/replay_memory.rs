//! Replays' peak live heap, counted by a global allocator of
//! this binary's own (a `/proc` reading would also count whatever else the
//! process does).
//!
//! Every driver of a blocked replay stays alive from the first block to
//! the last, so whatever an index keeps per access is multiplied by the
//! accesses in its history window and again by the neighborhoods. An LFU
//! index keeps none: its neighborhood's accesses are handed back by the
//! record supply as they leave the window (`cablevod_cache::history`).
//! So what an LFU replay holds beyond an LRU replay of the same file —
//! counts and score sets, by program — must not grow when the same
//! subscribers make twice the sessions in the same week. An index copying
//! its accesses into a ring of its own fails that: its ring is the window.
//!
//! The same holds for the resident plan's Oracle and the days ahead of
//! it: its index is handed its future a look-ahead at a time, not whole.
//! And a resident shard reads its records a stride at a time, so what a
//! serial resident replay holds does not grow when one neighborhood
//! carries the whole load instead of a sixth of it.
//!
//! The online engine is held to the same: its ingress keeps one ring of
//! the accesses submitted and hands each back through the blocks as it
//! leaves the window, so what an online LFU holds beyond an online LRU
//! must not grow with the days submitted.
//!
//! Nor may it grow by a record for every program id in the catalog. An
//! index keeps a record only for the programs its neighborhood keeps
//! something about, behind a 4-byte slot an id (`cablevod_cache::slots`),
//! so spreading the same programs over twenty times the ids, the rest of
//! them never watched, costs each neighborhood's LFU its slots and no
//! more.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::{Mutex, PoisonError};

use cablevod_cache::{StrategyRegistry, StrategySpec};
use cablevod_hfc::ids::{ProgramId, UserId};
use cablevod_hfc::units::{DataSize, SimDuration, SimTime};
use cablevod_sim::{serve_serial, OnlineSpec, SimConfig, SimReport, Simulation};
use cablevod_trace::catalog::ProgramCatalog;
use cablevod_trace::columnar::{write_trace, ColumnarReader};
use cablevod_trace::rechunk::neighborhood_groups;
use cablevod_trace::record::{SessionRecord, Trace};
use cablevod_trace::source::TraceSource;
use cablevod_trace::synth::{generate, generate_to_disk, SynthConfig};

struct Counting;

thread_local! {
    /// Counting covers the measuring thread only: the test harness's
    /// own threads allocate too.
    static COUNTING: Cell<bool> = const { Cell::new(false) };
}

// Statistics only, read after the counted work on the same thread.
static LIVE: AtomicI64 = AtomicI64::new(0);
static PEAK: AtomicI64 = AtomicI64::new(0);

fn note(delta: i64) {
    if COUNTING.try_with(Cell::get).unwrap_or(false) {
        let live = LIVE.fetch_add(delta, Ordering::Relaxed) + delta;
        PEAK.fetch_max(live, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counters touch no
// allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size() as i64);
        // SAFETY: the caller's obligations are passed through as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size() as i64);
        // SAFETY: the caller's obligations are passed through as is.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size as i64 - layout.size() as i64);
        // SAFETY: the caller's obligations are passed through as is.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        note(-(layout.size() as i64));
        // SAFETY: the caller's obligations are passed through as is.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// The peak live heap `work` adds on this thread, in bytes. One
/// measurement at a time: the counters are shared by every test thread.
fn peak_heap(work: impl FnOnce()) -> u64 {
    static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());
    let _measuring = ONE_AT_A_TIME.lock().unwrap_or_else(PoisonError::into_inner);
    LIVE.store(0, Ordering::Relaxed);
    PEAK.store(0, Ordering::Relaxed);
    COUNTING.with(|on| on.set(true));
    work();
    COUNTING.with(|on| on.set(false));
    PEAK.load(Ordering::Relaxed) as u64
}

struct TempDir(PathBuf);

impl Drop for TempDir {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.0).ok();
    }
}

/// A week of 3 000 subscribers in six neighborhoods, `rate` sessions a
/// subscriber-day, written time-major, then replayed serially (the
/// blocked replay, every driver on this thread) under `lru` and under a
/// week-long `lfu`, which no access leaves. Returns the records and the
/// two replays' peak heaps.
fn replay(dir: &Path, rate: f64) -> (u64, u64, u64) {
    let synth = SynthConfig {
        users: 3_000,
        programs: 400,
        days: 6,
        seed: 38,
        sessions_per_user_day: rate,
        ..SynthConfig::powerinfo()
    };
    let path = dir.join(format!("tm{rate}.cvtc"));
    generate_to_disk(&synth, &path, 4_096).expect("generate");
    let reader = ColumnarReader::open(&path).expect("open");
    let config = SimConfig::paper_default()
        .with_neighborhood_size(500)
        .with_per_peer_storage(DataSize::from_gigabytes(2))
        .with_warmup_days(3);
    let [lru, lfu] = [StrategySpec::Lru, StrategySpec::default_lfu()].map(|spec| {
        peak_heap(|| {
            let outcome = Simulation::over(&reader)
                .config(config.clone())
                .strategy(spec)
                .serial()
                .run()
                .expect("replays");
            assert_eq!(outcome.telemetry.decode.chunks, reader.chunk_count() as u64);
        })
    });
    (reader.record_count(), lru, lfu)
}

#[test]
fn lfu_drivers_heap_does_not_grow_with_the_events_in_the_window() {
    let dir =
        TempDir(std::env::temp_dir().join(format!("cvtc_replay_memory_{}", std::process::id())));
    std::fs::create_dir_all(&dir.0).expect("create test dir");

    let (records, lru, lfu) = replay(&dir.0, 2.39);
    let (records2, lru2, lfu2) = replay(&dir.0, 4.78);
    assert!(
        records2 >= 2 * records - records / 20,
        "{records} -> {records2}"
    );
    let (extra, extra2) = (lfu.saturating_sub(lru), lfu2.saturating_sub(lru2));
    // A ring of 8-byte events would add at least `8 × records` bytes when
    // the records double; what the LFU adds is by program, and the
    // catalog is the same.
    assert!(
        extra2 <= extra + records / 8,
        "{records} -> {records2} records moved the LFU's heap over LRU from {extra} B to \
         {extra2} B (LRU {lru} -> {lru2} B, LFU {lfu} -> {lfu2} B)"
    );
}

/// `trace` with program `p` renamed `k·p` in a catalog `k` times as long:
/// ids `k·p + 1 ..= k·p + k − 1` are programs nobody watches (each a copy
/// of `p`'s entry). The renaming keeps every order between two ids, so
/// even a decision that breaks a tie by program id decides the same way.
fn spread_program_ids(trace: &Trace, k: u32) -> Trace {
    let catalog: ProgramCatalog = trace
        .catalog()
        .iter()
        .flat_map(|(_, info)| std::iter::repeat_n(*info, k as usize))
        .collect();
    let records = trace
        .iter()
        .map(|r| SessionRecord {
            program: ProgramId::new(k * r.program.value()),
            ..*r
        })
        .collect();
    Trace::new(records, catalog, trace.user_count(), trace.days()).expect("spread trace")
}

/// A relation over the catalog's ids. Spread over twenty times the ids,
/// a week of 3 000 subscribers in six neighborhoods, replayed time-major
/// from a file (the blocked replay, every driver on this thread), must
/// give every registry strategy the report it gives the dense catalog.
/// And what the week-long `lfu` holds beyond `lru` may grow by no more
/// than its slot maps: 4 B for each added id in each neighborhood. A
/// table holding a record for every id grows by that record instead — a
/// 40-byte LFU entry an id did.
#[test]
fn spreading_program_ids_changes_no_report_and_costs_a_slot_an_id() {
    const K: u32 = 20;
    const NEIGHBORHOODS: i64 = 6;
    let dir = TempDir(std::env::temp_dir().join(format!("cvtc_spread_ids_{}", std::process::id())));
    std::fs::create_dir_all(&dir.0).expect("create test dir");
    let dense = generate(&SynthConfig {
        users: 3_000,
        programs: 400,
        days: 6,
        seed: 38,
        ..SynthConfig::powerinfo()
    });
    let spread = spread_program_ids(&dense, K);
    let added_ids = i64::from(K - 1) * dense.catalog().len() as i64;
    let config = SimConfig::paper_default()
        .with_neighborhood_size(500)
        .with_per_peer_storage(DataSize::from_gigabytes(2))
        .with_warmup_days(3);
    let readers = [("dense", &dense), ("spread", &spread)].map(|(name, trace)| {
        let path = dir.0.join(format!("{name}.cvtc"));
        write_trace(&path, trace, 4_096).expect("write");
        ColumnarReader::open(&path).expect("open")
    });
    let replay = |reader: &ColumnarReader, spec: StrategySpec| -> SimReport {
        Simulation::over(reader)
            .config(config.clone())
            .strategy(spec)
            .serial()
            .run()
            .expect("replays")
            .report
    };
    for name in StrategyRegistry::builtin().names() {
        let spec = StrategySpec::parse(name).expect("a registry name parses");
        let [a, b] = readers.each_ref().map(|reader| replay(reader, spec));
        assert_eq!(a, b, "{name}: spreading the program ids moved the report");
    }
    let [extra, extra_spread] = readers.each_ref().map(|reader| {
        let [lru, lfu] = [StrategySpec::Lru, StrategySpec::default_lfu()]
            .map(|spec| peak_heap(|| drop(replay(reader, spec))) as i64);
        lfu - lru
    });
    let slots = 4 * added_ids * NEIGHBORHOODS;
    assert!(
        extra_spread <= extra + slots,
        "{added_ids} more ids moved the LFU's heap over LRU from {extra} B to {extra_spread} B, \
         more than {slots} B of slots"
    );
}

/// The peak heaps of a resident replay of `days` of 3 000 subscribers in
/// six neighborhoods, at the same daily load whatever `days`, serially
/// (the resident plan, one shard alive at a time) under `lru` and under a
/// one-day `oracle`. Returns the records and the two peaks.
fn resident_oracle_replay(days: u64) -> (u64, u64, u64) {
    let trace = generate(&SynthConfig {
        users: 3_000,
        programs: 400,
        days,
        seed: 38,
        ..SynthConfig::powerinfo()
    });
    let config = SimConfig::paper_default()
        .with_neighborhood_size(500)
        .with_per_peer_storage(DataSize::from_gigabytes(2))
        .with_warmup_days(3);
    let oracle = StrategySpec::Oracle {
        lookahead: SimDuration::from_days(1),
    };
    let [lru, oracle] = [StrategySpec::Lru, oracle].map(|spec| {
        peak_heap(|| {
            Simulation::over(&trace)
                .config(config.clone())
                .strategy(spec)
                .serial()
                .run()
                .expect("replays");
        })
    });
    (trace.record_count(), lru, oracle)
}

/// A relation over the trace's length on the resident plan. The Oracle's
/// index is handed its future by the record supply a look-ahead at a time
/// (`cablevod_cache::schedule`), so what it holds beyond an LRU index —
/// per-program counts and a day of its neighborhood's accesses — must not
/// grow when the same subscribers' trace covers twice the days at the
/// same daily load. The tolerance is an eighth of a byte for each record
/// of the shorter trace (about 5 KB). A window handed its neighborhood's
/// whole future holds 8 bytes for every access still to come: at least
/// 8 × 7 000 B more here, for the busiest of six neighborhoods.
#[test]
fn resident_oracle_heap_does_not_grow_with_the_days_ahead() {
    let (records, lru, oracle) = resident_oracle_replay(6);
    let (records2, lru2, oracle2) = resident_oracle_replay(12);
    assert!(
        records2 >= 2 * records - records / 20,
        "{records} -> {records2}"
    );
    let (extra, extra2) = (oracle.saturating_sub(lru), oracle2.saturating_sub(lru2));
    assert!(
        extra2 <= extra + records / 8,
        "{records} -> {records2} records moved the Oracle's heap over LRU from {extra} B to \
         {extra2} B (LRU {lru} -> {lru2} B, Oracle {oracle} -> {oracle2} B)"
    );
}

/// A relation over one neighborhood's load on the resident plan. Six days
/// of 3 000 subscribers in six neighborhoods replay serially under `lru`,
/// once as generated and once with every record's subscriber renamed
/// into neighborhood 0, which then carries all of them. A shard reads its
/// records a stride at a time through its cursors, and only one shard is
/// alive at a time, so the two peaks may differ only by what the survey's
/// membership lists hold: 4 B a record either way, plus what a `Vec`
/// grown by doubling keeps spare, under 4 B a record of the list. That
/// slack, 4 B a record of the trace, is the tolerance. A shard holding
/// its whole run (40 B a record) fails it: that is over 1.4 MB more here.
#[test]
fn resident_shard_heap_does_not_grow_with_its_neighborhoods_load() {
    const USERS: u32 = 3_000;
    const NEIGHBORHOOD: u32 = 500;
    let spread = generate(&SynthConfig {
        users: USERS,
        programs: 400,
        days: 6,
        seed: 38,
        ..SynthConfig::powerinfo()
    });
    let groups = neighborhood_groups(USERS, NEIGHBORHOOD).expect("groups");
    let first: Vec<u32> = (0..USERS).filter(|&u| groups[u as usize] == 0).collect();
    let records = spread
        .iter()
        .map(|r| SessionRecord {
            user: UserId::new(first[r.user.value() as usize % first.len()]),
            ..*r
        })
        .collect();
    let crowded =
        Trace::new(records, spread.catalog().clone(), USERS, spread.days()).expect("crowded trace");
    let config = SimConfig::paper_default()
        .with_neighborhood_size(NEIGHBORHOOD)
        .with_per_peer_storage(DataSize::from_gigabytes(2))
        .with_warmup_days(3);
    let [alone, together] = [&spread, &crowded].map(|trace| {
        peak_heap(|| {
            Simulation::over(trace)
                .config(config.clone())
                .strategy(StrategySpec::Lru)
                .serial()
                .run()
                .expect("replays");
        })
    });
    let slack = 4 * spread.record_count();
    assert!(
        together.abs_diff(alone) <= slack,
        "one neighborhood carrying all {} records moved a serial resident replay's peak heap \
         from {alone} B to {together} B, more than the membership lists' {slack} B",
        spread.record_count()
    );
}

/// The peak heaps of the online engine fed `days` of 3 000 subscribers in
/// six neighborhoods, at the same daily load whatever `days`, a session
/// at a time and advanced to the second before each new second (as
/// `tests/helpers.rs`'s `serve_trace` does), under `lru` and under a
/// one-hour `lfu`. Returns the sessions, the two peaks and the most
/// sessions any one hour of the trace starts.
fn online_replay(days: u64) -> (u64, u64, u64, u64) {
    let trace = generate(&SynthConfig {
        users: 3_000,
        programs: 400,
        days,
        seed: 38,
        ..SynthConfig::powerinfo()
    });
    let config = SimConfig::paper_default()
        .with_neighborhood_size(500)
        .with_per_peer_storage(DataSize::from_gigabytes(2))
        .with_warmup_days(3);
    let spec = OnlineSpec::from_source(&trace);
    let hour = StrategySpec::Lfu {
        history: SimDuration::from_hours(1),
    };
    let [lru, lfu] = [StrategySpec::Lru, hour].map(|strategy| {
        peak_heap(|| {
            serve_serial(&spec, &config, &strategy, |engine| {
                let mut second = None;
                for &rec in trace.records() {
                    if second != Some(rec.start) {
                        second = Some(rec.start);
                        engine.advance_to(rec.start.saturating_sub(SimDuration::from_secs(1)))?;
                    }
                    engine.submit(rec)?;
                }
                Ok(())
            })
            .expect("serves");
        })
    });
    let starts: Vec<SimTime> = trace.iter().map(|r| r.start).collect();
    let busiest_hour = starts
        .iter()
        .enumerate()
        .map(|(i, &t)| starts[i..].partition_point(|&s| s < t + SimDuration::from_hours(1)))
        .max()
        .unwrap_or(0);
    (trace.record_count(), lru, lfu, busiest_hour as u64)
}

/// A relation over the days submitted online. The ingress keeps one
/// trailing ring of the accesses submitted — 12 B each, an 8-byte access
/// and its neighborhood — and trims it at each advance to those still in
/// the history window, so what a one-hour `lfu` engine holds beyond an
/// `lru` one — per-program counts and an hour of accesses — must not grow
/// when the same subscribers submit twice the days at the same daily
/// load. The tolerance is the ring's whole capacity at the longer run's
/// busiest hour, which a different busiest hour may move by a doubling
/// (2 × 12 B a session of that hour), plus an eighth of a byte a session
/// of the shorter run. A ring never trimmed holds 12 B for every session
/// submitted: at least 12 B × 40 000 more here.
#[test]
fn online_history_heap_does_not_grow_with_the_days_submitted() {
    let (records, lru, lfu, _) = online_replay(6);
    let (records2, lru2, lfu2, busiest_hour) = online_replay(12);
    assert!(
        records2 >= 2 * records - records / 20,
        "{records} -> {records2}"
    );
    let (extra, extra2) = (lfu.saturating_sub(lru), lfu2.saturating_sub(lru2));
    let tolerance = 2 * 12 * busiest_hour + records / 8;
    assert!(
        extra2 <= extra + tolerance,
        "{records} -> {records2} sessions moved the online LFU's heap over LRU from {extra} B \
         to {extra2} B, more than {tolerance} B (LRU {lru} -> {lru2} B, LFU {lfu} -> {lfu2} B)"
    );
}
