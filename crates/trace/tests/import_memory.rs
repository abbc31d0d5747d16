//! The neighborhood re-chunker's peak live heap, counted by a global
//! allocator of this binary's own (a `/proc` reading would also count
//! whatever else the process does).
//!
//! The import spills by placement cell, so its heap is bounded by what
//! `rechunk.rs`'s "Memory" lists — one decoded source chunk, one 8 KiB
//! block per cell, one output chunk, the writer's fixed buffers and the
//! per-user tables — and doubling the record count must leave the peak
//! exactly where it was. A re-chunker that buffers whole cells fails
//! both: its peak is the trace.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicI64, Ordering};

use cablevod_trace::columnar::{ColumnarReader, DEFAULT_CHUNK_SIZE};
use cablevod_trace::rechunk::{neighborhood_groups, rechunk_by_neighborhood};
use cablevod_trace::source::TraceSource;
use cablevod_trace::synth::{generate_to_disk, SynthConfig};

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

/// The peak live heap `work` adds on this thread, in bytes.
fn peak_heap(work: impl FnOnce()) -> u64 {
    LIVE.store(0, Ordering::Relaxed);
    PEAK.store(0, Ordering::Relaxed);
    COUNTING.with(|on| on.set(true));
    work();
    COUNTING.with(|on| on.set(false));
    PEAK.load(Ordering::Relaxed) as u64
}

const USERS: u32 = 600;
/// 60 neighborhoods of 10: 60 placement cells.
const NEIGHBORHOOD: u32 = 10;
const SOURCE_CHUNK: u32 = 4_096;

struct TempDir(PathBuf);

impl Drop for TempDir {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.0).ok();
    }
}

/// What the module docs promise the import holds, in bytes: one decoded
/// source chunk (40 B a record), one block per cell (8 KiB and its
/// 8-byte link), one output chunk (32 B a record), the writer's 32 KiB
/// encode buffer and 64 KiB `BufWriter`, and 24 B a user for the group
/// table, the cell map and the topology a group table is read off.
/// `SMALL` covers the rest: the flush-order block, phase 2's read block
/// and order batch, the directory and the cell map's hash table.
fn documented_bound(cells: u64, output_chunk: u64) -> u64 {
    const SMALL: u64 = 64 << 10;
    u64::from(SOURCE_CHUNK) * 40
        + cells * ((8 << 10) + 8)
        + output_chunk * 32
        + (96 << 10)
        + u64::from(USERS) * 24
        + SMALL
}

/// Re-chunks a `days`-long trace from a mapped time-major file and
/// returns (records, cells, largest cell, the import's peak heap).
fn import(dir: &Path, days: u64) -> (u64, u64, u64, u64) {
    let synth = SynthConfig {
        users: USERS,
        programs: 50,
        days,
        seed: 35,
        ..SynthConfig::smoke_test()
    };
    let source_path = dir.join(format!("tm{days}.cvtc"));
    let dst = dir.join(format!("nm{days}.cvtc"));
    generate_to_disk(&synth, &source_path, SOURCE_CHUNK).expect("generate");
    let source = ColumnarReader::open(&source_path).expect("open source");
    let peak = peak_heap(|| {
        rechunk_by_neighborhood(&source, &dst, NEIGHBORHOOD, DEFAULT_CHUNK_SIZE).expect("rechunk");
    });

    let groups = neighborhood_groups(USERS, NEIGHBORHOOD).expect("groups");
    let mut per_cell = vec![0u64; USERS.div_ceil(NEIGHBORHOOD) as usize];
    let mut records = Vec::new();
    for chunk in 0..source.chunk_count() {
        source.read_chunk(chunk, &mut records).expect("read source");
        for rec in &records {
            per_cell[groups[rec.user.index()] as usize] += 1;
        }
    }
    let largest = *per_cell.iter().max().expect("cells");
    (source.record_count(), per_cell.len() as u64, largest, peak)
}

#[test]
fn import_heap_is_bounded_and_does_not_grow_with_the_trace() {
    let dir =
        TempDir(std::env::temp_dir().join(format!("cvtc_import_memory_{}", std::process::id())));
    std::fs::create_dir_all(&dir.0).expect("create test dir");

    let (records, cells, largest, peak) = import(&dir.0, 10);
    let (records2, cells2, largest2, peak2) = import(&dir.0, 20);
    assert_eq!(cells, cells2);
    assert!(
        records2 >= 2 * records - records / 20,
        "{records} -> {records2}"
    );
    // The decoded source chunk is a full one at both lengths; at the
    // default chunk size one output chunk holds a whole cell, so the
    // output chunk is the largest cell.
    assert!(records > 2 * u64::from(SOURCE_CHUNK));

    for (records, largest, peak) in [(records, largest, peak), (records2, largest2, peak2)] {
        let bound = documented_bound(cells, largest);
        assert!(
            peak <= bound,
            "{records} records: peak heap {peak} B over the documented {bound} B"
        );
    }
    assert_eq!(
        peak, peak2,
        "doubling the records ({records} -> {records2}) moved the import's peak heap"
    );
}
