//! Import-time re-chunking of columnar traces by neighborhood.
//!
//! The simulator shards work **per neighborhood**, but users are shuffled
//! into neighborhoods (§V-B), so in a time-major columnar file nearly
//! every chunk contains records of nearly every neighborhood: a sharded
//! streaming replay of `S` shards decodes ~`S × file` worth of chunks.
//! Re-chunking once at import rewrites the file in the
//! **neighborhood-major** layout (see [`crate::columnar`]): each chunk
//! holds one neighborhood group's records with their global sequence
//! numbers stored alongside, and the directory doubles as a
//! per-neighborhood chunk index. A sharded replay whose neighborhood size
//! matches then decodes each chunk exactly once — paid for by one extra
//! pass at import, amortized over every cache/strategy configuration the
//! workload is replayed under.
//!
//! The grouping is the simulator's own deterministic §V-B shuffle
//! ([`cablevod_hfc::topology::Topology::build`], whose placement seed is a
//! constant): a pure function of `(user count, neighborhood size)`, so the
//! writer, the reader and the engine always agree on which group a user
//! belongs to. A `Topology` is membership tables and nothing else — no
//! set-top box or meter is built to group users.
//!
//! Memory: the re-chunker never holds the trace. It runs in two phases
//! through a spill file created beside `dst` (a hidden
//! `.<name>.spill-<pid>-<n>` in the same directory). On Unix the file
//! is unlinked the moment it is created, so it leaves no name behind on
//! success, on error or in a crash; elsewhere it is removed when the
//! import returns. It is never synced: nothing waits for it to reach the
//! disk, and the kernel drops it when the import closes it.
//!
//! * **Phase 1** decodes the source once, in source order. Each record is
//!   validated exactly as [`ColumnarWriter::push_indexed`] would validate
//!   it, then appended (32 B) to its placement cell's 8 KiB block of 256
//!   records. A full block goes to the spill file, linked to the cell's
//!   next block. The file therefore takes 32 B a record, plus an 8-byte
//!   link a block. A chain of its own notes the order in which cells
//!   fill a chunk.
//! * **Phase 2** reads every cell's records back in that order: the full
//!   chunks as they filled, then the tails in cell order. That is the
//!   order the writer flushes chunks in when it buffers every cell
//!   itself, so the output is byte for byte what buffering would write.
//!   The writer receives one whole chunk at a time.
//!
//! What stays resident: one decoded source chunk (40 B a record) — and,
//! from a mapped [`ColumnarReader`](crate::columnar::ColumnarReader),
//! none of the source file, whose chunk pages leave the process once
//! decoded (see the columnar module's "Chunk fetch"); in phase 1, one
//! 8 KiB block per cell and one for the flush order; in phase 2, one
//! output chunk of at most `chunk_size` records (32 B a record) and one
//! 8 KiB read block; the writer's fixed 32 KiB encode buffer and 64 KiB
//! `BufWriter`; 4 B a user for each carried size's group table (20 B a
//! user while one is built) and for the cell map; and the writer's
//! directory, 72 B an output chunk (4 B more per extra carried size).
//! Nothing but the directory grows with the record count, and only the
//! output chunk grows with `chunk_size`. The blocks come to under 1 MiB
//! at 60 cells (480 KiB: 30 000 users in neighborhoods of 500) and under
//! 32 MiB at 2 667 cells (21 MiB: 1 M users carried at sizes 500 and
//! 750). Pushing the records through [`ColumnarWriter::push_indexed`]
//! instead keeps a buffer per cell, up to `cells × chunk_size × 32 B`:
//! about 4 GiB for 2 000 groups at 64 Ki records a chunk, 5.2 GiB for
//! those 2 667 cells. Pass
//! [`DEFAULT_CHUNK_SIZE`](crate::columnar::DEFAULT_CHUNK_SIZE): a smaller
//! chunk buys the re-chunker no memory back, only more chunks.
//!
//! # Examples
//!
//! ```no_run
//! use cablevod_trace::columnar::ColumnarReader;
//! use cablevod_trace::rechunk::rechunk_by_neighborhood;
//!
//! let source = ColumnarReader::open("trace.cvtc")?;
//! rechunk_by_neighborhood(&source, "trace.nm500.cvtc", 500, 65_536)?;
//! # Ok::<(), cablevod_trace::TraceError>(())
//! ```

use std::fs::OpenOptions;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};

use cablevod_hfc::topology::{Topology, TopologyConfig};

use crate::columnar::{ChunkBuf, ColumnarWriter, Packed};
use crate::error::TraceError;
use crate::fileio::PositionedFile;
use crate::source::TraceSource;

/// Payload bytes of one spill block: 256 records.
const BLOCK_BYTES: usize = 8 << 10;
/// A block's slot in the spill file: the offset of its chain's next
/// slot, then the payload.
const LINK_BYTES: usize = 8;
const SLOT_BYTES: usize = LINK_BYTES + BLOCK_BYTES;
/// A spilled record: user, program, start, duration, offset and sequence
/// number, little-endian, at the widths the chunk columns store.
const RECORD_BYTES: usize = 32;
/// A flush-order entry: the cell that filled a chunk.
const ORDER_BYTES: usize = 4;

/// The neighborhood group of every user under the simulator's
/// deterministic §V-B shuffle: `groups[u]` is user `u`'s neighborhood
/// index for plants of `neighborhood_size`-sized neighborhoods.
///
/// # Errors
///
/// Returns [`TraceError::Format`] for zero users or a zero neighborhood
/// size.
pub fn neighborhood_groups(
    user_count: u32,
    neighborhood_size: u32,
) -> Result<Vec<u32>, TraceError> {
    let topo =
        Topology::build(TopologyConfig::new(user_count, neighborhood_size)).map_err(|e| {
            TraceError::Format {
                reason: format!("cannot group users into neighborhoods: {e}"),
            }
        })?;
    Ok(topo
        .peer_neighborhoods()
        .iter()
        .map(|n| n.index() as u32)
        .collect())
}

/// The largest chunk size at or below `preferred` for which
/// `groups × chunk_size × 32 B` fits in `budget_bytes`, floored at 1,024
/// records.
///
/// No product code calls this: the re-chunker spills by cell (see the
/// module's "Memory"), so a smaller chunk buys no memory back — pass
/// [`DEFAULT_CHUNK_SIZE`](crate::columnar::DEFAULT_CHUNK_SIZE). It stays
/// public only because the repo benchmark (`benchmark/src/offline.rs`)
/// still calls it, and goes when that benchmark is next refreshed. As a
/// budget it undercounts a multi-index file, which has more placement
/// cells than groups.
pub fn import_chunk_size(
    user_count: u32,
    neighborhood_size: u32,
    preferred: u32,
    budget_bytes: u64,
) -> u32 {
    let groups = u64::from(user_count)
        .div_ceil(u64::from(neighborhood_size.max(1)))
        .max(1);
    let per_group = budget_bytes / (groups * 32);
    u64::from(preferred).min(per_group).max(1_024) as u32
}

/// Rewrites `source` to `dst` in the neighborhood-major layout for
/// `neighborhood_size`-sized neighborhoods (see the module docs),
/// decoding the source once.
///
/// The source must supply records in per-group ascending sequence order —
/// any time-major source does; re-chunking a neighborhood-major file to a
/// *different* neighborhood size does not (materialize it back to
/// time-major first).
///
/// # Errors
///
/// Propagates source read failures and writer validation/I/O failures.
pub fn rechunk_by_neighborhood<S: TraceSource + ?Sized>(
    source: &S,
    dst: impl AsRef<Path>,
    neighborhood_size: u32,
    chunk_size: u32,
) -> Result<(), TraceError> {
    rechunk_multi_index(source, dst, &[neighborhood_size], chunk_size)
}

/// Like [`rechunk_by_neighborhood`] but the destination carries a chunk
/// index for **every** size in `sizes` (the first is the primary, i.e.
/// the header's declared neighborhood size), so a neighborhood-size sweep
/// over those sizes fast-paths every point from one file. Because all
/// sizes slice the same §V-B placement permutation, chunks land on the
/// partition-intersection cells and each index's groups stay unions of
/// whole chunks. The import spills by cell, so its resident set does not
/// grow with the trace (see the module's "Memory").
///
/// # Errors
///
/// As for [`rechunk_by_neighborhood`], plus [`TraceError::Format`] for an
/// empty or duplicate-carrying size list.
pub fn rechunk_multi_index<S: TraceSource + ?Sized>(
    source: &S,
    dst: impl AsRef<Path>,
    sizes: &[u32],
    chunk_size: u32,
) -> Result<(), TraceError> {
    let dst = dst.as_ref();
    let mut indexes = Vec::with_capacity(sizes.len());
    for &size in sizes {
        indexes.push((size, neighborhood_groups(source.user_count(), size)?));
    }
    let mut writer = ColumnarWriter::create_multi_index(
        dst,
        source.catalog(),
        source.user_count(),
        source.days(),
        chunk_size,
        indexes,
    )?;
    let mut spill = Spill::beside(dst)?;

    // Phase 1: validate and spill every record, noting which cell fills
    // each chunk as it fills.
    let mut cells: Vec<Chain> = (0..writer.cell_count()).map(|_| Chain::default()).collect();
    let mut until_full = vec![chunk_size; cells.len()];
    let mut filled = Chain::default();
    let mut buf = Vec::new();
    for chunk in 0..source.chunk_count() {
        source.read_chunk_indexed(chunk, &mut buf)?;
        for &(gseq, ref rec) in &buf {
            let (cell, packed) = writer.admit(gseq, rec)?;
            cells[cell].push(&mut spill, &spilled(packed))?;
            until_full[cell] -= 1;
            if until_full[cell] == 0 {
                until_full[cell] = chunk_size;
                filled.push(&mut spill, &(cell as u32).to_le_bytes())?;
            }
        }
    }
    drop(buf);

    // Phase 2: the chunks in the order they filled, then every cell's
    // tail in cell order.
    let mut cursors = cells
        .into_iter()
        .map(|chain| chain.close(&spill))
        .collect::<Result<Vec<_>, _>>()?;
    let mut filled = filled.close(&spill)?;
    let mut chunk = ChunkBuf::default();
    let mut batch = Vec::with_capacity(BLOCK_BYTES / ORDER_BYTES);
    while filled.left > 0 {
        batch.clear();
        let take = filled.left.min(BLOCK_BYTES as u64);
        filled.read(&mut spill, take, |bytes| {
            batch.extend(bytes.chunks_exact(ORDER_BYTES).map(|b| u32_le(b) as usize));
        })?;
        for &cell in &batch {
            let records = u64::from(chunk_size);
            copy_chunk(
                &mut writer,
                &mut spill,
                cell,
                &mut cursors[cell],
                records,
                &mut chunk,
            )?;
        }
    }
    for (cell, cursor) in cursors.iter_mut().enumerate() {
        let tail = cursor.left / RECORD_BYTES as u64;
        copy_chunk(&mut writer, &mut spill, cell, cursor, tail, &mut chunk)?;
    }
    writer.finish()
}

/// Reads `cell`'s next `records` records off the spill into `chunk` and
/// writes them as one chunk (nothing, for none).
fn copy_chunk(
    writer: &mut ColumnarWriter,
    spill: &mut Spill,
    cell: usize,
    cursor: &mut Cursor,
    records: u64,
    chunk: &mut ChunkBuf,
) -> Result<(), TraceError> {
    chunk.clear();
    chunk.reserve_exact(records as usize, true);
    cursor.read(spill, records * RECORD_BYTES as u64, |bytes| {
        let (records, _) = bytes.as_chunks::<RECORD_BYTES>();
        chunk.extend(records.iter().map(unspilled), true);
    })?;
    writer.write_chunk(cell, chunk)
}

fn spilled(rec: Packed) -> [u8; RECORD_BYTES] {
    let mut out = [0; RECORD_BYTES];
    out[0..4].copy_from_slice(&rec.user.to_le_bytes());
    out[4..8].copy_from_slice(&rec.program.to_le_bytes());
    out[8..16].copy_from_slice(&rec.start.to_le_bytes());
    out[16..20].copy_from_slice(&rec.duration.to_le_bytes());
    out[20..24].copy_from_slice(&rec.offset.to_le_bytes());
    out[24..32].copy_from_slice(&rec.gseq.to_le_bytes());
    out
}

fn unspilled(bytes: &[u8; RECORD_BYTES]) -> Packed {
    Packed {
        user: u32_le(&bytes[0..4]),
        program: u32_le(&bytes[4..8]),
        start: u64_le(&bytes[8..16]),
        duration: u32_le(&bytes[16..20]),
        offset: u32_le(&bytes[20..24]),
        gseq: u64_le(&bytes[24..32]),
    }
}

fn u32_le(bytes: &[u8]) -> u32 {
    u32::from_le_bytes(bytes.try_into().expect("4 bytes"))
}

fn u64_le(bytes: &[u8]) -> u64 {
    u64::from_le_bytes(bytes.try_into().expect("8 bytes"))
}

/// The re-chunker's scratch file: chains of block slots (see the
/// module's "Memory").
struct Spill {
    file: PositionedFile,
    /// Slots handed out so far.
    slots: u64,
    /// Phase 2's read buffer: one slot.
    block: Vec<u8>,
    /// Declared after `file`, so the file is closed before its name goes.
    #[cfg(not(unix))]
    _name: RemoveOnDrop,
}

impl Spill {
    /// Creates the spill file in `dst`'s directory and, on Unix, unlinks
    /// it at once.
    fn beside(dst: &Path) -> Result<Self, TraceError> {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let name = dst.file_name().unwrap_or_default().to_string_lossy();
        let path = dst.with_file_name(format!(
            ".{name}.spill-{}-{}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create_new(true)
            .open(&path)?;
        #[cfg(unix)]
        std::fs::remove_file(&path)?;
        Ok(Spill {
            file: PositionedFile::new(file),
            slots: 0,
            block: Vec::new(),
            #[cfg(not(unix))]
            _name: RemoveOnDrop(path),
        })
    }

    /// The file offset of a fresh slot.
    fn reserve(&mut self) -> u64 {
        let at = self.slots * SLOT_BYTES as u64;
        self.slots += 1;
        at
    }
}

/// Removes a spill file where an open file cannot be unlinked.
#[cfg(not(unix))]
struct RemoveOnDrop(std::path::PathBuf);

#[cfg(not(unix))]
impl Drop for RemoveOnDrop {
    fn drop(&mut self) {
        std::fs::remove_file(&self.0).ok();
    }
}

/// A chain being appended to: its last block, in memory, and the slot
/// that block will fill.
#[derive(Default)]
struct Chain {
    /// The link and the payload so far; empty until the first item.
    block: Vec<u8>,
    slot: u64,
    /// The first block's slot.
    head: u64,
    /// Payload bytes appended.
    bytes: u64,
}

impl Chain {
    fn push(&mut self, spill: &mut Spill, item: &[u8]) -> Result<(), TraceError> {
        if self.block.len() == SLOT_BYTES {
            // The next block's slot is taken now, so this one can link
            // to it.
            let next = spill.reserve();
            self.block[..LINK_BYTES].copy_from_slice(&next.to_le_bytes());
            spill.file.write_at(&self.block, self.slot)?;
            self.block.truncate(LINK_BYTES);
            self.slot = next;
        } else if self.block.is_empty() {
            self.block.reserve_exact(SLOT_BYTES);
            self.block.resize(LINK_BYTES, 0);
            self.slot = spill.reserve();
            self.head = self.slot;
        }
        self.block.extend_from_slice(item);
        self.bytes += item.len() as u64;
        Ok(())
    }

    /// Writes the last block, frees it, and returns a cursor at the
    /// chain's first byte.
    fn close(self, spill: &Spill) -> Result<Cursor, TraceError> {
        if !self.block.is_empty() {
            spill.file.write_at(&self.block, self.slot)?;
        }
        Ok(Cursor {
            slot: self.head,
            at: 0,
            left: self.bytes,
        })
    }
}

/// A read position in a closed chain.
struct Cursor {
    slot: u64,
    /// Payload bytes of the slot's block already read.
    at: usize,
    /// Payload bytes of the chain not yet read.
    left: u64,
}

impl Cursor {
    /// Reads the chain's next `bytes` bytes, handing `f` one block's share
    /// at a time.
    fn read(
        &mut self,
        spill: &mut Spill,
        mut bytes: u64,
        mut f: impl FnMut(&[u8]),
    ) -> Result<(), TraceError> {
        debug_assert!(bytes <= self.left, "read past the chain's end");
        spill.block.resize(SLOT_BYTES, 0);
        while bytes > 0 {
            let take = bytes.min((BLOCK_BYTES - self.at) as u64) as usize;
            // One read from the slot's start: the link, then the payload
            // up to what this call consumes.
            let end = LINK_BYTES + self.at + take;
            spill.file.read_at(&mut spill.block[..end], self.slot)?;
            f(&spill.block[LINK_BYTES + self.at..end]);
            self.at += take;
            bytes -= take as u64;
            self.left -= take as u64;
            if self.at == BLOCK_BYTES && self.left > 0 {
                self.slot = u64_le(&spill.block[..LINK_BYTES]);
                self.at = 0;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;
    use std::path::PathBuf;

    use cablevod_hfc::ids::{ProgramId, UserId};
    use cablevod_hfc::units::{SimDuration, SimTime};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    use crate::catalog::ProgramCatalog;
    use crate::columnar::{write_trace, ColumnarReader};
    use crate::record::{SessionRecord, Trace};
    use crate::source::ChunkedTrace;
    use crate::synth::{generate, SynthConfig};

    /// The buffering re-chunker, kept as the oracle: every record pushed
    /// into one multi-index writer in source order, then `finish`.
    fn buffered_rechunk<S: TraceSource + ?Sized>(
        source: &S,
        dst: &Path,
        sizes: &[u32],
        chunk_size: u32,
    ) -> Result<(), TraceError> {
        let mut indexes = Vec::new();
        for &size in sizes {
            indexes.push((size, neighborhood_groups(source.user_count(), size)?));
        }
        let mut writer = ColumnarWriter::create_multi_index(
            dst,
            source.catalog(),
            source.user_count(),
            source.days(),
            chunk_size,
            indexes,
        )?;
        let mut buf = Vec::new();
        for chunk in 0..source.chunk_count() {
            source.read_chunk_indexed(chunk, &mut buf)?;
            for &(gseq, ref rec) in &buf {
                writer.push_indexed(gseq, rec)?;
            }
        }
        writer.finish()
    }

    /// A directory of the test's own, so a leftover spill file is visible.
    struct TempDir(PathBuf);

    impl TempDir {
        fn new(name: &str) -> Self {
            let dir =
                std::env::temp_dir().join(format!("cvtc_rechunk_{}_{name}", std::process::id()));
            std::fs::create_dir_all(&dir).expect("create test dir");
            TempDir(dir)
        }

        fn spill_files(&self) -> Vec<String> {
            std::fs::read_dir(&self.0)
                .expect("list test dir")
                .map(|entry| {
                    entry
                        .expect("entry")
                        .file_name()
                        .to_string_lossy()
                        .into_owned()
                })
                .filter(|name| name.contains(".spill-"))
                .collect()
        }
    }

    impl Drop for TempDir {
        fn drop(&mut self) {
            std::fs::remove_dir_all(&self.0).ok();
        }
    }

    fn trace() -> Trace {
        generate(&SynthConfig {
            users: 240,
            programs: 40,
            days: 3,
            seed: 35,
            ..SynthConfig::smoke_test()
        })
    }

    /// Records per placement cell at `sizes`.
    fn cell_sizes(trace: &Trace, sizes: &[u32]) -> Vec<usize> {
        let tables: Vec<Vec<u32>> = sizes
            .iter()
            .map(|&size| neighborhood_groups(trace.user_count(), size).expect("groups"))
            .collect();
        let mut cells: HashMap<Vec<u32>, usize> = HashMap::new();
        for rec in trace.records() {
            let key = tables.iter().map(|t| t[rec.user.index()]).collect();
            *cells.entry(key).or_default() += 1;
        }
        cells.into_values().collect()
    }

    #[test]
    fn spilled_output_equals_the_buffered_oracle() {
        let trace = trace();
        let n = trace.len();
        let dir = TempDir::new("oracle");
        let (spilled, buffered) = (dir.0.join("spilled.cvtc"), dir.0.join("buffered.cvtc"));
        let time_major = dir.0.join("time-major.cvtc");
        let mut rng = StdRng::seed_from_u64(35);
        let (mut refilled, mut never_filled) = (false, false);
        for case in 0..40 {
            let mut sizes = Vec::new();
            while sizes.len() < rng.random_range(1..=3usize) {
                let size = rng.random_range(5..=130u32);
                if !sizes.contains(&size) {
                    sizes.push(size);
                }
            }
            let cells = cell_sizes(&trace, &sizes);
            let largest = *cells.iter().max().expect("cells") as u32;
            // From one record a chunk up to past the largest cell.
            let chunk_size = match case % 4 {
                0 => rng.random_range(1..=4u32),
                1 | 2 => rng.random_range(5..=largest),
                _ => rng.random_range(largest..=2 * largest),
            };
            refilled |= cells.iter().any(|&c| c >= 2 * chunk_size as usize);
            never_filled |= cells.iter().any(|&c| c < chunk_size as usize);
            // One source chunk or several, from memory or from a file.
            let source_chunk = if case % 3 == 0 {
                n
            } else {
                rng.random_range(1..n)
            };
            let reader;
            let chunked;
            let source: &dyn TraceSource = if case % 2 == 0 {
                chunked = ChunkedTrace::new(&trace, source_chunk);
                &chunked
            } else {
                write_trace(&time_major, &trace, source_chunk as u32).expect("write source");
                reader = ColumnarReader::open(&time_major).expect("open source");
                &reader
            };
            let shape = format!(
                "case {case}: sizes {sizes:?}, chunk {chunk_size}, source chunk {source_chunk}"
            );
            rechunk_multi_index(source, &spilled, &sizes, chunk_size).expect(&shape);
            buffered_rechunk(source, &buffered, &sizes, chunk_size).expect(&shape);
            let bytes = std::fs::read(&spilled).expect("read spilled");
            assert!(
                bytes == std::fs::read(&buffered).expect("read buffered"),
                "{shape}"
            );
            assert_eq!(dir.spill_files(), Vec::<String>::new(), "{shape}");
        }
        assert!(
            refilled && never_filled,
            "the cases cover both kinds of cell"
        );
    }

    /// Unchecked records served in chunks of 97: what a corrupt or
    /// foreign source can hand the re-chunker.
    struct Records {
        records: Vec<SessionRecord>,
        catalog: ProgramCatalog,
        user_count: u32,
    }

    impl TraceSource for Records {
        fn catalog(&self) -> &ProgramCatalog {
            &self.catalog
        }

        fn user_count(&self) -> u32 {
            self.user_count
        }

        fn days(&self) -> u64 {
            3
        }

        fn record_count(&self) -> u64 {
            self.records.len() as u64
        }

        fn chunk_count(&self) -> usize {
            self.records.len().div_ceil(97)
        }

        fn chunk_first_index(&self, chunk: usize) -> u64 {
            (chunk * 97) as u64
        }

        fn read_chunk(&self, chunk: usize, out: &mut Vec<SessionRecord>) -> Result<(), TraceError> {
            let lo = chunk * 97;
            out.clear();
            out.extend_from_slice(&self.records[lo..(lo + 97).min(self.records.len())]);
            Ok(())
        }
    }

    #[test]
    fn bad_sources_fail_as_the_oracle_does() {
        let trace = trace();
        let dir = TempDir::new("bad");
        let (spilled, buffered) = (dir.0.join("spilled.cvtc"), dir.0.join("buffered.cvtc"));
        let at = trace.len() / 2;
        // A record at `at` whose user has an earlier record starting
        // after time zero, so moving it to time zero goes backwards in
        // its cell.
        let backwards = (at..trace.len())
            .find(|&i| {
                let rec = trace.records()[i];
                trace.records()[..i]
                    .iter()
                    .any(|r| r.user == rec.user && r.start > SimTime::from_secs(0))
            })
            .expect("a returning user");
        type Damage = fn(&mut SessionRecord, &Trace);
        let breaks: [(&str, usize, Damage); 4] = [
            ("dangling user", at, |rec, t| {
                rec.user = UserId::new(t.user_count())
            }),
            ("dangling program", at, |rec, t| {
                rec.program = ProgramId::new(t.catalog().len() as u32)
            }),
            ("start backwards", backwards, |rec, _| {
                rec.start = SimTime::from_secs(0)
            }),
            ("duration overflow", at, |rec, _| {
                rec.duration = SimDuration::from_secs(u64::from(u32::MAX) + 1)
            }),
        ];
        for (what, i, damage) in breaks {
            let mut records = trace.records().to_vec();
            damage(&mut records[i], &trace);
            let source = Records {
                records,
                catalog: trace.catalog().clone(),
                user_count: trace.user_count(),
            };
            for sizes in [&[60u32][..], &[60, 100]] {
                let got = rechunk_multi_index(&source, &spilled, sizes, 16).expect_err(what);
                let want = buffered_rechunk(&source, &buffered, sizes, 16).expect_err(what);
                assert_eq!(got.to_string(), want.to_string(), "{what} at {sizes:?}");
                assert_eq!(dir.spill_files(), Vec::<String>::new(), "{what}");
            }
        }
    }

    #[test]
    fn import_chunk_size_bounds_per_group_buffers() {
        // Small populations keep the preferred size.
        assert_eq!(import_chunk_size(15_000, 500, 65_536, 256 << 20), 65_536);
        // 1M users / 500 = 2,000 groups: a 256 MiB budget caps chunks at
        // 256 MiB / (2,000 * 32 B) = 4,194 records.
        let capped = import_chunk_size(1_000_000, 500, 65_536, 256 << 20);
        assert!(capped < 65_536);
        assert!(u64::from(capped) * 2_000 * 32 <= 256 << 20);
        // The floor keeps chunks worth a positioned read.
        assert_eq!(import_chunk_size(u32::MAX, 1, 65_536, 1 << 20), 1_024);
    }

    #[test]
    fn groups_match_the_simulator_shuffle() {
        let topo = Topology::build(TopologyConfig::new(500, 120)).expect("builds");
        let groups = neighborhood_groups(500, 120).expect("groups");
        assert_eq!(groups.len(), 500);
        for u in 0..500u32 {
            assert_eq!(
                groups[u as usize],
                topo.neighborhood_of_user(UserId::new(u))
                    .expect("known")
                    .index() as u32
            );
        }
    }

    #[test]
    fn zero_sizes_are_rejected() {
        assert!(neighborhood_groups(0, 10).is_err());
        assert!(neighborhood_groups(10, 0).is_err());
    }
}
