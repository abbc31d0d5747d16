//! The binary columnar chunked trace format (`.cvtc`).
//!
//! Fully-materialized `Vec<SessionRecord>` traces cap workloads at RAM.
//! This module defines an on-disk layout that the simulation engine can
//! replay **out of core**: records are stored column-wise (SoA) inside
//! fixed-size chunks, so a reader touches one chunk of each column at a
//! time and never needs the whole trace resident.
//!
//! The format is **dependency-free by design**: it is written and read
//! with `std::fs::File` only (no serialization crates), because the build
//! environment vendors offline stand-ins for third-party crates (see
//! `vendor/README.md`) and the trace pipeline must not grow a real
//! serialization dependency it cannot have.
//!
//! # Two chunk layouts
//!
//! * **Time-major** (the default): chunks partition the global
//!   time-ordered record sequence; chunk `k + 1` continues exactly where
//!   chunk `k` ended. This is the natural layout for sequential import
//!   (CSV conversion, synthetic generation straight to disk) and serial
//!   replay.
//! * **Neighborhood-major**: each chunk holds records of exactly **one
//!   placement cell** (see below), in global order within the cell, with
//!   every record's **global sequence number** stored in an extra column.
//!   The directory tags each chunk with its primary neighborhood group,
//!   and the reader exposes the per-neighborhood chunk index as a
//!   [`NeighborhoodLayout`]. A sharded streaming replay whose
//!   neighborhood size matches then decodes each chunk exactly once — in
//!   the time-major layout users are shuffled across every chunk, so each
//!   of `S` shards decodes nearly every chunk and a run costs ~`S × file`
//!   decode work.
//!
//! # Multi-index files (version 4)
//!
//! A neighborhood-major file can carry chunk indexes for **several
//! candidate neighborhood sizes** over one shared set of columns, so a
//! neighborhood-size *sweep* fast-paths every point instead of only the
//! import size. The neighborhood partition at every size slices the same
//! §V-B subscriber permutation (see `cablevod_hfc::topology`), so the
//! partitions nest: cutting the permutation at the union of all carried
//! sizes' group boundaries yields **placement cells** — for each carried
//! size, every cell lies inside exactly one group. Chunks hold one cell's
//! records each; the directory's `group` field is the chunk's **primary**
//! (header-size) group, and one *index table* per additional carried size
//! maps every chunk to its group at that size. The reader exposes one
//! [`NeighborhoodLayout`] per carried size (primary first). A
//! single-index file is the degenerate case: one cell per group, no
//! index tables.
//!
//! # Format specification (version 4)
//!
//! All integers are **little-endian**, packed with no padding.
//!
//! ## File layout
//!
//! ```text
//! +-----------------+
//! | header          |  fixed 56 bytes
//! | catalog         |  4 + 16 * program_count bytes
//! | chunk 0 columns |
//! | chunk 1 columns |
//! | ...             |
//! | chunk directory |  44 * chunk_count bytes, at header.directory_offset
//! | index tables    |  index_count tables of 4 + 4 * chunk_count bytes  |
//! +-----------------+
//! ```
//!
//! ## Header (56 bytes)
//!
//! | offset | size | field             | notes                              |
//! |-------:|-----:|-------------------|------------------------------------|
//! |      0 |    4 | magic             | `b"CVTC"`                          |
//! |      4 |    4 | version           | `u32` = 4                          |
//! |      8 |    4 | user_count        | `u32`, dense ids `0..user_count`   |
//! |     12 |    8 | days              | `u64` nominal trace length         |
//! |     20 |    8 | record_count      | `u64` total records                |
//! |     28 |    4 | chunk_size        | `u32` records per chunk (chunks may be short) |
//! |     32 |    4 | chunk_count       | `u32`                              |
//! |     36 |    8 | directory_offset  | `u64` file offset of the directory |
//! |     44 |    4 | layout            | `u32`: 0 = time-major, 1 = neighborhood-major |
//! |     48 |    4 | neighborhood_size | `u32` primary group parameter (0 for time-major) |
//! |     52 |    4 | index_count       | `u32` extra index tables after the directory (0 for time-major) |
//!
//! ## Index tables
//!
//! Only neighborhood-major files carry them, directly after the
//! directory: `index_count` tables of `size: u32` (a carried
//! neighborhood size, distinct from the primary and from each other)
//! followed by `chunk_count` `u32` group tags — chunk `c`'s neighborhood
//! group when the users are partitioned at `size`. The primary size's
//! chunk→group mapping lives in the directory itself; extra tables add
//! the other carried sizes.
//!
//! ## Catalog
//!
//! `program_count: u32`, then per program (dense ids in order):
//! `length_secs: u64`, `introduced_day: i64`.
//!
//! ## Chunk columns
//!
//! Each chunk holds `n` records as contiguous column arrays, in this order
//! and with these widths:
//!
//! | column        | element | bytes per element | layouts            |
//! |---------------|---------|------------------:|--------------------|
//! | user          | `u32`   | 4                 | both               |
//! | program       | `u32`   | 4                 | both               |
//! | start_secs    | `u64`   | 8                 | both               |
//! | duration_secs | `u32`   | 4                 | both               |
//! | offset_secs   | `u32`   | 4                 | both               |
//! | gseq          | `u64`   | 8                 | neighborhood-major |
//!
//! Durations and seek offsets are bounded by program lengths (hours), so
//! 32 bits are ample; the writer rejects values that do not fit. `gseq`
//! is a record's index in the global time-ordered sequence — the identity
//! the feed protocol and the event loop key on — which the time-major
//! layout gets for free (`first_index + position`) and the
//! neighborhood-major layout must store.
//!
//! ## Chunk directory (44 bytes per chunk)
//!
//! | field            | type  | meaning                                        |
//! |------------------|-------|------------------------------------------------|
//! | file_offset      | `u64` | where the chunk's columns begin                |
//! | record_count     | `u32` | records in this chunk                          |
//! | first_index      | `u64` | global sequence number of the chunk's first record |
//! | first_start_secs | `u64` | start of the chunk's first (earliest) record   |
//! | watermark_secs   | `u64` | start of the chunk's last record               |
//! | group            | `u32` | primary neighborhood group (`u32::MAX` for time-major) |
//! | crc              | `u32` | CRC-32 (IEEE) of the chunk's column bytes      |
//!
//! The checksum covers exactly the `n * record_bytes` column bytes at
//! `file_offset` and is verified on every chunk fetch, so a flipped bit
//! anywhere in a chunk fails as a [`TraceError::Format`] naming the
//! chunk instead of decoding into a silently wrong record.
//!
//! Ordering invariants (writer-enforced, reader-validated):
//!
//! * **time-major**: `first_index` is dense (`chunk k+1` starts where `k`
//!   ended) and starts are non-decreasing across the whole file, so a
//!   consumer that replayed chunks `0..k` has seen every event strictly
//!   before `directory[k].watermark_secs`;
//! * **neighborhood-major**: the same two invariants hold **per cell**
//!   (a chunk's cell is its tag tuple across the directory and every
//!   index table): `first_index` strictly ascending, `first_start` at or
//!   after the cell's previous watermark. Chunks of different cells —
//!   including cells of the same primary group — may interleave freely
//!   in the file; consumers needing one group's records in global order
//!   merge its cells' chunk runs by sequence number.
//!
//! # Chunk fetch: mmap with a pread fallback
//!
//! [`ColumnarReader::open`] maps the whole file read-only (`mmap`,
//! `MAP_PRIVATE`) on Unix and serves chunk fetches as **borrowed slices**
//! of the mapping — no per-fetch allocation, syscall, or copy. When
//! mapping is unavailable (non-Unix builds, an empty file, or a kernel
//! that refuses the mapping) the reader transparently falls back to
//! positioned reads (`pread`) into a scratch buffer;
//! [`ColumnarReader::open_pread`] forces that portable path (benches use
//! it as the comparison baseline). CRC validation is mandatory on both
//! paths; on the mmap path each chunk's verification result is memoized
//! (a once-per-chunk bitmap), so re-fetching a chunk skips the CRC scan
//! but a corrupt chunk keeps failing with the same checksum error on
//! every fetch.
//!
//! What stays resident: a mapped chunk is handed out as a guard, and
//! when the guard drops — the chunk decoded, or its fetch failed — the
//! whole pages lying strictly inside its byte range leave the process
//! (`madvise(MADV_DONTNEED)`). A page a chunk shares with a neighbour is
//! left alone, so a release never takes a page from under another
//! thread's decode. A reader's mapping therefore holds the chunks being
//! decoded, not the file: every decode path — the blocked replay's
//! decoder, the fast-path shards, the Oracle's look-ahead cursor,
//! [`rechunk_by_neighborhood`](crate::rechunk::rechunk_by_neighborhood)
//! and [`ColumnarReader::read_trace`] — holds at most the chunks it is
//! decoding, error returns included. What each path keeps of the
//! *decoded* records is its own affair: `read_trace` keeps the whole
//! trace, by definition, and the re-chunker keeps one decoded chunk,
//! because it spills every record to its placement cell's block in a
//! scratch file as it goes (see [`crate::rechunk`]'s "Memory"). So an
//! import from a mapped file holds the same few MiB whatever the
//! file's length. What a re-fetch costs: its pages
//! fault back in from the page cache (the CRC memo still spares it the
//! scan). A one-shot replay re-fetches no chunk outside the Oracle's
//! second cursor; a reader reused across runs pays the faults once a
//! run. Criterion `decode/mmap_decode`, which re-fetches every chunk of
//! one reader each pass, read 16–20 ms with the release against
//! 13–17 ms without it (1.06 M records, 2-vCPU dev host).
//!
//! What verification costs: one pass of the slicing-by-16 kernel
//! ([`crate::checksum`], about 0.4 ns a byte on the 2-vCPU dev host) over
//! the chunk's column bytes — 24 B a time-major record, 32 B a
//! neighborhood-major one, so about 9–13 ns a record, against ~12 ns to
//! decode it. On the mmap path that is paid **once per chunk per
//! reader**: on the first fetch of every chunk in a fresh reader, which is
//! what a one-shot replay pays, and never again while the reader lives.
//! Criterion `decode/mmap_first_fetch` (a fresh reader each iteration)
//! reads 28–30 ms against `decode/mmap_decode`'s 16–20 ms over the same
//! 1.06 M records: the CRC on top of the page faults both pay. On the
//! pread path it is paid on **every** fetch, beside the `pread` copy:
//! `decode/pread_decode` reads 1.6–2.4x `decode/mmap_decode`. While the
//! checksum ran a byte at a time (2.7–2.9 ns a byte, 70–93 ns a record) it
//! was most of that path's 6–7x.
//!
//! Caveat: the mapping reflects the file at open time the
//! same way a held file descriptor does, but an external writer
//! *truncating* the file mid-run turns page access into `SIGBUS` rather
//! than a read error — the same class of externally-induced failure as
//! unlinking a file mid-`pread`, and out of scope for the format's
//! corruption guarantees (which cover *content*, via the CRC, on both
//! paths). Releasing decoded pages adds no exposure to it: the mapping
//! is `PROT_READ` and never written, so a released page of this private
//! *file* mapping is refilled from the file, not zero-filled, and two
//! threads borrowing one chunk re-fault the same bytes under the same
//! "nobody rewrites the file mid-run" precondition as above.
//!
//! # Examples
//!
//! ```no_run
//! use cablevod_trace::columnar::{write_trace, ColumnarReader};
//! use cablevod_trace::synth::{generate, SynthConfig};
//!
//! let trace = generate(&SynthConfig::smoke_test());
//! write_trace("trace.cvtc", &trace, 4_096)?;
//! let reader = ColumnarReader::open("trace.cvtc")?;
//! assert_eq!(reader.read_trace()?, trace);
//! # Ok::<(), cablevod_trace::TraceError>(())
//! ```

use std::collections::HashMap;
use std::fs::File;
use std::io::{BufWriter, Seek, SeekFrom, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};

use cablevod_hfc::ids::{ProgramId, UserId};
use cablevod_hfc::units::{SimDuration, SimTime};

use crate::catalog::{ProgramCatalog, ProgramInfo};
use crate::checksum::{crc32, Crc32};
use crate::error::TraceError;
use crate::fileio::{format_err, read_array, read_u32, read_u64, PositionedFile};
use crate::record::{SessionRecord, Trace};
use crate::source::{DecodeStats, NeighborhoodLayout, TraceSource};

/// The four magic bytes opening every columnar trace file.
pub const MAGIC: [u8; 4] = *b"CVTC";
/// The format version this module writes and reads.
pub const VERSION: u32 = 4;
/// Default records per chunk: 64 Ki records ≈ 1.5 MiB of columns — large
/// enough to amortize syscalls, small enough that a reader's resident set
/// stays a rounding error next to the simulation state.
pub const DEFAULT_CHUNK_SIZE: u32 = 65_536;

const HEADER_LEN: u64 = 56;
const DIR_ENTRY_LEN: usize = 44;
const CATALOG_ENTRY_LEN: usize = 16;
const BYTES_PER_RECORD: usize = 24;
const BYTES_PER_RECORD_INDEXED: usize = 32;
/// Directory group tag of time-major chunks.
const NO_GROUP: u32 = u32::MAX;

/// How a file partitions records into chunks (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ChunkLayout {
    /// Chunks partition the global time-ordered sequence.
    #[default]
    TimeMajor,
    /// Each chunk holds one neighborhood group's records.
    NeighborhoodMajor {
        /// The neighborhood size the §V-B shuffle was evaluated at.
        neighborhood_size: u32,
    },
}

impl ChunkLayout {
    fn tag(self) -> (u32, u32) {
        match self {
            ChunkLayout::TimeMajor => (0, 0),
            ChunkLayout::NeighborhoodMajor { neighborhood_size } => (1, neighborhood_size),
        }
    }

    fn record_bytes(self) -> usize {
        match self {
            ChunkLayout::TimeMajor => BYTES_PER_RECORD,
            ChunkLayout::NeighborhoodMajor { .. } => BYTES_PER_RECORD_INDEXED,
        }
    }
}

/// One directory entry: where a chunk lives and what it covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChunkMeta {
    /// File offset of the chunk's column data.
    pub file_offset: u64,
    /// Records in this chunk.
    pub record_count: u32,
    /// Global sequence number of the chunk's first record.
    pub first_index: u64,
    /// Start instant of the chunk's first record.
    pub first_start: SimTime,
    /// Start instant of the chunk's last record; every event in later
    /// chunks *of the same group* (of any later chunk, for time-major
    /// files) is at or after this.
    pub watermark: SimTime,
    /// Neighborhood group (`None` for time-major chunks).
    pub group: Option<u32>,
    /// CRC-32 of the chunk's column bytes, verified on every fetch.
    pub crc: u32,
}

/// Bytes of the writer's one encode buffer: a chunk's columns reach the
/// checksum and the output in runs of at most this many bytes.
const ENCODE_SCRATCH_BYTES: usize = 32 << 10;

/// One record's column values, as a chunk stores them: what
/// [`ColumnarWriter::admit`] returns for a record it accepts.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Packed {
    pub(crate) user: u32,
    pub(crate) program: u32,
    pub(crate) start: u64,
    pub(crate) duration: u32,
    pub(crate) offset: u32,
    pub(crate) gseq: u64,
}

/// One chunk's column buffers.
#[derive(Debug, Default)]
pub(crate) struct ChunkBuf {
    users: Vec<u32>,
    programs: Vec<u32>,
    starts: Vec<u64>,
    durations: Vec<u32>,
    offsets: Vec<u32>,
    /// Only populated for the neighborhood-major layout (the time-major
    /// column is implicit: `first_gseq + position`).
    gseqs: Vec<u64>,
    /// Sequence number of the buffer's first record.
    first_gseq: u64,
}

impl ChunkBuf {
    /// Makes room for one more record: a full buffer doubles its columns,
    /// capped at `chunk_size` records — the writer flushes a buffer when
    /// it reaches that size, so any capacity beyond it would never be
    /// used.
    fn reserve_one(&mut self, chunk_size: usize, indexed: bool) {
        let len = self.users.len();
        if len < self.users.capacity() {
            return;
        }
        let extra = (2 * len).max(4).min(chunk_size) - len;
        self.reserve_exact(extra, indexed);
    }

    /// Makes room for `extra` more records, and no more.
    pub(crate) fn reserve_exact(&mut self, extra: usize, indexed: bool) {
        self.users.reserve_exact(extra);
        self.programs.reserve_exact(extra);
        self.starts.reserve_exact(extra);
        self.durations.reserve_exact(extra);
        self.offsets.reserve_exact(extra);
        if indexed {
            self.gseqs.reserve_exact(extra);
        }
    }

    /// Appends one record; `indexed` stores its sequence number too.
    fn push(&mut self, rec: Packed, indexed: bool) {
        if self.users.is_empty() {
            self.first_gseq = rec.gseq;
        }
        self.users.push(rec.user);
        self.programs.push(rec.program);
        self.starts.push(rec.start);
        self.durations.push(rec.duration);
        self.offsets.push(rec.offset);
        if indexed {
            self.gseqs.push(rec.gseq);
        }
    }

    /// Appends a run of records a column at a time: one tight pass over
    /// `recs` per column, a fraction of the cost of a `push` a record
    /// when a run is read back in bulk.
    pub(crate) fn extend<I>(&mut self, recs: I, indexed: bool)
    where
        I: Iterator<Item = Packed> + Clone,
    {
        if self.users.is_empty() {
            if let Some(first) = recs.clone().next() {
                self.first_gseq = first.gseq;
            }
        }
        self.users.extend(recs.clone().map(|r| r.user));
        self.programs.extend(recs.clone().map(|r| r.program));
        self.starts.extend(recs.clone().map(|r| r.start));
        self.durations.extend(recs.clone().map(|r| r.duration));
        self.offsets.extend(recs.clone().map(|r| r.offset));
        if indexed {
            self.gseqs.extend(recs.map(|r| r.gseq));
        }
    }

    fn len(&self) -> usize {
        self.users.len()
    }

    /// Empties the columns, keeping their capacity.
    pub(crate) fn clear(&mut self) {
        self.users.clear();
        self.programs.clear();
        self.starts.clear();
        self.durations.clear();
        self.offsets.clear();
        self.gseqs.clear();
    }
}

/// The ordering state of one cell: the start and sequence number of the
/// last record admitted to it.
#[derive(Debug, Default, Clone, Copy)]
struct CellOrder {
    last_start: u64,
    last_gseq: u64,
    any: bool,
}

/// Encodes one chunk's columns through the writer's scratch buffer: each
/// run of values becomes little-endian bytes in `scratch`, then one
/// update of the chunk's checksum and one write.
struct Encoder<'a> {
    scratch: &'a mut [u8],
    crc: Crc32,
    out: &'a mut BufWriter<File>,
}

impl Encoder<'_> {
    fn encode<T: Copy, const W: usize>(
        &mut self,
        values: &[T],
        le_bytes: impl Fn(T) -> [u8; W],
    ) -> Result<(), TraceError> {
        for run in values.chunks(self.scratch.len() / W) {
            let bytes = &mut self.scratch[..run.len() * W];
            for (dst, &value) in bytes.chunks_exact_mut(W).zip(run) {
                dst.copy_from_slice(&le_bytes(value));
            }
            self.crc.update(bytes);
            self.out.write_all(bytes)?;
        }
        Ok(())
    }
}

/// Neighborhood-major writer setup computed by
/// [`ColumnarWriter::create_multi_index`].
#[derive(Debug)]
struct NmSetup {
    primary_size: u32,
    extra_sizes: Vec<u32>,
    cell_of_user: Vec<u32>,
    cell_tags: Vec<Vec<u32>>,
}

/// Streaming writer: records go to disk chunk by chunk; nothing but the
/// in-progress chunk buffers (one per placement cell for the
/// neighborhood-major layout, each at most `chunk_size` records of
/// columns), one fixed encode buffer and the (small) directory is ever
/// resident.
///
/// That is one chunk per cell, filled in whatever order the records
/// arrive — the price of accepting them one at a time. The
/// neighborhood re-chunker does not pay it: it validates each record
/// with the same checks `push_indexed` makes, keeps the records in a
/// spill file, and hands the writer one whole chunk at a time, so its
/// writer holds no cell buffer at all (see [`crate::rechunk`]'s
/// "Memory").
///
/// A full chunk is encoded **a run at a time**: each column's values are
/// converted to little-endian bytes in runs through the one reused
/// `ENCODE_SCRATCH_BYTES` (32 KiB) buffer, and each run is checksummed and
/// written as one slice — so the CRC kernel and the `BufWriter` see 32 KiB
/// slices, not one 4- or 8-byte call per element.
///
/// Call [`ColumnarWriter::push`] for every record in global order — or
/// [`ColumnarWriter::push_indexed`] with explicit global sequence numbers
/// when re-chunking — then [`ColumnarWriter::finish`] to write the
/// directory and patch the header. A file dropped before `finish` keeps a
/// sentinel record count and is rejected by [`ColumnarReader::open`].
#[derive(Debug)]
pub struct ColumnarWriter {
    out: BufWriter<File>,
    user_count: u32,
    program_count: u32,
    chunk_size: u32,
    layout: ChunkLayout,
    /// Placement cell of each user (empty for time-major: everything goes
    /// through cell 0's single buffer).
    cell_of_user: Vec<u32>,
    /// Per-cell group tags across the carried indexes, primary size
    /// first (empty for time-major).
    cell_tags: Vec<Vec<u32>>,
    /// Carried neighborhood sizes beyond the primary.
    extra_sizes: Vec<u32>,
    /// Per-chunk group tags for the extra indexes (one row per directory
    /// entry, one tag per extra size).
    extra_tags: Vec<Vec<u32>>,
    /// Each cell's ordering state, checked by `admit`.
    order: Vec<CellOrder>,
    bufs: Vec<ChunkBuf>,
    /// The encode buffer `write_chunk` runs every column through.
    scratch: Box<[u8]>,
    directory: Vec<ChunkMeta>,
    next_offset: u64,
    record_count: u64,
    next_gseq: u64,
}

impl ColumnarWriter {
    /// Creates `path` with the time-major layout and writes the header and
    /// catalog.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::Format`] for a zero `chunk_size` and
    /// propagates I/O failures.
    pub fn create(
        path: impl AsRef<Path>,
        catalog: &ProgramCatalog,
        user_count: u32,
        days: u64,
        chunk_size: u32,
    ) -> Result<Self, TraceError> {
        Self::create_inner(path, catalog, user_count, days, chunk_size, None)
    }

    /// Creates `path` with the neighborhood-major layout for
    /// `neighborhood_size`-sized groups. `group_of_user[u]` is user `u`'s
    /// group — compute it with
    /// [`rechunk::neighborhood_groups`](crate::rechunk::neighborhood_groups)
    /// so it matches the simulator's §V-B shuffle.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::Format`] for a zero `chunk_size` or a group
    /// table that does not cover `user_count`, and propagates I/O
    /// failures.
    pub fn create_neighborhood_major(
        path: impl AsRef<Path>,
        catalog: &ProgramCatalog,
        user_count: u32,
        days: u64,
        chunk_size: u32,
        neighborhood_size: u32,
        group_of_user: Vec<u32>,
    ) -> Result<Self, TraceError> {
        Self::create_multi_index(
            path,
            catalog,
            user_count,
            days,
            chunk_size,
            vec![(neighborhood_size, group_of_user)],
        )
    }

    /// Creates `path` with the neighborhood-major layout carrying one
    /// chunk index per `(neighborhood size, group table)` entry — the
    /// first entry is the primary index (the header's declared size).
    /// Chunks are partitioned by placement cell (the users agreeing on
    /// their group under *every* carried index), so each index's groups
    /// are unions of whole chunks.
    ///
    /// The carried partitions should slice one shared user permutation
    /// (the [`cablevod_hfc::topology`] placement contract, surfaced by
    /// [`rechunk::neighborhood_groups`](crate::rechunk::neighborhood_groups));
    /// unrelated partitions still produce a correct file, just with as
    /// many cells as users in the worst case.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::Format`] for a zero `chunk_size`, no
    /// indexes, duplicate or zero sizes, or a group table that does not
    /// cover `user_count`, and propagates I/O failures.
    pub fn create_multi_index(
        path: impl AsRef<Path>,
        catalog: &ProgramCatalog,
        user_count: u32,
        days: u64,
        chunk_size: u32,
        indexes: Vec<(u32, Vec<u32>)>,
    ) -> Result<Self, TraceError> {
        if indexes.is_empty() {
            return Err(format_err(
                "a neighborhood-major file needs at least one chunk index",
            ));
        }
        for (i, (size, table)) in indexes.iter().enumerate() {
            if *size == 0 {
                return Err(format_err("neighborhood size must be at least 1"));
            }
            if indexes[..i].iter().any(|(s, _)| s == size) {
                return Err(format_err(format!(
                    "duplicate chunk index for neighborhood size {size}"
                )));
            }
            if table.len() != user_count as usize {
                return Err(format_err(format!(
                    "group table covers {} users, file declares {user_count}",
                    table.len()
                )));
            }
        }
        // Partition users into cells: one per distinct group tuple,
        // numbered in first-seen order over user ids (the order `finish`
        // flushes tail chunks in). Level `i` maps (cell over the first `i`
        // indexes, group at index `i`) to the cell over the first `i + 1`,
        // so a user's lookups allocate nothing.
        let mut levels: Vec<HashMap<(u32, u32), u32>> =
            indexes.iter().map(|_| HashMap::new()).collect();
        let mut cell_tags: Vec<Vec<u32>> = Vec::new();
        let mut cell_of_user = Vec::with_capacity(user_count as usize);
        for u in 0..user_count as usize {
            let mut cell = 0;
            for (level, (_, table)) in levels.iter_mut().zip(&indexes) {
                let next = level.len() as u32;
                cell = *level.entry((cell, table[u])).or_insert(next);
            }
            if cell as usize == cell_tags.len() {
                cell_tags.push(indexes.iter().map(|(_, table)| table[u]).collect());
            }
            cell_of_user.push(cell);
        }
        let primary_size = indexes[0].0;
        let extra_sizes: Vec<u32> = indexes[1..].iter().map(|(size, _)| *size).collect();
        Self::create_inner(
            path,
            catalog,
            user_count,
            days,
            chunk_size,
            Some(NmSetup {
                primary_size,
                extra_sizes,
                cell_of_user,
                cell_tags,
            }),
        )
    }

    fn create_inner(
        path: impl AsRef<Path>,
        catalog: &ProgramCatalog,
        user_count: u32,
        days: u64,
        chunk_size: u32,
        nm: Option<NmSetup>,
    ) -> Result<Self, TraceError> {
        if chunk_size == 0 {
            return Err(format_err("chunk size must be at least 1 record"));
        }
        let (layout, cell_of_user, cell_tags, extra_sizes) = match nm {
            None => (ChunkLayout::TimeMajor, Vec::new(), Vec::new(), Vec::new()),
            Some(setup) => (
                ChunkLayout::NeighborhoodMajor {
                    neighborhood_size: setup.primary_size,
                },
                setup.cell_of_user,
                setup.cell_tags,
                setup.extra_sizes,
            ),
        };
        let cell_count = cell_tags.len().max(1);

        let file = File::create(path)?;
        let mut out = BufWriter::with_capacity(1 << 16, file);

        // Header; record_count / chunk_count / directory_offset are
        // patched by `finish`. Until then record_count holds a sentinel so
        // a torn file (writer crashed mid-generation) is rejected at open
        // instead of silently parsing as a valid empty trace.
        let (layout_tag, group_param) = layout.tag();
        out.write_all(&MAGIC)?;
        out.write_all(&VERSION.to_le_bytes())?;
        out.write_all(&user_count.to_le_bytes())?;
        out.write_all(&days.to_le_bytes())?;
        out.write_all(&u64::MAX.to_le_bytes())?; // record_count sentinel
        out.write_all(&chunk_size.to_le_bytes())?;
        out.write_all(&0u32.to_le_bytes())?; // chunk_count
        out.write_all(&0u64.to_le_bytes())?; // directory_offset
        out.write_all(&layout_tag.to_le_bytes())?;
        out.write_all(&group_param.to_le_bytes())?;
        out.write_all(&(extra_sizes.len() as u32).to_le_bytes())?;

        out.write_all(&(catalog.len() as u32).to_le_bytes())?;
        for (_, info) in catalog.iter() {
            out.write_all(&info.length.as_secs().to_le_bytes())?;
            out.write_all(&info.introduced_day.to_le_bytes())?;
        }

        let next_offset = HEADER_LEN + 4 + 16 * catalog.len() as u64;
        Ok(ColumnarWriter {
            out,
            user_count,
            program_count: catalog.len() as u32,
            chunk_size,
            layout,
            cell_of_user,
            cell_tags,
            extra_sizes,
            extra_tags: Vec::new(),
            order: vec![CellOrder::default(); cell_count],
            bufs: (0..cell_count).map(|_| ChunkBuf::default()).collect(),
            scratch: vec![0; ENCODE_SCRATCH_BYTES].into_boxed_slice(),
            directory: Vec::new(),
            next_offset,
            record_count: 0,
            next_gseq: 0,
        })
    }

    /// Appends one record in global order (its global sequence number is
    /// the running record count); flushes a full chunk to disk.
    ///
    /// # Errors
    ///
    /// As for [`push_indexed`](ColumnarWriter::push_indexed).
    pub fn push(&mut self, rec: &SessionRecord) -> Result<(), TraceError> {
        let gseq = self.next_gseq;
        self.push_indexed(gseq, rec)
    }

    /// Appends one record with an explicit global sequence number (the
    /// re-chunking path, where records arrive grouped rather than in
    /// global order); flushes a full chunk to disk.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::Format`] when `rec` breaks its group's
    /// start-time or sequence ordering or its duration/offset overflows
    /// the 32-bit columns, the `Dangling*` variants for out-of-range
    /// references, and propagates I/O failures.
    pub fn push_indexed(&mut self, gseq: u64, rec: &SessionRecord) -> Result<(), TraceError> {
        let (cell, packed) = self.admit(gseq, rec)?;
        let chunk_size = self.chunk_size as usize;
        let indexed = self.indexed();
        let buf = &mut self.bufs[cell];
        buf.reserve_one(chunk_size, indexed);
        buf.push(packed, indexed);
        if buf.len() == chunk_size {
            self.flush_cell(cell)?;
        }
        Ok(())
    }

    /// Checks `rec` exactly as [`push_indexed`](ColumnarWriter::push_indexed)
    /// does, counts it and advances its cell's ordering state — everything
    /// `push_indexed` does but buffer it. Returns the record's cell and
    /// column values, for a caller that buffers records itself and writes
    /// them with [`write_chunk`](ColumnarWriter::write_chunk).
    #[inline]
    pub(crate) fn admit(
        &mut self,
        gseq: u64,
        rec: &SessionRecord,
    ) -> Result<(usize, Packed), TraceError> {
        if rec.program.value() >= self.program_count {
            return Err(TraceError::DanglingProgram {
                program: rec.program,
            });
        }
        if rec.user.value() >= self.user_count {
            return Err(TraceError::DanglingUser { user: rec.user });
        }
        let cell = match self.layout {
            ChunkLayout::TimeMajor => {
                if gseq != self.next_gseq {
                    return Err(format_err(format!(
                        "time-major records must carry dense sequence numbers: got {gseq}, \
                         expected {}",
                        self.next_gseq
                    )));
                }
                0
            }
            ChunkLayout::NeighborhoodMajor { .. } => self.cell_of_user[rec.user.index()] as usize,
        };
        let start = rec.start.as_secs();
        let order = &mut self.order[cell];
        if order.any && start < order.last_start {
            return Err(format_err(format!(
                "records must be written in start order within a group: {start}s after {}s",
                order.last_start
            )));
        }
        if order.any && gseq <= order.last_gseq {
            return Err(format_err(format!(
                "sequence numbers must ascend within a group: {gseq} after {}",
                order.last_gseq
            )));
        }
        let duration = u32::try_from(rec.duration.as_secs())
            .map_err(|_| format_err("session duration overflows the 32-bit column"))?;
        let offset = u32::try_from(rec.offset.as_secs())
            .map_err(|_| format_err("seek offset overflows the 32-bit column"))?;
        *order = CellOrder {
            last_start: start,
            last_gseq: gseq,
            any: true,
        };
        self.record_count += 1;
        self.next_gseq = self.next_gseq.max(gseq + 1);
        let packed = Packed {
            user: rec.user.value(),
            program: rec.program.value(),
            start,
            duration,
            offset,
            gseq,
        };
        Ok((cell, packed))
    }

    /// Appends every record of `batch` (a convenience over [`push`]).
    ///
    /// # Errors
    ///
    /// As for [`push`].
    ///
    /// [`push`]: ColumnarWriter::push
    pub fn push_all(&mut self, batch: &[SessionRecord]) -> Result<(), TraceError> {
        for rec in batch {
            self.push(rec)?;
        }
        Ok(())
    }

    /// Records written so far.
    pub fn record_count(&self) -> u64 {
        self.record_count
    }

    /// Placement cells of this file (1 for time-major).
    pub(crate) fn cell_count(&self) -> usize {
        self.bufs.len()
    }

    fn indexed(&self) -> bool {
        matches!(self.layout, ChunkLayout::NeighborhoodMajor { .. })
    }

    fn flush_cell(&mut self, cell: usize) -> Result<(), TraceError> {
        let mut buf = std::mem::take(&mut self.bufs[cell]);
        self.write_chunk(cell, &buf)?;
        buf.clear();
        self.bufs[cell] = buf;
        Ok(())
    }

    /// Writes `chunk`'s records (admitted by [`admit`](ColumnarWriter::admit),
    /// in order) as the next chunk of the file, tagged with `cell`'s groups.
    /// An empty chunk writes nothing.
    pub(crate) fn write_chunk(&mut self, cell: usize, chunk: &ChunkBuf) -> Result<(), TraceError> {
        let n = chunk.len();
        if n == 0 {
            return Ok(());
        }
        let indexed = self.indexed();
        // The checksum runs over the exact byte sequence the chunk puts on
        // disk: columns in write order, little-endian, a run at a time.
        let mut column = Encoder {
            scratch: &mut self.scratch,
            crc: Crc32::new(),
            out: &mut self.out,
        };
        column.encode(&chunk.users, u32::to_le_bytes)?;
        column.encode(&chunk.programs, u32::to_le_bytes)?;
        column.encode(&chunk.starts, u64::to_le_bytes)?;
        column.encode(&chunk.durations, u32::to_le_bytes)?;
        column.encode(&chunk.offsets, u32::to_le_bytes)?;
        column.encode(&chunk.gseqs, u64::to_le_bytes)?; // empty unless indexed
        let crc = column.crc.finish();
        self.directory.push(ChunkMeta {
            file_offset: self.next_offset,
            record_count: n as u32,
            first_index: chunk.first_gseq,
            first_start: SimTime::from_secs(chunk.starts[0]),
            watermark: SimTime::from_secs(chunk.starts[n - 1]),
            group: indexed.then(|| self.cell_tags[cell][0]),
            crc,
        });
        if indexed {
            self.extra_tags.push(self.cell_tags[cell][1..].to_vec());
        }
        self.next_offset += (n * self.layout.record_bytes()) as u64;
        Ok(())
    }

    /// Flushes the tail chunks (one per placement cell still holding
    /// records), writes the directory and index tables, and patches the
    /// header counts, completing the file.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures.
    pub fn finish(mut self) -> Result<(), TraceError> {
        for cell in 0..self.bufs.len() {
            self.flush_cell(cell)?;
        }
        let directory_offset = self.next_offset;
        for meta in &self.directory {
            self.out.write_all(&meta.file_offset.to_le_bytes())?;
            self.out.write_all(&meta.record_count.to_le_bytes())?;
            self.out.write_all(&meta.first_index.to_le_bytes())?;
            self.out
                .write_all(&meta.first_start.as_secs().to_le_bytes())?;
            self.out
                .write_all(&meta.watermark.as_secs().to_le_bytes())?;
            self.out
                .write_all(&meta.group.unwrap_or(NO_GROUP).to_le_bytes())?;
            self.out.write_all(&meta.crc.to_le_bytes())?;
        }
        for (i, &size) in self.extra_sizes.iter().enumerate() {
            self.out.write_all(&size.to_le_bytes())?;
            for row in &self.extra_tags {
                self.out.write_all(&row[i].to_le_bytes())?;
            }
        }
        self.out.flush()?;

        // Patch record_count, chunk_count and directory_offset in place.
        let mut file = self.out.into_inner().map_err(|e| e.into_error())?;
        file.seek(SeekFrom::Start(20))?;
        file.write_all(&self.record_count.to_le_bytes())?;
        file.seek(SeekFrom::Start(32))?;
        file.write_all(&(self.directory.len() as u32).to_le_bytes())?;
        file.write_all(&directory_offset.to_le_bytes())?;
        file.sync_all()?;
        Ok(())
    }
}

/// Writes a whole in-memory trace as a time-major columnar file.
///
/// # Errors
///
/// As for [`ColumnarWriter`].
pub fn write_trace(
    path: impl AsRef<Path>,
    trace: &Trace,
    chunk_size: u32,
) -> Result<(), TraceError> {
    let mut writer = ColumnarWriter::create(
        path,
        trace.catalog(),
        trace.user_count(),
        trace.days(),
        chunk_size,
    )?;
    writer.push_all(trace.records())?;
    writer.finish()
}

/// Read-only whole-file memory mapping, kept dependency-free by
/// declaring the libc entry points directly (the build environment
/// vendors stand-ins and cannot grow a `libc`/`memmap` dependency).
#[cfg(unix)]
#[allow(unsafe_code)]
mod mmap {
    use std::ffi::c_void;
    use std::fs::File;
    use std::os::raw::c_int;
    use std::os::unix::io::AsRawFd;
    use std::sync::OnceLock;

    const PROT_READ: c_int = 1;
    const MAP_PRIVATE: c_int = 2;
    /// The same value on Linux, the BSDs and macOS.
    const MADV_DONTNEED: c_int = 4;

    extern "C" {
        fn mmap(
            addr: *mut c_void,
            len: usize,
            prot: c_int,
            flags: c_int,
            fd: c_int,
            offset: i64,
        ) -> *mut c_void;
        fn munmap(addr: *mut c_void, len: usize) -> c_int;
        fn madvise(addr: *mut c_void, len: usize, advice: c_int) -> c_int;
        fn getpagesize() -> c_int;
    }

    /// The host's page size, queried once.
    pub(super) fn page_size() -> usize {
        static PAGE: OnceLock<usize> = OnceLock::new();
        // SAFETY: `getpagesize` takes nothing and reads a constant.
        *PAGE.get_or_init(|| unsafe { getpagesize() } as usize)
    }

    /// An owned `PROT_READ`/`MAP_PRIVATE` mapping of a whole file,
    /// unmapped on drop.
    #[derive(Debug)]
    pub(super) struct Mmap {
        ptr: *mut c_void,
        len: usize,
    }

    // The mapping is read-only and owned: sharing `&Mmap` across threads
    // is sharing `&[u8]`.
    unsafe impl Send for Mmap {}
    unsafe impl Sync for Mmap {}

    impl Mmap {
        /// Maps `len` bytes of `file` read-only; `None` when the file is
        /// empty, too large for the address space, or the kernel refuses
        /// the mapping (the caller falls back to positioned reads).
        pub(super) fn map(file: &File, len: u64) -> Option<Mmap> {
            let len = usize::try_from(len).ok().filter(|&l| l > 0)?;
            let ptr = unsafe {
                mmap(
                    std::ptr::null_mut(),
                    len,
                    PROT_READ,
                    MAP_PRIVATE,
                    file.as_raw_fd(),
                    0,
                )
            };
            // MAP_FAILED is (void*)-1.
            if ptr as isize == -1 {
                return None;
            }
            Some(Mmap { ptr, len })
        }

        pub(super) fn bytes(&self) -> &[u8] {
            // Sound: the mapping is valid for `len` bytes until `munmap`
            // in drop, and nothing writes through it (PROT_READ).
            unsafe { std::slice::from_raw_parts(self.ptr as *const u8, self.len) }
        }

        /// Borrows `range` of the mapping; its pages leave the resident
        /// set when the borrow drops.
        pub(super) fn pages(&self, range: std::ops::Range<usize>) -> Pages<'_> {
            Pages(&self.bytes()[range])
        }
    }

    impl Drop for Mmap {
        fn drop(&mut self) {
            unsafe { munmap(self.ptr, self.len) };
        }
    }

    /// A borrowed range of a [`Mmap`] that, when dropped, releases the
    /// whole pages lying strictly inside it (`MADV_DONTNEED`). A page it
    /// shares with the bytes on either side stays mapped, so a borrow
    /// never takes a page from under a neighbouring chunk's decode.
    pub(super) struct Pages<'a>(&'a [u8]);

    impl std::ops::Deref for Pages<'_> {
        type Target = [u8];

        fn deref(&self) -> &[u8] {
            self.0
        }
    }

    impl Drop for Pages<'_> {
        fn drop(&mut self) {
            let page = page_size();
            let start = self.0.as_ptr() as usize;
            let first = start.next_multiple_of(page);
            let end = (start + self.0.len()) / page * page;
            if first < end {
                // SAFETY: `[first, end)` is page-aligned and lies inside
                // the live `PROT_READ` file mapping this borrow came
                // from; a dropped page of a private file mapping that was
                // never written is refilled from the file on the next
                // touch, so every other borrow of these bytes reads the
                // same values. The return value is ignored: a refusal
                // leaves the mapping valid.
                unsafe { madvise(first as *mut c_void, end - first, MADV_DONTNEED) };
            }
        }
    }
}

/// Off Unix there is no mapping, and no chunk is ever borrowed from one.
#[cfg(not(unix))]
mod mmap {
    pub(super) type Pages<'a> = &'a [u8];
}

/// One chunk's raw column bytes: borrowed straight from the mapping on
/// the mmap path (its pages released once the chunk is decoded), an
/// owned scratch buffer on the pread path.
enum ChunkData<'a> {
    Mapped(mmap::Pages<'a>),
    Owned(Vec<u8>),
}

impl std::ops::Deref for ChunkData<'_> {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        match self {
            ChunkData::Mapped(pages) => pages,
            ChunkData::Owned(v) => v,
        }
    }
}

/// How chunk bytes reach the decoder (see the module docs).
#[derive(Debug)]
enum Backing {
    /// Positioned reads into a scratch buffer — the portable fallback.
    Pread,
    /// Whole-file mapping; `verified` is a per-chunk bitmap memoizing
    /// successful CRC checks so a re-fetched chunk skips the scan
    /// (corrupt chunks never set their bit and keep failing).
    #[cfg(unix)]
    Mmap {
        map: mmap::Mmap,
        verified: Box<[AtomicU64]>,
    },
}

/// Reader over a columnar trace file: the header, catalog and chunk
/// directory live in memory; record columns are decoded one chunk at a
/// time, borrowed zero-copy from a whole-file memory mapping where the
/// platform allows it and fetched with positioned reads (`pread`)
/// otherwise (see the module docs for the selection and fallback rules).
/// Either way one reader can serve many shard workers concurrently
/// through a shared reference. The reader counts every chunk decode
/// (chunks and bytes) in [`TraceSource::decode_stats`], which is how the
/// engine's decode-work regression tests observe I/O amplification.
#[derive(Debug)]
pub struct ColumnarReader {
    file: PositionedFile,
    catalog: ProgramCatalog,
    user_count: u32,
    days: u64,
    record_count: u64,
    chunk_size: u32,
    layout: ChunkLayout,
    directory: Vec<ChunkMeta>,
    layouts: Vec<NeighborhoodLayout>,
    backing: Backing,
    chunks_decoded: AtomicU64,
    bytes_decoded: AtomicU64,
}

impl ColumnarReader {
    /// Opens and validates `path`: magic, version, directory shape,
    /// index tables, and per-cell index/watermark ordering. Selects the
    /// zero-copy mmap backing when the platform provides one, falling
    /// back to positioned reads (see the module docs).
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::Format`] for corrupt or foreign files and
    /// propagates I/O failures.
    pub fn open(path: impl AsRef<Path>) -> Result<Self, TraceError> {
        Self::open_inner(path, true)
    }

    /// Opens `path` like [`open`](ColumnarReader::open) but forces the
    /// portable positioned-read (`pread`) backing — the baseline the
    /// mmap path is benchmarked against.
    ///
    /// # Errors
    ///
    /// As for [`open`](ColumnarReader::open).
    pub fn open_pread(path: impl AsRef<Path>) -> Result<Self, TraceError> {
        Self::open_inner(path, false)
    }

    fn open_inner(path: impl AsRef<Path>, allow_mmap: bool) -> Result<Self, TraceError> {
        let mut file = File::open(path)?;
        if read_array::<4>(&mut file)? != MAGIC {
            return Err(format_err("bad magic: not a columnar trace file"));
        }
        let version = read_u32(&mut file)?;
        if version != VERSION {
            return Err(format_err(format!(
                "unsupported format version {version} (expected {VERSION})"
            )));
        }
        let user_count = read_u32(&mut file)?;
        let days = read_u64(&mut file)?;
        let record_count = read_u64(&mut file)?;
        let chunk_size = read_u32(&mut file)?;
        let chunk_count = read_u32(&mut file)?;
        let directory_offset = read_u64(&mut file)?;
        let layout_tag = read_u32(&mut file)?;
        let group_param = read_u32(&mut file)?;
        let index_count = read_u32(&mut file)?;
        if record_count == u64::MAX || directory_offset == 0 {
            return Err(format_err(
                "unfinished file: the writer never reached finish()",
            ));
        }
        if chunk_size == 0 {
            return Err(format_err("zero chunk size"));
        }
        let layout = match (layout_tag, group_param) {
            (0, _) => ChunkLayout::TimeMajor,
            (1, 0) => return Err(format_err("neighborhood-major file with zero group size")),
            (1, size) => ChunkLayout::NeighborhoodMajor {
                neighborhood_size: size,
            },
            (tag, _) => return Err(format_err(format!("unknown chunk layout tag {tag}"))),
        };
        if index_count != 0 && matches!(layout, ChunkLayout::TimeMajor) {
            return Err(format_err(format!(
                "time-major file carries {index_count} index tables"
            )));
        }
        // Every size field is untrusted: bound it against the physical
        // file length before it sizes an allocation, so a corrupt header
        // yields a Format error rather than an OOM abort.
        let file_len = file.metadata()?.len();
        if record_count > file_len / layout.record_bytes() as u64 {
            return Err(format_err(format!(
                "header claims {record_count} records, more than the file can hold"
            )));
        }
        let tail_len = (u64::from(chunk_count) * DIR_ENTRY_LEN as u64)
            .checked_add(u64::from(index_count) * (4 + 4 * u64::from(chunk_count)));
        if tail_len
            .and_then(|t| directory_offset.checked_add(t))
            .is_none_or(|end| end > file_len)
        {
            return Err(format_err(format!(
                "directory ({chunk_count} chunks, {index_count} index tables at offset \
                 {directory_offset}) exceeds the file"
            )));
        }

        let program_count = read_u32(&mut file)?;
        if u64::from(program_count) > file_len / CATALOG_ENTRY_LEN as u64 {
            return Err(format_err(format!(
                "catalog claims {program_count} programs, more than the file can hold"
            )));
        }
        let mut catalog = ProgramCatalog::new();
        for _ in 0..program_count {
            let length = read_u64(&mut file)?;
            let introduced_day = i64::from_le_bytes(read_array(&mut file)?);
            catalog.push(ProgramInfo {
                length: SimDuration::from_secs(length),
                introduced_day,
            });
        }

        file.seek(SeekFrom::Start(directory_offset))?;
        let directory = Self::read_directory(
            &mut file,
            chunk_count,
            layout,
            user_count,
            record_count,
            directory_offset,
        )?;
        let extra_indexes =
            Self::read_index_tables(&mut file, index_count, chunk_count, layout, user_count)?;
        let layouts =
            Self::validate_cells_and_build_layouts(layout, user_count, &directory, &extra_indexes)?;

        let backing = if allow_mmap {
            Self::mmap_backing(&file, file_len, directory.len())
        } else {
            Backing::Pread
        };

        Ok(ColumnarReader {
            file: PositionedFile::new(file),
            catalog,
            user_count,
            days,
            record_count,
            chunk_size,
            layout,
            directory,
            layouts,
            backing,
            chunks_decoded: AtomicU64::new(0),
            bytes_decoded: AtomicU64::new(0),
        })
    }

    #[cfg(unix)]
    fn mmap_backing(file: &File, file_len: u64, chunk_count: usize) -> Backing {
        match mmap::Mmap::map(file, file_len) {
            Some(map) => Backing::Mmap {
                map,
                verified: (0..chunk_count.div_ceil(64))
                    .map(|_| AtomicU64::new(0))
                    .collect(),
            },
            None => Backing::Pread,
        }
    }

    #[cfg(not(unix))]
    fn mmap_backing(_file: &File, _file_len: u64, _chunk_count: usize) -> Backing {
        Backing::Pread
    }

    /// Whether chunk fetches borrow zero-copy from a memory mapping
    /// (`false` means the portable pread fallback is active).
    pub fn uses_mmap(&self) -> bool {
        match self.backing {
            Backing::Pread => false,
            #[cfg(unix)]
            Backing::Mmap { .. } => true,
        }
    }

    fn read_directory(
        file: &mut File,
        chunk_count: u32,
        layout: ChunkLayout,
        user_count: u32,
        record_count: u64,
        directory_offset: u64,
    ) -> Result<Vec<ChunkMeta>, TraceError> {
        let group_count = match layout {
            ChunkLayout::TimeMajor => 1,
            ChunkLayout::NeighborhoodMajor { neighborhood_size } => u64::from(user_count)
                .div_ceil(u64::from(neighborhood_size))
                .max(1)
                as usize,
        };
        // Time-major continuation state (dense indexes, one global
        // timeline). Neighborhood-major cross-chunk ordering is per cell
        // and needs the index tables, so it is validated afterwards in
        // `validate_cells_and_build_layouts`.
        let mut next_index = 0u64;
        let mut last_watermark = 0u64;
        let mut covered = 0u64;
        let mut directory = Vec::with_capacity(chunk_count as usize);
        for c in 0..chunk_count {
            let file_offset = read_u64(file)?;
            let records = read_u32(file)?;
            let first_index = read_u64(file)?;
            let first_start = read_u64(file)?;
            let watermark = read_u64(file)?;
            let group_tag = read_u32(file)?;
            let crc = read_u32(file)?;
            match layout {
                ChunkLayout::TimeMajor => {
                    if group_tag != NO_GROUP {
                        return Err(format_err(format!(
                            "time-major chunk {c} carries group tag {group_tag}"
                        )));
                    }
                    if first_index != next_index {
                        return Err(format_err(format!(
                            "chunk {c} starts at record {first_index}, expected {next_index}"
                        )));
                    }
                    next_index = first_index + u64::from(records);
                    if first_start < last_watermark {
                        return Err(format_err(format!("chunk {c} breaks time ordering")));
                    }
                    last_watermark = watermark;
                }
                ChunkLayout::NeighborhoodMajor { .. } => {
                    if group_tag as usize >= group_count {
                        return Err(format_err(format!(
                            "chunk {c} claims group {group_tag}, file has {group_count} groups"
                        )));
                    }
                }
            }
            // Sequence numbers are global record indices: a chunk whose
            // span leaves `0..record_count` is corrupt, and catching it
            // here keeps a crafted first_index from sizing allocations or
            // truncating 32-bit event keys downstream.
            if first_index
                .checked_add(u64::from(records))
                .is_none_or(|end| end > record_count)
            {
                return Err(format_err(format!(
                    "chunk {c} spans sequence numbers beyond the {record_count} records on file"
                )));
            }
            if watermark < first_start {
                return Err(format_err(format!("chunk {c} breaks time ordering")));
            }
            if file_offset
                .checked_add(u64::from(records) * layout.record_bytes() as u64)
                .is_none_or(|end| end > directory_offset)
            {
                return Err(format_err(format!(
                    "chunk {c} ({records} records at offset {file_offset}) overruns the directory"
                )));
            }
            covered += u64::from(records);
            directory.push(ChunkMeta {
                file_offset,
                record_count: records,
                first_index,
                first_start: SimTime::from_secs(first_start),
                watermark: SimTime::from_secs(watermark),
                group: matches!(layout, ChunkLayout::NeighborhoodMajor { .. }).then_some(group_tag),
                crc,
            });
        }
        if covered != record_count {
            return Err(format_err(format!(
                "directory covers {covered} records, header says {record_count}"
            )));
        }
        Ok(directory)
    }

    /// Reads the extra index tables after the directory: per table a
    /// carried neighborhood size and one group tag per chunk.
    fn read_index_tables(
        file: &mut File,
        index_count: u32,
        chunk_count: u32,
        layout: ChunkLayout,
        user_count: u32,
    ) -> Result<Vec<(u32, Vec<u32>)>, TraceError> {
        let mut tables: Vec<(u32, Vec<u32>)> = Vec::with_capacity(index_count as usize);
        let primary = match layout {
            ChunkLayout::TimeMajor => return Ok(tables),
            ChunkLayout::NeighborhoodMajor { neighborhood_size } => neighborhood_size,
        };
        for t in 0..index_count {
            let size = read_u32(file)?;
            if size == 0 {
                return Err(format_err(format!("index table {t} carries size zero")));
            }
            if size == primary || tables.iter().any(|(s, _)| *s == size) {
                return Err(format_err(format!(
                    "index table {t} repeats neighborhood size {size}"
                )));
            }
            let groups = u64::from(user_count).div_ceil(u64::from(size)).max(1);
            let mut tags = Vec::with_capacity(chunk_count as usize);
            for c in 0..chunk_count {
                let tag = read_u32(file)?;
                if u64::from(tag) >= groups {
                    return Err(format_err(format!(
                        "index table {t} tags chunk {c} with group {tag}, \
                         size {size} has {groups} groups"
                    )));
                }
                tags.push(tag);
            }
            tables.push((size, tags));
        }
        Ok(tables)
    }

    /// Validates neighborhood-major cross-chunk ordering per placement
    /// cell (a chunk's cell is its tag tuple across the directory and
    /// every index table) and builds one [`NeighborhoodLayout`] per
    /// carried size, primary first. Time-major files get no layouts.
    fn validate_cells_and_build_layouts(
        layout: ChunkLayout,
        user_count: u32,
        directory: &[ChunkMeta],
        extra_indexes: &[(u32, Vec<u32>)],
    ) -> Result<Vec<NeighborhoodLayout>, TraceError> {
        use std::collections::hash_map::Entry;
        use std::collections::HashMap;

        let primary_size = match layout {
            ChunkLayout::TimeMajor => return Ok(Vec::new()),
            ChunkLayout::NeighborhoodMajor { neighborhood_size } => neighborhood_size,
        };

        // Assign cell ids by tag tuple (first-seen order) while checking
        // that each cell's chunks keep ascending sequence numbers and
        // non-regressing start times in file order.
        let mut cell_ids: HashMap<Vec<u32>, u32> = HashMap::new();
        let mut cell_state: Vec<(u64, u64)> = Vec::new(); // (next_index, last_watermark)
        let mut chunk_cell: Vec<u32> = Vec::with_capacity(directory.len());
        for (c, meta) in directory.iter().enumerate() {
            let mut key = Vec::with_capacity(1 + extra_indexes.len());
            key.push(meta.group.expect("neighborhood-major chunks are grouped"));
            for (_, tags) in extra_indexes {
                key.push(tags[c]);
            }
            let cell = match cell_ids.entry(key) {
                Entry::Occupied(e) => *e.get(),
                Entry::Vacant(e) => {
                    let id = cell_state.len() as u32;
                    cell_state.push((0, 0));
                    *e.insert(id)
                }
            };
            let (next_index, last_watermark) = &mut cell_state[cell as usize];
            if meta.first_index < *next_index {
                return Err(format_err(format!(
                    "chunk {c} regresses its cell's sequence numbers"
                )));
            }
            if meta.first_start.as_secs() < *last_watermark {
                return Err(format_err(format!("chunk {c} breaks time ordering")));
            }
            *next_index = meta.first_index + u64::from(meta.record_count);
            *last_watermark = meta.watermark.as_secs();
            chunk_cell.push(cell);
        }

        let mut layouts = Vec::with_capacity(1 + extra_indexes.len());
        let primary_tags: Vec<u32> = directory
            .iter()
            .map(|meta| meta.group.expect("neighborhood-major chunks are grouped"))
            .collect();
        layouts.push(Self::build_layout(
            primary_size,
            user_count,
            &chunk_cell,
            &primary_tags,
        ));
        for (size, tags) in extra_indexes {
            layouts.push(Self::build_layout(*size, user_count, &chunk_cell, tags));
        }
        Ok(layouts)
    }

    /// Builds one carried size's [`NeighborhoodLayout`]: per group, one
    /// run per cell the group spans (runs in first-seen file order, chunk
    /// ids within a run ascending — which the per-cell validation made
    /// sequence-ascending too).
    fn build_layout(
        size: u32,
        user_count: u32,
        chunk_cell: &[u32],
        group_of_chunk: &[u32],
    ) -> NeighborhoodLayout {
        use std::collections::hash_map::Entry;
        use std::collections::HashMap;

        let groups = u64::from(user_count).div_ceil(u64::from(size)).max(1) as usize;
        let mut runs: Vec<Vec<Vec<u32>>> = vec![Vec::new(); groups];
        // A cell lies inside exactly one group per size, so the run index
        // can be memoized per cell.
        let mut run_of_cell: HashMap<u32, (usize, usize)> = HashMap::new();
        for (c, (&cell, &group)) in chunk_cell.iter().zip(group_of_chunk).enumerate() {
            match run_of_cell.entry(cell) {
                Entry::Occupied(e) => {
                    let (g, r) = *e.get();
                    runs[g][r].push(c as u32);
                }
                Entry::Vacant(e) => {
                    let g = group as usize;
                    e.insert((g, runs[g].len()));
                    runs[g].push(vec![c as u32]);
                }
            }
        }
        NeighborhoodLayout {
            neighborhood_size: size,
            runs,
        }
    }

    /// The nominal records-per-chunk the file was written with.
    pub fn chunk_size(&self) -> u32 {
        self.chunk_size
    }

    /// The chunk layout this file was written with.
    pub fn layout(&self) -> ChunkLayout {
        self.layout
    }

    /// The chunk directory (offsets, counts, watermarks, groups).
    pub fn directory(&self) -> &[ChunkMeta] {
        &self.directory
    }

    /// Materializes the whole file as an in-memory [`Trace`] (round-trip
    /// tests and small-workload conversions; defeats the point for large
    /// files). Neighborhood-major files are reassembled into global order
    /// through their sequence columns.
    ///
    /// # Errors
    ///
    /// As for [`TraceSource::read_chunk`] plus [`Trace::new`] validation.
    pub fn read_trace(&self) -> Result<Trace, TraceError> {
        let mut indexed = Vec::with_capacity(self.record_count as usize);
        let mut buf = Vec::new();
        for chunk in 0..self.directory.len() {
            self.read_chunk_indexed(chunk, &mut buf)?;
            indexed.extend_from_slice(&buf);
        }
        indexed.sort_unstable_by_key(|&(gseq, _)| gseq);
        let records = indexed.into_iter().map(|(_, rec)| rec).collect();
        Trace::new(records, self.catalog.clone(), self.user_count, self.days)
    }

    /// Fetches chunk `chunk`'s raw column bytes — a borrowed slice of the
    /// mapping or one positioned read into a scratch buffer — verifies
    /// the CRC, and counts the decode.
    fn fetch(&self, chunk: usize) -> Result<(ChunkMeta, ChunkData<'_>), TraceError> {
        let meta = self
            .directory
            .get(chunk)
            .copied()
            .ok_or_else(|| format_err(format!("chunk {chunk} out of range")))?;
        let len = meta.record_count as usize * self.layout.record_bytes();
        let checksum_err = |computed: u32| {
            format_err(format!(
                "chunk {chunk} failed checksum verification \
                 (stored {:#010x}, computed {computed:#010x})",
                meta.crc
            ))
        };
        let bytes = match &self.backing {
            Backing::Pread => {
                let mut bytes = vec![0u8; len];
                self.file.read_at(&mut bytes, meta.file_offset)?;
                let computed = crc32(&bytes);
                if computed != meta.crc {
                    return Err(checksum_err(computed));
                }
                ChunkData::Owned(bytes)
            }
            #[cfg(unix)]
            Backing::Mmap { map, verified } => {
                // Safe slice: the directory validation bounded every
                // chunk's extent by directory_offset <= file_len, which
                // is the mapping's length.
                // The borrow is taken before the check, so a failed
                // check releases the pages it touched too.
                let start = meta.file_offset as usize;
                let bytes = map.pages(start..start + len);
                let word = &verified[chunk / 64];
                let bit = 1u64 << (chunk % 64);
                if word.load(Ordering::Acquire) & bit == 0 {
                    let computed = crc32(&bytes);
                    if computed != meta.crc {
                        return Err(checksum_err(computed));
                    }
                    word.fetch_or(bit, Ordering::Release);
                }
                ChunkData::Mapped(bytes)
            }
        };
        self.chunks_decoded.fetch_add(1, Ordering::Relaxed);
        self.bytes_decoded.fetch_add(len as u64, Ordering::Relaxed);
        Ok((meta, bytes))
    }

    fn record_at(&self, cols: &Columns<'_>, i: usize) -> Result<SessionRecord, TraceError> {
        let user = u32_at(cols.users, i);
        let program = u32_at(cols.programs, i);
        if program >= self.catalog.len() as u32 {
            return Err(TraceError::DanglingProgram {
                program: ProgramId::new(program),
            });
        }
        if user >= self.user_count {
            return Err(TraceError::DanglingUser {
                user: UserId::new(user),
            });
        }
        Ok(SessionRecord {
            user: UserId::new(user),
            program: ProgramId::new(program),
            start: SimTime::from_secs(u64_at(cols.starts, i)),
            duration: SimDuration::from_secs(u64::from(u32_at(cols.durations, i))),
            offset: SimDuration::from_secs(u64::from(u32_at(cols.offsets, i))),
        })
    }
}

/// One chunk's column slices.
struct Columns<'a> {
    users: &'a [u8],
    programs: &'a [u8],
    starts: &'a [u8],
    durations: &'a [u8],
    offsets: &'a [u8],
    seqs: &'a [u8],
}

impl<'a> Columns<'a> {
    fn split(bytes: &'a [u8], n: usize) -> Self {
        let (users, rest) = bytes.split_at(4 * n);
        let (programs, rest) = rest.split_at(4 * n);
        let (starts, rest) = rest.split_at(8 * n);
        let (durations, rest) = rest.split_at(4 * n);
        let (offsets, seqs) = rest.split_at(4 * n);
        Columns {
            users,
            programs,
            starts,
            durations,
            offsets,
            seqs,
        }
    }
}

fn u32_at(col: &[u8], i: usize) -> u32 {
    u32::from_le_bytes(col[4 * i..4 * i + 4].try_into().expect("4-byte slice"))
}

fn u64_at(col: &[u8], i: usize) -> u64 {
    u64::from_le_bytes(col[8 * i..8 * i + 8].try_into().expect("8-byte slice"))
}

impl TraceSource for ColumnarReader {
    fn catalog(&self) -> &ProgramCatalog {
        &self.catalog
    }

    fn user_count(&self) -> u32 {
        self.user_count
    }

    fn days(&self) -> u64 {
        self.days
    }

    fn record_count(&self) -> u64 {
        self.record_count
    }

    fn chunk_count(&self) -> usize {
        self.directory.len()
    }

    fn chunk_first_index(&self, chunk: usize) -> u64 {
        self.directory[chunk].first_index
    }

    fn read_chunk(&self, chunk: usize, out: &mut Vec<SessionRecord>) -> Result<(), TraceError> {
        let (meta, bytes) = self.fetch(chunk)?;
        let n = meta.record_count as usize;
        let cols = Columns::split(&bytes, n);
        out.clear();
        out.reserve(n);
        for i in 0..n {
            out.push(self.record_at(&cols, i)?);
        }
        Ok(())
    }

    fn read_chunk_indexed(
        &self,
        chunk: usize,
        out: &mut Vec<(u64, SessionRecord)>,
    ) -> Result<(), TraceError> {
        let (meta, bytes) = self.fetch(chunk)?;
        let n = meta.record_count as usize;
        let cols = Columns::split(&bytes, n);
        let indexed = matches!(self.layout, ChunkLayout::NeighborhoodMajor { .. });
        out.clear();
        out.reserve(n);
        let mut prev = None;
        for i in 0..n {
            let gseq = if indexed {
                // The stored sequence column is untrusted input: a corrupt
                // value would size feed allocations and get truncated into
                // 32-bit event keys downstream, so enforce the writer's
                // invariants (starts at the directory's first_index,
                // strictly ascending, within the file's record range) at
                // decode.
                let gseq = u64_at(cols.seqs, i);
                if (i == 0 && gseq != meta.first_index)
                    || prev.is_some_and(|p| gseq <= p)
                    || gseq >= self.record_count
                {
                    return Err(format_err(format!(
                        "chunk {chunk} carries a corrupt sequence column (value {gseq} at row {i})"
                    )));
                }
                prev = Some(gseq);
                gseq
            } else {
                meta.first_index + i as u64
            };
            out.push((gseq, self.record_at(&cols, i)?));
        }
        Ok(())
    }

    fn neighborhood_layouts(&self) -> &[NeighborhoodLayout] {
        &self.layouts
    }

    fn decode_stats(&self) -> DecodeStats {
        DecodeStats {
            chunks: self.chunks_decoded.load(Ordering::Relaxed),
            bytes: self.bytes_decoded.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rechunk::{neighborhood_groups, rechunk_by_neighborhood};
    use crate::synth::{generate, SynthConfig};

    fn tmp_path(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("cvtc_{}_{name}", std::process::id()));
        p
    }

    fn small() -> Trace {
        generate(&SynthConfig {
            users: 200,
            programs: 50,
            days: 3,
            ..SynthConfig::smoke_test()
        })
    }

    #[test]
    fn round_trip_preserves_trace() {
        let trace = small();
        for chunk_size in [1u32, 64, 1_000_000] {
            let path = tmp_path(&format!("round_trip_{chunk_size}"));
            write_trace(&path, &trace, chunk_size).expect("write");
            let reader = ColumnarReader::open(&path).expect("open");
            assert_eq!(reader.record_count(), trace.len() as u64);
            assert_eq!(TraceSource::catalog(&reader), trace.catalog());
            assert_eq!(reader.layout(), ChunkLayout::TimeMajor);
            assert!(reader.neighborhood_layout().is_none());
            assert_eq!(reader.read_trace().expect("read"), trace);
            std::fs::remove_file(&path).ok();
        }
    }

    #[test]
    fn directory_watermarks_cover_chunks_in_order() {
        let trace = small();
        let path = tmp_path("watermarks");
        write_trace(&path, &trace, 64).expect("write");
        let reader = ColumnarReader::open(&path).expect("open");
        assert_eq!(
            reader.chunk_count(),
            (trace.len() as u64).div_ceil(64) as usize
        );
        let mut index = 0u64;
        let mut last = SimTime::EPOCH;
        for meta in reader.directory() {
            assert_eq!(meta.first_index, index);
            assert!(meta.first_start >= last, "chunks overlap in time");
            assert!(meta.watermark >= meta.first_start);
            assert_eq!(meta.group, None);
            index += u64::from(meta.record_count);
            last = meta.watermark;
        }
        assert_eq!(index, trace.len() as u64);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn out_of_order_writes_are_rejected() {
        let trace = small();
        let path = tmp_path("order");
        let mut w =
            ColumnarWriter::create(&path, trace.catalog(), trace.user_count(), 3, 16).expect("c");
        let recs = trace.records();
        w.push(&recs[10]).expect("first");
        let err = w.push(&recs[0]).unwrap_err();
        assert!(matches!(err, TraceError::Format { .. }), "{err}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn dangling_references_are_rejected_at_write() {
        let trace = small();
        let path = tmp_path("dangling");
        let mut w =
            ColumnarWriter::create(&path, trace.catalog(), trace.user_count(), 3, 16).expect("c");
        let mut bad = trace.records()[0];
        bad.program = ProgramId::new(9_999);
        assert!(matches!(
            w.push(&bad),
            Err(TraceError::DanglingProgram { .. })
        ));
        let mut bad = trace.records()[0];
        bad.user = UserId::new(9_999);
        assert!(matches!(w.push(&bad), Err(TraceError::DanglingUser { .. })));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn unfinished_files_are_rejected() {
        let trace = small();
        let path = tmp_path("unfinished");
        let mut w = ColumnarWriter::create(&path, trace.catalog(), trace.user_count(), 3, 16)
            .expect("create");
        for rec in &trace.records()[..40] {
            w.push(rec).expect("push");
        }
        drop(w); // never finished: chunks on disk, header still sentinel
        let err = ColumnarReader::open(&path).unwrap_err();
        assert!(
            matches!(&err, TraceError::Format { reason } if reason.contains("unfinished")),
            "{err}"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn foreign_files_are_rejected() {
        let path = tmp_path("foreign");
        std::fs::write(&path, b"user,program\n0,0\n").expect("write");
        let err = ColumnarReader::open(&path).unwrap_err();
        assert!(matches!(err, TraceError::Format { .. }), "{err}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn chunked_reads_match_global_indexing() {
        let trace = small();
        let path = tmp_path("chunk_index");
        write_trace(&path, &trace, 37).expect("write");
        let reader = ColumnarReader::open(&path).expect("open");
        let mut buf = Vec::new();
        for chunk in 0..reader.chunk_count() {
            reader.read_chunk(chunk, &mut buf).expect("read");
            let base = reader.chunk_first_index(chunk) as usize;
            assert_eq!(&trace.records()[base..base + buf.len()], &buf[..]);
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn decode_stats_count_chunks_and_bytes() {
        let trace = small();
        let path = tmp_path("decode_stats");
        write_trace(&path, &trace, 64).expect("write");
        let reader = ColumnarReader::open(&path).expect("open");
        assert_eq!(reader.decode_stats().chunks, 0);
        let mut buf = Vec::new();
        reader.read_chunk(0, &mut buf).expect("read");
        reader.read_chunk(1, &mut buf).expect("read");
        let stats = reader.decode_stats();
        assert_eq!(stats.chunks, 2);
        assert_eq!(stats.bytes, 2 * 64 * BYTES_PER_RECORD as u64);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn neighborhood_major_round_trips_and_indexes_groups() {
        let trace = small();
        let src = tmp_path("nm_src");
        let dst = tmp_path("nm_dst");
        write_trace(&src, &trace, 32).expect("write");
        let reader = ColumnarReader::open(&src).expect("open src");
        rechunk_by_neighborhood(&reader, &dst, 60, 32).expect("rechunk");

        let nm = ColumnarReader::open(&dst).expect("open rechunked");
        assert_eq!(
            nm.layout(),
            ChunkLayout::NeighborhoodMajor {
                neighborhood_size: 60
            }
        );
        assert_eq!(nm.record_count(), trace.len() as u64);
        // Reassembled global order equals the original trace.
        assert_eq!(nm.read_trace().expect("read"), trace);

        // Every chunk holds exactly one group's records, and the layout's
        // per-group chunk runs cover every chunk with ascending sequence
        // numbers. A single-index file has one cell per group, so at most
        // one run each.
        let groups = neighborhood_groups(trace.user_count(), 60).expect("groups");
        let layout = nm.neighborhood_layout().expect("layout").clone();
        assert_eq!(layout.neighborhood_size, 60);
        assert!(layout.runs.iter().all(|runs| runs.len() <= 1));
        let mut seen = 0usize;
        let mut buf = Vec::new();
        for (g, runs) in layout.runs.iter().enumerate() {
            let mut last_seq = None;
            for &c in runs.iter().flatten() {
                assert_eq!(nm.directory()[c as usize].group, Some(g as u32));
                nm.read_chunk_indexed(c as usize, &mut buf).expect("read");
                for &(gseq, rec) in &buf {
                    assert_eq!(groups[rec.user.index()], g as u32, "record in wrong group");
                    assert_eq!(trace.records()[gseq as usize], rec, "gseq column wrong");
                    assert!(last_seq < Some(gseq), "sequence order within group");
                    last_seq = Some(gseq);
                }
                seen += buf.len();
            }
        }
        assert_eq!(seen, trace.len());
        std::fs::remove_file(&src).ok();
        std::fs::remove_file(&dst).ok();
    }

    #[test]
    fn multi_index_round_trips_and_carries_a_layout_per_size() {
        let trace = small();
        let src = tmp_path("mi_src");
        let dst = tmp_path("mi_dst");
        write_trace(&src, &trace, 32).expect("write");
        let reader = ColumnarReader::open(&src).expect("open src");
        let sizes = [60u32, 100, 35];
        crate::rechunk::rechunk_multi_index(&reader, &dst, &sizes, 32).expect("rechunk");

        let nm = ColumnarReader::open(&dst).expect("open rechunked");
        assert_eq!(
            nm.layout(),
            ChunkLayout::NeighborhoodMajor {
                neighborhood_size: 60
            }
        );
        assert_eq!(nm.read_trace().expect("read"), trace);
        assert_eq!(nm.neighborhood_layouts().len(), sizes.len());

        // Each carried size gets a layout whose runs (a) only hold chunks
        // whose records belong to that run's group at that size, (b) keep
        // ascending sequence numbers within a run, and (c) cover every
        // record exactly once.
        let mut buf = Vec::new();
        for &size in &sizes {
            let groups = neighborhood_groups(trace.user_count(), size).expect("groups");
            let layout = nm.neighborhood_layout_for(size).expect("layout");
            assert_eq!(layout.neighborhood_size, size);
            let mut seen = 0usize;
            for (g, runs) in layout.runs.iter().enumerate() {
                for run in runs {
                    let mut last_seq = None;
                    for &c in run {
                        nm.read_chunk_indexed(c as usize, &mut buf).expect("read");
                        for &(gseq, rec) in &buf {
                            assert_eq!(groups[rec.user.index()], g as u32, "wrong group");
                            assert_eq!(trace.records()[gseq as usize], rec);
                            assert!(last_seq < Some(gseq), "sequence order within run");
                            last_seq = Some(gseq);
                        }
                        seen += buf.len();
                    }
                }
            }
            assert_eq!(seen, trace.len(), "size {size} covers the trace");
        }
        std::fs::remove_file(&src).ok();
        std::fs::remove_file(&dst).ok();
    }

    #[test]
    fn mmap_and_pread_backings_decode_identically() {
        let trace = small();
        let path = tmp_path("backing_parity");
        write_trace(&path, &trace, 64).expect("write");
        let mapped = ColumnarReader::open(&path).expect("open");
        let pread = ColumnarReader::open_pread(&path).expect("open_pread");
        assert!(!pread.uses_mmap());
        #[cfg(unix)]
        assert!(mapped.uses_mmap());
        assert_eq!(mapped.read_trace().expect("read"), trace);
        assert_eq!(pread.read_trace().expect("read"), trace);
        // Both paths count every fetch, including memoized re-fetches.
        let mut buf = Vec::new();
        mapped.read_chunk(0, &mut buf).expect("read");
        mapped.read_chunk(0, &mut buf).expect("read");
        let expected = mapped.chunk_count() as u64 + 2;
        assert_eq!(mapped.decode_stats().chunks, expected);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn corrupt_chunk_fails_identically_on_both_backings() {
        let trace = small();
        let path = tmp_path("backing_corrupt");
        write_trace(&path, &trace, 64).expect("write");
        // Flip one payload byte inside chunk 0's columns.
        let mut bytes = std::fs::read(&path).expect("read file");
        let offset = {
            let reader = ColumnarReader::open_pread(&path).expect("open");
            reader.directory()[0].file_offset as usize + 5
        };
        bytes[offset] ^= 0x40;
        std::fs::write(&path, &bytes).expect("rewrite");

        let mapped = ColumnarReader::open(&path).expect("open");
        let pread = ColumnarReader::open_pread(&path).expect("open_pread");
        let mut buf = Vec::new();
        let mmap_err = mapped.read_chunk(0, &mut buf).unwrap_err().to_string();
        let pread_err = pread.read_chunk(0, &mut buf).unwrap_err().to_string();
        assert_eq!(mmap_err, pread_err);
        assert!(mmap_err.contains("checksum"), "{mmap_err}");
        // The memo bitmap never latches a failed check: the error repeats.
        let again = mapped.read_chunk(0, &mut buf).unwrap_err().to_string();
        assert_eq!(again, mmap_err);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn column_buffers_never_outgrow_the_chunk_size() {
        // One group holding every user, so all records land in one cell
        // and fill it to one short of a 1 000-record chunk: doubling alone
        // would have grown every column to 1 024.
        let trace = small();
        assert!(trace.len() >= 999, "the trace fills the cell");
        let path = tmp_path("capacity_cap");
        let mut w = ColumnarWriter::create_neighborhood_major(
            &path,
            trace.catalog(),
            trace.user_count(),
            3,
            1_000,
            trace.user_count(),
            vec![0; trace.user_count() as usize],
        )
        .expect("create");
        for (gseq, rec) in trace.records()[..999].iter().enumerate() {
            w.push_indexed(gseq as u64, rec).expect("push");
        }
        let buf = &w.bufs[0];
        assert_eq!(buf.users.len(), 999, "nothing flushed yet");
        let capacities = [
            buf.users.capacity(),
            buf.programs.capacity(),
            buf.starts.capacity(),
            buf.durations.capacity(),
            buf.offsets.capacity(),
            buf.gseqs.capacity(),
        ];
        assert!(capacities.iter().all(|&c| c <= 1_000), "{capacities:?}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn chunks_wider_than_the_encode_buffer_round_trip() {
        // One chunk of every record, encoded through a 1 000-byte buffer:
        // every column crosses several runs, one of them short.
        let trace = small();
        let path = tmp_path("wide_chunks");
        let mut w = ColumnarWriter::create(&path, trace.catalog(), trace.user_count(), 3, 2_000)
            .expect("create");
        w.scratch = vec![0; 1_000].into_boxed_slice();
        w.push_all(trace.records()).expect("push");
        w.finish().expect("finish");
        let reader = ColumnarReader::open(&path).expect("checksums verify");
        assert_eq!(reader.read_trace().expect("read"), trace);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn create_multi_index_rejects_duplicate_sizes() {
        let trace = small();
        let path = tmp_path("mi_dup");
        let table = vec![0u32; trace.user_count() as usize];
        let err = ColumnarWriter::create_multi_index(
            &path,
            trace.catalog(),
            trace.user_count(),
            3,
            16,
            vec![(60, table.clone()), (60, table)],
        )
        .unwrap_err();
        assert!(matches!(err, TraceError::Format { .. }), "{err}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn rechunk_rejects_mismatched_group_tables() {
        let trace = small();
        let path = tmp_path("bad_groups");
        let err = ColumnarWriter::create_neighborhood_major(
            &path,
            trace.catalog(),
            trace.user_count(),
            3,
            16,
            60,
            vec![0; 3], // wrong length
        )
        .unwrap_err();
        assert!(matches!(err, TraceError::Format { .. }), "{err}");
        std::fs::remove_file(&path).ok();
    }

    /// The `Rss:` of the `/proc/self/smaps` block whose address range
    /// holds `addr`, in bytes.
    #[cfg(target_os = "linux")]
    fn mapping_rss(addr: usize) -> usize {
        let smaps = std::fs::read_to_string("/proc/self/smaps").expect("read smaps");
        let mut inside = false;
        for line in smaps.lines() {
            let range = line.split_once(' ').and_then(|(range, _)| {
                let (lo, hi) = range.split_once('-')?;
                Some(usize::from_str_radix(lo, 16).ok()?..usize::from_str_radix(hi, 16).ok()?)
            });
            if let Some(range) = range {
                inside = range.contains(&addr);
            } else if let Some(kb) = line.strip_prefix("Rss:").filter(|_| inside) {
                let kb = kb.trim().trim_end_matches("kB").trim();
                return kb.parse::<usize>().expect("an Rss figure") * 1024;
            }
        }
        panic!("no mapping holds {addr:#x}");
    }

    /// A decoded chunk leaves the resident set: after every chunk of a
    /// file has been decoded, in either layout, the reader's mapping
    /// holds at most the header and directory pages plus the two pages
    /// each chunk may share with its neighbours — not the file. A
    /// released chunk decodes the same records when fetched again, and a
    /// corrupt one (whose failed check releases its pages too) keeps
    /// failing with the same checksum error.
    ///
    /// Chunks span dozens of pages: the kernel maps a window of pages
    /// around each fault (64 KiB by default), which can reach back into a
    /// chunk already released, and on chunks of a few pages those remaps
    /// alone would outgrow two pages a chunk.
    #[cfg(target_os = "linux")]
    #[test]
    fn decoded_chunks_leave_the_resident_set() {
        use std::os::unix::fs::FileExt;

        let trace = generate(&SynthConfig {
            users: 2_000,
            programs: 200,
            days: 16,
            ..SynthConfig::smoke_test()
        });
        let tm = tmp_path("resident_tm");
        let nm = tmp_path("resident_nm");
        write_trace(&tm, &trace, 8_192).expect("write");
        let source = ColumnarReader::open(&tm).expect("open");
        rechunk_by_neighborhood(&source, &nm, 1_000, 8_192).expect("rechunk");
        drop(source);
        let page = mmap::page_size();
        for path in [&tm, &nm] {
            let corrupt = 3;
            let offset = ColumnarReader::open_pread(path).expect("open").directory()[corrupt]
                .file_offset
                + 100;
            let file = std::fs::OpenOptions::new()
                .read(true)
                .write(true)
                .open(path)
                .expect("open for writing");
            let mut byte = [0u8];
            file.read_exact_at(&mut byte, offset).expect("read byte");
            file.write_all_at(&[byte[0] ^ 0x40], offset)
                .expect("flip byte");
            let file_len = file.metadata().expect("metadata").len() as usize;

            let reader = ColumnarReader::open(path).expect("open");
            let Backing::Mmap { map, .. } = &reader.backing else {
                panic!("the reader maps the file");
            };
            let addr = map.bytes().as_ptr() as usize;
            let chunks = reader.chunk_count();
            assert!(chunks >= 8, "{chunks} chunks");
            let decode_all = || {
                (0..chunks)
                    .map(|c| {
                        let mut out = Vec::new();
                        reader
                            .read_chunk_indexed(c, &mut out)
                            .map(|()| out)
                            .map_err(|e| e.to_string())
                    })
                    .collect::<Vec<_>>()
            };
            let first = decode_all();

            let dir = &reader.directory;
            let record_bytes = reader.layout.record_bytes();
            let chunks_from = dir.iter().map(|m| m.file_offset).min().expect("chunks") as usize;
            let chunks_to = dir
                .iter()
                .map(|m| m.file_offset as usize + m.record_count as usize * record_bytes)
                .max()
                .expect("chunks");
            let edges = chunks_from.div_ceil(page) + (file_len - chunks_to).div_ceil(page) + 1;
            let bound = (edges + 2 * chunks) * page;
            let rss = mapping_rss(addr);
            assert!(
                rss <= bound,
                "{}: {rss} B resident after decoding {chunks} chunks of a {} B file \
                 (bound {bound} B)",
                path.display(),
                file_len
            );

            let again = decode_all();
            assert_eq!(again, first, "{}", path.display());
            for (c, decoded) in first.iter().enumerate() {
                match decoded {
                    Err(e) => {
                        assert_eq!(c, corrupt, "{e}");
                        assert!(e.contains("checksum"), "{e}");
                    }
                    Ok(records) => assert!(!records.is_empty()),
                }
            }
            assert!(first[corrupt].is_err());
            std::fs::remove_file(path).ok();
        }
    }
}
