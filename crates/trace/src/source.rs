//! The [`TraceSource`] abstraction: chunked access to a workload.
//!
//! The simulation engine replays a workload as a sequence of time-ordered
//! chunks of [`SessionRecord`]s. A source can be the classic fully
//! resident [`Trace`] (one chunk, zero copies), an in-memory trace served
//! in artificial chunks ([`ChunkedTrace`] — the test harness for the
//! streaming paths), or an on-disk columnar file
//! ([`ColumnarReader`](crate::columnar::ColumnarReader)) whose resident
//! set is one chunk per concurrent reader.
//!
//! The contract mirrors the columnar format's invariants:
//!
//! * every record carries a **global sequence number** — its index in the
//!   global time-ordered record sequence
//!   ([`read_chunk_indexed`](TraceSource::read_chunk_indexed));
//! * within a chunk, records ascend in sequence number (and therefore in
//!   start time). Across chunks, ordering depends on the layout: by
//!   default chunk `k + 1` continues exactly where chunk `k` ended
//!   ([`chunk_first_index`](TraceSource::chunk_first_index) exposes the
//!   global index of a chunk's first record), while a source with a
//!   [`neighborhood_layout`](TraceSource::neighborhood_layout) guarantees
//!   it only **per neighborhood group** — consumers needing global order
//!   merge the per-group streams by sequence number;
//! * every record references a valid catalog program and a user below
//!   [`user_count`](TraceSource::user_count);
//! * [`read_chunk`](TraceSource::read_chunk) is `&self` and safe to call
//!   from many threads at once (shard workers stream chunks
//!   concurrently).

use crate::catalog::ProgramCatalog;
use crate::error::TraceError;
use crate::record::{SessionRecord, Trace};

/// Cumulative chunk-decode counters of a source (zero for resident
/// sources, which never decode anything).
///
/// The engine's decode-work tests read these before and after a run to
/// assert I/O amplification bounds — e.g. that a sharded neighborhood-major
/// replay decodes each chunk once, not once per shard.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DecodeStats {
    /// Chunks decoded.
    pub chunks: u64,
    /// Column bytes decoded.
    pub bytes: u64,
}

impl std::ops::Sub for DecodeStats {
    type Output = DecodeStats;
    fn sub(self, rhs: DecodeStats) -> DecodeStats {
        DecodeStats {
            chunks: self.chunks - rhs.chunks,
            bytes: self.bytes - rhs.bytes,
        }
    }
}

/// The per-neighborhood chunk index of a neighborhood-major source: for
/// each neighborhood group of the declared size (under the deterministic
/// §V-B user shuffle — see [`crate::rechunk`]), the chunk *runs* holding
/// exactly that group's records.
///
/// Each run is a sequence-ascending chunk list a consumer can stream
/// front to back; a group's full record stream is the sequence-number
/// merge of its runs. A single-index file has exactly one run per group;
/// a multi-index file (chunks partitioned by placement *cell* — the
/// intervals cut by every carried size's group boundaries) gives a group
/// one run per cell it spans.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NeighborhoodLayout {
    /// The neighborhood size the grouping was evaluated at. The index is
    /// only valid for simulations configured with this exact size.
    pub neighborhood_size: u32,
    /// `runs[g]` are group `g`'s chunk runs (see the type docs).
    pub runs: Vec<Vec<Vec<u32>>>,
}

impl NeighborhoodLayout {
    /// Number of neighborhood groups this index partitions the users into.
    pub fn group_count(&self) -> usize {
        self.runs.len()
    }
}

/// Chunked, possibly out-of-core access to a session-record workload.
pub trait TraceSource: Sync {
    /// The catalog every record references.
    fn catalog(&self) -> &ProgramCatalog;

    /// Number of distinct user ids provisioned (dense range `0..count`).
    fn user_count(&self) -> u32;

    /// Nominal workload length in days.
    fn days(&self) -> u64;

    /// Total number of session records.
    fn record_count(&self) -> u64;

    /// Number of chunks the records are served in.
    fn chunk_count(&self) -> usize;

    /// Global index of the first record of `chunk`.
    ///
    /// # Panics
    ///
    /// May panic when `chunk >= chunk_count()`.
    fn chunk_first_index(&self, chunk: usize) -> u64;

    /// Reads `chunk` into `out` (cleared first).
    ///
    /// # Errors
    ///
    /// Returns an error for out-of-range chunks and propagates storage
    /// failures.
    fn read_chunk(&self, chunk: usize, out: &mut Vec<SessionRecord>) -> Result<(), TraceError>;

    /// Reads `chunk` into `out` (cleared first) as `(global sequence
    /// number, record)` pairs.
    ///
    /// The default derives dense indices from
    /// [`chunk_first_index`](TraceSource::chunk_first_index); sources
    /// whose chunks are not globally contiguous (neighborhood-major
    /// columnar files) override it with their stored sequence column.
    ///
    /// # Errors
    ///
    /// As for [`read_chunk`](TraceSource::read_chunk).
    fn read_chunk_indexed(
        &self,
        chunk: usize,
        out: &mut Vec<(u64, SessionRecord)>,
    ) -> Result<(), TraceError> {
        let mut records = Vec::new();
        self.read_chunk(chunk, &mut records)?;
        let base = self.chunk_first_index(chunk);
        out.clear();
        out.extend(
            records
                .into_iter()
                .enumerate()
                .map(|(i, rec)| (base + i as u64, rec)),
        );
        Ok(())
    }

    /// Every per-neighborhood chunk index this source carries, one per
    /// candidate neighborhood size (see [`NeighborhoodLayout`]). Empty
    /// means chunks partition the global time order.
    fn neighborhood_layouts(&self) -> &[NeighborhoodLayout] {
        &[]
    }

    /// The primary per-neighborhood chunk index, when this source's
    /// chunks are grouped by neighborhood. `None` means chunks partition
    /// the global time order.
    fn neighborhood_layout(&self) -> Option<&NeighborhoodLayout> {
        self.neighborhood_layouts().first()
    }

    /// The carried chunk index evaluated at exactly `size`, if any —
    /// the lookup sweep consumers use to fast-path a matching
    /// neighborhood size.
    fn neighborhood_layout_for(&self, size: u32) -> Option<&NeighborhoodLayout> {
        self.neighborhood_layouts()
            .iter()
            .find(|layout| layout.neighborhood_size == size)
    }

    /// Cumulative decode counters (see [`DecodeStats`]); sources that do
    /// not track decodes report zeros.
    fn decode_stats(&self) -> DecodeStats {
        DecodeStats::default()
    }

    /// The fully resident record slice, when this source is in memory.
    ///
    /// Engines use this to skip chunk staging entirely (the classic
    /// zero-copy hot path); `None` routes them through the streaming
    /// paths.
    fn resident_records(&self) -> Option<&[SessionRecord]> {
        None
    }
}

impl TraceSource for Trace {
    fn catalog(&self) -> &ProgramCatalog {
        Trace::catalog(self)
    }

    fn user_count(&self) -> u32 {
        Trace::user_count(self)
    }

    fn days(&self) -> u64 {
        Trace::days(self)
    }

    fn record_count(&self) -> u64 {
        self.len() as u64
    }

    fn chunk_count(&self) -> usize {
        usize::from(!self.is_empty())
    }

    fn chunk_first_index(&self, _chunk: usize) -> u64 {
        0
    }

    fn read_chunk(&self, chunk: usize, out: &mut Vec<SessionRecord>) -> Result<(), TraceError> {
        if chunk >= TraceSource::chunk_count(self) {
            return Err(TraceError::Format {
                reason: format!("chunk {chunk} out of range: a resident trace is a single chunk"),
            });
        }
        out.clear();
        out.extend_from_slice(self.records());
        Ok(())
    }

    fn resident_records(&self) -> Option<&[SessionRecord]> {
        Some(self.records())
    }
}

/// An in-memory trace served through the chunked interface, with a
/// configurable chunk size and **no** resident shortcut.
///
/// This exists to drive the engines' streaming paths deterministically
/// from tests and benches: `run(&ChunkedTrace::new(&trace, k), cfg)`
/// exercises exactly the code that replays an on-disk file, against a
/// workload whose in-memory result is known.
///
/// # Examples
///
/// ```
/// use cablevod_trace::source::{ChunkedTrace, TraceSource};
/// use cablevod_trace::synth::{generate, SynthConfig};
///
/// let trace = generate(&SynthConfig::smoke_test());
/// let chunked = ChunkedTrace::new(&trace, 64);
/// assert_eq!(chunked.record_count(), trace.len() as u64);
/// assert!(chunked.resident_records().is_none());
/// ```
#[derive(Debug, Clone, Copy)]
pub struct ChunkedTrace<'a> {
    trace: &'a Trace,
    chunk_size: usize,
}

impl<'a> ChunkedTrace<'a> {
    /// Wraps `trace`, serving it in chunks of `chunk_size` records.
    ///
    /// # Panics
    ///
    /// Panics when `chunk_size` is zero.
    pub fn new(trace: &'a Trace, chunk_size: usize) -> Self {
        assert!(chunk_size > 0, "chunk size must be at least 1 record");
        ChunkedTrace { trace, chunk_size }
    }
}

impl TraceSource for ChunkedTrace<'_> {
    fn catalog(&self) -> &ProgramCatalog {
        self.trace.catalog()
    }

    fn user_count(&self) -> u32 {
        self.trace.user_count()
    }

    fn days(&self) -> u64 {
        self.trace.days()
    }

    fn record_count(&self) -> u64 {
        self.trace.len() as u64
    }

    fn chunk_count(&self) -> usize {
        self.trace.len().div_ceil(self.chunk_size)
    }

    fn chunk_first_index(&self, chunk: usize) -> u64 {
        (chunk * self.chunk_size) as u64
    }

    fn read_chunk(&self, chunk: usize, out: &mut Vec<SessionRecord>) -> Result<(), TraceError> {
        let lo = chunk * self.chunk_size;
        let hi = (lo + self.chunk_size).min(self.trace.len());
        if lo >= hi {
            return Err(TraceError::Format {
                reason: format!("chunk {chunk} out of range"),
            });
        }
        out.clear();
        out.extend_from_slice(&self.trace.records()[lo..hi]);
        Ok(())
    }

    fn read_chunk_indexed(
        &self,
        chunk: usize,
        out: &mut Vec<(u64, SessionRecord)>,
    ) -> Result<(), TraceError> {
        let lo = chunk * self.chunk_size;
        let hi = (lo + self.chunk_size).min(self.trace.len());
        if lo >= hi {
            return Err(TraceError::Format {
                reason: format!("chunk {chunk} out of range"),
            });
        }
        out.clear();
        out.extend(
            self.trace.records()[lo..hi]
                .iter()
                .enumerate()
                .map(|(i, &rec)| ((lo + i) as u64, rec)),
        );
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synth::{generate, SynthConfig};

    fn small() -> Trace {
        generate(&SynthConfig {
            users: 100,
            programs: 30,
            days: 2,
            ..SynthConfig::smoke_test()
        })
    }

    #[test]
    fn trace_is_a_single_resident_chunk() {
        let trace = small();
        assert_eq!(TraceSource::chunk_count(&trace), 1);
        assert_eq!(trace.resident_records().expect("resident"), trace.records());
        let mut buf = Vec::new();
        trace.read_chunk(0, &mut buf).expect("read");
        assert_eq!(&buf[..], trace.records());
    }

    #[test]
    fn chunked_trace_reassembles_exactly() {
        let trace = small();
        for chunk_size in [1usize, 7, 64, trace.len() + 10] {
            let source = ChunkedTrace::new(&trace, chunk_size);
            assert_eq!(
                source.chunk_count(),
                trace.len().div_ceil(chunk_size),
                "chunk size {chunk_size}"
            );
            let mut all = Vec::new();
            let mut buf = Vec::new();
            for c in 0..source.chunk_count() {
                assert_eq!(source.chunk_first_index(c) as usize, all.len());
                source.read_chunk(c, &mut buf).expect("read");
                all.extend_from_slice(&buf);
            }
            assert_eq!(&all[..], trace.records());
        }
    }

    #[test]
    fn out_of_range_chunk_errors() {
        let trace = small();
        let source = ChunkedTrace::new(&trace, 64);
        let mut buf = Vec::new();
        assert!(source.read_chunk(source.chunk_count(), &mut buf).is_err());
        assert!(trace
            .read_chunk(TraceSource::chunk_count(&trace), &mut buf)
            .is_err());
    }
}
