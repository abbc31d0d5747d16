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
//! Memory: the re-chunker streams the source one chunk at a time but
//! keeps one in-progress output chunk **per group** (per placement cell
//! for a multi-index file). Each of those column buffers grows by
//! doubling but is capped at `chunk_size` records, so the output side
//! holds at most `groups × chunk_size × 32 B`, plus the writer's fixed
//! 32 KiB encode buffer and 64 KiB `BufWriter`; the input side holds one
//! decoded source chunk (40 B a record) — and, from a mapped
//! [`ColumnarReader`](crate::columnar::ColumnarReader), none of the
//! source file, whose chunk pages leave the process once decoded (see
//! the columnar module's "Chunk fetch"). Bound the resident set by
//! choosing `chunk_size` with [`import_chunk_size`] when importing huge
//! populations. (Before the cap, a buffer filled toward a chunk size that
//! is not a power of two could hold up to ~1.9x its share: 34 952-record
//! chunks grew columns of 65 536.)
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

use std::path::Path;

use cablevod_hfc::topology::{Topology, TopologyConfig};

use crate::columnar::ColumnarWriter;
use crate::error::TraceError;
use crate::source::TraceSource;

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

/// A chunk size for [`rechunk_by_neighborhood`] that bounds the
/// re-chunker's resident set: the largest size at or below `preferred`
/// whose per-group buffers (`groups × chunk_size × 32 B` — the writer
/// caps every column buffer at `chunk_size` records, so this is the
/// bound, not an estimate) fit in `budget_bytes`, floored at 1,024
/// records so chunks stay worth a positioned read.
///
/// Large populations make the bound bite: at 1M users in 500-sized
/// neighborhoods (2,000 groups), the default 64 Ki-record chunks would
/// buffer ~4 GiB during import; a 256 MiB budget caps them at 4 Ki
/// records instead.
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
/// `neighborhood_size`-sized neighborhoods (see the module docs), in one
/// streaming pass.
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
/// whole chunks; the per-cell output buffers grow with
/// `Σ ceil(users/size)` — budget `chunk_size` with
/// [`import_chunk_size`] at the **smallest** carried size.
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
    let mut buf = Vec::new();
    for chunk in 0..source.chunk_count() {
        source.read_chunk_indexed(chunk, &mut buf)?;
        for &(gseq, ref rec) in &buf {
            writer.push_indexed(gseq, rec)?;
        }
    }
    writer.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use cablevod_hfc::ids::UserId;

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
