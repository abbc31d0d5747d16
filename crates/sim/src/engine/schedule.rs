//! Schedule glue: constructing the right
//! [`ScheduleSource`] for each entry
//! driver — the Oracle-side twin of [`super::feed`].
//!
//! The lifecycle core never touches a concrete schedule carrier — index
//! servers are built from per-neighborhood
//! [`ScheduleWindow`]s obtained through the
//! [`ScheduleSource`] seam. This module is the engine-side selection
//! logic:
//!
//! * **resident runs** build the classic in-memory
//!   [`AccessSchedule`](cablevod_cache::AccessSchedule)s in one pass over
//!   the record slice and wrap them in
//!   [`ResidentSchedules`] — windows are zero-copy cursor pairs, the
//!   PR-1 hot path untouched;
//! * **streaming runs** spill the schedules to a temporary on-disk
//!   **schedule sidecar** ([`cablevod_trace::schedule`]) during the same
//!   single scan that used to materialize them in RAM
//!   ([`SidecarSpill`]), then replay them through windowed readers
//!   ([`SpilledSchedules`]) whose resident state is bounded by the
//!   look-ahead span plus one sidecar chunk — so a streaming Oracle
//!   run's peak memory is O(chunk + look-ahead window + active
//!   sessions), not O(trace).
//!
//! The spill file lives in the system temp directory and is removed when
//! the last window over it is dropped (the readers hold it through an
//! `Arc`'d RAII guard); a run that fails mid-scan cleans up the partial
//! file the same way.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use cablevod_cache::{
    CacheError, ResidentSchedules, ScheduleReader, ScheduleSource, ScheduleWindow,
};
use cablevod_hfc::ids::{NeighborhoodId, ProgramId};
use cablevod_hfc::segment::Segmenter;
use cablevod_hfc::topology::Topology;
use cablevod_hfc::units::SimTime;
use cablevod_trace::schedule::{
    events_per_chunk, ScheduleSidecarReader, ScheduleSidecarWriter, DEFAULT_EVENTS_PER_CHUNK,
};
use cablevod_trace::source::TraceSource;

use super::stream::RunMerge;
use crate::config::SimConfig;
use crate::error::SimError;

/// Budget for the sidecar writer's per-neighborhood in-progress chunk
/// buffers; [`events_per_chunk`] shrinks chunks below the default when a
/// plant has enough neighborhoods to matter.
const SPILL_BUFFER_BUDGET: u64 = 64 << 20;

/// Distinguishes concurrent spills within one process (parallel tests,
/// sweeps).
static SPILL_COUNTER: AtomicU64 = AtomicU64::new(0);

/// The per-run schedule supply every driver builds its index servers
/// from: prebuilt resident schedules, or the windowed on-disk spill.
pub(super) enum ScheduleSupply {
    /// Fully resident per-neighborhood schedules (or none at all).
    Resident(ResidentSchedules),
    /// Schedules spilled to a sidecar file, replayed through bounded
    /// windows.
    Spilled(SpilledSchedules),
}

impl ScheduleSupply {
    /// A supply with no schedule for any of `neighborhoods` — what every
    /// strategy that never consults a schedule runs with.
    pub(super) fn none(neighborhoods: usize) -> Self {
        ScheduleSupply::Resident(ResidentSchedules::none(neighborhoods))
    }

    /// The windowed schedule for dense neighborhood index `n`.
    pub(super) fn window(&self, n: usize) -> Result<Option<ScheduleWindow>, SimError> {
        let id = NeighborhoodId::new(n as u32);
        match self {
            ScheduleSupply::Resident(s) => s.window(id),
            ScheduleSupply::Spilled(s) => s.window(id),
        }
        .map_err(SimError::from)
    }
}

/// Removes the spill file when dropped — the write path's failure cleanup
/// and the read path's end-of-life are the same mechanism.
#[derive(Debug)]
struct SpillFile {
    path: PathBuf,
}

impl Drop for SpillFile {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.path);
    }
}

/// An in-progress schedule spill: the sidecar writer plus the RAII guard
/// for its temp file. Push events in per-neighborhood time order
/// ([`spill_from_scan`] guarantees it), then
/// [`into_schedules`](SidecarSpill::into_schedules).
pub(super) struct SidecarSpill {
    // Field order matters: the writer's buffered file handle must drop
    // before the guard unlinks the path.
    writer: ScheduleSidecarWriter,
    file: SpillFile,
}

impl SidecarSpill {
    /// Creates a spill for `neighborhoods` neighborhoods charging
    /// `costs[p]` slots per program.
    pub(super) fn create(neighborhoods: usize, costs: Vec<u32>) -> Result<Self, SimError> {
        let mut path = std::env::temp_dir();
        path.push(format!(
            "cablevod_oracle_spill_{}_{}.cvsc",
            std::process::id(),
            SPILL_COUNTER.fetch_add(1, Ordering::Relaxed)
        ));
        let chunk = events_per_chunk(
            neighborhoods as u32,
            DEFAULT_EVENTS_PER_CHUNK,
            SPILL_BUFFER_BUDGET,
        );
        let writer = ScheduleSidecarWriter::create(&path, neighborhoods as u32, &costs, chunk)?;
        Ok(SidecarSpill {
            writer,
            file: SpillFile { path },
        })
    }

    /// Appends one future-access event.
    pub(super) fn push(
        &mut self,
        neighborhood: u32,
        time: SimTime,
        program: ProgramId,
    ) -> Result<(), SimError> {
        Ok(self.writer.push(neighborhood, time, program)?)
    }

    /// Completes the sidecar and reopens it for windowed reading. The
    /// windows' cost table is the one round-tripped through (and
    /// validated against) the file — the file is the single source of
    /// truth once the spill completes.
    pub(super) fn into_schedules(self) -> Result<SpilledSchedules, SimError> {
        self.writer.finish()?;
        let reader = ScheduleSidecarReader::open(&self.file.path)?;
        let costs: Arc<[u32]> = reader.costs().into();
        Ok(SpilledSchedules {
            shared: Arc::new(SidecarShared {
                reader,
                _file: self.file,
            }),
            costs,
        })
    }
}

/// The sidecar reader plus the temp-file guard, shared by every window
/// of the run (and across shard workers — reads are positioned).
#[derive(Debug)]
struct SidecarShared {
    reader: ScheduleSidecarReader,
    _file: SpillFile,
}

/// [`ScheduleSource`] over a completed schedule spill: each window is a
/// sequential chunk cursor over its neighborhood's time-ordered sidecar
/// chunks.
#[derive(Debug, Clone)]
pub(super) struct SpilledSchedules {
    shared: Arc<SidecarShared>,
    costs: Arc<[u32]>,
}

impl SpilledSchedules {
    /// Cumulative sidecar decode counters (retention/accounting tests).
    #[cfg(test)]
    pub(super) fn decode_stats(&self) -> cablevod_trace::source::DecodeStats {
        self.shared.reader.decode_stats()
    }

    /// The spill file's location (lifecycle tests assert cleanup).
    #[cfg(test)]
    pub(super) fn spill_path(&self) -> PathBuf {
        self.shared._file.path.clone()
    }
}

impl ScheduleSource for SpilledSchedules {
    fn window(&self, nbhd: NeighborhoodId) -> Result<Option<ScheduleWindow>, CacheError> {
        Ok(Some(ScheduleWindow::streaming(
            Box::new(SidecarWindowReader {
                shared: Arc::clone(&self.shared),
                neighborhood: nbhd.index(),
                next: 0,
            }),
            Arc::clone(&self.costs),
        )))
    }
}

/// [`ScheduleReader`] over one neighborhood's sidecar chunks: one batch
/// per chunk, fetched with a positioned read when the window's leading
/// edge needs it.
#[derive(Debug)]
struct SidecarWindowReader {
    shared: Arc<SidecarShared>,
    neighborhood: usize,
    next: usize,
}

impl ScheduleReader for SidecarWindowReader {
    fn next_batch(&mut self, out: &mut Vec<(SimTime, ProgramId)>) -> Result<bool, CacheError> {
        let chunks = self.shared.reader.chunks_of(self.neighborhood);
        let Some(&chunk) = chunks.get(self.next) else {
            out.clear();
            return Ok(false);
        };
        self.next += 1;
        self.shared
            .reader
            .read_chunk(chunk as usize, out)
            .map_err(|e| CacheError::Schedule {
                reason: e.to_string(),
            })?;
        Ok(true)
    }
}

/// Spills the Oracle schedules of every neighborhood with **one**
/// streaming scan over `runs`, which together hold every record of the
/// source — the scan the resident pre-pass used to fill RAM with. The
/// sidecar takes each neighborhood's events in time order: scanning
/// `run_by_run`, back to back, gives that when every run is one whole
/// neighborhood; otherwise the runs are merged to global order. Decode
/// work goes through the source's counted chunk API, so schedule
/// pre-passes show up in [`TraceSource::decode_stats`] accounting exactly
/// like replay work.
pub(super) fn spill_from_scan<S: TraceSource + ?Sized>(
    source: &S,
    topo: &Topology,
    config: &SimConfig,
    segmenter: &Segmenter,
    runs: &[Vec<u32>],
    run_by_run: bool,
) -> Result<SpilledSchedules, SimError> {
    let costs = super::schedule_costs(source.catalog(), config, segmenter);
    let mut spill = SidecarSpill::create(topo.neighborhood_count(), costs)?;
    for together in runs.chunks(if run_by_run { 1 } else { runs.len().max(1) }) {
        let mut records = RunMerge::new(source, together.iter().map(Vec::as_slice));
        while let Some((_, rec)) = records.next()? {
            let nbhd = topo.neighborhood_of_user(rec.user)?;
            spill.push(nbhd.index() as u32, rec.start, rec.program)?;
        }
    }
    spill.into_schedules()
}
