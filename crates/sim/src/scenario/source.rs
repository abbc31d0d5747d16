//! Where a scenario's workload comes from: the [`SourceSpec`] description and
//! its materialized form, [`OwnedSource`].

use std::fs::File;
use std::io::BufReader;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use cablevod_trace::columnar::{ColumnarReader, DEFAULT_CHUNK_SIZE};
use cablevod_trace::io as trace_io;
use cablevod_trace::rechunk::rechunk_multi_index;
use cablevod_trace::record::Trace;
use cablevod_trace::scale;
use cablevod_trace::source::TraceSource;
use cablevod_trace::synth::{generate, generate_to_disk, SynthConfig};
use serde::{Deserialize, Serialize};

use crate::error::SimError;

/// Where a scenario's workload comes from.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum SourceSpec {
    /// The caller supplies the source at execution time
    /// ([`Scenario::execute_on`](super::Scenario::execute_on));
    /// [`Scenario::execute`](super::Scenario::execute) rejects it.
    Provided,
    /// An in-memory synthetic workload.
    Synth(SynthConfig),
    /// A synthetic workload generated straight to a temporary columnar
    /// file and replayed through the streaming engine (never resident).
    /// The file lives in the process temp dir (honors `TMPDIR`) and is
    /// removed when the materialized source drops.
    SynthDisk {
        /// Generator configuration.
        synth: SynthConfig,
        /// Records per columnar chunk.
        chunk_records: u32,
        /// Neighborhood sizes to re-chunk the generated file
        /// neighborhood-major for (empty: replay time-major). Several
        /// sizes produce one multi-index file whose per-size indexes let
        /// a neighborhood-size sweep hit the decode-once fast path at
        /// every listed size.
        rechunk: Vec<u32>,
    },
    /// An existing columnar `.cvtc` file.
    Columnar {
        /// File path.
        path: String,
        /// Re-chunk neighborhood-major at these neighborhood sizes into
        /// a temporary file before replay (import-time optimization for
        /// sharded runs; empty: replay the file as-is). Several sizes
        /// produce one multi-index file — the spec form is
        /// `rechunk=60,100` — so a neighborhood-size sweep over exactly
        /// those sizes streams the shared columns through the fast path
        /// instead of the central decoder's merge.
        rechunk: Vec<u32>,
    },
    /// CSV record + catalog files (the PowerInfo import shape).
    Csv {
        /// Records CSV path.
        records: String,
        /// Catalog CSV path.
        catalog: String,
    },
    /// The enclosing scenario's trace scaled by the §V-A transforms —
    /// only meaningful as a per-point override, and requires the base
    /// source to be resident.
    Scaled {
        /// User-population factor.
        population: u32,
        /// Catalog factor.
        catalog: u32,
        /// Seed of the deterministic scaling transforms.
        seed: u64,
    },
}

/// A temporary file removed on drop.
#[derive(Debug)]
struct TempFile(PathBuf);

impl Drop for TempFile {
    fn drop(&mut self) {
        std::fs::remove_file(&self.0).ok();
    }
}

static TEMP_SEQ: AtomicU64 = AtomicU64::new(0);

fn temp_path(tag: &str) -> PathBuf {
    let n = TEMP_SEQ.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("cvtc_scn_{tag}_{}_{n}.cvtc", std::process::id()))
}

/// Re-chunks `reader` neighborhood-major into a fresh temp file carrying
/// one chunk index per size in `sizes` (see [`rechunk_multi_index`],
/// whose import spills by cell: its memory does not depend on the chunk
/// size).
fn rechunk_to_temp(reader: &ColumnarReader, sizes: &[u32]) -> Result<TempFile, SimError> {
    let nm = temp_path("rechunk");
    rechunk_multi_index(reader, &nm, sizes, DEFAULT_CHUNK_SIZE)?;
    Ok(TempFile(nm))
}

/// A materialized [`SourceSpec`]: owns the trace (or the open reader plus
/// any temporary files) for exactly as long as its jobs need it —
/// dropping it frees the workload and removes any temporary files.
pub struct OwnedSource {
    inner: OwnedInner,
}

enum OwnedInner {
    /// A fully resident trace.
    Resident(Trace),
    /// An open columnar reader, optionally over temporary files removed
    /// when this source drops.
    Columnar {
        reader: ColumnarReader,
        #[allow(dead_code)] // held for its Drop
        temp: Vec<TempFile>,
    },
}

impl OwnedSource {
    /// The trace-source view of this workload.
    pub fn source(&self) -> &dyn TraceSource {
        match &self.inner {
            OwnedInner::Resident(trace) => trace,
            OwnedInner::Columnar { reader, .. } => reader,
        }
    }

    /// The resident trace, when this source is in memory.
    pub fn resident(&self) -> Option<&Trace> {
        match &self.inner {
            OwnedInner::Resident(trace) => Some(trace),
            OwnedInner::Columnar { .. } => None,
        }
    }

    fn resident_from(trace: Trace) -> Self {
        OwnedSource {
            inner: OwnedInner::Resident(trace),
        }
    }

    fn columnar(reader: ColumnarReader, temp: Vec<TempFile>) -> Self {
        OwnedSource {
            inner: OwnedInner::Columnar { reader, temp },
        }
    }
}

fn open(path: &str) -> Result<BufReader<File>, SimError> {
    File::open(path)
        .map(BufReader::new)
        .map_err(|e| SimError::Config {
            reason: format!("cannot open {path}: {e}"),
        })
}

impl SourceSpec {
    /// Materializes this spec into an owned workload. `base` is the
    /// enclosing scenario's resident trace, needed only by
    /// [`SourceSpec::Scaled`].
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Config`] for [`SourceSpec::Provided`], for a
    /// scaled spec without a resident base, and propagates generation and
    /// I/O failures.
    pub fn materialize(&self, base: Option<&Trace>) -> Result<OwnedSource, SimError> {
        match self {
            SourceSpec::Provided => Err(SimError::Config {
                reason: "a `provided` source has no workload of its own: \
                         run it through Scenario::execute_on"
                    .into(),
            }),
            SourceSpec::Synth(config) => Ok(OwnedSource::resident_from(generate(config))),
            SourceSpec::SynthDisk {
                synth,
                chunk_records,
                rechunk,
            } => {
                let path = temp_path("synth");
                generate_to_disk(synth, &path, *chunk_records)?;
                let mut temp = vec![TempFile(path)];
                if !rechunk.is_empty() {
                    let reader = ColumnarReader::open(&temp[0].0)?;
                    temp.push(rechunk_to_temp(&reader, rechunk)?);
                }
                let reader = ColumnarReader::open(&temp.last().expect("non-empty").0)?;
                Ok(OwnedSource::columnar(reader, temp))
            }
            SourceSpec::Columnar { path, rechunk } if rechunk.is_empty() => Ok(
                OwnedSource::columnar(ColumnarReader::open(Path::new(path))?, Vec::new()),
            ),
            SourceSpec::Columnar { path, rechunk } => {
                let reader = ColumnarReader::open(Path::new(path))?;
                let temp = vec![rechunk_to_temp(&reader, rechunk)?];
                let reader = ColumnarReader::open(&temp[0].0)?;
                Ok(OwnedSource::columnar(reader, temp))
            }
            SourceSpec::Csv { records, catalog } => {
                let catalog = trace_io::read_catalog(open(catalog)?)?;
                Ok(OwnedSource::resident_from(trace_io::read_records(
                    open(records)?,
                    catalog,
                )?))
            }
            SourceSpec::Scaled {
                population,
                catalog,
                seed,
            } => {
                let base = base.ok_or_else(|| SimError::Config {
                    reason: "a `scaled` source needs a resident base trace \
                             (scenario-level source must be resident)"
                        .into(),
                })?;
                Ok(OwnedSource::resident_from(scale::scale(
                    base,
                    *population,
                    *catalog,
                    *seed,
                )?))
            }
        }
    }
}
