//! # cablevod-trace — the VoD workload model
//!
//! The paper evaluates everything against the **PowerInfo trace** of a
//! deployed Chinese VoD service (Yu et al., EuroSys 2006): 41,698 users,
//! 8,278 programs, 20+ million session records over seven months. That
//! trace is proprietary, so this crate provides:
//!
//! * the trace **schema** ([`record`]) and program **catalog** ([`catalog`]);
//! * a **synthetic generator** ([`synth`]) calibrated to every published
//!   property of PowerInfo (skewed and decaying popularity, short sessions
//!   with a completion atom, the Fig 7 diurnal curve — see [`synth`]);
//! * the paper's trace **scaling** transforms ([`scale`]);
//! * **analytics** reproducing the workload figures ([`analyze`], [`ecdf`]);
//! * CSV **persistence** ([`io`]) so a real PowerInfo-schema trace can be
//!   swapped in.
//!
//! # Examples
//!
//! ```
//! use cablevod_trace::synth::{generate, SynthConfig};
//! use cablevod_trace::analyze;
//! use cablevod_hfc::units::BitRate;
//!
//! let trace = generate(&SynthConfig::smoke_test());
//! let demand = analyze::hourly_demand(&trace, BitRate::STREAM_MPEG2_SD);
//! let peak = demand.iter().max_by_key(|r| r.as_bps()).expect("24 entries");
//! assert!(peak.as_bps() > 0);
//! ```

// Denied (not forbidden) so the one audited exception — the zero-copy
// mmap backing in `columnar`, which must call `mmap`/`munmap` directly
// because the build vendors stand-ins and cannot grow a `libc` or
// `memmap` dependency — can opt in with a scoped `allow`.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod analyze;
pub mod catalog;
pub mod checksum;
pub mod columnar;
pub mod dist;
pub mod ecdf;
pub mod error;
mod fileio;
pub mod fingerprint;
pub mod io;
pub mod rechunk;
pub mod record;
pub mod scale;
pub mod source;
pub mod synth;

pub use catalog::{ProgramCatalog, ProgramInfo};
pub use columnar::{ChunkLayout, ColumnarReader, ColumnarWriter};
pub use ecdf::Ecdf;
pub use error::TraceError;
pub use fingerprint::WorkloadFingerprint;
pub use rechunk::rechunk_by_neighborhood;
pub use record::{SessionRecord, Trace};
pub use source::{ChunkedTrace, DecodeStats, NeighborhoodLayout, TraceSource};
pub use synth::{generate, SynthConfig};
