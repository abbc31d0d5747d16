//! # cablevod-hfc — the hybrid fiber-coax cable plant substrate
//!
//! Models the physical infrastructure of §II of *"Deploying Video-on-Demand
//! Services on Cable Networks"* (Allen, Zhao, Wolski — ICDCS 2007):
//!
//! * the three-tier hierarchy **cable operator → headends → coax
//!   neighborhoods** — who lives where ([`topology`]);
//! * the **broadcast, rate-limited coaxial** last mile ([`coax`]);
//! * always-on **set-top boxes** with bounded storage and two stream slots
//!   ([`stb`]);
//! * the boxes, coax network and central-server meter of one
//!   neighborhood — what a run mutates ([`plant`]);
//! * 5-minute **program segmentation** ([`segment`]);
//! * strongly-typed **units** and **ids** ([`units`], [`ids`]) and
//!   hour-of-day **bandwidth meters** ([`meter`]).
//!
//! Higher layers (`cablevod-cache`, `cablevod-sim`) read an immutable
//! [`topology::Topology`] and mutate one [`plant::Plant`] per neighborhood,
//! built over it, through id-based accessors; this crate owns all physical
//! state.
//!
//! # Examples
//!
//! ```
//! use cablevod_hfc::topology::{Topology, TopologyConfig};
//! use cablevod_hfc::units::DataSize;
//! use cablevod_hfc::ids::UserId;
//!
//! # fn main() -> Result<(), cablevod_hfc::error::HfcError> {
//! let topo = Topology::build(TopologyConfig::new(3_000, 1_000))?;
//! let nbhd = topo.neighborhood_of_user(UserId::new(42))?;
//! assert_eq!(topo.neighborhood_cache_capacity(nbhd)?, DataSize::from_terabytes(10));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod channels;
pub mod coax;
pub mod error;
pub mod fault;
pub mod ids;
pub mod meter;
pub mod plant;
pub mod segment;
pub mod stb;
pub mod topology;
pub mod units;

pub use channels::ChannelPlan;
pub use error::HfcError;
pub use fault::{FaultEvent, FaultKind, FaultPlan, FaultTimeline};
pub use ids::{NeighborhoodId, PeerId, ProgramId, SegmentId, UserId};
pub use meter::{RateMeter, RateStats};
pub use plant::Plant;
pub use segment::Segmenter;
pub use stb::SetTopBox;
pub use topology::{Neighborhood, Topology, TopologyConfig};
pub use units::{BitRate, DataSize, SimDuration, SimTime};
