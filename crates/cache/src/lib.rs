//! # cablevod-cache — the cooperative proxy cache
//!
//! Implements §IV of *"Deploying Video-on-Demand Services on Cable
//! Networks"*: set-top boxes in each coaxial neighborhood organized into a
//! cooperative cache by an **index server** at the headend.
//!
//! * [`index`] — the index server: request resolution (hit/miss flows of
//!   Figs 4–5), placement bookkeeping, capture-on-broadcast fill, and
//!   delayed-hit accounting under a [`fetch::FetchModel`];
//! * [`placement`] — load-balanced (or random / first-fit) slot placement;
//! * [`event`] — the 8-byte access event the windowed LFU's history and
//!   the Oracle's look-ahead hold, and the time horizon it sets;
//! * [`history`] — the [`history::HistoryWindow`] through which the
//!   engine hands a windowed LFU its neighborhood's accesses back as they
//!   leave its history, the trailing twin of the Oracle's
//!   [`schedule::ScheduleWindow`];
//! * [`strategy`] — the [`strategy::CacheStrategy`] abstraction, the open
//!   [`strategy::StrategyFactory`] construction seam, the declarative
//!   [`strategy::StrategySpec`] selection of the built-ins (each variant
//!   its own factory), and the **strategy lifecycle** contract (hook
//!   ordering `sync_global` → `prepare` → `on_access`, documented there);
//! * [`registry`] — the by-name [`registry::StrategyRegistry`] through
//!   which out-of-tree strategies join the simulator, and the
//!   process-wide [`registry::register_plugin`] hook that makes them
//!   nameable from scenario spec files;
//! * [`fetch`] — the fetch-latency model behind delayed-hit accounting;
//! * [`lru`], [`lfu`], [`oracle`], [`feed`] — the paper's LRU, windowed
//!   LFU, Oracle, and global-popularity LFU variants, with the
//!   [`feed::Feed`] that carries the system-wide accesses to the last;
//! * [`arc`], [`tlru`], [`prior`], [`delayed`] — the literature
//!   strategies: ARC, time-aware LRU, the prior-storing server (a feed
//!   consumer, like the global LFU), and the delayed-hits-aware LFU
//!   (fetch-model consumer).
//!
//! # Examples
//!
//! ```
//! use cablevod_cache::strategy::{CacheStrategy, StrategySpec};
//! use cablevod_hfc::ids::{NeighborhoodId, ProgramId};
//! use cablevod_hfc::units::SimTime;
//!
//! # fn main() -> Result<(), cablevod_cache::error::CacheError> {
//! let mut lfu = StrategySpec::default_lfu().build(30, NeighborhoodId::new(0), None)?;
//! let mut ops = Vec::new();
//! lfu.on_access(ProgramId::new(7), 12, SimTime::EPOCH, &mut ops);
//! assert!(lfu.contains(ProgramId::new(7)));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod arc;
pub mod delayed;
pub mod error;
pub mod event;
pub mod feed;
pub mod fetch;
pub mod history;
pub mod index;
pub mod lfu;
#[cfg(test)]
mod lfu_reference;
pub mod lru;
pub mod oracle;
pub mod placement;
pub mod prior;
pub mod registry;
pub mod schedule;
mod slots;
pub mod strategy;
#[cfg(test)]
mod strategy_references;
pub mod tlru;
mod waterline;

pub use self::arc::ArcCache;
pub use delayed::DelayedLfu;
pub use error::CacheError;
pub use event::AccessEvent;
pub use feed::{Feed, FeedEvent, GlobalLfu};
pub use fetch::FetchModel;
pub use history::HistoryWindow;
pub use index::{IndexServer, IndexStats, MissReason, Resolution};
pub use lfu::WindowedLfu;
pub use lru::Lru;
pub use oracle::Oracle;
pub use placement::{PlacementPolicy, SlotLedger};
pub use registry::{register_plugin, StrategyRegistry};
pub use schedule::ScheduleWindow;
pub use strategy::{
    CacheOp, CacheStrategy, FillPolicy, StrategyContext, StrategyFactory, StrategySpec,
};
pub use tlru::Tlru;
