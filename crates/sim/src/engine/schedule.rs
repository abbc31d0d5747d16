//! Schedule glue: what each entry driver builds its index servers'
//! [`ScheduleWindow`]s from — the Oracle-side twin of [`super::feed`].
//!
//! * **resident runs** build the classic in-memory
//!   [`AccessSchedule`](cablevod_cache::AccessSchedule)s in one pass over
//!   the record slice and wrap them in [`ResidentSchedules`] — windows are
//!   zero-copy cursor pairs, the PR-1 hot path untouched;
//! * **streaming runs** build nothing ahead of the replay: every window
//!   starts empty over one shared cost table, and the neighborhood's
//!   record supply — the one place that stages its records in order —
//!   reads the same records `lookahead` further along and hands them over
//!   as it goes (see [`super::stream::LookAhead`]). A window's resident
//!   state is bounded by the look-ahead span plus one hand-over, so a
//!   streaming Oracle run's peak memory is O(chunk + look-ahead window +
//!   active sessions), not O(trace), and it touches no file but the trace.

use std::sync::Arc;

use cablevod_cache::{ResidentSchedules, ScheduleWindow};
use cablevod_hfc::ids::NeighborhoodId;

/// The per-run schedule supply every driver builds its index servers
/// from.
pub(super) enum ScheduleSupply {
    /// Fully resident per-neighborhood schedules (or none at all).
    Resident(ResidentSchedules),
    /// Streaming windows over these program slot costs, fed by their
    /// record supplies.
    Fed(Arc<[u32]>),
}

impl ScheduleSupply {
    /// A supply with no schedule for any of `neighborhoods` — what every
    /// strategy that never consults a schedule runs with.
    pub(super) fn none(neighborhoods: usize) -> Self {
        ScheduleSupply::Resident(ResidentSchedules::none(neighborhoods))
    }

    /// The windowed schedule for dense neighborhood index `n`.
    pub(super) fn window(&self, n: usize) -> Option<ScheduleWindow> {
        match self {
            ScheduleSupply::Resident(s) => s.window(NeighborhoodId::new(n as u32)),
            ScheduleSupply::Fed(costs) => Some(ScheduleWindow::streaming(Arc::clone(costs))),
        }
    }
}
