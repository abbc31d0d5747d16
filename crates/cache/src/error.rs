//! Error types for the cooperative cache.

use std::error::Error;
use std::fmt;

use cablevod_hfc::ids::ProgramId;
use cablevod_hfc::units::SimTime;
use cablevod_hfc::HfcError;

/// Errors raised by index-server and placement operations.
#[derive(Debug)]
#[non_exhaustive]
pub enum CacheError {
    /// The placement ledger had no free slot for a segment. Indicates a
    /// broken capacity invariant between strategy and ledger.
    PlacementOverflow {
        /// Program whose placement failed.
        program: ProgramId,
        /// Slots requested.
        requested: u32,
        /// Slots free in the neighborhood.
        free: u64,
    },
    /// A strategy decision referenced a program the index server does not
    /// consider admitted (or vice versa) — an internal consistency failure.
    InconsistentState {
        /// Human-readable description of the mismatch.
        reason: String,
    },
    /// A segment operation disagreed with the underlying set-top box.
    Stb(HfcError),
    /// A strategy requiring an access schedule (Oracle) was built without
    /// one.
    MissingSchedule,
    /// A windowed schedule was handed events out of time order, or less
    /// than an access needs (see [`crate::schedule`]).
    Schedule {
        /// What went wrong.
        reason: String,
    },
    /// A history window was handed accesses out of time order, or fewer
    /// than an expiry needs (see [`crate::history`]).
    History {
        /// What went wrong.
        reason: String,
    },
    /// An access at or past the second an [`AccessEvent`] can carry
    /// ([`AccessEvent::HORIZON`]), refused rather than truncated.
    ///
    /// [`AccessEvent`]: crate::event::AccessEvent
    /// [`AccessEvent::HORIZON`]: crate::event::AccessEvent::HORIZON
    BeyondHorizon {
        /// When the refused access happened.
        at: SimTime,
    },
    /// A strategy name resolved against neither the registry nor the
    /// built-in spec grammar (see [`crate::registry`]).
    UnknownStrategy {
        /// The unresolvable name.
        name: String,
    },
}

impl fmt::Display for CacheError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CacheError::PlacementOverflow {
                program,
                requested,
                free,
            } => write!(
                f,
                "no free slots placing {program}: requested {requested}, free {free}"
            ),
            CacheError::InconsistentState { reason } => {
                write!(f, "index server state inconsistent: {reason}")
            }
            CacheError::Stb(e) => write!(f, "set-top box refused operation: {e}"),
            CacheError::MissingSchedule => {
                write!(f, "oracle strategy requires a future access schedule")
            }
            CacheError::Schedule { reason } => {
                write!(f, "access schedule failure: {reason}")
            }
            CacheError::History { reason } => {
                write!(f, "access history failure: {reason}")
            }
            CacheError::BeyondHorizon { at } => write!(
                f,
                "an access at {}s is past the last second an access event can carry ({}s)",
                at.as_secs(),
                u64::from(u32::MAX)
            ),
            CacheError::UnknownStrategy { name } => {
                write!(
                    f,
                    "unknown cache strategy {name:?} (not registered, and not a built-in spec)"
                )
            }
        }
    }
}

impl Error for CacheError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            CacheError::Stb(e) => Some(e),
            _ => None,
        }
    }
}

impl From<HfcError> for CacheError {
    fn from(e: HfcError) -> Self {
        CacheError::Stb(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_name_entities() {
        let err = CacheError::PlacementOverflow {
            program: ProgramId::new(2),
            requested: 20,
            free: 3,
        };
        assert!(err.to_string().contains("prog2"));
        assert!(CacheError::MissingSchedule.to_string().contains("schedule"));
    }

    #[test]
    fn stb_errors_chain() {
        let inner = HfcError::UnknownPeer {
            peer: cablevod_hfc::ids::PeerId::new(1),
        };
        let err = CacheError::from(inner);
        assert!(err.source().is_some());
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<CacheError>();
    }
}
