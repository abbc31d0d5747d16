//! Error types for the cable-plant substrate.

use std::error::Error;
use std::fmt;

use crate::ids::{NeighborhoodId, PeerId, UserId};
use crate::units::DataSize;

/// Errors raised by cable-plant operations.
///
/// All variants carry enough context to identify the entity involved, so a
/// failed placement or delete can be traced back to a specific peer.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum HfcError {
    /// A segment did not fit in a peer's remaining contribution.
    StorageFull {
        /// The peer that refused the store.
        peer: PeerId,
        /// Size of the segment that was being stored.
        requested: DataSize,
        /// Free space remaining on the peer.
        free: DataSize,
    },
    /// A peer was asked to give back more bytes than it holds: whoever
    /// placed the segments and the box disagree about what is on it.
    OverRelease {
        /// The peer involved.
        peer: PeerId,
        /// Bytes the release asked for.
        requested: DataSize,
        /// Bytes the peer held.
        used: DataSize,
    },
    /// A lookup used an unknown user id.
    UnknownUser {
        /// The offending id.
        user: UserId,
    },
    /// A lookup used an unknown peer id.
    UnknownPeer {
        /// The offending id.
        peer: PeerId,
    },
    /// A box position past a plant's last member.
    UnknownPosition {
        /// The offending position.
        position: u32,
    },
    /// A lookup used an unknown neighborhood id.
    UnknownNeighborhood {
        /// The offending id.
        neighborhood: NeighborhoodId,
    },
    /// A topology was configured with zero subscribers or zero-sized
    /// neighborhoods.
    InvalidTopology {
        /// Human-readable reason.
        reason: String,
    },
    /// A fault plan contained an empty/inverted window or an
    /// out-of-range derate.
    InvalidFaultPlan {
        /// Human-readable reason.
        reason: String,
    },
}

impl fmt::Display for HfcError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HfcError::StorageFull {
                peer,
                requested,
                free,
            } => {
                write!(
                    f,
                    "storage full on {peer}: requested {requested}, free {free}"
                )
            }
            HfcError::OverRelease {
                peer,
                requested,
                used,
            } => {
                write!(f, "release of {requested} from {peer}, which holds {used}")
            }
            HfcError::UnknownUser { user } => write!(f, "unknown user id {user}"),
            HfcError::UnknownPeer { peer } => write!(f, "unknown peer id {peer}"),
            HfcError::UnknownPosition { position } => {
                write!(f, "no box at member position {position}")
            }
            HfcError::UnknownNeighborhood { neighborhood } => {
                write!(f, "unknown neighborhood id {neighborhood}")
            }
            HfcError::InvalidTopology { reason } => write!(f, "invalid topology: {reason}"),
            HfcError::InvalidFaultPlan { reason } => write!(f, "invalid fault plan: {reason}"),
        }
    }
}

impl Error for HfcError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_are_lowercase_and_contextual() {
        let err = HfcError::StorageFull {
            peer: PeerId::new(3),
            requested: DataSize::from_bytes(100),
            free: DataSize::from_bytes(10),
        };
        let msg = err.to_string();
        assert!(msg.starts_with("storage full on peer3"));

        let err = HfcError::OverRelease {
            peer: PeerId::new(1),
            requested: DataSize::from_bytes(8),
            used: DataSize::from_bytes(4),
        };
        assert!(err.to_string().starts_with("release of "), "{err}");
        assert!(err.to_string().contains("from peer1"), "{err}");
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<HfcError>();
    }
}
