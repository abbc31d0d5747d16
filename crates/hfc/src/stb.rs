//! The set-top box peer (§IV-B.3, §V-C).
//!
//! Every cable subscriber owns one always-on set-top box. For the
//! cooperative cache an STB contributes:
//!
//! * a fixed slice of its disk (the paper assumes 10 GB of a ~40 GB drive);
//! * at most **two concurrent streams** in either direction — the paper's
//!   model of the two logical coax channels an inexpensive tuner can drive.
//!
//! A [`SetTopBox`] is the state a run changes on one box and nothing
//! else: the bytes its cache holds, and the end times of its in-flight
//! streams (acquiring a slot at time `t` first releases every stream that
//! has finished by `t`). What is the same for every box — the storage
//! contribution and the slot limit, one `TopologyConfig` — and the box's
//! own id, which its position names, are the [`Plant`](crate::plant::Plant)'s,
//! and every operation goes through it. *Which* segments a box holds is
//! not recorded here: the neighborhood's index server places every copy
//! and remembers where, and that record is the only one. The box keeps
//! the bytes they occupy, so an accounting error surfaces as a refused
//! store or release ([`HfcError::StorageFull`], [`HfcError::OverRelease`]),
//! never as silently free space.
//!
//! A plant holds one box per subscriber for the whole run, so a box is
//! kept at 40 bytes with nothing behind it while no stream spills
//! (`a_box_is_forty_bytes` pins the size).

use crate::error::HfcError;
use crate::ids::PeerId;
use crate::units::{DataSize, SimTime};

/// Default storage contribution per peer (§V-C): 10 GB.
pub const DEFAULT_CONTRIBUTION: DataSize = DataSize::from_gigabytes(10);
/// Typical full disk of a period set-top box (§V-C): about 40 GB.
pub const TYPICAL_DISK: DataSize = DataSize::from_gigabytes(40);
/// Default number of concurrent streams an STB can sustain (§V-C): 2.
pub const DEFAULT_STREAM_SLOTS: u8 = 2;

/// What a run changes on one subscriber's set-top box (see the module
/// docs). Read through [`Plant::stb`](crate::plant::Plant::stb), changed
/// through the plant's box operations.
///
/// # Examples
///
/// ```
/// use cablevod_hfc::plant::Plant;
/// use cablevod_hfc::topology::{Topology, TopologyConfig};
/// use cablevod_hfc::ids::{NeighborhoodId, PeerId};
/// use cablevod_hfc::units::DataSize;
///
/// let topo = Topology::build(TopologyConfig::new(10, 10))?;
/// let mut plant = Plant::over(&topo, NeighborhoodId::new(0))?;
/// let peer = PeerId::new(3);
/// let segment = DataSize::from_bytes(302_250_000);
/// plant.store(peer, segment)?;
/// assert_eq!(plant.stb(peer)?.used(), segment);
/// // The box keeps bytes, so giving back more than it holds is refused.
/// assert!(plant.delete(peer, segment * 2).is_err());
/// assert_eq!(plant.delete(peer, segment)?, DataSize::ZERO);
/// # Ok::<(), cablevod_hfc::error::HfcError>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct SetTopBox {
    used: DataSize,
    /// In-flight streams, lazily pruned.
    active: ActiveStreams,
}

/// End times of a box's in-flight streams, in no particular order.
///
/// The index server touches a hosting peer's slots on every cache hit, so
/// the paper's two slots live inline — a hit reads the box and nothing
/// behind it. Streams beyond them (the viewer's own playback overcommitting
/// a busy box, or a configured limit above two) spill out of line, to a
/// list allocated while it is needed and dropped once it empties.
#[derive(Debug, Clone, Default)]
struct ActiveStreams {
    inline: [SimTime; Self::INLINE],
    inline_len: u8,
    /// Boxed so the empty case — nearly every box, all run long — is one
    /// 8-byte null pointer in the box rather than a 24-byte `Vec` header.
    #[allow(clippy::box_collection)]
    spill: Option<Box<Vec<SimTime>>>,
}

impl ActiveStreams {
    const INLINE: usize = DEFAULT_STREAM_SLOTS as usize;

    fn len(&self) -> usize {
        usize::from(self.inline_len) + self.spill.as_ref().map_or(0, |spill| spill.len())
    }

    fn push(&mut self, end: SimTime) {
        match self.inline.get_mut(usize::from(self.inline_len)) {
            Some(slot) => {
                *slot = end;
                self.inline_len += 1;
            }
            None => self.spill.get_or_insert_with(Box::default).push(end),
        }
    }

    /// Drops every stream that has ended by `now`.
    fn release_finished(&mut self, now: SimTime) {
        let mut kept = 0;
        for i in 0..usize::from(self.inline_len) {
            if self.inline[i] > now {
                self.inline[kept] = self.inline[i];
                kept += 1;
            }
        }
        self.inline_len = kept as u8;
        if let Some(spill) = self.spill.as_mut() {
            spill.retain(|&end| end > now);
            if spill.is_empty() {
                self.spill = None;
            }
        }
    }
}

impl SetTopBox {
    /// Bytes currently occupied by cached segments.
    pub fn used(&self) -> DataSize {
        self.used
    }

    /// Takes `size` more bytes of a `capacity`-byte contribution and
    /// returns the bytes now held.
    ///
    /// # Errors
    ///
    /// [`HfcError::StorageFull`], with nothing taken, when they do not fit.
    pub(crate) fn store(
        &mut self,
        peer: PeerId,
        size: DataSize,
        capacity: DataSize,
    ) -> Result<DataSize, HfcError> {
        let free = capacity.saturating_sub(self.used);
        if size > free {
            return Err(HfcError::StorageFull {
                peer,
                requested: size,
                free,
            });
        }
        self.used += size;
        Ok(self.used)
    }

    /// Gives back `size` bytes and returns the bytes still held.
    ///
    /// # Errors
    ///
    /// [`HfcError::OverRelease`], with nothing given back, when the box
    /// holds fewer than `size` bytes: the caller's books and the box's
    /// disagree.
    pub(crate) fn delete(&mut self, peer: PeerId, size: DataSize) -> Result<DataSize, HfcError> {
        self.used = self.used.checked_sub(size).ok_or(HfcError::OverRelease {
            peer,
            requested: size,
            used: self.used,
        })?;
        Ok(self.used)
    }

    /// Number of streams still active at `now` (prunes finished ones).
    #[cfg(test)]
    fn active_streams(&mut self, now: SimTime) -> usize {
        self.active.release_finished(now);
        self.active.len()
    }

    /// Attempts to occupy one of `slot_limit` stream slots from `now`
    /// until `end`.
    ///
    /// Returns `false` when all slots are busy;
    /// §V-C: "The cache will trigger a miss if a segment is requested from a
    /// peer that has more than two active streams in either direction."
    pub(crate) fn try_start_stream(&mut self, now: SimTime, end: SimTime, slot_limit: u8) -> bool {
        self.active.release_finished(now);
        if self.active.len() >= usize::from(slot_limit) {
            return false;
        }
        self.active.push(end.max(now));
        true
    }

    /// Unconditionally occupies a slot from `now` until `end` (the
    /// viewer's own playback, which is never blocked) and returns whether
    /// the box now runs more than `slot_limit` streams. A stream that is
    /// over as it starts (`end <= now`) occupies nothing.
    pub(crate) fn start_stream_unchecked(
        &mut self,
        now: SimTime,
        end: SimTime,
        slot_limit: u8,
    ) -> bool {
        self.active.release_finished(now);
        if end > now {
            self.active.push(end);
        }
        self.active.len() > usize::from(slot_limit)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::units::SimDuration;

    const PEER: PeerId = PeerId::new(1);

    fn bytes(n: u64) -> DataSize {
        DataSize::from_bytes(n)
    }

    /// The box is what a run holds per subscriber (see the module docs).
    #[test]
    fn a_box_is_forty_bytes() {
        assert!(std::mem::size_of::<SetTopBox>() <= 40);
    }

    #[test]
    fn storage_accounting_round_trips() {
        let mut stb = SetTopBox::default();
        assert_eq!(stb.store(PEER, bytes(400), bytes(1000)), Ok(bytes(400)));
        assert_eq!(stb.store(PEER, bytes(600), bytes(1000)), Ok(bytes(1000)));
        assert_eq!(stb.delete(PEER, bytes(400)), Ok(bytes(600)));
        assert_eq!(stb.used(), bytes(600));
    }

    #[test]
    fn store_rejects_overflow_and_takes_nothing() {
        let mut stb = SetTopBox::default();
        stb.store(PEER, bytes(60), bytes(100)).unwrap();
        let err = stb.store(PEER, bytes(60), bytes(100)).unwrap_err();
        assert_eq!(
            err,
            HfcError::StorageFull {
                peer: PEER,
                requested: bytes(60),
                free: bytes(40)
            }
        );
        assert_eq!(stb.used(), bytes(60));
    }

    /// `used` is the box's only record of what it holds: giving back more
    /// than it has is an error, not free space.
    #[test]
    fn an_over_release_is_refused_not_read_as_free_space() {
        let mut stb = SetTopBox::default();
        stb.store(PEER, bytes(50), bytes(100)).unwrap();
        let err = stb.delete(PEER, bytes(80)).unwrap_err();
        assert_eq!(
            err,
            HfcError::OverRelease {
                peer: PEER,
                requested: bytes(80),
                used: bytes(50)
            }
        );
        assert_eq!(stb.used(), bytes(50), "nothing given back");
        assert_eq!(stb.delete(PEER, bytes(50)), Ok(DataSize::ZERO));
    }

    #[test]
    fn delete_of_missing_segment_errors() {
        let mut stb = SetTopBox::default();
        let err = stb.delete(PEER, bytes(1)).unwrap_err();
        assert!(matches!(err, HfcError::OverRelease { .. }), "{err}");
        assert_eq!(stb.used(), DataSize::ZERO);
    }

    #[test]
    fn slots_enforce_paper_limit_of_two() {
        let mut stb = SetTopBox::default();
        let t = SimTime::from_secs(0);
        let end = t + SimDuration::from_minutes(5);
        assert!(stb.try_start_stream(t, end, DEFAULT_STREAM_SLOTS));
        assert!(stb.try_start_stream(t, end, DEFAULT_STREAM_SLOTS));
        assert!(
            !stb.try_start_stream(t, end, DEFAULT_STREAM_SLOTS),
            "third concurrent stream refused"
        );
        // After both streams end the slots free up.
        let later = end + SimDuration::from_secs(1);
        assert_eq!(stb.active_streams(later), 0);
        assert!(stb.try_start_stream(
            later,
            later + SimDuration::from_minutes(5),
            DEFAULT_STREAM_SLOTS
        ));
    }

    #[test]
    fn slot_release_is_exact_at_end_time() {
        let mut stb = SetTopBox::default();
        let t = SimTime::from_secs(100);
        let end = SimTime::from_secs(400);
        assert!(stb.try_start_stream(t, end, 1));
        assert!(!stb.try_start_stream(SimTime::from_secs(399), end, 1));
        assert!(stb.try_start_stream(SimTime::from_secs(400), SimTime::from_secs(700), 1));
    }

    #[test]
    fn unchecked_streams_report_overcommit() {
        let mut stb = SetTopBox::default();
        let limit = DEFAULT_STREAM_SLOTS;
        let t = SimTime::EPOCH;
        let end = t + SimDuration::from_minutes(5);
        for started in 1..=3 {
            let over = stb.start_stream_unchecked(t, end, limit);
            assert_eq!(over, started > 2, "stream {started}");
        }
        // A stream over as it starts occupies nothing, at any load.
        assert!(stb.start_stream_unchecked(t, t, limit));
        assert_eq!(stb.active_streams(t), 3);
        assert!(!stb.start_stream_unchecked(end, end, limit));
        assert_eq!(stb.active_streams(end), 0);
        assert!(stb.active.spill.is_none(), "an emptied spill is let go");
    }

    #[test]
    fn slots_beyond_the_inline_pair_release_in_any_order() {
        let mut stb = SetTopBox::default();
        let t = SimTime::EPOCH;
        // End times out of order, two more than fit inline.
        for end in [400, 100, 300, 200] {
            assert!(stb.try_start_stream(t, SimTime::from_secs(end), 4));
        }
        assert!(!stb.try_start_stream(t, SimTime::from_secs(500), 4));
        assert_eq!(stb.active_streams(SimTime::from_secs(100)), 3);
        assert_eq!(stb.active_streams(SimTime::from_secs(350)), 1);
        assert!(stb.try_start_stream(SimTime::from_secs(350), SimTime::from_secs(600), 4));
        assert_eq!(stb.active_streams(SimTime::from_secs(400)), 1);
        assert_eq!(stb.active_streams(SimTime::from_secs(600)), 0);
    }

    #[test]
    fn zero_slot_peer_never_serves() {
        let mut stb = SetTopBox::default();
        assert!(!stb.try_start_stream(SimTime::EPOCH, SimTime::from_secs(10), 0));
    }
}
