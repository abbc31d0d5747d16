//! The set-top box peer (§IV-B.3, §V-C).
//!
//! Every cable subscriber owns one always-on set-top box. For the
//! cooperative cache an STB contributes:
//!
//! * a fixed slice of its disk (the paper assumes 10 GB of a ~40 GB drive);
//! * at most **two concurrent streams** in either direction — the paper's
//!   model of the two logical coax channels an inexpensive tuner can drive.
//!
//! [`SetTopBox`] tracks both resources. Stream slots are modelled as the
//! end times of the in-flight streams, kept in the box itself: acquiring a
//! slot at time `t` first releases any stream that has already finished by
//! `t`. The boxes of a run live in its [`Plant`](crate::plant::Plant),
//! which is how the cooperative cache reaches them.

use serde::{Deserialize, Serialize};

use crate::error::HfcError;
use crate::ids::{PeerId, SegmentId};
use crate::units::{DataSize, SimTime};

/// Default storage contribution per peer (§V-C): 10 GB.
pub const DEFAULT_CONTRIBUTION: DataSize = DataSize::from_gigabytes(10);
/// Typical full disk of a period set-top box (§V-C): about 40 GB.
pub const TYPICAL_DISK: DataSize = DataSize::from_gigabytes(40);
/// Default number of concurrent streams an STB can sustain (§V-C): 2.
pub const DEFAULT_STREAM_SLOTS: u8 = 2;

/// A subscriber's set-top box acting as a cache peer.
///
/// # Examples
///
/// ```
/// use cablevod_hfc::stb::SetTopBox;
/// use cablevod_hfc::ids::{PeerId, ProgramId, SegmentId};
/// use cablevod_hfc::units::{DataSize, SimTime, SimDuration};
///
/// let mut stb = SetTopBox::new(PeerId::new(0), DataSize::from_gigabytes(10), 2);
/// let seg = SegmentId::new(ProgramId::new(1), 0);
/// stb.store(seg, DataSize::from_bytes(302_250_000))?;
/// assert!(stb.holds(seg));
///
/// // Two streams fit; a third is refused until one ends.
/// let t0 = SimTime::EPOCH;
/// let end = t0 + SimDuration::from_minutes(5);
/// assert!(stb.try_start_stream(t0, end));
/// assert!(stb.try_start_stream(t0, end));
/// assert!(!stb.try_start_stream(t0, end));
/// assert!(stb.try_start_stream(end, end + SimDuration::from_minutes(5)));
/// # Ok::<(), cablevod_hfc::error::HfcError>(())
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SetTopBox {
    id: PeerId,
    capacity: DataSize,
    used: DataSize,
    /// The cached segments, unordered. A box holds a few dozen at most
    /// (10 GB is 33 nominal segments), so a scan beats hashing each id.
    stored: Vec<SegmentId>,
    slot_limit: u8,
    /// In-flight streams, lazily pruned.
    #[serde(skip)]
    active: ActiveStreams,
}

/// End times of a box's in-flight streams, in no particular order.
///
/// The index server touches a hosting peer's slots on every cache hit, so
/// the paper's two slots live inline — a hit reads the box and nothing
/// behind it. Streams beyond them (the viewer's own playback overcommitting
/// a busy box, or a configured limit above two) spill to the heap.
#[derive(Debug, Clone, Default)]
struct ActiveStreams {
    inline: [SimTime; Self::INLINE],
    inline_len: u8,
    spill: Vec<SimTime>,
}

impl ActiveStreams {
    const INLINE: usize = DEFAULT_STREAM_SLOTS as usize;

    fn len(&self) -> usize {
        usize::from(self.inline_len) + self.spill.len()
    }

    fn push(&mut self, end: SimTime) {
        match self.inline.get_mut(usize::from(self.inline_len)) {
            Some(slot) => {
                *slot = end;
                self.inline_len += 1;
            }
            None => self.spill.push(end),
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
        if !self.spill.is_empty() {
            self.spill.retain(|&end| end > now);
        }
    }

    fn clear(&mut self) {
        self.inline_len = 0;
        self.spill.clear();
    }
}

impl SetTopBox {
    /// Creates an STB contributing `capacity` bytes of cache storage and up
    /// to `slot_limit` concurrent streams (0 means the peer can never
    /// serve or receive — useful for modelling opted-out subscribers).
    pub fn new(id: PeerId, capacity: DataSize, slot_limit: u8) -> Self {
        SetTopBox {
            id,
            capacity,
            used: DataSize::ZERO,
            stored: Vec::new(),
            slot_limit,
            active: ActiveStreams::default(),
        }
    }

    /// Creates an STB with the paper's defaults (10 GB, 2 slots).
    pub fn with_paper_defaults(id: PeerId) -> Self {
        SetTopBox::new(id, DEFAULT_CONTRIBUTION, DEFAULT_STREAM_SLOTS)
    }

    /// This peer's id.
    pub fn id(&self) -> PeerId {
        self.id
    }

    /// Total contributed storage.
    pub fn capacity(&self) -> DataSize {
        self.capacity
    }

    /// Bytes currently occupied by cached segments.
    pub fn used(&self) -> DataSize {
        self.used
    }

    /// Remaining free cache space.
    pub fn free(&self) -> DataSize {
        self.capacity.saturating_sub(self.used)
    }

    /// Number of cached segments.
    pub fn stored_segment_count(&self) -> usize {
        self.stored.len()
    }

    /// Whether this peer currently stores `segment`.
    pub fn holds(&self, segment: SegmentId) -> bool {
        self.stored.contains(&segment)
    }

    /// Iterates over the segments stored on this peer (arbitrary order).
    pub fn stored_segments(&self) -> impl Iterator<Item = SegmentId> + '_ {
        self.stored.iter().copied()
    }

    /// Stores `segment` occupying `size` bytes.
    ///
    /// # Errors
    ///
    /// Returns [`HfcError::StorageFull`] if the segment does not fit and
    /// [`HfcError::DuplicateSegment`] if it is already stored.
    pub fn store(&mut self, segment: SegmentId, size: DataSize) -> Result<(), HfcError> {
        if self.stored.contains(&segment) {
            return Err(HfcError::DuplicateSegment {
                peer: self.id,
                segment,
            });
        }
        if size > self.free() {
            return Err(HfcError::StorageFull {
                peer: self.id,
                requested: size,
                free: self.free(),
            });
        }
        self.used += size;
        self.stored.push(segment);
        Ok(())
    }

    /// Deletes `segment`, releasing `size` bytes (the caller tracks sizes —
    /// the index server knows every placement it made).
    ///
    /// # Errors
    ///
    /// Returns [`HfcError::SegmentNotStored`] if the peer does not hold the
    /// segment.
    pub fn delete(&mut self, segment: SegmentId, size: DataSize) -> Result<(), HfcError> {
        let Some(at) = self.stored.iter().position(|&s| s == segment) else {
            return Err(HfcError::SegmentNotStored {
                peer: self.id,
                segment,
            });
        };
        self.stored.swap_remove(at);
        self.used = self.used.saturating_sub(size);
        Ok(())
    }

    /// Number of streams still active at `now` (prunes finished ones).
    pub fn active_streams(&mut self, now: SimTime) -> usize {
        self.active.release_finished(now);
        self.active.len()
    }

    /// Attempts to occupy one stream slot from `now` until `end`.
    ///
    /// Returns `false` when all slots are busy;
    /// §V-C: "The cache will trigger a miss if a segment is requested from a
    /// peer that has more than two active streams in either direction."
    pub fn try_start_stream(&mut self, now: SimTime, end: SimTime) -> bool {
        self.active.release_finished(now);
        if self.active.len() >= usize::from(self.slot_limit) {
            return false;
        }
        self.active.push(end.max(now));
        true
    }

    /// Unconditionally occupies a slot from `now` until `end` (used for
    /// the viewer's own playback, which is never blocked) and returns
    /// whether the peer now exceeds its slot limit — what
    /// [`SetTopBox::is_overcommitted`] would answer at `now`, without
    /// pruning the box a second time. A stream that is over as it starts
    /// (`end <= now`) occupies nothing.
    pub fn start_stream_unchecked(&mut self, now: SimTime, end: SimTime) -> bool {
        self.active.release_finished(now);
        if end > now {
            self.active.push(end);
        }
        self.active.len() > usize::from(self.slot_limit)
    }

    /// Whether the peer currently exceeds its slot limit (possible only via
    /// [`SetTopBox::start_stream_unchecked`]).
    pub fn is_overcommitted(&mut self, now: SimTime) -> bool {
        self.active_streams(now) > usize::from(self.slot_limit)
    }

    /// Clears cached content and stream state, keeping configuration.
    pub fn reset(&mut self) {
        self.used = DataSize::ZERO;
        self.stored.clear();
        self.active.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::ProgramId;
    use crate::units::SimDuration;

    fn seg(p: u32, i: u16) -> SegmentId {
        SegmentId::new(ProgramId::new(p), i)
    }

    #[test]
    fn storage_accounting_round_trips() {
        let mut stb = SetTopBox::new(PeerId::new(1), DataSize::from_bytes(1000), 2);
        stb.store(seg(0, 0), DataSize::from_bytes(400)).unwrap();
        stb.store(seg(0, 1), DataSize::from_bytes(600)).unwrap();
        assert_eq!(stb.free(), DataSize::ZERO);
        assert_eq!(stb.stored_segment_count(), 2);
        stb.delete(seg(0, 0), DataSize::from_bytes(400)).unwrap();
        assert_eq!(stb.free(), DataSize::from_bytes(400));
        assert!(!stb.holds(seg(0, 0)));
        assert!(stb.holds(seg(0, 1)));
    }

    #[test]
    fn store_rejects_overflow_and_duplicates() {
        let mut stb = SetTopBox::new(PeerId::new(1), DataSize::from_bytes(100), 2);
        stb.store(seg(0, 0), DataSize::from_bytes(60)).unwrap();
        let err = stb.store(seg(0, 1), DataSize::from_bytes(60)).unwrap_err();
        assert!(matches!(err, HfcError::StorageFull { .. }));
        let err = stb.store(seg(0, 0), DataSize::from_bytes(10)).unwrap_err();
        assert!(matches!(err, HfcError::DuplicateSegment { .. }));
    }

    #[test]
    fn delete_of_missing_segment_errors() {
        let mut stb = SetTopBox::new(PeerId::new(1), DataSize::from_bytes(100), 2);
        let err = stb.delete(seg(9, 9), DataSize::from_bytes(1)).unwrap_err();
        assert!(matches!(err, HfcError::SegmentNotStored { .. }));
    }

    #[test]
    fn slots_enforce_paper_limit_of_two() {
        let mut stb = SetTopBox::with_paper_defaults(PeerId::new(0));
        let t = SimTime::from_secs(0);
        let end = t + SimDuration::from_minutes(5);
        assert!(stb.try_start_stream(t, end));
        assert!(stb.try_start_stream(t, end));
        assert!(
            !stb.try_start_stream(t, end),
            "third concurrent stream refused"
        );
        // After both streams end the slots free up.
        let later = end + SimDuration::from_secs(1);
        assert_eq!(stb.active_streams(later), 0);
        assert!(stb.try_start_stream(later, later + SimDuration::from_minutes(5)));
    }

    #[test]
    fn slot_release_is_exact_at_end_time() {
        let mut stb = SetTopBox::new(PeerId::new(0), DataSize::ZERO, 1);
        let t = SimTime::from_secs(100);
        let end = SimTime::from_secs(400);
        assert!(stb.try_start_stream(t, end));
        assert!(!stb.try_start_stream(SimTime::from_secs(399), end));
        assert!(stb.try_start_stream(SimTime::from_secs(400), SimTime::from_secs(700)));
    }

    #[test]
    fn unchecked_streams_report_overcommit() {
        let mut stb = SetTopBox::with_paper_defaults(PeerId::new(0));
        let t = SimTime::EPOCH;
        let end = t + SimDuration::from_minutes(5);
        for started in 1..=3 {
            let over = stb.start_stream_unchecked(t, end);
            assert_eq!(over, started > 2, "stream {started}");
            assert_eq!(over, stb.is_overcommitted(t), "stream {started}");
        }
        // A stream over as it starts occupies nothing, at any load.
        assert!(stb.start_stream_unchecked(t, t));
        assert_eq!(stb.active_streams(t), 3);
        assert!(!stb.is_overcommitted(end));
        assert!(!stb.start_stream_unchecked(end, end));
        assert_eq!(stb.active_streams(end), 0);
    }

    #[test]
    fn slots_beyond_the_inline_pair_release_in_any_order() {
        let mut stb = SetTopBox::new(PeerId::new(0), DataSize::ZERO, 4);
        let t = SimTime::EPOCH;
        // End times out of order, two more than fit inline.
        for end in [400, 100, 300, 200] {
            assert!(stb.try_start_stream(t, SimTime::from_secs(end)));
        }
        assert!(!stb.try_start_stream(t, SimTime::from_secs(500)));
        assert_eq!(stb.active_streams(SimTime::from_secs(100)), 3);
        assert_eq!(stb.active_streams(SimTime::from_secs(350)), 1);
        assert!(stb.try_start_stream(SimTime::from_secs(350), SimTime::from_secs(600)));
        assert_eq!(stb.active_streams(SimTime::from_secs(400)), 1);
        assert_eq!(stb.active_streams(SimTime::from_secs(600)), 0);
    }

    #[test]
    fn zero_slot_peer_never_serves() {
        let mut stb = SetTopBox::new(PeerId::new(0), DataSize::from_gigabytes(1), 0);
        assert!(!stb.try_start_stream(SimTime::EPOCH, SimTime::from_secs(10)));
    }

    #[test]
    fn reset_clears_state_keeps_config() {
        let mut stb = SetTopBox::new(PeerId::new(7), DataSize::from_bytes(100), 2);
        stb.store(seg(1, 1), DataSize::from_bytes(50)).unwrap();
        stb.start_stream_unchecked(SimTime::EPOCH, SimTime::from_secs(10));
        stb.reset();
        assert_eq!(stb.used(), DataSize::ZERO);
        assert_eq!(stb.stored_segment_count(), 0);
        assert_eq!(stb.active_streams(SimTime::EPOCH), 0);
        assert_eq!(stb.capacity(), DataSize::from_bytes(100));
    }
}
