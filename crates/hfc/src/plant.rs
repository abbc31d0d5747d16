//! What a run changes: the set-top boxes, coax networks and central-server
//! meter of a contiguous range of neighborhoods.
//!
//! A [`Topology`] says who lives where and never changes; a [`Plant`]
//! built [`over`](Plant::over) it holds everything a run mutates for
//! neighborhoods `a..b` (§IV-B keeps all such state per neighborhood). The
//! whole plant is the range `0..N`, one shard of a sharded run is `n..n + 1`
//! — the same type, so every driver accounts boxes and bytes identically,
//! and per-range server meters fold back into the shared one with
//! [`RateMeter::merge`].
//!
//! Boxes are kept in placement order (the peer's rank in the §V-B
//! permutation), so a neighborhood's boxes are contiguous and a global
//! [`PeerId`] resolves with one table load and one bounds check, which is
//! also what makes a peer outside the range [`HfcError::UnknownPeer`].
//!
//! A box holds only what differs from box to box — the bytes its cache
//! holds and its in-flight streams ([`SetTopBox`], 40 bytes). Its id is its
//! position, and the storage contribution and stream-slot limit are one
//! `TopologyConfig`'s, so the plant keeps those once and every box
//! operation ([`store`](Plant::store), [`delete`](Plant::delete),
//! [`try_start_stream`](Plant::try_start_stream),
//! [`start_stream_unchecked`](Plant::start_stream_unchecked)) goes through
//! it. Which segment sits on which box is not the plant's to know: the
//! neighborhood's index server places every copy and keeps the one record
//! of where, and the box keeps the bytes those copies occupy, so the two
//! are checked against each other rather than kept twice.

use std::ops::Range;

use crate::coax::CoaxNetwork;
use crate::error::HfcError;
use crate::ids::{NeighborhoodId, PeerId};
use crate::meter::RateMeter;
use crate::stb::SetTopBox;
use crate::topology::Topology;
use crate::units::{DataSize, SimTime};

/// The mutable physical state of neighborhoods `a..b` (see the module
/// docs).
///
/// # Examples
///
/// ```
/// use cablevod_hfc::plant::Plant;
/// use cablevod_hfc::topology::{Topology, TopologyConfig};
/// use cablevod_hfc::ids::NeighborhoodId;
/// use cablevod_hfc::units::{DataSize, SimTime};
///
/// let topo = Topology::build(TopologyConfig::new(3_000, 1_000))?;
/// let mut shard = Plant::over(&topo, 1..2)?;
/// let member = topo.neighborhood(NeighborhoodId::new(1))?.members()[0];
/// let stranger = topo.neighborhood(NeighborhoodId::new(2))?.members()[0];
/// let segment = DataSize::from_bytes(300_000_000);
/// assert_eq!(shard.store(member, segment)?, segment);
/// assert!(shard.store(stranger, segment).is_err());
///
/// // Two streams fit on the paper's box; a third is refused until one ends.
/// let (t0, t1) = (SimTime::EPOCH, SimTime::from_secs(300));
/// assert!(shard.try_start_stream(member, t0, t1)?);
/// assert!(shard.try_start_stream(member, t0, t1)?);
/// assert!(!shard.try_start_stream(member, t0, t1)?);
/// assert!(shard.try_start_stream(member, t1, SimTime::from_secs(600))?);
/// # Ok::<(), cablevod_hfc::error::HfcError>(())
/// ```
#[derive(Debug)]
pub struct Plant<'t> {
    /// [`Topology::ranks`] of the topology this plant stands on.
    ranks: &'t [u32],
    /// Rank of `boxes[0]`: the first neighborhood times the neighborhood
    /// size.
    first_rank: u32,
    boxes: Vec<SetTopBox>,
    /// Every box's storage contribution.
    box_capacity: DataSize,
    /// Every box's concurrent-stream limit.
    slot_limit: u8,
    /// The first neighborhood of the range; `coax[i]` is neighborhood
    /// `first + i`'s.
    first: usize,
    coax: Vec<CoaxNetwork>,
    server: RateMeter,
}

impl<'t> Plant<'t> {
    /// Builds fresh state for `neighborhoods` of `topo`: one box per member
    /// and one coax network per neighborhood, configured from
    /// [`Topology::config`], and an hourly central-server meter.
    ///
    /// # Errors
    ///
    /// Returns [`HfcError::UnknownNeighborhood`] for a range reaching past
    /// the topology's last neighborhood.
    pub fn over(topo: &'t Topology, neighborhoods: Range<usize>) -> Result<Self, HfcError> {
        let config = topo.config();
        let mut peers = 0;
        for n in neighborhoods.clone() {
            peers += topo.neighborhood(NeighborhoodId::new(n as u32))?.size();
        }
        Ok(Plant {
            ranks: topo.ranks(),
            first_rank: neighborhoods.start as u32 * config.neighborhood_size(),
            boxes: vec![SetTopBox::default(); peers],
            box_capacity: config.per_peer_storage(),
            slot_limit: config.stream_slots(),
            first: neighborhoods.start,
            coax: vec![CoaxNetwork::new(*config.coax_spec()); neighborhoods.len()],
            server: RateMeter::hourly(),
        })
    }

    /// The neighborhoods this plant covers.
    pub fn neighborhoods(&self) -> Range<usize> {
        self.first..self.first + self.coax.len()
    }

    /// Where `peer`'s box sits in `boxes` — past the end for a peer of
    /// another range (a rank below this one's wraps there too) or of no
    /// topology at all.
    fn slot(&self, peer: PeerId) -> usize {
        self.ranks.get(peer.index()).map_or(usize::MAX, |rank| {
            rank.wrapping_sub(self.first_rank) as usize
        })
    }

    /// Shared access to a set-top box.
    ///
    /// # Errors
    ///
    /// Returns [`HfcError::UnknownPeer`] for peers outside this plant's
    /// neighborhoods.
    pub fn stb(&self, peer: PeerId) -> Result<&SetTopBox, HfcError> {
        self.boxes
            .get(self.slot(peer))
            .ok_or(HfcError::UnknownPeer { peer })
    }

    fn stb_mut(&mut self, peer: PeerId) -> Result<&mut SetTopBox, HfcError> {
        let at = self.slot(peer);
        self.boxes.get_mut(at).ok_or(HfcError::UnknownPeer { peer })
    }

    /// Stores `size` more bytes on `peer`'s box and returns the bytes it
    /// now holds.
    ///
    /// # Errors
    ///
    /// [`HfcError::StorageFull`] if they do not fit, and
    /// [`HfcError::UnknownPeer`] for a peer outside this plant.
    pub fn store(&mut self, peer: PeerId, size: DataSize) -> Result<DataSize, HfcError> {
        let capacity = self.box_capacity;
        self.stb_mut(peer)?.store(peer, size, capacity)
    }

    /// Deletes `size` bytes from `peer`'s box (the caller tracks what is
    /// where — the index server knows every placement it made) and
    /// returns the bytes it still holds.
    ///
    /// # Errors
    ///
    /// [`HfcError::OverRelease`] if the box holds fewer than `size` bytes,
    /// and [`HfcError::UnknownPeer`] for a peer outside this plant.
    pub fn delete(&mut self, peer: PeerId, size: DataSize) -> Result<DataSize, HfcError> {
        self.stb_mut(peer)?.delete(peer, size)
    }

    /// Attempts to occupy one of `peer`'s stream slots from `now` until
    /// `end`; `false` when all are busy (§V-C: "The cache will trigger a
    /// miss if a segment is requested from a peer that has more than two
    /// active streams in either direction").
    ///
    /// # Errors
    ///
    /// [`HfcError::UnknownPeer`] for a peer outside this plant.
    #[inline]
    pub fn try_start_stream(
        &mut self,
        peer: PeerId,
        now: SimTime,
        end: SimTime,
    ) -> Result<bool, HfcError> {
        let limit = self.slot_limit;
        Ok(self.stb_mut(peer)?.try_start_stream(now, end, limit))
    }

    /// Unconditionally occupies one of `peer`'s slots from `now` until
    /// `end` — the viewer's own playback, which is never blocked — and
    /// returns whether the box now runs more streams than its limit. A
    /// stream that is over as it starts (`end <= now`) occupies nothing.
    ///
    /// # Errors
    ///
    /// [`HfcError::UnknownPeer`] for a peer outside this plant.
    #[inline]
    pub fn start_stream_unchecked(
        &mut self,
        peer: PeerId,
        now: SimTime,
        end: SimTime,
    ) -> Result<bool, HfcError> {
        let limit = self.slot_limit;
        Ok(self.stb_mut(peer)?.start_stream_unchecked(now, end, limit))
    }

    /// Bytes cached across every box of the range.
    pub fn stored(&self) -> DataSize {
        self.boxes
            .iter()
            .fold(DataSize::ZERO, |sum, stb| sum + stb.used())
    }

    /// A cache miss: the central server streams `size` bytes over
    /// `[start, end)` (Fig 4). The headend's rebroadcast is recorded
    /// separately, like any other segment's
    /// ([`record_broadcast`](Self::record_broadcast)).
    #[inline]
    pub fn record_miss(&mut self, start: SimTime, end: SimTime, size: DataSize) {
        self.server.record(start, end, size);
    }

    /// The broadcast every segment makes over `nbhd`'s coax, whoever
    /// serves it (§VI-B).
    ///
    /// # Errors
    ///
    /// Returns [`HfcError::UnknownNeighborhood`] for a neighborhood outside
    /// this plant.
    #[inline]
    pub fn record_broadcast(
        &mut self,
        nbhd: NeighborhoodId,
        start: SimTime,
        end: SimTime,
        size: DataSize,
    ) -> Result<(), HfcError> {
        self.coax
            .get_mut(nbhd.index().wrapping_sub(self.first))
            .ok_or(HfcError::UnknownNeighborhood { neighborhood: nbhd })?
            .record_broadcast(start, end, size);
        Ok(())
    }

    /// Ends the run: drops the boxes and keeps what a report reads — the
    /// coax networks in neighborhood order, and what the central server
    /// streamed to these neighborhoods ("the amount of VoD video data that
    /// must be served by centralized media servers", §V: the evaluation's
    /// primary metric).
    pub fn into_meters(self) -> (Vec<CoaxNetwork>, RateMeter) {
        (self.coax, self.server)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::TopologyConfig;
    use crate::units::{BitRate, SimDuration};
    use std::collections::HashSet;

    /// 2 500 users in neighborhoods of 1 000: the last one is short.
    fn topo() -> Topology {
        Topology::build(TopologyConfig::new(2_500, 1_000)).expect("valid config")
    }

    fn members(topo: &Topology, n: usize) -> &[PeerId] {
        topo.neighborhood(NeighborhoodId::new(n as u32))
            .expect("exists")
            .members()
    }

    #[test]
    fn a_range_resolves_its_members_and_nobody_else() {
        let topo = topo();
        let byte = DataSize::from_bytes(1);
        for range in [0..1, 1..2, 2..3, 0..2, 1..3, 0..3] {
            let mut plant = Plant::over(&topo, range.clone()).expect("in range");
            assert_eq!(plant.neighborhoods(), range);
            let mut seen = HashSet::new();
            for n in 0..3 {
                for &peer in members(&topo, n) {
                    if range.contains(&n) {
                        let stb = plant.stb(peer).expect("a member");
                        assert!(seen.insert(stb as *const SetTopBox), "a box of its own");
                        assert_eq!(plant.store(peer, byte), Ok(byte), "and it starts empty");
                    } else {
                        // The neighborhoods on either side included.
                        let unknown = Err(HfcError::UnknownPeer { peer });
                        assert_eq!(plant.stb(peer).map(|_| ()), unknown);
                        assert_eq!(plant.store(peer, byte).map(|_| ()), unknown);
                    }
                }
            }
            assert_eq!(seen.len(), plant.boxes.len());
            assert_eq!(plant.stored(), byte * seen.len() as u64);
        }
    }

    /// A box's position in the whole plant is its position in its shard,
    /// behind every box of the shards before it.
    #[test]
    fn the_whole_plant_is_its_shards_end_to_end() {
        let topo = topo();
        let whole = Plant::over(&topo, 0..3).expect("whole plant");
        let mut before = 0;
        for n in 0..3 {
            let shard = Plant::over(&topo, n..n + 1).expect("shard");
            for &peer in members(&topo, n) {
                assert_eq!(whole.slot(peer), before + shard.slot(peer));
            }
            before += shard.boxes.len();
        }
        assert_eq!(before, 2_500);
        assert_eq!(whole.boxes.len(), 2_500);
    }

    #[test]
    fn boxes_and_wires_take_the_topology_config() {
        let config = TopologyConfig::new(100, 50)
            .with_per_peer_storage(DataSize::from_gigabytes(3))
            .with_stream_slots(1);
        let topo = Topology::build(config).expect("valid config");
        let mut plant = Plant::over(&topo, 0..2).expect("whole plant");
        let peer = PeerId::new(7);
        assert_eq!(plant.box_capacity, DataSize::from_gigabytes(3));
        assert_eq!(plant.slot_limit, 1);
        let (t0, t1) = (SimTime::EPOCH, SimTime::from_secs(10));
        assert_eq!(plant.try_start_stream(peer, t0, t1), Ok(true));
        assert_eq!(plant.try_start_stream(peer, t0, t1), Ok(false));
        assert_eq!(plant.start_stream_unchecked(peer, t0, t1), Ok(true));
        plant
            .store(peer, DataSize::from_gigabytes(3))
            .expect("fits");
        assert!(matches!(
            plant.store(peer, DataSize::from_bytes(1)),
            Err(HfcError::StorageFull { .. })
        ));
        assert_eq!(
            plant.delete(peer, DataSize::from_gigabytes(3)),
            Ok(DataSize::ZERO)
        );
        assert!(matches!(
            plant.delete(peer, DataSize::from_bytes(1)),
            Err(HfcError::OverRelease { .. })
        ));
        assert_eq!(plant.coax[1].spec(), topo.config().coax_spec());
    }

    #[test]
    fn bytes_land_on_the_named_wire_and_the_one_server() {
        let topo = topo();
        let mut plant = Plant::over(&topo, 1..3).expect("in range");
        let t = SimTime::from_days_hours(0, 19);
        let end = t + SimDuration::from_minutes(5);
        let seg = BitRate::STREAM_MPEG2_SD * SimDuration::from_minutes(5);
        plant.record_miss(t, end, seg);
        plant
            .record_broadcast(NeighborhoodId::new(2), t, end, seg)
            .expect("in range");
        let (coax, server) = plant.into_meters();
        assert_eq!(server.total(), seg);
        assert!(server.peak_stats(0, 1).mean.as_bps() > 0);
        assert_eq!(coax.len(), 2);
        assert_eq!(coax[0].broadcasts(), 0);
        assert_eq!(coax[1].total(), seg);
    }

    #[test]
    fn unknown_ids_error() {
        let topo = topo();
        let mut plant = Plant::over(&topo, 0..3).expect("whole plant");
        let stranger = PeerId::new(9_999);
        assert!(plant.stb(stranger).is_err());
        assert!(plant.delete(stranger, DataSize::ZERO).is_err());
        assert!(plant
            .try_start_stream(stranger, SimTime::EPOCH, SimTime::EPOCH)
            .is_err());
        assert!(plant
            .record_broadcast(
                NeighborhoodId::new(3),
                SimTime::EPOCH,
                SimTime::EPOCH,
                DataSize::ZERO
            )
            .is_err());
        assert!(Plant::over(&topo, 2..4).is_err());
    }
}
