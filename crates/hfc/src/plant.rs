//! What a run changes: the set-top boxes, coax network and central-server
//! meter of one neighborhood.
//!
//! A [`Topology`] says who lives where and never changes; a [`Plant`]
//! built [`over`](Plant::over) it holds everything a run mutates for one
//! neighborhood (§IV-B keeps all such state per neighborhood). Every driver
//! of a run owns the plant of its one neighborhood, so every driver
//! accounts boxes and bytes identically, and the per-neighborhood server
//! meters fold back into the shared one with [`RateMeter::merge`].
//!
//! Boxes are kept in placement order (the peer's rank in the §V-B
//! permutation), so a neighborhood's boxes are contiguous and a global
//! [`PeerId`] resolves with one table load and one bounds check, which is
//! also what makes a peer of another neighborhood [`HfcError::UnknownPeer`].
//! Placement order is member order, so a box's position is its peer's
//! index in [`Neighborhood::members`](crate::topology::Neighborhood::members):
//! a caller that numbers the members the same way (the index server's
//! ledger does) reaches a box by [`position`](Plant::position) with no
//! table load at all — the `*_at` twins of the box operations.
//!
//! A box holds only what differs from box to box — the bytes its cache
//! holds and its in-flight streams ([`SetTopBox`], 32 bytes). Its id is its
//! position, and the storage contribution and stream-slot limit are one
//! `TopologyConfig`'s, so the plant keeps those once and every box
//! operation ([`store`](Plant::store), [`delete`](Plant::delete),
//! [`try_start_stream`](Plant::try_start_stream),
//! [`start_stream_unchecked`](Plant::start_stream_unchecked)) goes through
//! it. Which segment sits on which box is not the plant's to know: the
//! neighborhood's index server places every copy and keeps the one record
//! of where, and the box keeps the bytes those copies occupy, so the two
//! are checked against each other rather than kept twice.

use crate::coax::CoaxNetwork;
use crate::error::HfcError;
use crate::ids::{NeighborhoodId, PeerId};
use crate::meter::RateMeter;
use crate::stb::SetTopBox;
use crate::topology::Topology;
use crate::units::{DataSize, SimTime};

/// The mutable physical state of one neighborhood (see the module docs).
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
/// let mut plant = Plant::over(&topo, NeighborhoodId::new(1))?;
/// let member = topo.neighborhood(NeighborhoodId::new(1))?.members()[0];
/// let stranger = topo.neighborhood(NeighborhoodId::new(2))?.members()[0];
/// let segment = DataSize::from_bytes(300_000_000);
/// assert_eq!(plant.store(member, segment)?, segment);
/// assert!(plant.store(stranger, segment).is_err());
///
/// // Two streams fit on the paper's box; a third is refused until one ends.
/// let (t0, t1) = (SimTime::EPOCH, SimTime::from_secs(300));
/// assert!(plant.try_start_stream(member, t0, t1)?);
/// assert!(plant.try_start_stream(member, t0, t1)?);
/// assert!(!plant.try_start_stream(member, t0, t1)?);
/// assert!(plant.try_start_stream(member, t1, SimTime::from_secs(600))?);
/// # Ok::<(), cablevod_hfc::error::HfcError>(())
/// ```
#[derive(Debug)]
pub struct Plant<'t> {
    /// [`Topology::ranks`] of the topology this plant stands on.
    ranks: &'t [u32],
    /// The neighborhood's members: `members[i]` owns `boxes[i]`.
    members: &'t [PeerId],
    /// Rank of `boxes[0]`: the neighborhood's index times the
    /// neighborhood size.
    first_rank: u32,
    boxes: Vec<SetTopBox>,
    /// Every box's storage contribution.
    box_capacity: DataSize,
    /// Every box's concurrent-stream limit.
    slot_limit: u8,
    coax: CoaxNetwork,
    server: RateMeter,
}

impl<'t> Plant<'t> {
    /// Builds fresh state for `neighborhood` of `topo`: one box per
    /// member and its coax network, configured from [`Topology::config`],
    /// and an hourly central-server meter.
    ///
    /// # Errors
    ///
    /// Returns [`HfcError::UnknownNeighborhood`] for a neighborhood the
    /// topology does not have.
    pub fn over(topo: &'t Topology, neighborhood: NeighborhoodId) -> Result<Self, HfcError> {
        let config = topo.config();
        let members = topo.neighborhood(neighborhood)?.members();
        Ok(Plant {
            ranks: topo.ranks(),
            members,
            first_rank: neighborhood.value() * config.neighborhood_size(),
            boxes: vec![SetTopBox::default(); members.len()],
            box_capacity: config.per_peer_storage(),
            slot_limit: config.stream_slots(),
            coax: CoaxNetwork::new(*config.coax_spec()),
            server: RateMeter::hourly(),
        })
    }

    /// Where `peer`'s box sits in `boxes` — past the end for a peer of
    /// another neighborhood (a rank below this one's wraps there too) or
    /// of no topology at all.
    fn slot(&self, peer: PeerId) -> usize {
        self.ranks.get(peer.index()).map_or(usize::MAX, |rank| {
            rank.wrapping_sub(self.first_rank) as usize
        })
    }

    /// The position of `peer`'s box: its index among the neighborhood's
    /// members, or `None` for a peer of another neighborhood.
    pub fn position(&self, peer: PeerId) -> Option<u32> {
        let at = self.slot(peer);
        (at < self.boxes.len()).then_some(at as u32)
    }

    fn at(&self, peer: PeerId) -> Result<u32, HfcError> {
        self.position(peer).ok_or(HfcError::UnknownPeer { peer })
    }

    /// Shared access to a set-top box.
    ///
    /// # Errors
    ///
    /// Returns [`HfcError::UnknownPeer`] for peers outside this plant's
    /// neighborhood.
    pub fn stb(&self, peer: PeerId) -> Result<&SetTopBox, HfcError> {
        self.stb_at(self.at(peer)?)
    }

    /// Shared access to the box at `position` (see [`position`](Self::position)).
    ///
    /// # Errors
    ///
    /// [`HfcError::UnknownPosition`] past the last member.
    pub fn stb_at(&self, position: u32) -> Result<&SetTopBox, HfcError> {
        self.boxes
            .get(position as usize)
            .ok_or(HfcError::UnknownPosition { position })
    }

    /// The box at `position` and its peer.
    fn member_at(&mut self, position: u32) -> Result<(PeerId, &mut SetTopBox), HfcError> {
        match (
            self.members.get(position as usize),
            self.boxes.get_mut(position as usize),
        ) {
            (Some(&peer), Some(stb)) => Ok((peer, stb)),
            _ => Err(HfcError::UnknownPosition { position }),
        }
    }

    /// Stores `size` more bytes on `peer`'s box and returns the bytes it
    /// now holds.
    ///
    /// # Errors
    ///
    /// [`HfcError::StorageFull`] if they do not fit, and
    /// [`HfcError::UnknownPeer`] for a peer outside this plant.
    pub fn store(&mut self, peer: PeerId, size: DataSize) -> Result<DataSize, HfcError> {
        self.store_at(self.at(peer)?, size)
    }

    /// [`store`](Self::store) on the box at `position`.
    ///
    /// # Errors
    ///
    /// [`HfcError::StorageFull`] if the bytes do not fit, and
    /// [`HfcError::UnknownPosition`] past the last member.
    pub fn store_at(&mut self, position: u32, size: DataSize) -> Result<DataSize, HfcError> {
        let capacity = self.box_capacity;
        let (peer, stb) = self.member_at(position)?;
        stb.store(peer, size, capacity)
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
        self.delete_at(self.at(peer)?, size)
    }

    /// [`delete`](Self::delete) on the box at `position`.
    ///
    /// # Errors
    ///
    /// [`HfcError::OverRelease`] if the box holds fewer than `size` bytes,
    /// and [`HfcError::UnknownPosition`] past the last member.
    pub fn delete_at(&mut self, position: u32, size: DataSize) -> Result<DataSize, HfcError> {
        let (peer, stb) = self.member_at(position)?;
        stb.delete(peer, size)
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
        self.try_start_stream_at(self.at(peer)?, now, end)
    }

    /// [`try_start_stream`](Self::try_start_stream) on the box at
    /// `position`: a hit's one touch of the plant.
    ///
    /// # Errors
    ///
    /// [`HfcError::UnknownPosition`] past the last member.
    #[inline]
    pub fn try_start_stream_at(
        &mut self,
        position: u32,
        now: SimTime,
        end: SimTime,
    ) -> Result<bool, HfcError> {
        let limit = self.slot_limit;
        let stb = self
            .boxes
            .get_mut(position as usize)
            .ok_or(HfcError::UnknownPosition { position })?;
        Ok(stb.try_start_stream(now, end, limit))
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
        let at = self.at(peer)?;
        Ok(self.boxes[at as usize].start_stream_unchecked(now, end, limit))
    }

    /// Bytes cached across every box of the neighborhood.
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

    /// The broadcast every segment makes over the neighborhood's coax,
    /// whoever serves it (§VI-B).
    #[inline]
    pub fn record_broadcast(&mut self, start: SimTime, end: SimTime, size: DataSize) {
        self.coax.record_broadcast(start, end, size);
    }

    /// Ends the run: drops the boxes and keeps what a report reads — the
    /// coax network, and what the central server streamed to the
    /// neighborhood ("the amount of VoD video data that must be served by
    /// centralized media servers", §V: the evaluation's primary metric).
    pub fn into_meters(self) -> (CoaxNetwork, RateMeter) {
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

    /// Each neighborhood's plant — the short last one included — has a
    /// box of its own for every member, numbered from zero, and knows no
    /// peer of the neighborhoods on either side.
    #[test]
    fn a_plant_resolves_its_members_and_nobody_else() {
        let topo = topo();
        let byte = DataSize::from_bytes(1);
        for n in 0..3 {
            let mut plant = Plant::over(&topo, NeighborhoodId::new(n as u32)).expect("exists");
            let mut seen = HashSet::new();
            for other in 0..3 {
                for &peer in members(&topo, other) {
                    if other == n {
                        assert!(plant.slot(peer) < plant.boxes.len(), "numbered from zero");
                        let stb = plant.stb(peer).expect("a member");
                        assert!(seen.insert(stb as *const SetTopBox), "a box of its own");
                        assert_eq!(plant.store(peer, byte), Ok(byte), "and it starts empty");
                    } else {
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

    #[test]
    fn boxes_and_wires_take_the_topology_config() {
        let config = TopologyConfig::new(100, 50)
            .with_per_peer_storage(DataSize::from_gigabytes(3))
            .with_stream_slots(1);
        let topo = Topology::build(config).expect("valid config");
        let nbhd = NeighborhoodId::new(1);
        let mut plant = Plant::over(&topo, nbhd).expect("exists");
        let peer = topo.neighborhood(nbhd).expect("exists").members()[7];
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
        assert_eq!(plant.coax.spec(), topo.config().coax_spec());
    }

    #[test]
    fn bytes_land_on_the_named_wire_and_the_one_server() {
        let topo = topo();
        let mut plant = Plant::over(&topo, NeighborhoodId::new(2)).expect("exists");
        let t = SimTime::from_days_hours(0, 19);
        let end = t + SimDuration::from_minutes(5);
        let seg = BitRate::STREAM_MPEG2_SD * SimDuration::from_minutes(5);
        plant.record_miss(t, end, seg);
        plant.record_broadcast(t, end, seg);
        plant.record_broadcast(t, end, seg);
        let (coax, server) = plant.into_meters();
        assert_eq!(server.total(), seg);
        assert!(server.peak_stats(0, 1).mean.as_bps() > 0);
        assert_eq!(coax.broadcasts(), 2);
        assert_eq!(coax.total(), seg * 2);
    }

    /// A box's position is its peer's index among the members, and the
    /// `*_at` twins reach the box the peer names.
    #[test]
    fn a_members_index_is_its_box_position() {
        let topo = topo();
        let byte = DataSize::from_bytes(1);
        let mut plant = Plant::over(&topo, NeighborhoodId::new(1)).expect("exists");
        let (t0, t1) = (SimTime::EPOCH, SimTime::from_secs(60));
        for (i, &peer) in members(&topo, 1).iter().enumerate() {
            let at = i as u32;
            assert_eq!(plant.position(peer), Some(at));
            assert_eq!(plant.store_at(at, byte), Ok(byte));
            assert_eq!(plant.stb(peer).map(SetTopBox::used), Ok(byte));
            assert_eq!(plant.try_start_stream_at(at, t0, t1), Ok(true));
            assert_eq!(plant.try_start_stream(peer, t0, t1), Ok(true));
            assert_eq!(
                plant.try_start_stream_at(at, t0, t1),
                Ok(false),
                "two slots"
            );
            assert_eq!(plant.delete_at(at, byte), Ok(DataSize::ZERO));
        }
        assert_eq!(plant.position(members(&topo, 0)[0]), None);
        let past = plant.boxes.len() as u32;
        let unknown = Err(HfcError::UnknownPosition { position: past });
        assert_eq!(plant.stb_at(past).map(|_| ()), unknown);
        assert_eq!(plant.store_at(past, byte).map(|_| ()), unknown);
        assert_eq!(plant.delete_at(past, byte).map(|_| ()), unknown);
        assert_eq!(plant.try_start_stream_at(past, t0, t1).map(|_| ()), unknown);
    }

    #[test]
    fn unknown_ids_error() {
        let topo = topo();
        let mut plant = Plant::over(&topo, NeighborhoodId::new(0)).expect("exists");
        let stranger = PeerId::new(9_999);
        assert!(plant.stb(stranger).is_err());
        assert!(plant.delete(stranger, DataSize::ZERO).is_err());
        assert!(plant
            .try_start_stream(stranger, SimTime::EPOCH, SimTime::EPOCH)
            .is_err());
        assert!(Plant::over(&topo, NeighborhoodId::new(3)).is_err());
    }
}
