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
///
/// let topo = Topology::build(TopologyConfig::new(3_000, 1_000))?;
/// let mut shard = Plant::over(&topo, 1..2)?;
/// let member = topo.neighborhood(NeighborhoodId::new(1))?.members()[0];
/// let stranger = topo.neighborhood(NeighborhoodId::new(2))?.members()[0];
/// assert_eq!(shard.stb_mut(member)?.id(), member);
/// assert!(shard.stb_mut(stranger).is_err());
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
        let nbhds = neighborhoods
            .clone()
            .map(|n| topo.neighborhood(NeighborhoodId::new(n as u32)))
            .collect::<Result<Vec<_>, _>>()?;
        let mut boxes = Vec::with_capacity(nbhds.iter().map(|nbhd| nbhd.size()).sum());
        for nbhd in nbhds {
            boxes.extend(
                nbhd.members()
                    .iter()
                    .map(|&p| SetTopBox::new(p, config.per_peer_storage(), config.stream_slots())),
            );
        }
        Ok(Plant {
            ranks: topo.ranks(),
            first_rank: neighborhoods.start as u32 * config.neighborhood_size(),
            boxes,
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

    /// Mutable access to a set-top box.
    ///
    /// # Errors
    ///
    /// Returns [`HfcError::UnknownPeer`] for peers outside this plant's
    /// neighborhoods.
    pub fn stb_mut(&mut self, peer: PeerId) -> Result<&mut SetTopBox, HfcError> {
        let at = self.slot(peer);
        self.boxes.get_mut(at).ok_or(HfcError::UnknownPeer { peer })
    }

    /// A cache miss: the central server streams `size` bytes over
    /// `[start, end)` (Fig 4). The headend's rebroadcast is recorded
    /// separately, like any other segment's
    /// ([`record_broadcast`](Self::record_broadcast)).
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
        for range in [0..1, 1..2, 2..3, 0..2, 1..3, 0..3] {
            let mut plant = Plant::over(&topo, range.clone()).expect("in range");
            assert_eq!(plant.neighborhoods(), range);
            let mut seen = HashSet::new();
            for n in 0..3 {
                for &peer in members(&topo, n) {
                    if range.contains(&n) {
                        let stb = plant.stb_mut(peer).expect("a member");
                        assert_eq!(stb.id(), peer);
                        assert!(seen.insert(stb as *const SetTopBox), "a box of its own");
                    } else {
                        // The neighborhoods on either side included.
                        assert_eq!(
                            plant.stb_mut(peer).unwrap_err(),
                            HfcError::UnknownPeer { peer }
                        );
                    }
                }
            }
            assert_eq!(seen.len(), plant.boxes.len());
        }
    }

    #[test]
    fn the_whole_plant_is_its_shards_end_to_end() {
        let topo = topo();
        let whole = Plant::over(&topo, 0..3).expect("whole plant");
        let shards: Vec<PeerId> = (0..3)
            .flat_map(|n| Plant::over(&topo, n..n + 1).expect("shard").boxes)
            .map(|stb| stb.id())
            .collect();
        let ids: Vec<PeerId> = whole.boxes.iter().map(SetTopBox::id).collect();
        assert_eq!(ids, shards);
        assert_eq!(ids.len(), 2_500);
    }

    #[test]
    fn boxes_and_wires_take_the_topology_config() {
        let config = TopologyConfig::new(100, 50)
            .with_per_peer_storage(DataSize::from_gigabytes(3))
            .with_stream_slots(1);
        let topo = Topology::build(config).expect("valid config");
        let mut plant = Plant::over(&topo, 0..2).expect("whole plant");
        let stb = plant.stb_mut(PeerId::new(7)).expect("a member");
        assert_eq!(stb.capacity(), DataSize::from_gigabytes(3));
        assert!(stb.try_start_stream(SimTime::EPOCH, SimTime::from_secs(10)));
        assert!(!stb.try_start_stream(SimTime::EPOCH, SimTime::from_secs(10)));
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
        assert!(plant.stb(PeerId::new(9_999)).is_err());
        assert!(plant.stb_mut(PeerId::new(9_999)).is_err());
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
