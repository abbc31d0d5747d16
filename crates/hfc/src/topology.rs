//! Who lives where: operator → headends → coax neighborhoods.
//!
//! [`Topology::build`] realizes §V-B of the paper:
//!
//! > "Upon initialization, the simulator associates users in the trace with
//! > subscribers in a neighborhood. The simulator places subscribers in
//! > neighborhoods uniformly at random. [...] Peer placement is the same for
//! > each execution of the simulation with the same neighborhood size
//! > parameter."
//!
//! Every subscriber owns one set-top box, so users, subscribers and peers
//! are in one-to-one correspondence; the types stay distinct to keep request
//! flow (users) separate from storage/serving (peers).
//!
//! A [`Topology`] is that membership and nothing else — a pure function of
//! `(subscribers, neighborhood size)`, immutable once built, a few bytes a
//! subscriber. What the boxes hold and the wires carry during a run is a
//! [`Plant`](crate::plant::Plant) built over it.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

use crate::coax::CoaxSpec;
use crate::error::HfcError;
use crate::ids::{NeighborhoodId, PeerId, UserId};
use crate::stb::{DEFAULT_CONTRIBUTION, DEFAULT_STREAM_SLOTS};
use crate::units::DataSize;

/// Seed of the one subscriber permutation every neighborhood size slices
/// into consecutive runs. A constant: §V-B fixes placement per size, and
/// neighborhood-major trace files are grouped under it.
const PLACEMENT_SEED: u64 = 0xCAB1E_CAB1E;

/// Parameters defining a cable plant.
///
/// Use [`TopologyConfig::new`] then the `with_` builder methods for the
/// optional knobs.
///
/// # Examples
///
/// ```
/// use cablevod_hfc::topology::{Topology, TopologyConfig};
/// use cablevod_hfc::units::DataSize;
///
/// let topo = Topology::build(
///     TopologyConfig::new(5_000, 1_000).with_per_peer_storage(DataSize::from_gigabytes(5)),
/// )?;
/// assert_eq!(topo.neighborhood_count(), 5);
/// # Ok::<(), cablevod_hfc::error::HfcError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TopologyConfig {
    subscribers: u32,
    neighborhood_size: u32,
    per_peer_storage: DataSize,
    stream_slots: u8,
    coax_spec: CoaxSpec,
}

impl TopologyConfig {
    /// Creates a configuration for `subscribers` users in neighborhoods of
    /// `neighborhood_size`, with the paper's default per-peer storage
    /// (10 GB), stream slots (2) and coax capacities.
    pub fn new(subscribers: u32, neighborhood_size: u32) -> Self {
        TopologyConfig {
            subscribers,
            neighborhood_size,
            per_peer_storage: DEFAULT_CONTRIBUTION,
            stream_slots: DEFAULT_STREAM_SLOTS,
            coax_spec: CoaxSpec::paper_default(),
        }
    }

    /// Sets the storage each peer contributes to the cooperative cache.
    #[must_use]
    pub fn with_per_peer_storage(mut self, storage: DataSize) -> Self {
        self.per_peer_storage = storage;
        self
    }

    /// Sets the per-STB concurrent stream limit.
    #[must_use]
    pub fn with_stream_slots(mut self, slots: u8) -> Self {
        self.stream_slots = slots;
        self
    }

    /// Sets the coax capacity envelope.
    #[must_use]
    pub fn with_coax_spec(mut self, spec: CoaxSpec) -> Self {
        self.coax_spec = spec;
        self
    }

    /// Number of subscribers.
    pub fn subscribers(&self) -> u32 {
        self.subscribers
    }

    /// Target neighborhood size.
    pub fn neighborhood_size(&self) -> u32 {
        self.neighborhood_size
    }

    /// Per-peer storage contribution.
    pub fn per_peer_storage(&self) -> DataSize {
        self.per_peer_storage
    }

    /// Concurrent stream limit per STB.
    pub fn stream_slots(&self) -> u8 {
        self.stream_slots
    }

    /// Coax capacity envelope.
    pub fn coax_spec(&self) -> &CoaxSpec {
        &self.coax_spec
    }
}

/// One coaxial neighborhood: a headend, its index server's domain, and the
/// set of member peers.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Neighborhood {
    id: NeighborhoodId,
    members: Vec<PeerId>,
}

impl Neighborhood {
    /// This neighborhood's id.
    pub fn id(&self) -> NeighborhoodId {
        self.id
    }

    /// The peers on this coax segment, in placement order.
    pub fn members(&self) -> &[PeerId] {
        &self.members
    }

    /// Number of member peers.
    pub fn size(&self) -> usize {
        self.members.len()
    }
}

/// Who lives where in the simulated cable plant (see the module docs):
/// the §V-B subscriber permutation, sliced into neighborhoods. Holds no
/// box, no meter and nothing mutable.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Topology {
    config: TopologyConfig,
    peer_neighborhood: Vec<NeighborhoodId>,
    /// Each peer's position in the subscriber permutation; neighborhood
    /// `n` is ranks `[n * size, (n + 1) * size)`, in member order.
    rank: Vec<u32>,
    neighborhoods: Vec<Neighborhood>,
}

impl Topology {
    /// Shuffles the subscribers uniformly at random into neighborhoods of
    /// the configured size.
    ///
    /// The shuffle depends on nothing but the subscriber count — every
    /// neighborhood size slices the *same* subscriber permutation into
    /// consecutive runs. Two simulations with the same neighborhood size see
    /// identical placements regardless of other parameters (§V-B), and
    /// partitions at different sizes agree on the underlying subscriber
    /// order: the users of any neighborhood at size `a` span at most
    /// `ceil(a/b) + 1` neighborhoods at size `b`, which is what lets one
    /// neighborhood-major trace file carry chunk indexes for several
    /// candidate sizes at once.
    ///
    /// # Errors
    ///
    /// Returns [`HfcError::InvalidTopology`] if `subscribers` or
    /// `neighborhood_size` is zero.
    pub fn build(config: TopologyConfig) -> Result<Self, HfcError> {
        if config.subscribers == 0 {
            return Err(HfcError::InvalidTopology {
                reason: "zero subscribers".into(),
            });
        }
        if config.neighborhood_size == 0 {
            return Err(HfcError::InvalidTopology {
                reason: "zero neighborhood size".into(),
            });
        }

        let mut order: Vec<u32> = (0..config.subscribers).collect();
        order.shuffle(&mut StdRng::seed_from_u64(PLACEMENT_SEED));

        let n = config.subscribers as usize;
        let mut rank = vec![0u32; n];
        for (at, &peer) in order.iter().enumerate() {
            rank[peer as usize] = at as u32;
        }
        let mut neighborhoods = Vec::new();
        let mut peer_neighborhood = vec![NeighborhoodId::new(0); n];
        for (idx, chunk) in order.chunks(config.neighborhood_size as usize).enumerate() {
            let id = NeighborhoodId::new(idx as u32);
            let members: Vec<PeerId> = chunk.iter().map(|&p| PeerId::new(p)).collect();
            for &m in &members {
                peer_neighborhood[m.index()] = id;
            }
            neighborhoods.push(Neighborhood { id, members });
        }

        Ok(Topology {
            config,
            peer_neighborhood,
            rank,
            neighborhoods,
        })
    }

    /// The configuration this plant was built from.
    pub fn config(&self) -> &TopologyConfig {
        &self.config
    }

    /// Number of subscribers (= peers).
    pub fn subscribers(&self) -> u32 {
        self.config.subscribers
    }

    /// Number of neighborhoods.
    pub fn neighborhood_count(&self) -> usize {
        self.neighborhoods.len()
    }

    /// The home peer (set-top box) of `user`.
    ///
    /// # Errors
    ///
    /// Returns [`HfcError::UnknownUser`] for out-of-range ids.
    pub fn home_peer(&self, user: UserId) -> Result<PeerId, HfcError> {
        if user.value() < self.config.subscribers {
            Ok(PeerId::new(user.value()))
        } else {
            Err(HfcError::UnknownUser { user })
        }
    }

    /// The neighborhood containing `peer`.
    ///
    /// # Errors
    ///
    /// Returns [`HfcError::UnknownPeer`] for out-of-range ids.
    pub fn neighborhood_of_peer(&self, peer: PeerId) -> Result<NeighborhoodId, HfcError> {
        self.peer_neighborhood
            .get(peer.index())
            .copied()
            .ok_or(HfcError::UnknownPeer { peer })
    }

    /// The neighborhood serving `user`.
    ///
    /// # Errors
    ///
    /// Returns [`HfcError::UnknownUser`] for out-of-range ids.
    pub fn neighborhood_of_user(&self, user: UserId) -> Result<NeighborhoodId, HfcError> {
        self.peer_neighborhood
            .get(user.index())
            .copied()
            .ok_or(HfcError::UnknownUser { user })
    }

    /// Shared access to a neighborhood.
    ///
    /// # Errors
    ///
    /// Returns [`HfcError::UnknownNeighborhood`] for out-of-range ids.
    pub fn neighborhood(&self, id: NeighborhoodId) -> Result<&Neighborhood, HfcError> {
        self.neighborhoods
            .get(id.index())
            .ok_or(HfcError::UnknownNeighborhood { neighborhood: id })
    }

    /// Iterates over all neighborhoods.
    pub fn neighborhoods(&self) -> impl Iterator<Item = &Neighborhood> {
        self.neighborhoods.iter()
    }

    /// Total cooperative-cache capacity contributed by a neighborhood's
    /// peers — "the index server understands the total cache size to be the
    /// sum of the storage space contributed for each peer" (§IV-B.3).
    ///
    /// # Errors
    ///
    /// Returns [`HfcError::UnknownNeighborhood`] for out-of-range ids.
    pub fn neighborhood_cache_capacity(&self, id: NeighborhoodId) -> Result<DataSize, HfcError> {
        let nbhd = self.neighborhood(id)?;
        Ok(self.config.per_peer_storage * nbhd.size() as u64)
    }

    /// The neighborhood of every peer, as a dense table indexed by
    /// `PeerId::index()` — the borrow-free counterpart of
    /// [`Topology::neighborhood_of_peer`].
    pub fn peer_neighborhoods(&self) -> &[NeighborhoodId] {
        &self.peer_neighborhood
    }

    /// Every peer's rank in the subscriber permutation, indexed by
    /// `PeerId::index()` (see the `rank` field): where a
    /// [`Plant`](crate::plant::Plant) keeps the peer's box.
    pub(crate) fn ranks(&self) -> &[u32] {
        &self.rank
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Topology {
        Topology::build(TopologyConfig::new(2_500, 1_000)).expect("valid config")
    }

    #[test]
    fn build_partitions_all_subscribers() {
        let topo = small();
        assert_eq!(topo.neighborhood_count(), 3);
        let total: usize = topo.neighborhoods().map(Neighborhood::size).sum();
        assert_eq!(total, 2_500);
        // Sizes are neighborhood_size except the remainder chunk.
        let mut sizes: Vec<usize> = topo.neighborhoods().map(Neighborhood::size).collect();
        sizes.sort_unstable();
        assert_eq!(sizes, vec![500, 1_000, 1_000]);
    }

    #[test]
    fn membership_tables_agree() {
        let topo = small();
        for nbhd in topo.neighborhoods() {
            for (pos, &peer) in nbhd.members().iter().enumerate() {
                assert_eq!(topo.neighborhood_of_peer(peer).unwrap(), nbhd.id());
                assert_eq!(
                    topo.ranks()[peer.index()] as usize,
                    nbhd.id().index() * 1_000 + pos
                );
            }
        }
    }

    /// `Topology` is membership only: no per-subscriber box or meter. The
    /// destructuring is exhaustive on purpose — a new field does not
    /// compile until it is accounted for here.
    #[test]
    fn membership_costs_a_few_bytes_a_subscriber() {
        fn heap<T>(v: &Vec<T>) -> usize {
            v.capacity() * std::mem::size_of::<T>()
        }
        let subscribers = 100_000;
        let topo = Topology::build(TopologyConfig::new(subscribers, 500)).unwrap();
        let Topology {
            config: _,
            peer_neighborhood,
            rank,
            neighborhoods,
        } = &topo;
        let members: usize = neighborhoods
            .iter()
            .map(|Neighborhood { id: _, members }| heap(members))
            .sum();
        let bytes = heap(peer_neighborhood) + heap(rank) + heap(neighborhoods) + members;
        assert!(
            bytes <= 16 * subscribers as usize,
            "{bytes} B for {subscribers} subscribers"
        );
    }

    #[test]
    fn placement_is_deterministic_per_neighborhood_size() {
        let a = Topology::build(TopologyConfig::new(2_000, 500)).unwrap();
        let b = Topology::build(
            TopologyConfig::new(2_000, 500).with_per_peer_storage(DataSize::from_gigabytes(1)),
        )
        .unwrap();
        // Same neighborhood size -> identical placement even though storage
        // differs (§V-B).
        for user in 0..2_000 {
            let u = UserId::new(user);
            assert_eq!(
                a.neighborhood_of_user(u).unwrap(),
                b.neighborhood_of_user(u).unwrap()
            );
        }
        // Different neighborhood size -> (almost surely) different placement.
        let c = Topology::build(TopologyConfig::new(2_000, 400)).unwrap();
        let moved = (0..2_000)
            .filter(|&i| {
                a.neighborhood_of_user(UserId::new(i)).unwrap()
                    != c.neighborhood_of_user(UserId::new(i)).unwrap()
            })
            .count();
        assert!(moved > 0);
    }

    #[test]
    fn placement_is_shuffled_not_contiguous() {
        let topo = small();
        // If placement were contiguous, users 0..1000 would share one
        // neighborhood; a uniform shuffle makes that astronomically
        // unlikely.
        let first = topo.neighborhood_of_user(UserId::new(0)).unwrap();
        let same = (0..1_000)
            .filter(|&i| topo.neighborhood_of_user(UserId::new(i)).unwrap() == first)
            .count();
        assert!(
            same < 600,
            "placement looks contiguous: {same} of first 1000 together"
        );
    }

    #[test]
    fn cache_capacity_sums_members() {
        let topo = Topology::build(
            TopologyConfig::new(1_000, 1_000).with_per_peer_storage(DataSize::from_gigabytes(10)),
        )
        .unwrap();
        let cap = topo
            .neighborhood_cache_capacity(NeighborhoodId::new(0))
            .unwrap();
        assert_eq!(cap, DataSize::from_terabytes(10));
    }

    #[test]
    fn invalid_configs_are_rejected() {
        assert!(matches!(
            Topology::build(TopologyConfig::new(0, 10)),
            Err(HfcError::InvalidTopology { .. })
        ));
        assert!(matches!(
            Topology::build(TopologyConfig::new(10, 0)),
            Err(HfcError::InvalidTopology { .. })
        ));
    }

    #[test]
    fn unknown_ids_error() {
        let topo = small();
        assert!(topo.home_peer(UserId::new(9_999)).is_err());
        assert!(topo.neighborhood_of_user(UserId::new(9_999)).is_err());
        assert!(topo.neighborhood(NeighborhoodId::new(99)).is_err());
    }
}
