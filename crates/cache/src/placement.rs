//! Segment placement across neighborhood peers.
//!
//! §IV-B.1: "Unlike many structured peer-to-peer systems, placement is not
//! probabilistic. Instead, the index server places data to balance load,
//! and keeps track of where each program is located."
//!
//! Storage is managed in fixed-size **slots** (one nominal segment per
//! slot), so the ledger's arithmetic matches the strategies' capacity
//! accounting exactly. The paper's balanced policy is the default; random
//! and first-fit exist for the placement ablation.
//!
//! # The balanced structure
//!
//! Balanced placement takes the peer with the most free slots, the lowest
//! ledger index on ties. The ledger keeps one bit-set of peer indexes per
//! free-slot count (`FreeBuckets`): a peer with `f > 0` free slots has
//! exactly one bit, in bucket `f`, and a full peer has none. Placing is
//! "the first set bit of the highest non-empty bucket", and both placing
//! and releasing move that one bit to the neighbouring bucket. Every bit
//! is the truth about its peer at every moment, so there is nothing to
//! validate when it is read and nothing superseded to skip over or
//! collect: the bookkeeping is `peers × (largest initial slot count)` bits,
//! allocated once, however long the run and however hard it churns. A
//! descending `top` hint remembers the highest bucket that may be
//! non-empty; a release raises it, a place walks it down past empty
//! buckets.
//!
//! Peers are addressed by their **ledger index**, their position in the
//! member list the ledger was built from — the neighborhood's member
//! list, so a ledger index is a member position: [`SlotLedger::place`]
//! hands indexes out, [`SlotLedger::release`] takes them back and
//! [`SlotLedger::peer`] names the peer, and nothing hashes a peer id. The
//! index server records each placed copy as the ledger index it was given,
//! and that record is the only one of which segment sits on which peer:
//! the boxes keep the bytes, and [`SlotLedger::placed`] is what their
//! bytes are checked against.

use rand::rngs::StdRng;
use rand::Rng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

use cablevod_hfc::ids::{PeerId, ProgramId};

use crate::error::CacheError;

/// How the index server chooses peers for new segments.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum PlacementPolicy {
    /// Most-free-slots-first — the paper's load-balancing placement.
    #[default]
    Balanced,
    /// Uniformly random among peers with free slots (ablation A4).
    Random {
        /// RNG seed.
        seed: u64,
    },
    /// Lowest-indexed peer with a free slot (ablation A4) — deliberately
    /// concentrates load to show why balancing matters under the 2-stream
    /// limit.
    FirstFit,
}

/// The balanced policy's order: one bit-set of ledger indexes per free-slot
/// count (see the module docs). Empty — no buckets at all — under the
/// other policies.
#[derive(Debug)]
struct FreeBuckets {
    /// Words per bucket: enough bits for every peer.
    words: usize,
    /// Bucket `f` (for `f >= 1`) is `bits[(f - 1) * words..][..words]`.
    bits: Vec<u64>,
    /// No bucket above `top` holds a bit.
    top: u32,
}

impl FreeBuckets {
    fn new(free: &[u32]) -> Self {
        let words = free.len().div_ceil(64);
        let deepest = free.iter().copied().max().unwrap_or(0);
        let mut buckets = FreeBuckets {
            words,
            bits: vec![0; words * deepest as usize],
            top: 0,
        };
        for (idx, &f) in free.iter().enumerate() {
            buckets.set(f, idx);
        }
        buckets
    }

    /// Files peer `idx` under `f` free slots (nowhere when it has none).
    fn set(&mut self, f: u32, idx: usize) {
        if f > 0 {
            self.bits[(f as usize - 1) * self.words + idx / 64] |= 1 << (idx % 64);
            self.top = self.top.max(f);
        }
    }

    /// Moves peer `idx`, filed under `from` free slots, to bucket `to`.
    fn refile(&mut self, idx: usize, from: u32, to: u32) {
        if from > 0 {
            self.bits[(from as usize - 1) * self.words + idx / 64] &= !(1 << (idx % 64));
        }
        self.set(to, idx);
    }

    /// The lowest-indexed peer among those with the most free slots. Some
    /// peer must have a free slot.
    fn most_free(&mut self) -> usize {
        loop {
            assert!(self.top > 0, "a peer with a free slot is filed");
            let bucket = &self.bits[(self.top as usize - 1) * self.words..][..self.words];
            if let Some(word) = bucket.iter().position(|&w| w != 0) {
                return word * 64 + bucket[word].trailing_zeros() as usize;
            }
            self.top -= 1;
        }
    }
}

/// Tracks free storage slots for every peer of one neighborhood and picks
/// peers for new segments.
#[derive(Debug)]
pub struct SlotLedger {
    peers: Vec<PeerId>,
    free: Vec<u32>,
    /// Original slot count per peer (the release upper bound).
    initial: Vec<u32>,
    total_free: u64,
    total_slots: u64,
    policy: PlacementPolicy,
    buckets: FreeBuckets,
    rng: StdRng,
}

impl SlotLedger {
    /// Creates a ledger from `(peer, slots)` pairs; a peer's position in
    /// `members` is its ledger index.
    ///
    /// # Panics
    ///
    /// Panics if a peer appears twice.
    pub fn new(members: impl IntoIterator<Item = (PeerId, u32)>, policy: PlacementPolicy) -> Self {
        let (peers, free): (Vec<PeerId>, Vec<u32>) = members.into_iter().unzip();
        let mut sorted = peers.clone();
        sorted.sort_unstable();
        if let Some(twice) = sorted.windows(2).find(|w| w[0] == w[1]) {
            panic!("peer {} listed twice in ledger", twice[0]);
        }
        let total_free: u64 = free.iter().map(|&f| u64::from(f)).sum();
        let (buckets, seed) = match policy {
            PlacementPolicy::Balanced => (FreeBuckets::new(&free), 0),
            PlacementPolicy::Random { seed } => (FreeBuckets::new(&[]), seed),
            PlacementPolicy::FirstFit => (FreeBuckets::new(&[]), 0),
        };
        SlotLedger {
            peers,
            initial: free.clone(),
            free,
            total_free,
            total_slots: total_free,
            policy,
            buckets,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// Total slots across all peers.
    pub fn total_slots(&self) -> u64 {
        self.total_slots
    }

    /// Slots currently free.
    pub fn total_free(&self) -> u64 {
        self.total_free
    }

    /// Number of member peers.
    pub fn peer_count(&self) -> usize {
        self.peers.len()
    }

    /// The peer at ledger index `index`.
    ///
    /// # Panics
    ///
    /// Panics for an index [`place`](Self::place) never handed out.
    pub fn peer(&self, index: u32) -> PeerId {
        self.peers[index as usize]
    }

    /// Slots placed on the peer at ledger index `index` and not yet
    /// released.
    ///
    /// # Panics
    ///
    /// Panics for an index [`place`](Self::place) never handed out.
    pub fn placed(&self, index: u32) -> u32 {
        let idx = index as usize;
        self.initial[idx] - self.free[idx]
    }

    /// Picks `count` slots for the segments of `program` (a peer may host
    /// several segments of one program) and hands the chosen peers' ledger
    /// indexes to `placed`, one per segment, in segment order.
    ///
    /// # Errors
    ///
    /// Returns [`CacheError::PlacementOverflow`], with nothing placed, if
    /// fewer than `count` slots are free — callers uphold the strategy
    /// capacity invariant, so this indicates a bug.
    pub fn place(
        &mut self,
        program: ProgramId,
        count: u16,
        mut placed: impl FnMut(u32),
    ) -> Result<(), CacheError> {
        if u64::from(count) > self.total_free {
            return Err(CacheError::PlacementOverflow {
                program,
                requested: u32::from(count),
                free: self.total_free,
            });
        }
        for _ in 0..count {
            let idx = match self.policy {
                PlacementPolicy::Balanced => {
                    let idx = self.buckets.most_free();
                    self.buckets.refile(idx, self.free[idx], self.free[idx] - 1);
                    idx
                }
                PlacementPolicy::Random { .. } => self.pick_random(),
                PlacementPolicy::FirstFit => self.pick_first_fit(),
            };
            self.free[idx] -= 1;
            self.total_free -= 1;
            placed(idx as u32);
        }
        Ok(())
    }

    /// Returns one slot on the peer at ledger index `index` to the free
    /// pool.
    ///
    /// # Errors
    ///
    /// Returns [`CacheError::InconsistentState`] if the peer has no
    /// outstanding slot, or the index names no peer of this ledger.
    pub fn release(&mut self, index: u32) -> Result<(), CacheError> {
        let idx = index as usize;
        let Some(&free) = self.free.get(idx) else {
            return Err(CacheError::InconsistentState {
                reason: format!("release on ledger index {index}, which names no peer"),
            });
        };
        if free >= self.initial[idx] {
            return Err(CacheError::InconsistentState {
                reason: format!("release of unplaced slot on {}", self.peers[idx]),
            });
        }
        if matches!(self.policy, PlacementPolicy::Balanced) {
            self.buckets.refile(idx, free, free + 1);
        }
        self.free[idx] += 1;
        self.total_free += 1;
        Ok(())
    }

    /// Heap bytes held, from capacities.
    #[cfg(test)]
    pub(crate) fn heap_bytes(&self) -> usize {
        let SlotLedger {
            peers,
            free,
            initial,
            total_free: _,
            total_slots: _,
            policy: _,
            buckets,
            rng: _,
        } = self;
        peers.capacity() * std::mem::size_of::<PeerId>()
            + (free.capacity() + initial.capacity()) * std::mem::size_of::<u32>()
            + buckets.bits.capacity() * std::mem::size_of::<u64>()
    }

    /// Words of balanced-order bookkeeping held — fixed at construction.
    #[cfg(test)]
    fn bookkeeping_len(&self) -> usize {
        self.buckets.bits.len()
    }

    fn pick_random(&mut self) -> usize {
        // A few random probes, then a linear scan from a random origin so
        // nearly-full neighborhoods stay O(n) worst-case.
        for _ in 0..16 {
            let idx = self.rng.random_range(0..self.peers.len());
            if self.free[idx] > 0 {
                return idx;
            }
        }
        let start = self.rng.random_range(0..self.peers.len());
        for off in 0..self.peers.len() {
            let idx = (start + off) % self.peers.len();
            if self.free[idx] > 0 {
                return idx;
            }
        }
        unreachable!("place() checked total_free > 0")
    }

    fn pick_first_fit(&self) -> usize {
        self.free
            .iter()
            .position(|&f| f > 0)
            .expect("place() checked total_free > 0")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn peers(n: u32, slots: u32) -> Vec<(PeerId, u32)> {
        (0..n).map(|i| (PeerId::new(i), slots)).collect()
    }

    fn prog() -> ProgramId {
        ProgramId::new(0)
    }

    /// Places `count` slots and names the chosen peers.
    fn place(ledger: &mut SlotLedger, count: u16) -> Result<Vec<PeerId>, CacheError> {
        let mut out = Vec::new();
        ledger.place(prog(), count, |idx| out.push(idx))?;
        Ok(out.into_iter().map(|idx| ledger.peer(idx)).collect())
    }

    /// The ledger index of `peer`: its position in the member list.
    fn index_of(ledger: &SlotLedger, peer: PeerId) -> Option<u32> {
        (0..ledger.peer_count() as u32).find(|&idx| ledger.peer(idx) == peer)
    }

    /// Releases one slot on `peer`, a member, found by id.
    fn release(ledger: &mut SlotLedger, peer: PeerId) -> Result<(), CacheError> {
        ledger.release(index_of(ledger, peer).expect("a member"))
    }

    #[test]
    fn balanced_spreads_across_peers() {
        let mut ledger = SlotLedger::new(peers(10, 4), PlacementPolicy::Balanced);
        let placed = place(&mut ledger, 10).expect("fits");
        // Ten segments over ten equally-free peers: every peer gets one.
        let mut unique: Vec<_> = placed.iter().map(|p| p.value()).collect();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(
            unique.len(),
            10,
            "balanced placement must spread: {placed:?}"
        );
        assert_eq!(ledger.total_free(), 30);
    }

    #[test]
    fn balanced_prefers_emptier_peers() {
        let mut ledger = SlotLedger::new(
            vec![(PeerId::new(0), 1), (PeerId::new(1), 5)],
            PlacementPolicy::Balanced,
        );
        let placed = place(&mut ledger, 3).expect("fits");
        assert_eq!(
            placed.iter().filter(|p| p.value() == 1).count(),
            3,
            "peer 1 has far more free slots: {placed:?}"
        );
    }

    #[test]
    fn first_fit_concentrates() {
        let mut ledger = SlotLedger::new(peers(5, 4), PlacementPolicy::FirstFit);
        let placed = place(&mut ledger, 6).expect("fits");
        assert_eq!(placed.iter().filter(|p| p.value() == 0).count(), 4);
        assert_eq!(placed.iter().filter(|p| p.value() == 1).count(), 2);
    }

    #[test]
    fn random_uses_only_free_peers() {
        let mut ledger = SlotLedger::new(peers(4, 2), PlacementPolicy::Random { seed: 42 });
        let placed = place(&mut ledger, 8).expect("fits exactly");
        assert_eq!(ledger.total_free(), 0);
        let mut counts = [0u32; 4];
        for p in placed {
            counts[p.index()] += 1;
        }
        assert_eq!(counts, [2, 2, 2, 2], "exact fill visits every slot");
    }

    #[test]
    fn overflow_is_reported_not_partial() {
        let mut ledger = SlotLedger::new(peers(2, 2), PlacementPolicy::Balanced);
        let err = place(&mut ledger, 5).unwrap_err();
        assert!(matches!(
            err,
            CacheError::PlacementOverflow {
                requested: 5,
                free: 4,
                ..
            }
        ));
        // Nothing was consumed.
        assert_eq!(ledger.total_free(), 4);
    }

    #[test]
    fn release_round_trips() {
        let mut ledger = SlotLedger::new(peers(2, 2), PlacementPolicy::Balanced);
        let placed = place(&mut ledger, 4).expect("fits");
        for p in placed {
            release(&mut ledger, p).expect("placed slot releases");
        }
        assert_eq!(ledger.total_free(), 4);
        // Over-release is caught.
        assert!(matches!(
            release(&mut ledger, PeerId::new(0)),
            Err(CacheError::InconsistentState { .. })
        ));
    }

    #[test]
    fn release_of_unknown_peer_errors() {
        let mut ledger = SlotLedger::new(peers(2, 2), PlacementPolicy::Balanced);
        assert_eq!(index_of(&ledger, PeerId::new(99)), None, "not a member");
        // An index no placement handed out names no peer.
        assert!(matches!(
            ledger.release(2),
            Err(CacheError::InconsistentState { .. })
        ));
        assert_eq!(ledger.total_free(), 4);
    }

    #[test]
    fn placed_counts_what_is_out_per_peer() {
        let mut ledger = SlotLedger::new(peers(3, 2), PlacementPolicy::Balanced);
        let mut out = Vec::new();
        ledger.place(prog(), 4, |idx| out.push(idx)).expect("fits");
        assert_eq!(out, [0, 1, 2, 0]);
        assert_eq!([0, 1, 2].map(|idx| ledger.placed(idx)), [2, 1, 1]);
        ledger.release(0).expect("placed");
        assert_eq!(ledger.placed(0), 1);
    }

    #[test]
    #[should_panic(expected = "listed twice")]
    fn a_peer_listed_twice_is_refused() {
        let members = [
            (PeerId::new(4), 1),
            (PeerId::new(2), 1),
            (PeerId::new(4), 3),
        ];
        SlotLedger::new(members, PlacementPolicy::Balanced);
    }

    #[test]
    fn placement_after_release_reuses_slots() {
        let mut ledger = SlotLedger::new(peers(3, 1), PlacementPolicy::Balanced);
        let placed = place(&mut ledger, 3).expect("fits");
        release(&mut ledger, placed[1]).expect("release");
        let again = place(&mut ledger, 1).expect("fits after release");
        assert_eq!(again[0], placed[1]);
    }

    /// The balanced bookkeeping is fixed for the run. The lazy heap this
    /// structure replaced gained one entry per released slot that it only
    /// dropped on reaching the top, and in a mostly empty cache they never
    /// did: it ended this loop about 1.6 M entries long.
    #[test]
    fn churn_leaves_the_balanced_bookkeeping_as_it_was() {
        let mut ledger = SlotLedger::new(peers(500, 33), PlacementPolicy::Balanced);
        let mut placed = Vec::new();
        let mut cycle = |ledger: &mut SlotLedger| {
            placed.clear();
            ledger
                .place(prog(), 8, |idx| placed.push(idx))
                .expect("fits");
            for &idx in &placed {
                ledger.release(idx).expect("placed");
            }
        };
        cycle(&mut ledger);
        let after_first = ledger.bookkeeping_len();
        for _ in 1..200_000 {
            cycle(&mut ledger);
        }
        assert_eq!(ledger.bookkeeping_len(), after_first);
        assert_eq!(ledger.total_free(), 500 * 33);
    }

    /// The sequences the ablation policies produced before the balanced
    /// structure changed, on one pinned case each: they share the ledger's
    /// `place` / `release` and must not have moved.
    #[test]
    fn ablation_policies_keep_their_sequences() {
        let members = || (0..7u32).map(|i| (PeerId::new(10 + i), 1 + i % 3));
        let run = |policy| {
            let mut ledger = SlotLedger::new(members(), policy);
            let mut seq = Vec::new();
            ledger.place(prog(), 6, |idx| seq.push(idx)).expect("fits");
            for &idx in &[seq[1], seq[4]] {
                ledger.release(idx).expect("placed");
            }
            ledger.place(prog(), 5, |idx| seq.push(idx)).expect("fits");
            seq
        };
        assert_eq!(
            run(PlacementPolicy::FirstFit),
            [0, 1, 1, 2, 2, 2, 1, 2, 3, 4, 4]
        );
        assert_eq!(
            run(PlacementPolicy::Random { seed: 7 }),
            [0, 6, 4, 5, 5, 5, 5, 4, 1, 1, 2]
        );
    }

    /// The balanced rule with nothing to make it fast: scan for the most
    /// free peer, the lowest index on ties.
    struct NaiveBalanced {
        free: Vec<u32>,
        initial: Vec<u32>,
    }

    impl NaiveBalanced {
        fn place(&mut self, count: u16) -> Result<Vec<u32>, String> {
            let total: u64 = self.free.iter().map(|&f| u64::from(f)).sum();
            if u64::from(count) > total {
                return Err(format!("overflow: requested {count}, free {total}"));
            }
            Ok((0..count)
                .map(|_| {
                    let most = *self.free.iter().max().expect("a peer");
                    let idx = self.free.iter().position(|&f| f == most).expect("found");
                    self.free[idx] -= 1;
                    idx as u32
                })
                .collect())
        }

        fn release(&mut self, idx: usize) -> Result<(), String> {
            match self.free.get(idx) {
                None => Err("unknown".into()),
                Some(&f) if f >= self.initial[idx] => Err("unplaced".into()),
                Some(_) => {
                    self.free[idx] += 1;
                    Ok(())
                }
            }
        }
    }

    /// What the model's error strings call the ledger's errors.
    fn error_kind(err: &CacheError) -> String {
        match err {
            CacheError::PlacementOverflow {
                requested, free, ..
            } => format!("overflow: requested {requested}, free {free}"),
            CacheError::InconsistentState { .. } => "unplaced".into(),
            other => format!("unexpected: {other}"),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

        /// Random place / release sequences over unequal initial slots
        /// (zero-slot peers included), with over-release, foreign peers and
        /// overflow: the ledger and the naive scan agree peer for peer and
        /// error for error.
        #[test]
        fn balanced_ledger_matches_the_naive_scan(
            slots in prop::collection::vec(0u32..6, 1..80),
            steps in prop::collection::vec((0u32..3, 0u16..40, 0usize..100), 1..300),
        ) {
            // Peer ids are sparse and out of ledger order on purpose.
            let id = |idx: usize| PeerId::new(1_000 - 3 * idx as u32);
            let mut ledger = SlotLedger::new(
                slots.iter().enumerate().map(|(i, &s)| (id(i), s)),
                PlacementPolicy::Balanced,
            );
            let mut model = NaiveBalanced { free: slots.clone(), initial: slots.clone() };
            let mut held: Vec<u32> = Vec::new();
            let mut out = Vec::new();
            for (step, &(kind, count, pick)) in steps.iter().enumerate() {
                match kind {
                    0 => {
                        out.clear();
                        let got = ledger.place(prog(), count, |idx| out.push(idx)).map(|()| out.clone());
                        prop_assert_eq!(
                            got.map_err(|e| error_kind(&e)), model.place(count),
                            "place at step {}", step
                        );
                        held.extend(&out);
                    }
                    // A slot some placement handed out, while any is held.
                    1 if !held.is_empty() => {
                        let idx = held.swap_remove(pick % held.len());
                        prop_assert!(ledger.release(idx).is_ok(), "release at step {}", step);
                        prop_assert!(model.release(idx as usize).is_ok());
                    }
                    // Any peer by id — placed on or not, member or not
                    // (`pick` reaches past the member list).
                    _ => {
                        let got = match index_of(&ledger, id(pick)) {
                            Some(idx) => ledger.release(idx).map_err(|e| error_kind(&e)),
                            None => Err("unknown".to_string()),
                        };
                        let released = got.is_ok();
                        prop_assert_eq!(got, model.release(pick), "release by id at step {}", step);
                        if released {
                            let at = held.iter().position(|&h| h as usize == pick);
                            held.swap_remove(at.expect("a released slot was held"));
                        }
                    }
                }
                prop_assert_eq!(
                    ledger.total_free(),
                    model.free.iter().map(|&f| u64::from(f)).sum::<u64>()
                );
                for (i, &f) in model.free.iter().enumerate() {
                    prop_assert_eq!(ledger.placed(i as u32), slots[i] - f, "placed on {} at step {}", i, step);
                }
            }
        }
    }
}
