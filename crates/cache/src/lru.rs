//! Least-recently-used strategy (§IV-B.2).
//!
//! > "This strategy maintains a queue of each file sorted by when it was
//! > last accessed. When a file is accessed, it is located in the queue,
//! > updated, and moved to the front. If it is not in the cache already, it
//! > is added immediately. When the cache is full the program at the end of
//! > the queue is discarded."
//!
//! The queue is a `RecencyList`: program ids are dense catalog indices,
//! so the links live in a table indexed by `ProgramId::index()` and an
//! access neither hashes nor walks a tree. The time-aware LRU
//! ([`crate::tlru`]) and all four of ARC's lists ([`crate::arc`]) keep
//! the same list.

use cablevod_hfc::ids::ProgramId;
use cablevod_hfc::units::SimTime;

use crate::strategy::{CacheOp, CacheStrategy};

/// "No program" in a [`RecencyList`] link.
const NIL: u32 = u32::MAX;

/// One program's place in a [`RecencyList`].
#[derive(Debug, Clone, Copy)]
struct Node {
    /// The next older program, [`NIL`] for the oldest.
    older: u32,
    /// The next newer program, [`NIL`] for the newest.
    newer: u32,
    cost: u32,
    linked: bool,
}

/// The programs of a cache in recency order, each with its slot cost: a
/// doubly linked list whose links are program indexes into one dense,
/// lazily grown table.
#[derive(Debug)]
pub(crate) struct RecencyList {
    nodes: Vec<Node>,
    oldest: u32,
    newest: u32,
}

impl RecencyList {
    pub(crate) fn new() -> Self {
        RecencyList {
            nodes: Vec::new(),
            oldest: NIL,
            newest: NIL,
        }
    }

    /// The slot cost `program` was listed with, if it is listed.
    pub(crate) fn cost_of(&self, program: ProgramId) -> Option<u32> {
        self.nodes
            .get(program.index())
            .filter(|node| node.linked)
            .map(|node| node.cost)
    }

    /// The least recently listed or touched program.
    pub(crate) fn oldest(&self) -> Option<ProgramId> {
        (self.oldest != NIL).then(|| ProgramId::new(self.oldest))
    }

    /// Lists `program`, which must not be listed, as the most recent.
    pub(crate) fn push_newest(&mut self, program: ProgramId, cost: u32) {
        let idx = program.index();
        if idx >= self.nodes.len() {
            let unlisted = Node {
                older: NIL,
                newer: NIL,
                cost: 0,
                linked: false,
            };
            self.nodes.resize(idx + 1, unlisted);
        }
        debug_assert!(!self.nodes[idx].linked, "{program} is listed already");
        self.nodes[idx] = Node {
            older: self.newest,
            newer: NIL,
            cost,
            linked: true,
        };
        match self.newest {
            NIL => self.oldest = program.value(),
            newest => self.nodes[newest as usize].newer = program.value(),
        }
        self.newest = program.value();
    }

    /// Takes `program`, which must be listed, off the list; returns its
    /// cost.
    pub(crate) fn unlink(&mut self, program: ProgramId) -> u32 {
        let node = &mut self.nodes[program.index()];
        debug_assert!(node.linked, "{program} is not listed");
        node.linked = false;
        let Node {
            older, newer, cost, ..
        } = *node;
        match older {
            NIL => self.oldest = newer,
            older => self.nodes[older as usize].newer = newer,
        }
        match newer {
            NIL => self.newest = older,
            newer => self.nodes[newer as usize].older = older,
        }
        cost
    }

    /// Takes the least recent program off the list; returns it and its
    /// cost.
    pub(crate) fn pop_oldest(&mut self) -> Option<(ProgramId, u32)> {
        let program = self.oldest()?;
        Some((program, self.unlink(program)))
    }

    /// Makes `program`, which must be listed, the most recent.
    pub(crate) fn touch(&mut self, program: ProgramId) {
        if self.newest != program.value() {
            let cost = self.unlink(program);
            self.push_newest(program, cost);
        }
    }
}

/// LRU over programs, capacity-accounted in slots.
#[derive(Debug)]
pub struct Lru {
    capacity: u64,
    used: u64,
    /// The cached programs, least recently accessed first.
    queue: RecencyList,
}

impl Lru {
    /// Creates an LRU cache with the given slot capacity.
    pub fn new(capacity_slots: u64) -> Self {
        Lru {
            capacity: capacity_slots,
            used: 0,
            queue: RecencyList::new(),
        }
    }
}

impl CacheStrategy for Lru {
    fn name(&self) -> &'static str {
        "LRU"
    }

    fn on_access(&mut self, program: ProgramId, cost: u32, _now: SimTime, ops: &mut Vec<CacheOp>) {
        if self.contains(program) {
            self.queue.touch(program);
            return;
        }
        if u64::from(cost) > self.capacity {
            return; // can never fit
        }
        while self.used + u64::from(cost) > self.capacity {
            let (victim, freed) = self.queue.pop_oldest().expect("evict from non-empty queue");
            self.used -= u64::from(freed);
            ops.push(CacheOp::Evict(victim));
        }
        self.queue.push_newest(program, cost);
        self.used += u64::from(cost);
        ops.push(CacheOp::Admit(program));
    }

    fn contains(&self, program: ProgramId) -> bool {
        self.queue.cost_of(program).is_some()
    }

    fn cost_of(&self, program: ProgramId) -> Option<u32> {
        self.queue.cost_of(program)
    }

    fn used_slots(&self) -> u64 {
        self.used
    }

    fn capacity_slots(&self) -> u64 {
        self.capacity
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(i: u32) -> ProgramId {
        ProgramId::new(i)
    }

    fn t(secs: u64) -> SimTime {
        SimTime::from_secs(secs)
    }

    fn access(lru: &mut Lru, program: u32, cost: u32, secs: u64) -> Vec<CacheOp> {
        let mut ops = Vec::new();
        lru.on_access(p(program), cost, t(secs), &mut ops);
        ops
    }

    #[test]
    fn admits_immediately_until_full() {
        let mut lru = Lru::new(10);
        assert_eq!(access(&mut lru, 0, 4, 0), vec![CacheOp::Admit(p(0))]);
        assert_eq!(access(&mut lru, 1, 4, 1), vec![CacheOp::Admit(p(1))]);
        assert_eq!(lru.used_slots(), 8);
        assert!(lru.contains(p(0)) && lru.contains(p(1)));
    }

    #[test]
    fn evicts_least_recent_on_overflow() {
        let mut lru = Lru::new(10);
        access(&mut lru, 0, 4, 0);
        access(&mut lru, 1, 4, 1);
        // Touch 0 so 1 is the LRU victim.
        access(&mut lru, 0, 4, 2);
        let ops = access(&mut lru, 2, 4, 3);
        assert_eq!(ops, vec![CacheOp::Evict(p(1)), CacheOp::Admit(p(2))]);
        assert!(lru.contains(p(0)));
        assert!(!lru.contains(p(1)));
    }

    #[test]
    fn large_program_evicts_multiple_victims() {
        let mut lru = Lru::new(11);
        access(&mut lru, 0, 3, 0);
        access(&mut lru, 1, 3, 1);
        access(&mut lru, 2, 3, 2);
        let ops = access(&mut lru, 3, 8, 3);
        assert_eq!(
            ops,
            vec![
                CacheOp::Evict(p(0)),
                CacheOp::Evict(p(1)),
                CacheOp::Admit(p(3))
            ]
        );
        assert_eq!(lru.used_slots(), 3 + 8);
    }

    #[test]
    fn oversized_program_is_skipped_without_eviction() {
        let mut lru = Lru::new(5);
        access(&mut lru, 0, 3, 0);
        let ops = access(&mut lru, 1, 9, 1);
        assert!(ops.is_empty(), "no eviction for an unfittable program");
        assert!(lru.contains(p(0)));
    }

    #[test]
    fn repeated_access_does_not_duplicate() {
        let mut lru = Lru::new(10);
        access(&mut lru, 0, 4, 0);
        let ops = access(&mut lru, 0, 4, 1);
        assert!(ops.is_empty());
        assert_eq!(lru.used_slots(), 4);
    }

    #[test]
    fn used_never_exceeds_capacity_under_churn() {
        let mut lru = Lru::new(20);
        for i in 0..500u32 {
            access(&mut lru, i % 37, 1 + (i % 7), u64::from(i));
            assert!(lru.used_slots() <= lru.capacity_slots());
        }
    }
}
