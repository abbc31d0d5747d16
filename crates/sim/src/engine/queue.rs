//! The lifecycle's continuation queue: a min-queue that pops in exactly
//! the order a binary heap would, at the cost of a deque operation for
//! every push that arrives in order. Each driver keeps one, for its one
//! neighborhood's pending segment requests and retries.
//!
//! # Why arrival order is almost key order
//!
//! A continuation is keyed `(time, global index, segment)` and
//! `(time, global index)` is already unique — a session has at most one
//! outstanding continuation — so whatever always pops the least key pops
//! exactly what a heap would, with no tie left to break. Events are
//! handled in nondecreasing time; a segment request pushes its session's
//! next one a segment length later (§IV-B.1: requests fall one segment
//! apart), and a session start whose seek offset sits on a segment
//! boundary pushes `start + segment length` too. So pushes arrive sorted,
//! except for
//!
//! * a start and a continuation handled at the same second: the starts
//!   go first, so the continuations' (smaller) global indexes land a few
//!   places in front of the starts' at the back;
//! * a backoff retry (enforcing admission), due after its own backoff
//!   rather than a segment length;
//! * a first segment cut short by an unaligned seek offset.
//!
//! # The contract
//!
//! A push whose key is not below the back of the arrival lane (a
//! `VecDeque`) is appended to it. One that sorts below the back but no
//! further than [`INSERT_REACH`] places in is inserted there — the
//! same-second interleave. Anything else spills into a `BinaryHeap`.
//! The lane stays sorted, so pop takes the lesser of the lane's front and
//! the heap's top: one comparison, and a heap operation only for what
//! spilled. Pops are in exactly the heap's order whatever is pushed —
//! the fallback decides what a push costs, never what comes out — and
//! the differential tests below hold it to a plain `BinaryHeap` on
//! engine-shaped and on arbitrary sequences, and the test builds count
//! the pushes that fell back (`spilled`), a deterministic work count.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

/// How many places from the back of the arrival lane a push that sorts
/// below the back may still be inserted; past that it spills. A
/// same-second interleave goes behind that second's session starts, and a
/// neighborhood rarely starts more than a handful of sessions in one
/// second: on the benchmark's traces eight places leave nothing to spill.
pub(super) const INSERT_REACH: usize = 8;

/// A min-queue over `T` (see the module docs).
#[derive(Debug)]
pub(super) struct ContinuationQueue<T> {
    /// The arrival lane, ascending.
    lane: VecDeque<T>,
    /// Pushes that arrived too far out of order for the lane.
    spill: BinaryHeap<Reverse<T>>,
    #[cfg(test)]
    pushed: u64,
    #[cfg(test)]
    spilled: u64,
}

impl<T> Default for ContinuationQueue<T> {
    fn default() -> Self {
        ContinuationQueue {
            lane: VecDeque::new(),
            spill: BinaryHeap::new(),
            #[cfg(test)]
            pushed: 0,
            #[cfg(test)]
            spilled: 0,
        }
    }
}

impl<T: Ord> ContinuationQueue<T> {
    #[inline]
    pub(super) fn push(&mut self, item: T) {
        #[cfg(test)]
        {
            self.pushed += 1;
        }
        let len = self.lane.len();
        if self.lane.back().is_none_or(|back| *back <= item) {
            self.lane.push_back(item);
            return;
        }
        // The back sorts above `item`: find the lowest place it can go
        // within reach, behind everything that sorts at or below it.
        let floor = len.saturating_sub(INSERT_REACH);
        let mut at = len - 1;
        while at > floor && self.lane[at - 1] > item {
            at -= 1;
        }
        if at == 0 || self.lane[at - 1] <= item {
            self.lane.insert(at, item);
        } else {
            #[cfg(test)]
            {
                self.spilled += 1;
            }
            self.spill.push(Reverse(item));
        }
    }

    /// The least item, without taking it.
    #[inline]
    pub(super) fn peek(&self) -> Option<&T> {
        match (self.lane.front(), self.spill.peek()) {
            (Some(front), Some(Reverse(top))) => Some(front.min(top)),
            (front, top) => front.or(top.map(|Reverse(top)| top)),
        }
    }

    /// Takes the least item.
    #[inline]
    pub(super) fn pop(&mut self) -> Option<T> {
        match (self.lane.front(), self.spill.peek()) {
            (Some(front), Some(Reverse(top))) if top < front => self.spill.pop().map(|r| r.0),
            (Some(_), _) => self.lane.pop_front(),
            (None, _) => self.spill.pop().map(|r| r.0),
        }
    }

    /// Pushes so far.
    #[cfg(test)]
    pub(super) fn pushed(&self) -> u64 {
        self.pushed
    }

    /// Pushes so far that fell back to the heap.
    #[cfg(test)]
    pub(super) fn spilled(&self) -> u64 {
        self.spilled
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// SplitMix64: the tests' seeded generator.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }
    }

    /// The queue and the heap it replaces, fed the same pushes; every pop
    /// and every peek compared.
    #[derive(Default)]
    struct Pair {
        queue: ContinuationQueue<(u64, u32, u16, u32)>,
        heap: BinaryHeap<Reverse<(u64, u32, u16, u32)>>,
    }

    impl Pair {
        fn push(&mut self, item: (u64, u32, u16, u32)) {
            self.queue.push(item);
            self.heap.push(Reverse(item));
        }

        fn peek(&self) -> Option<(u64, u32, u16, u32)> {
            let expected = self.heap.peek().map(|r| r.0);
            assert_eq!(self.queue.peek().copied(), expected, "peek");
            expected
        }

        fn pop(&mut self) -> Option<(u64, u32, u16, u32)> {
            let expected = self.heap.pop().map(|r| r.0);
            assert_eq!(self.queue.pop(), expected, "pop");
            expected
        }
    }

    /// The lifecycle's own shape: sessions start in `(time, index)` order,
    /// several in one second, ahead of the continuations due then; each
    /// request pushes the next a segment later, a start's first request
    /// pushes `start + segment`, or — `unaligned` — a remainder of it.
    /// Returns the queue's (pushes, spills).
    fn engine_shaped(seed: u64, sessions: u32, unaligned: bool) -> (u64, u64) {
        const SEGMENT: u64 = 300;
        let mut rng = Rng(seed);
        let mut starts = Vec::new();
        let mut now = 0;
        while starts.len() < sessions as usize {
            // One to five starts share a second, then time moves on.
            for _ in 0..1 + rng.below(5) {
                let segments = 1 + rng.below(12) as u16;
                starts.push((now, starts.len() as u32, segments));
            }
            now += 1 + rng.below(2 * SEGMENT);
        }
        let mut pair = Pair::default();
        let mut next = starts.iter().peekable();
        loop {
            let due = pair.peek();
            if let Some(&&(start, gidx, segments)) =
                next.peek().filter(|s| due.is_none_or(|d| s.0 <= d.0))
            {
                next.next();
                if segments > 1 {
                    let first = if unaligned && rng.below(3) == 0 {
                        1 + rng.below(SEGMENT - 1)
                    } else {
                        SEGMENT
                    };
                    pair.push((start + first, gidx, 1, u32::from(segments)));
                }
            } else if let Some((at, gidx, seg, segments)) = pair.pop() {
                if u32::from(seg) + 1 < segments {
                    pair.push((at + SEGMENT, gidx, seg + 1, segments));
                }
            } else {
                break;
            }
        }
        (pair.queue.pushed(), pair.queue.spilled())
    }

    #[test]
    fn engine_shaped_pushes_pop_in_heap_order_without_spilling() {
        for seed in 0..40 {
            let (pushed, spilled) = engine_shaped(seed, 2_000, false);
            assert!(pushed > 5_000, "seed {seed}: {pushed} pushes");
            assert_eq!(spilled, 0, "seed {seed}: an aligned replay spills nothing");
        }
    }

    #[test]
    fn unaligned_seeks_spill_and_still_pop_in_heap_order() {
        let spilled: u64 = (0..40).map(|seed| engine_shaped(seed, 2_000, true).1).sum();
        assert!(
            spilled > 0,
            "a cut-short first segment lands far from the back"
        );
    }

    /// Arbitrary interleavings: random and equal times, duplicate keys,
    /// pops from an empty queue, bursts of pushes below the back.
    #[test]
    fn arbitrary_pushes_pop_in_heap_order() {
        let mut spilled = 0;
        for seed in 0..200 {
            let mut rng = Rng(seed);
            let mut pair = Pair::default();
            let span = [1, 4, 50, 10_000][seed as usize % 4];
            for _ in 0..600 {
                if rng.below(3) == 0 {
                    pair.pop();
                } else {
                    let item = (
                        rng.below(span),
                        rng.below(6) as u32,
                        rng.below(3) as u16,
                        rng.below(4) as u32,
                    );
                    pair.push(item);
                }
                pair.peek();
            }
            while pair.pop().is_some() {}
            assert!(pair.queue.peek().is_none(), "seed {seed}: drained");
            spilled += pair.queue.spilled();
        }
        assert!(spilled > 0, "arbitrary pushes must exercise the fallback");
    }

    /// The reach is what it says: an item that sorts below the last
    /// `INSERT_REACH` items but not below the one before them is inserted;
    /// one place further spills.
    #[test]
    fn insertion_reaches_exactly_insert_reach_places() {
        let mut queue = ContinuationQueue::default();
        for t in 0..=INSERT_REACH as u64 {
            queue.push(10 * t);
        }
        queue.push(1);
        assert_eq!(queue.spilled(), 0, "{INSERT_REACH} places in");
        queue.push(0);
        assert_eq!(queue.spilled(), 1, "one place further");
        let drained: Vec<u64> = std::iter::from_fn(|| queue.pop()).collect();
        let mut sorted = drained.clone();
        sorted.sort_unstable();
        assert_eq!(drained, sorted);
    }
}
