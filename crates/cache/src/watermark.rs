//! The watermark-ordered carrier of the global popularity feed.
//!
//! [`WatermarkFeed`] is the one carrier of the global popularity feed
//! (see [`crate::feed`]), on every plan. A run has **one producer** — the
//! resident plan's pass over its records, the thread that decodes the
//! trace, or the online ingress — which publishes every record's event
//! under its global sequence number through a [`FeedProducer`] and
//! advances the **watermark**: a promise that every event below that
//! sequence number is published. Publication runs ahead of consumption by
//! construction (a resident run publishes every record before any shard
//! starts; a block is published before any shard replays it; an online
//! session is published when it is submitted), so no consumer ever
//! waits: the one starting the record with global index `g` consumes
//! events `0..=g`, which reproduces the serial engine's grow-as-you-go
//! prefix visibility bit-for-bit.
//!
//! # Bounded retention: a segment ring with epoch reclamation
//!
//! A naive carrier holds one slot per trace record — O(trace) memory, the
//! very thing streaming replay exists to avoid. This implementation stores
//! events in fixed-size **segments** (epochs of the sequence space:
//! segment `k` owns sequence numbers `[k·S, (k+1)·S)`). Each consumer
//! reports its consumption **cursor** — the sequence number below which it
//! will never read again (for a global LFU this is its feed cursor, which
//! can trail the watermark by the batching lag). Segments that fall
//! entirely below the minimum cursor are popped off the front of the live
//! window and recycled through a small pool — the ring. Live slots are
//! therefore bounded by the span between the slowest consumer's cursor and
//! the producer's publication point: O(events in the LFU history window)
//! for workloads where every neighborhood keeps syncing, rather than
//! O(trace). (A consumer that stops syncing pins its cursor and with it
//! the window — its next sync will consume the whole backlog — so the
//! engine syncs every neighborhood each time its driver pauses, whether
//! or not a session started there.) A resident run's shards are jobs that
//! each consume from their first session to their last, and one not yet
//! started pins the floor at zero, so its feed stays whole until the last
//! shard runs: one slot a record, in segments allocated exactly.
//!
//! Publication never blocks: if consumers lag, the live window grows by
//! allocating fresh segments.
//!
//! # Memory ordering
//!
//! Every event slot is written at most once, so publication is a
//! lock-free `OnceLock` store; the watermark is release-stored by the
//! producer and acquire-loaded by consumers, making every event below it
//! visible to whoever observed it. The segment directory is behind a
//! mutex taken only on segment transitions (every `S` events per
//! producer/consumer) and on reclamation, never per event on the hot path
//! — [`FeedView`] and [`FeedProducer`] cache the current segment.

use std::cell::Cell;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use crate::feed::{FeedEvent, FeedEvents};

/// Default sequence numbers per segment (the reclamation granule).
pub const DEFAULT_SEGMENT_SLOTS: usize = 4_096;

/// One epoch of the sequence space: slots for `[base, base + len)`.
#[derive(Debug)]
struct Segment {
    base: u64,
    slots: Box<[OnceLock<FeedEvent>]>,
}

impl Segment {
    fn new(base: u64, len: usize) -> Self {
        Segment {
            base,
            slots: (0..len).map(|_| OnceLock::new()).collect(),
        }
    }
}

/// The live window of segments plus the recycling pool.
#[derive(Debug, Default)]
struct Directory {
    /// Epoch index of `live.front()`.
    first_epoch: u64,
    live: VecDeque<Arc<Segment>>,
    /// Recycled segments awaiting reuse (the ring).
    pool: Vec<Arc<Segment>>,
    /// High-water mark of `live.len()`, for retention tests and reports.
    peak_live: usize,
}

/// The single-producer, bounded-retention watermark feed (see the module
/// docs).
#[derive(Debug)]
pub struct WatermarkFeed {
    seg_slots: usize,
    capacity: u64,
    /// Every event with a sequence number below this is published.
    mark: AtomicU64,
    /// Per-consumer consumption cursors (sequence numbers below which that
    /// consumer will never read). Reclamation floor = the minimum.
    cursors: Vec<AtomicU64>,
    dir: Mutex<Directory>,
}

impl WatermarkFeed {
    /// A feed over `capacity` sequence numbers read by `consumers`
    /// readers. The watermark and all cursors start at zero.
    pub fn new(capacity: u64, consumers: usize) -> Self {
        Self::with_segment_slots(capacity, consumers, DEFAULT_SEGMENT_SLOTS)
    }

    /// As [`WatermarkFeed::new`] with an explicit reclamation granule
    /// (retention tests use small segments to expose the window).
    pub fn with_segment_slots(capacity: u64, consumers: usize, seg_slots: usize) -> Self {
        assert!(consumers > 0, "a feed needs at least one consumer");
        assert!(seg_slots > 0, "segments need at least one slot");
        WatermarkFeed {
            seg_slots,
            capacity,
            mark: AtomicU64::new(0),
            cursors: (0..consumers).map(|_| AtomicU64::new(0)).collect(),
            dir: Mutex::new(Directory::default()),
        }
    }

    /// Total sequence-number capacity.
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// The segment the slot for `seq` lives in, extending the live window
    /// forward as needed (never backward: a reclaimed slot is gone).
    ///
    /// # Panics
    ///
    /// Panics for sequence numbers at or beyond capacity — an event there
    /// could never be read (`published` clamps to capacity), so accepting
    /// it would be silent data loss plus unbounded window growth.
    fn segment_for(&self, seq: u64) -> Arc<Segment> {
        assert!(
            seq < self.capacity,
            "sequence {seq} is beyond the feed's capacity of {}",
            self.capacity
        );
        let epoch = seq / self.seg_slots as u64;
        let mut dir = self.dir.lock().expect("feed directory poisoned");
        assert!(
            epoch >= dir.first_epoch,
            "sequence {seq} addresses a reclaimed feed segment"
        );
        while dir.first_epoch + dir.live.len() as u64 <= epoch {
            let base = (dir.first_epoch + dir.live.len() as u64) * self.seg_slots as u64;
            let seg = match dir.pool.pop() {
                Some(mut seg) => {
                    let inner = Arc::get_mut(&mut seg).expect("pooled segment is unshared");
                    inner.base = base;
                    inner.slots.iter_mut().for_each(|s| *s = OnceLock::new());
                    seg
                }
                None => Arc::new(Segment::new(base, self.seg_slots)),
            };
            dir.live.push_back(seg);
        }
        dir.peak_live = dir.peak_live.max(dir.live.len());
        Arc::clone(&dir.live[(epoch - dir.first_epoch) as usize])
    }

    /// The run's publication handle. It caches its current segment,
    /// touching the directory mutex only on epoch transitions. A feed has
    /// one producer: the watermark is a single promise, so only one
    /// handle may [`advance`](FeedProducer::advance) it.
    pub fn producer_handle(&self) -> FeedProducer<'_> {
        FeedProducer {
            feed: self,
            cached: None,
        }
    }

    /// The watermark: every event with a sequence number below it is
    /// published and safe to read.
    pub fn watermark(&self) -> u64 {
        self.mark.load(Ordering::Acquire)
    }

    /// Records that `consumer` will never read below `cursor` again, and
    /// reclaims segments wholly below the minimum cursor. Cursors only
    /// move forward (stale reports are ignored).
    pub fn note_consumed(&self, consumer: usize, cursor: u64) {
        let prev = self.cursors[consumer].fetch_max(cursor, Ordering::AcqRel);
        // Reclamation can only unlock when a cursor crosses an epoch
        // boundary; skipping the min-scan otherwise keeps the per-sync
        // cost O(1).
        let granule = self.seg_slots as u64;
        if prev / granule != cursor.max(prev) / granule {
            self.reclaim();
        }
    }

    /// Marks `consumer` as done: it will never read the feed again.
    pub fn finish_consumer(&self, consumer: usize) {
        self.cursors[consumer].store(u64::MAX, Ordering::Release);
        self.reclaim();
    }

    /// The reclamation floor: the minimum consumption cursor.
    fn floor(&self) -> u64 {
        self.cursors
            .iter()
            .map(|c| c.load(Ordering::Acquire))
            .min()
            .expect("at least one consumer")
    }

    /// Pops and recycles every live segment wholly below the floor.
    fn reclaim(&self) {
        let floor = self.floor();
        let mut dir = self.dir.lock().expect("feed directory poisoned");
        while let Some(front) = dir.live.front() {
            if front.base + self.seg_slots as u64 > floor {
                break;
            }
            let seg = dir.live.pop_front().expect("checked front");
            dir.first_epoch += 1;
            // Recycle only unshared segments; ones still cached by a view
            // or producer handle are simply dropped when released.
            if Arc::strong_count(&seg) == 1 && dir.pool.len() < 2 {
                dir.pool.push(seg);
            }
        }
    }

    /// Live (not yet reclaimed) slot count — the carrier's actual memory
    /// footprint in events.
    pub fn live_slots(&self) -> usize {
        self.dir.lock().expect("feed directory poisoned").live.len() * self.seg_slots
    }

    /// High-water mark of [`live_slots`](WatermarkFeed::live_slots) over
    /// the feed's lifetime.
    pub fn peak_live_slots(&self) -> usize {
        self.dir.lock().expect("feed directory poisoned").peak_live * self.seg_slots
    }

    /// A read view pinned at the watermark as it stands now. The
    /// watermark is monotonic, so the observation stays valid for as long
    /// as the view lives — hot-path consumers read through a view (which
    /// also caches the current segment) instead of reloading it per event.
    pub fn view(&self) -> FeedView<'_> {
        FeedView {
            feed: self,
            watermark: self.watermark(),
            cached: Cell::new(None),
        }
    }

    fn event_in(&self, seg: &Segment, seq: u64) -> FeedEvent {
        *seg.slots[(seq - seg.base) as usize]
            .get()
            .expect("event read from below the watermark")
    }
}

impl FeedEvents for WatermarkFeed {
    fn event_at(&self, seq: usize) -> FeedEvent {
        let seg = self.segment_for(seq as u64);
        self.event_in(&seg, seq as u64)
    }

    fn published(&self) -> usize {
        usize::try_from(self.watermark().min(self.capacity)).expect("capacity fits usize")
    }
}

/// The producer-side publication handle (see
/// [`WatermarkFeed::producer_handle`]).
#[derive(Debug)]
pub struct FeedProducer<'a> {
    feed: &'a WatermarkFeed,
    cached: Option<Arc<Segment>>,
}

impl FeedProducer<'_> {
    /// Publishes the event for sequence number `seq`.
    ///
    /// # Panics
    ///
    /// Panics if `seq` was already published, lies at or beyond the
    /// feed's capacity, or falls below the reclamation floor.
    pub fn publish(&mut self, seq: u64, event: FeedEvent) {
        let seg_slots = self.feed.seg_slots as u64;
        let seg = match &self.cached {
            Some(seg) if seq >= seg.base && seq < seg.base + seg_slots => seg,
            _ => {
                self.cached = Some(self.feed.segment_for(seq));
                self.cached.as_ref().expect("just cached")
            }
        };
        seg.slots[(seq - seg.base) as usize]
            .set(event)
            .expect("sequence number published twice");
    }

    /// Raises the watermark to `mark`: a promise that every event with a
    /// sequence number below `mark` is published.
    ///
    /// # Panics
    ///
    /// Panics (debug builds) if the watermark would move backwards.
    pub fn advance(&mut self, mark: u64) {
        debug_assert!(
            self.feed.mark.load(Ordering::Relaxed) <= mark,
            "watermarks must not regress"
        );
        self.feed.mark.store(mark, Ordering::Release);
    }
}

/// A [`WatermarkFeed`] read view carrying the watermark it was opened at
/// plus a cached segment (see [`WatermarkFeed::view`]).
pub struct FeedView<'a> {
    feed: &'a WatermarkFeed,
    watermark: u64,
    cached: Cell<Option<Arc<Segment>>>,
}

impl FeedView<'_> {
    /// Moves the view's watermark up to the feed's as it stands now,
    /// keeping the cached segment.
    pub(crate) fn catch_up(&mut self) {
        self.watermark = self.feed.watermark();
    }
}

impl std::fmt::Debug for FeedView<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FeedView")
            .field("watermark", &self.watermark)
            .finish_non_exhaustive()
    }
}

impl FeedEvents for FeedView<'_> {
    fn event_at(&self, seq: usize) -> FeedEvent {
        let seq = seq as u64;
        let seg_slots = self.feed.seg_slots as u64;
        let seg = match self.cached.take() {
            Some(seg) if seq >= seg.base && seq < seg.base + seg_slots => seg,
            _ => self.feed.segment_for(seq),
        };
        let event = self.feed.event_in(&seg, seq);
        self.cached.set(Some(seg));
        event
    }

    fn published(&self) -> usize {
        usize::try_from(self.watermark.min(self.feed.capacity)).expect("capacity fits usize")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::feed::GlobalFeed;
    use crate::strategy::CacheStrategy;
    use cablevod_hfc::ids::{NeighborhoodId, ProgramId};
    use cablevod_hfc::units::{SimDuration, SimTime};

    fn ev(secs: u64, nbhd: u32, program: u32) -> FeedEvent {
        FeedEvent {
            time: SimTime::from_secs(secs),
            neighborhood: NeighborhoodId::new(nbhd),
            program: ProgramId::new(program),
            cost: 1,
        }
    }

    fn lfu(lag_secs: u64) -> crate::feed::GlobalLfu {
        crate::feed::GlobalLfu::new(
            4,
            SimDuration::from_days(1),
            SimDuration::from_secs(lag_secs),
            NeighborhoodId::new(0),
        )
    }

    #[test]
    fn watermark_consumption_matches_global_feed() {
        // Events published out of sequence order (the producer fills slots
        // as its merge hands them over, then moves the watermark past
        // them): a GlobalLfu consuming through the watermark carrier must
        // ingest exactly the sequence a serial GlobalFeed would feed it.
        let events: Vec<FeedEvent> = (0..9)
            .map(|i| ev(10 + i, (i % 3) as u32 + 1, i as u32))
            .collect();
        let mut serial_feed = GlobalFeed::new();
        for &e in &events {
            serial_feed.publish(e);
        }
        let shared = WatermarkFeed::new(events.len() as u64, 1);
        let mut producer = shared.producer_handle();
        for (seq, &e) in events.iter().enumerate().rev() {
            producer.publish(seq as u64, e);
        }

        let mut a = lfu(0);
        let mut b = lfu(0);
        // Published but not yet promised: nothing above the watermark is
        // consumable.
        b.sync_global(&shared, SimTime::from_secs(100), 9);
        assert_eq!(b.cursor(), 0);
        producer.advance(events.len() as u64);
        assert_eq!(shared.published(), 9);

        for (limit, now) in [(3usize, 12u64), (7, 17), (9, 30)] {
            a.sync_global(&serial_feed, SimTime::from_secs(now), limit);
            b.sync_global(&shared, SimTime::from_secs(now), limit);
            assert_eq!(a.cursor(), b.cursor(), "limit {limit}");
        }
        let mut ops_a = Vec::new();
        let mut ops_b = Vec::new();
        a.on_access(ProgramId::new(50), 1, SimTime::from_secs(40), &mut ops_a);
        b.on_access(ProgramId::new(50), 1, SimTime::from_secs(40), &mut ops_b);
        assert_eq!(ops_a, ops_b, "identical admissions from either carrier");
    }

    #[test]
    #[should_panic(expected = "published twice")]
    fn double_publish_panics() {
        let feed = WatermarkFeed::new(2, 1);
        let mut producer = feed.producer_handle();
        producer.publish(0, ev(1, 1, 1));
        producer.publish(0, ev(1, 1, 1));
    }

    #[test]
    fn view_reads_through_segment_boundaries() {
        let feed = WatermarkFeed::with_segment_slots(100, 1, 8);
        let mut producer = feed.producer_handle();
        for seq in 0..40u64 {
            producer.publish(seq, ev(seq, 1, seq as u32));
        }
        producer.advance(40);
        let view = feed.view();
        assert_eq!(view.published(), 40);
        for seq in 0..40usize {
            assert_eq!(view.event_at(seq).program, ProgramId::new(seq as u32));
        }
    }

    #[test]
    fn slot_count_stays_bounded_on_a_long_trace() {
        // A trace-length stream of events through a tiny-segment feed:
        // with consumers keeping pace (cursors trailing by a bounded lag,
        // as LFU cursors trail by at most the batching window), the live
        // window must stay a handful of segments while total published
        // events grow a thousandfold past it.
        let seg = 64usize;
        let total = 100_000u64;
        let lag = 100u64; // cursor trails publication by this many events
        let feed = WatermarkFeed::with_segment_slots(total, 2, seg);
        let mut producer = feed.producer_handle();
        for seq in 0..total {
            let nbhd = (seq % 2) as u32;
            producer.publish(seq, ev(seq, nbhd, (seq % 97) as u32));
            producer.advance(seq + 1);
            let cursor = seq.saturating_sub(lag);
            feed.note_consumed((seq % 2) as usize, cursor);
        }
        assert!(
            feed.peak_live_slots() <= 4 * seg + lag as usize,
            "live window leaked: peak {} slots for a {} event stream",
            feed.peak_live_slots(),
            total
        );
        // The retained suffix is still readable.
        assert_eq!(
            feed.view().event_at((total - 1) as usize).time,
            SimTime::from_secs(total - 1)
        );
    }

    #[test]
    fn reclaimed_segments_are_recycled_not_leaked() {
        let seg = 16usize;
        let feed = WatermarkFeed::with_segment_slots(10_000, 1, seg);
        let mut producer = feed.producer_handle();
        for seq in 0..2_000u64 {
            producer.publish(seq, ev(seq, 0, 1));
            producer.advance(seq + 1);
            feed.note_consumed(0, seq.saturating_sub(8));
        }
        assert!(feed.live_slots() <= 3 * seg, "{}", feed.live_slots());
        feed.finish_consumer(0);
        assert_eq!(feed.live_slots(), 0, "final reclaim drains the window");
    }

    #[test]
    fn stale_cursor_reports_are_ignored() {
        let feed = WatermarkFeed::with_segment_slots(100, 2, 4);
        let mut producer = feed.producer_handle();
        producer.publish(0, ev(1, 0, 1));
        producer.advance(1);
        feed.note_consumed(0, 50);
        feed.note_consumed(0, 10); // stale: must not regress the floor
        feed.note_consumed(1, 50);
        // Floor is min(50, 50): epochs 0..12 reclaimable.
        assert!(feed.live_slots() <= 2 * 4);
    }

    #[test]
    #[should_panic(expected = "reclaimed feed segment")]
    fn reading_below_the_floor_panics() {
        let feed = WatermarkFeed::with_segment_slots(100, 1, 4);
        let mut producer = feed.producer_handle();
        for seq in 0..12u64 {
            producer.publish(seq, ev(seq, 0, 1));
        }
        producer.advance(12);
        feed.note_consumed(0, 12);
        feed.event_at(0);
    }
}
