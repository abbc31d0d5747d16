//! Record supplies: where a [`SessionDriver`](super::lifecycle::
//! SessionDriver) gets its sessions from.
//!
//! * [`ResidentSupply`] — a fully resident record slice with precomputed
//!   contexts, optionally restricted to one shard's record subset. Zero
//!   staging cost; feed events were precomputed, so it publishes nothing.
//! * [`BlockSupply`] — one neighborhood's slice of the current
//!   [`Block`]: the streaming supply of a **time-major** source. A
//!   [`Demux`] on the caller's thread decodes each chunk once into the
//!   shared block, computes contexts, publishes the block's feed events
//!   and advances the watermark past it, then sorts the block's record
//!   *positions* by neighborhood (a counting sort — the records stay
//!   where they were decoded); every shard's supply walks its run of
//!   positions and, once it is through, reports the block's edge so its
//!   driver parks there until the next block is attached.
//! * [`StreamSupply`] — the per-shard supply of a **neighborhood-major**
//!   source: a gidx-ordered merge over one or more [`ChunkRun`]s
//!   (sequential cursors over gidx-sorted chunk lists), decoding one
//!   chunk per run at a time. It computes contexts at ingestion,
//!   optionally filters to its neighborhood, and publishes each accepted
//!   record's feed event. Publication timing never affects results
//!   (consumers bound themselves by their own record index), so each
//!   path picks the cheapest watermark granularity: a **single-run**
//!   supply stages whole chunks, publishing at scan time and advancing
//!   its watermark straight past each chunk (shards stay a chunk apart on
//!   the frontier, never in per-record lock-step), while a **multi-run**
//!   merge stages record by record and advances just past each merged
//!   head.
//!
//! Every streaming replay is sharded per neighborhood; the source's
//! layout picks the supply, the worker count never does:
//!
//! | source                           | supply         | chunk decodes       | filter |
//! |----------------------------------|----------------|---------------------|--------|
//! | time-major                       | `BlockSupply`  | each once, centrally | —      |
//! | matching neighborhood-major      | `StreamSupply` | each once, by its shard (its group's cells, ≥ 1 run) | no |
//! | mismatched neighborhood-major    | `StreamSupply` | pre-pass + 1 run per cell, pruned, per shard | yes |
//!
//! A *placement cell* is the finest partition a multi-index source
//! carries — the intersection of its per-size groupings (a single-index
//! file has one cell per group). A shard whose group is exactly one cell
//! runs the single-run fast path; a group spanning several cells merges
//! just those cells' runs. A single-run supply degenerates to plain
//! sequential streaming with no merge overhead; the multi-run merge does
//! a linear min-scan over run heads per record (run counts are cell
//! counts — tens to a few hundred — and only the merge paths pay it).

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use cablevod_cache::{FeedProvider, SharedFeed, WatermarkFeed};
use cablevod_hfc::segment::Segmenter;
use cablevod_hfc::units::SimTime;
use cablevod_trace::catalog::ProgramCatalog;
use cablevod_trace::record::SessionRecord;
use cablevod_trace::source::TraceSource;

use super::lifecycle::{
    feed_event, session_ctx, PendingSession, RecordSupply, SessionCtx, UserMap,
};
use crate::config::SimConfig;
use crate::error::SimError;

/// Resident record slice with precomputed contexts, served in trace order
/// (or the order of an explicit index subset).
pub(super) struct ResidentSupply<'a> {
    records: &'a [SessionRecord],
    ctxs: &'a [SessionCtx],
    /// When present, the (ascending) record indices this supply serves —
    /// one shard's records. Otherwise every record.
    subset: Option<&'a [u32]>,
    pos: usize,
}

impl<'a> ResidentSupply<'a> {
    pub(super) fn new(
        records: &'a [SessionRecord],
        ctxs: &'a [SessionCtx],
        subset: Option<&'a [u32]>,
    ) -> Self {
        ResidentSupply {
            records,
            ctxs,
            subset,
            pos: 0,
        }
    }

    fn current(&self) -> Option<u64> {
        match self.subset {
            Some(subset) => subset.get(self.pos).map(|&i| u64::from(i)),
            None => (self.pos < self.records.len()).then_some(self.pos as u64),
        }
    }
}

impl<F: FeedProvider> RecordSupply<F> for ResidentSupply<'_> {
    fn peek(&mut self, _feed: &mut Option<F>) -> Result<Option<(SimTime, u64)>, SimError> {
        Ok(self
            .current()
            .map(|gidx| (self.records[gidx as usize].start, gidx)))
    }

    fn take(&mut self) -> PendingSession {
        let gidx = self.current().expect("a record is staged");
        self.pos += 1;
        PendingSession {
            gidx,
            rec: self.records[gidx as usize],
            ctx: self.ctxs[gidx as usize],
        }
    }
}

/// One decoded chunk of a time-major source, demultiplexed by
/// neighborhood: the unit of work of the blocked streaming replay. Filled
/// in place by the [`Demux`], read by every shard's [`BlockSupply`].
#[derive(Debug, Default)]
pub(super) struct Block {
    records: Vec<(u64, SessionRecord)>,
    /// Positions into `records`, grouped by neighborhood and ascending
    /// within each group (a stable counting sort), so a group is walked
    /// in global order.
    order: Vec<u32>,
    /// `order[starts[n]..starts[n + 1]]` is neighborhood `n`'s run.
    starts: Vec<u32>,
    /// While more blocks follow: the latest start time decoded so far —
    /// no later session starts before it — and how many records are
    /// published. `None` on the final block.
    edge: Option<(SimTime, u64)>,
}

impl Block {
    /// See the `edge` field.
    pub(super) fn edge(&self) -> Option<(SimTime, u64)> {
        self.edge
    }

    /// Empties the block. Left like this — no records, no edge — it is
    /// the final block of a run.
    fn reset(&mut self, nbhd_count: usize) {
        self.records.clear();
        self.order.clear();
        self.starts.clear();
        self.starts.resize(nbhd_count + 2, 0);
        self.edge = None;
    }
}

/// The decoding side of the blocked replay: walks a time-major source's
/// chunks in order, each decoded **once**, and turns each into the next
/// [`Block`]. Lives on the caller's thread; it is the run's only feed
/// producer.
pub(super) struct Demux<'a, S: TraceSource + ?Sized> {
    source: &'a S,
    users: UserMap,
    config: &'a SimConfig,
    segmenter: Segmenter,
    nbhd_count: usize,
    feed: Option<SharedFeed<'a>>,
    next_chunk: usize,
    last_start: SimTime,
    /// Scratch: the neighborhood of each record of the block being
    /// filled.
    nbhds: Vec<u32>,
    failure: Option<SimError>,
}

impl<'a, S: TraceSource + ?Sized> Demux<'a, S> {
    pub(super) fn new(
        source: &'a S,
        users: UserMap,
        config: &'a SimConfig,
        segmenter: Segmenter,
        nbhd_count: usize,
        feed: Option<&'a WatermarkFeed>,
    ) -> Self {
        Demux {
            source,
            users,
            config,
            segmenter,
            nbhd_count,
            // Producer 0, answering for no consumer: shards sync and
            // finish their own.
            feed: feed.map(|f| SharedFeed::new(f, 0, 0..0)),
            next_chunk: 0,
            last_start: SimTime::EPOCH,
            nbhds: Vec::new(),
            failure: None,
        }
    }

    /// Fills `block` with the source's next chunk. A decode or context
    /// failure — or a shard's, seen through `aborted` — ends the run
    /// instead: the flag is raised, the block is empty and final, and
    /// the failure is kept for [`into_failure`](Demux::into_failure).
    pub(super) fn next_block(&mut self, block: &mut Block, aborted: &AtomicBool) {
        if !aborted.load(Ordering::Relaxed) {
            match self.fill(block) {
                Ok(()) => return,
                Err(e) => {
                    self.failure = Some(e);
                    aborted.store(true, Ordering::Relaxed);
                }
            }
        }
        block.reset(self.nbhd_count);
    }

    /// The failure that ended the run early, if the decoder met one.
    pub(super) fn into_failure(self) -> Option<SimError> {
        self.failure
    }

    fn fill(&mut self, block: &mut Block) -> Result<(), SimError> {
        block.reset(self.nbhd_count);
        let chunks = self.source.chunk_count();
        if self.next_chunk < chunks {
            self.source
                .read_chunk_indexed(self.next_chunk, &mut block.records)?;
            self.next_chunk += 1;
        }
        let catalog = self.source.catalog();
        let seg_len = self.segmenter.segment_len().as_secs();
        // Every record's context is computed here — it validates the
        // record, names its neighborhood and sizes its feed event — but
        // not kept: a shard recomputes the one it is about to start
        // (`BlockSupply::take`), which costs two table lookups and saves
        // a context-sized column per block. What is kept is the counting
        // sort of positions by neighborhood: tally into `starts[n + 2]`,
        // prefix-sum so `starts[n + 1]` is where `n`'s run begins, then
        // scatter through it — which leaves it at the run's end, that
        // is, at the beginning of `n + 1`'s.
        self.nbhds.clear();
        for (gidx, rec) in &block.records {
            let ctx = session_ctx(rec, catalog, &self.users, seg_len)?;
            if let Some(feed) = self.feed.as_mut() {
                feed.publish(*gidx, feed_event(rec, &ctx, self.config, &self.segmenter));
            }
            block.starts[ctx.nbhd as usize + 2] += 1;
            self.nbhds.push(ctx.nbhd);
        }
        for n in 1..block.starts.len() {
            block.starts[n] += block.starts[n - 1];
        }
        block.order.resize(block.records.len(), 0);
        for (at, &nbhd) in self.nbhds.iter().enumerate() {
            let slot = &mut block.starts[nbhd as usize + 1];
            block.order[*slot as usize] = at as u32;
            *slot += 1;
        }
        if let Some((_, rec)) = block.records.last() {
            self.last_start = rec.start;
        }
        if self.next_chunk < chunks {
            let published = self.source.chunk_first_index(self.next_chunk);
            if let Some(feed) = self.feed.as_mut() {
                feed.advance(published);
            }
            block.edge = Some((self.last_start, published));
        } else if let Some(feed) = self.feed.as_mut() {
            feed.finish();
        }
        Ok(())
    }
}

/// One neighborhood's run of the current [`Block`] (see the module
/// docs). Holds the block only while records of its run remain, so by
/// the time every shard is parked at the edge the [`Demux`] owns the
/// block again and refills it in place.
pub(super) struct BlockSupply<'a> {
    nbhd: usize,
    block: Option<Arc<Block>>,
    pos: usize,
    end: usize,
    /// The edge of the last attached block (see
    /// [`RecordSupply::resumes_at`]); `None` once the final block is
    /// attached.
    resumes: Option<SimTime>,
    catalog: &'a ProgramCatalog,
    users: UserMap,
    seg_len: u64,
}

impl<'a> BlockSupply<'a> {
    pub(super) fn new(
        nbhd: usize,
        catalog: &'a ProgramCatalog,
        users: UserMap,
        segmenter: &Segmenter,
    ) -> Self {
        BlockSupply {
            nbhd,
            block: None,
            pos: 0,
            end: 0,
            resumes: Some(SimTime::EPOCH),
            catalog,
            users,
            seg_len: segmenter.segment_len().as_secs(),
        }
    }

    /// Hands the supply the next block.
    pub(super) fn attach(&mut self, block: &Arc<Block>) {
        debug_assert!(self.block.is_none(), "the previous run was not drained");
        self.resumes = block.edge.map(|(edge, _)| edge);
        self.pos = block.starts[self.nbhd] as usize;
        self.end = block.starts[self.nbhd + 1] as usize;
        if self.pos < self.end {
            self.block = Some(Arc::clone(block));
        }
    }
}

impl<F: FeedProvider> RecordSupply<F> for BlockSupply<'_> {
    fn peek(&mut self, _feed: &mut Option<F>) -> Result<Option<(SimTime, u64)>, SimError> {
        Ok(self.block.as_ref().map(|block| {
            let (gidx, rec) = &block.records[block.order[self.pos] as usize];
            (rec.start, *gidx)
        }))
    }

    fn take(&mut self) -> PendingSession {
        let block = self.block.as_ref().expect("a record is staged");
        let (gidx, rec) = block.records[block.order[self.pos] as usize];
        let ctx = session_ctx(&rec, self.catalog, &self.users, self.seg_len)
            .expect("the demultiplexer computed this context once already");
        self.pos += 1;
        if self.pos == self.end {
            self.block = None;
        }
        PendingSession { gidx, rec, ctx }
    }

    fn resumes_at(&self) -> Option<SimTime> {
        self.resumes
    }
}

/// A sequential cursor over a gidx-ascending list of chunk ids, holding
/// one decoded chunk at a time.
pub(super) struct ChunkRun<'a, S: TraceSource + ?Sized> {
    source: &'a S,
    chunks: &'a [u32],
    next: usize,
    buf: Vec<(u64, SessionRecord)>,
    pos: usize,
}

impl<'a, S: TraceSource + ?Sized> ChunkRun<'a, S> {
    pub(super) fn new(source: &'a S, chunks: &'a [u32]) -> Self {
        ChunkRun {
            source,
            chunks,
            next: 0,
            buf: Vec::new(),
            pos: 0,
        }
    }

    /// The run's head record, decoding forward as needed; `None` at end.
    pub(super) fn head(&mut self) -> Result<Option<(u64, SessionRecord)>, SimError> {
        while self.pos == self.buf.len() {
            if self.decode_next()?.is_none() {
                return Ok(None);
            }
        }
        Ok(Some(self.buf[self.pos]))
    }

    pub(super) fn pop_head(&mut self) {
        self.pos += 1;
    }

    /// The chunk id the current head was decoded from. Only valid after
    /// [`head`](ChunkRun::head) returned `Some`.
    pub(super) fn head_chunk(&self) -> u32 {
        self.chunks[self.next - 1]
    }

    /// Decodes the run's next chunk into the internal buffer (batch
    /// consumption); `None` at end of run.
    fn decode_next(&mut self) -> Result<Option<&[(u64, SessionRecord)]>, SimError> {
        let Some(&chunk) = self.chunks.get(self.next) else {
            return Ok(None);
        };
        self.source
            .read_chunk_indexed(chunk as usize, &mut self.buf)?;
        self.pos = 0;
        self.next += 1;
        Ok(Some(&self.buf))
    }

    /// Lower bound on the global index of the run's next *undecoded*
    /// record: the next chunk's first index, or `u64::MAX` at end of run.
    fn next_chunk_first_index(&self) -> u64 {
        self.chunks
            .get(self.next)
            .map_or(u64::MAX, |&c| self.source.chunk_first_index(c as usize))
    }
}

/// The streaming supply (see the module docs).
pub(super) struct StreamSupply<'a, S: TraceSource + ?Sized> {
    runs: Vec<ChunkRun<'a, S>>,
    /// Keep only records of this neighborhood (foreign records are
    /// discarded unpublished: their owning shard publishes them).
    filter: Option<u32>,
    users: UserMap,
    catalog: &'a ProgramCatalog,
    config: &'a SimConfig,
    segmenter: Segmenter,
    seg_len: u64,
    /// Staged sessions: up to a whole chunk's worth on the single-run
    /// batch path, at most one on the multi-run merge path.
    pending: VecDeque<PendingSession>,
}

impl<'a, S: TraceSource + ?Sized> StreamSupply<'a, S> {
    pub(super) fn new(
        source: &'a S,
        run_chunks: impl IntoIterator<Item = &'a [u32]>,
        filter: Option<u32>,
        users: UserMap,
        config: &'a SimConfig,
        segmenter: Segmenter,
    ) -> Self {
        StreamSupply {
            runs: run_chunks
                .into_iter()
                .map(|chunks| ChunkRun::new(source, chunks))
                .collect(),
            filter,
            users,
            catalog: source.catalog(),
            config,
            segmenter,
            seg_len: segmenter.segment_len().as_secs(),
            pending: VecDeque::new(),
        }
    }

    /// Accepts one decoded record: filter, context, feed publication
    /// (filtered-out foreign records are discarded unpublished — their
    /// owning shard publishes them).
    fn accept<F: FeedProvider>(
        &mut self,
        gidx: u64,
        rec: &SessionRecord,
        feed: &mut Option<F>,
    ) -> Result<(), SimError> {
        if let Some(keep) = self.filter {
            if self.users.neighborhood_of_user(rec.user)?.index() as u32 != keep {
                return Ok(());
            }
        }
        let ctx = session_ctx(rec, self.catalog, &self.users, self.seg_len)?;
        if let Some(feed) = feed.as_mut() {
            feed.publish(gidx, feed_event(rec, &ctx, self.config, &self.segmenter));
        }
        self.pending.push_back(PendingSession {
            gidx,
            rec: *rec,
            ctx,
        });
        Ok(())
    }

    /// Single-run staging: decode whole chunks, publishing every accepted
    /// record's feed event at scan time (safe — consumers bound themselves
    /// by their own record index, so an early-published event is never
    /// visible early) and advancing the watermark straight past each
    /// decoded chunk. Chunk-granular watermarks keep shards far apart on
    /// the feed frontier instead of in per-record lock-step.
    fn stage_batch<F: FeedProvider>(&mut self, feed: &mut Option<F>) -> Result<(), SimError> {
        while self.pending.is_empty() {
            if self.runs[0].decode_next()?.is_none() {
                return Ok(()); // exhausted
            }
            // Consume the decoded chunk wholesale (the buffer is loaned
            // out and handed back so its allocation is reused).
            let records = std::mem::take(&mut self.runs[0].buf);
            for &(gidx, ref rec) in &records {
                self.accept(gidx, rec, feed)?;
            }
            self.runs[0].pos = records.len();
            self.runs[0].buf = records;
            if let Some(feed) = feed.as_mut() {
                // Everything before the run's next chunk is published (our
                // accepted records above) or foreign.
                feed.advance(self.runs[0].next_chunk_first_index());
            }
        }
        Ok(())
    }

    /// Multi-run staging: merge the runs by global index, one record at a
    /// time, advancing the watermark just past each staged record.
    fn stage_merge<F: FeedProvider>(&mut self, feed: &mut Option<F>) -> Result<(), SimError> {
        while self.pending.is_empty() {
            // The run holding the globally next record: minimum head gidx.
            let mut best: Option<(u64, usize)> = None;
            for i in 0..self.runs.len() {
                if let Some((gidx, _)) = self.runs[i].head()? {
                    if best.is_none_or(|(b, _)| gidx < b) {
                        best = Some((gidx, i));
                    }
                }
            }
            let Some((gidx, run)) = best else {
                return Ok(()); // exhausted
            };
            let (_, rec) = self.runs[run].head()?.expect("head just observed");
            self.runs[run].pop_head();
            self.accept(gidx, &rec, feed)?;
            if let Some(feed) = feed.as_mut() {
                // Everything below this record is published (our earlier
                // records, in gidx order) or foreign — discards advance
                // the watermark too, so filtered merges never stall the
                // frontier on records they will never own.
                feed.advance(gidx + 1);
            }
        }
        Ok(())
    }

    fn stage<F: FeedProvider>(&mut self, feed: &mut Option<F>) -> Result<(), SimError> {
        if self.runs.len() == 1 {
            self.stage_batch(feed)
        } else if !self.runs.is_empty() {
            self.stage_merge(feed)
        } else {
            Ok(())
        }
    }
}

impl<S: TraceSource + ?Sized, F: FeedProvider> RecordSupply<F> for StreamSupply<'_, S> {
    fn peek(&mut self, feed: &mut Option<F>) -> Result<Option<(SimTime, u64)>, SimError> {
        if self.pending.is_empty() {
            self.stage(feed)?;
        }
        Ok(self.pending.front().map(|p| (p.rec.start, p.gidx)))
    }

    fn take(&mut self) -> PendingSession {
        self.pending.pop_front().expect("a record is staged")
    }
}
