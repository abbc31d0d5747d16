//! Record supplies: where a [`SessionDriver`](super::lifecycle::
//! SessionDriver) gets its sessions from.
//!
//! * [`GatheredSupply`] — one neighborhood's records of a resident trace,
//!   copied out of the slice into one contiguous `(gidx, record)` run
//!   when the shard starts and walked front to back: the supply of the
//!   per-neighborhood resident plan. It keeps no context table — the
//!   context of the session about to start is two table lookups, computed
//!   when it is taken.
//! * [`BlockSupply`] — one neighborhood's slice of the current
//!   [`Block`]: the supply of the **blocked** replay. A [`Demux`] on the
//!   caller's thread decodes each chunk once into the shared block —
//!   a time-major file's next chunk in place, a neighborhood-major file's
//!   cell runs merged back into global order — validates every record,
//!   publishes the block's feed events and advances the watermark past
//!   it, then moves the block's *records* into neighborhood-grouped order
//!   (a stable counting sort, applied in place); every shard's supply
//!   walks its own contiguous run of the block front to back and, once it
//!   is through, reports the block's edge so its driver parks there until
//!   the next block is attached.
//! * [`StreamSupply`] — a shard that decodes its own chunk runs: the
//!   supply of a neighborhood-major file whose grouping **matches** the
//!   plant, under a strategy that takes no feed, where shards share
//!   nothing. It computes contexts at ingestion and publishes nothing.
//!
//! No supply reaches a record through an index: each walks
//! records laid out contiguously in the order it replays them —
//! gathered, grouped, or as its chunks decode.
//!
//! Every streaming replay is sharded per neighborhood; what the engine
//! can observe of the source and the strategy picks the supply, the
//! worker count never does:
//!
//! | source                        | strategy   | supply         | chunk decodes                | reads ahead  |
//! |-------------------------------|------------|----------------|------------------------------|--------------|
//! | time-major                    | any        | `BlockSupply`  | each once, centrally         | the `Demux`  |
//! | matching neighborhood-major   | feed-less  | `StreamSupply` | each once, by its shard      | every supply |
//! | matching neighborhood-major   | takes feed | `BlockSupply`  | each once, centrally, merged | the `Demux`  |
//! | mismatched neighborhood-major | any        | `BlockSupply`  | each once, centrally, merged | the `Demux`  |
//!
//! Under a strategy that looks into the future (the Oracle), whoever
//! stages a neighborhood's records in order also reads the same records
//! `lookahead` further along — a [`LookAhead`], one more cursor over the
//! same chunk runs, so such a run decodes each chunk twice — and hands
//! the accesses it passes, as [`AccessEvent`]s, to the neighborhood's index
//! server ahead of the access that needs them
//! ([`RecordSupply::read_ahead`]): the `Demux` per block, grouped by
//! neighborhood beside the block's records, so the barrier that orders
//! records and feed orders this too; a `StreamSupply` whenever it stages
//! a record.
//!
//! A *placement cell* is the finest partition a multi-index source
//! carries — the intersection of its per-size groupings (a single-index
//! file has one cell per group) — and each cell's chunks form one
//! sequence-ascending [`ChunkRun`]. Wherever records of several runs must
//! come out in global order — a group spanning several cells, the
//! decoder reading a whole neighborhood-major file, either one's
//! look-ahead — the one [`RunMerge`] cursor does it: a binary heap of run
//! heads (run counts are cell counts, tens to a few hundred), which over
//! a single run is plain sequential streaming.

use std::cmp::Reverse;
use std::collections::binary_heap::PeekMut;
use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use cablevod_cache::{AccessEvent, FeedProducer, WatermarkFeed};
use cablevod_hfc::segment::Segmenter;
use cablevod_hfc::topology::Topology;
use cablevod_hfc::units::{SimDuration, SimTime};
use cablevod_trace::catalog::ProgramCatalog;
use cablevod_trace::record::SessionRecord;
use cablevod_trace::source::TraceSource;
use cablevod_trace::TraceError;

use super::lifecycle::{feed_event, session_ctx, PendingSession, RecordSupply};
use crate::config::SimConfig;
use crate::error::SimError;

/// One neighborhood's records of a resident trace as one contiguous run
/// (see the module docs): gathered once, when the shard starts, and
/// dropped with it.
pub(super) struct GatheredSupply<'a> {
    run: Vec<(u64, SessionRecord)>,
    pos: usize,
    catalog: &'a ProgramCatalog,
    topo: &'a Topology,
    seg_len: u64,
}

impl<'a> GatheredSupply<'a> {
    /// Copies `records[i]` for every `i` of `members` — one neighborhood's
    /// record indices, ascending — into the run. Every record was
    /// validated by the pass that listed it (`DriverParts::survey`).
    pub(super) fn gather(
        records: &[SessionRecord],
        members: &[u32],
        catalog: &'a ProgramCatalog,
        topo: &'a Topology,
        segmenter: &Segmenter,
    ) -> Self {
        GatheredSupply {
            run: members
                .iter()
                .map(|&i| (u64::from(i), records[i as usize]))
                .collect(),
            pos: 0,
            catalog,
            topo,
            seg_len: segmenter.segment_len().as_secs(),
        }
    }
}

impl RecordSupply for GatheredSupply<'_> {
    fn peek(&mut self) -> Result<Option<(SimTime, u64)>, SimError> {
        Ok(self.run.get(self.pos).map(|(gidx, rec)| (rec.start, *gidx)))
    }

    fn take(&mut self) -> PendingSession {
        let (gidx, rec) = self.run[self.pos];
        self.pos += 1;
        let ctx = session_ctx(&rec, self.catalog, self.topo, self.seg_len)
            .expect("the survey computed this context once already");
        PendingSession { gidx, rec, ctx }
    }

    fn resident_future(&self) -> Option<Box<dyn Iterator<Item = &SessionRecord> + '_>> {
        Some(Box::new(self.run.iter().map(|(_, rec)| rec)))
    }
}

/// One stretch of the global record order, demultiplexed by
/// neighborhood: the unit of work of the blocked streaming replay. Filled
/// in place by the [`Demux`], read by every shard's [`BlockSupply`].
#[derive(Debug, Default)]
pub(super) struct Block {
    /// The stretch's records, grouped by neighborhood and ascending in
    /// global index within each group (a stable counting sort), so a
    /// group is one contiguous run in global order.
    records: Vec<(u64, SessionRecord)>,
    /// `records[starts[n]..starts[n + 1]]` is neighborhood `n`'s run.
    starts: Vec<u32>,
    /// While more blocks follow: the latest start time decoded so far —
    /// the last record *decoded*, wherever the grouping then put it; no
    /// later session starts before it — and how many records are
    /// published. `None` on the final block.
    edge: Option<(SimTime, u64)>,
    /// Under a strategy that looks ahead: `ahead[n]` is what entered
    /// neighborhood `n`'s look-ahead with this block, after which every
    /// access before `covered` has been handed over.
    ahead: Vec<Vec<AccessEvent>>,
    covered: Option<SimTime>,
}

impl Block {
    /// See the `edge` field.
    pub(super) fn edge(&self) -> Option<(SimTime, u64)> {
        self.edge
    }

    /// Empties the block. Left like this — no records, no edge — it is
    /// the final block of a run.
    pub(super) fn reset(&mut self, nbhd_count: usize) {
        self.records.clear();
        self.starts.clear();
        self.starts.resize(nbhd_count + 2, 0);
        self.edge = None;
        self.ahead.iter_mut().for_each(Vec::clear);
        self.covered = None;
    }
}

/// The decoding side of the blocked replay: walks the source's records
/// in global order, each chunk decoded **once**, and turns each stretch
/// into the next [`Block`]. Lives on the caller's thread; it is the run's
/// only feed producer.
pub(super) struct Demux<'a, S: TraceSource + ?Sized> {
    merge: RunMerge<'a, S>,
    catalog: &'a ProgramCatalog,
    topo: &'a Topology,
    config: &'a SimConfig,
    segmenter: Segmenter,
    nbhd_count: usize,
    /// Records per merged block: the file's mean chunk size, so a block
    /// is a chunk's worth of work in either layout.
    block_records: usize,
    feed: Option<FeedProducer<'a>>,
    /// Under a strategy that looks ahead: the second cursor over `runs`.
    ahead: Option<LookAhead<'a, S>>,
    /// Records handed out so far, which is the global index due next.
    published: u64,
    last_start: SimTime,
    /// Scratch, an entry per record of the block being filled: its
    /// neighborhood, then where the grouping puts it.
    dest: Vec<u32>,
    failure: Option<SimError>,
}

impl<'a, S: TraceSource + ?Sized> Demux<'a, S> {
    /// A decoder over `runs`, which together hold every record of
    /// `source` (see [`super::serial_runs`]), reading `lookahead` ahead
    /// for a strategy that asks for it.
    pub(super) fn new(
        source: &'a S,
        runs: &'a [Vec<u32>],
        topo: &'a Topology,
        config: &'a SimConfig,
        segmenter: Segmenter,
        feed: Option<&'a WatermarkFeed>,
        lookahead: Option<SimDuration>,
    ) -> Self {
        let chunks = source.chunk_count().max(1) as u64;
        Demux {
            merge: RunMerge::new(source, runs.iter().map(Vec::as_slice)),
            catalog: source.catalog(),
            topo,
            config,
            segmenter,
            nbhd_count: topo.neighborhood_count(),
            block_records: source.record_count().div_ceil(chunks).max(1) as usize,
            feed: feed.map(WatermarkFeed::producer_handle),
            ahead: lookahead.map(|lookahead| LookAhead::new(source, runs, lookahead)),
            published: 0,
            last_start: SimTime::EPOCH,
            dest: Vec::new(),
            failure: None,
        }
    }

    /// Fills `block` with the next stretch of records. A decode or
    /// context failure — or a shard's, seen through `aborted` — ends the
    /// run instead: the flag is raised, the block is empty and final, and
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
        self.merge.refill(&mut block.records, self.block_records)?;
        let seg_len = self.segmenter.segment_len().as_secs();
        // Every record's context is computed here — it validates the
        // record, names its neighborhood and sizes its feed event — but
        // not kept: a shard recomputes the one it is about to start
        // (`BlockSupply::take`), which costs two table lookups and saves
        // a context-sized column per block. What is kept is the counting
        // sort of the records by neighborhood: tally into `starts[n + 2]`,
        // prefix-sum so `starts[n + 1]` is where `n`'s run begins, then
        // number every record's place through it — which leaves it at
        // the run's end, that is, at the beginning of `n + 1`'s — and
        // move the records there.
        self.dest.clear();
        for (gidx, rec) in &block.records {
            // The feed is addressed by global index and every consumer
            // trusts that `0..=g` is published once `g` was handed out,
            // so a file whose runs do not merge back into the dense
            // global sequence is rejected, not replayed.
            if *gidx != self.published {
                return Err(SimError::Trace(TraceError::Format {
                    reason: format!(
                        "record {gidx} arrived where record {} was due: the file's \
                         sequence numbers are not a permutation of its records",
                        self.published
                    ),
                }));
            }
            self.published += 1;
            let ctx = session_ctx(rec, self.catalog, self.topo, seg_len)?;
            if let Some(feed) = self.feed.as_mut() {
                feed.publish(*gidx, feed_event(rec, &ctx, self.config, &self.segmenter));
            }
            block.starts[ctx.nbhd as usize + 2] += 1;
            self.dest.push(ctx.nbhd);
        }
        // The edge is the last record decoded: read it before the
        // grouping moves another neighborhood's tail there.
        if let Some((_, rec)) = block.records.last() {
            self.last_start = rec.start;
        }
        for n in 1..block.starts.len() {
            block.starts[n] += block.starts[n - 1];
        }
        for dest in &mut self.dest {
            let slot = &mut block.starts[*dest as usize + 1];
            *dest = *slot;
            *slot += 1;
        }
        // Apply the permutation in place, cycle by cycle: every swap puts
        // one record where it belongs for good — at most one swap a
        // record, and no second block-sized buffer.
        for at in 0..self.dest.len() {
            while self.dest[at] as usize != at {
                let to = self.dest[at] as usize;
                block.records.swap(at, to);
                self.dest.swap(at, to);
            }
        }
        if let Some(feed) = self.feed.as_mut() {
            feed.advance(self.published);
        }
        let more = self.merge.has_more();
        if more {
            block.edge = Some((self.last_start, self.published));
        }
        if let Some(ahead) = self.ahead.as_mut() {
            // Until the next block is attached no shard starts a session
            // after `last_start`, so that is the `now` the look-ahead has
            // to be ahead of; the last block takes whatever is left.
            block.ahead.resize_with(self.nbhd_count, Vec::new);
            ahead.advance(more.then_some(self.last_start), |rec| {
                let nbhd = self.topo.neighborhood_of_user(rec.user)?;
                block.ahead[nbhd.index()].push(AccessEvent::new(rec.start, rec.program)?);
                Ok(())
            })?;
            block.covered = Some(ahead.covered());
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
    /// The last attached block and its `covered`, until its look-ahead
    /// slice is handed over.
    ahead: Option<(Arc<Block>, SimTime)>,
    catalog: &'a ProgramCatalog,
    topo: &'a Topology,
    seg_len: u64,
}

impl<'a> BlockSupply<'a> {
    pub(super) fn new(
        nbhd: usize,
        catalog: &'a ProgramCatalog,
        topo: &'a Topology,
        segmenter: &Segmenter,
    ) -> Self {
        BlockSupply {
            nbhd,
            block: None,
            pos: 0,
            end: 0,
            resumes: Some(SimTime::EPOCH),
            ahead: None,
            catalog,
            topo,
            seg_len: segmenter.segment_len().as_secs(),
        }
    }

    /// Hands the supply the next block.
    pub(super) fn attach(&mut self, block: &Arc<Block>) {
        debug_assert!(self.block.is_none(), "the previous run was not drained");
        self.resumes = block.edge.map(|(edge, _)| edge);
        self.ahead = block.covered.map(|covered| (Arc::clone(block), covered));
        self.pos = block.starts[self.nbhd] as usize;
        self.end = block.starts[self.nbhd + 1] as usize;
        if self.pos < self.end {
            self.block = Some(Arc::clone(block));
        }
    }
}

impl RecordSupply for BlockSupply<'_> {
    fn peek(&mut self) -> Result<Option<(SimTime, u64)>, SimError> {
        Ok(self.block.as_ref().map(|block| {
            let (gidx, rec) = &block.records[self.pos];
            (rec.start, *gidx)
        }))
    }

    fn take(&mut self) -> PendingSession {
        let block = self.block.as_ref().expect("a record is staged");
        let (gidx, rec) = block.records[self.pos];
        let ctx = session_ctx(&rec, self.catalog, self.topo, self.seg_len)
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

    fn read_ahead(
        &mut self,
        sink: impl FnOnce(&[AccessEvent], SimTime) -> Result<(), SimError>,
    ) -> Result<(), SimError> {
        match self.ahead.take() {
            Some((block, covered)) => sink(&block.ahead[self.nbhd], covered),
            None => Ok(()),
        }
    }
}

/// A sequential cursor over a gidx-ascending list of chunk ids, holding
/// one decoded chunk at a time.
struct ChunkRun<'a, S: TraceSource + ?Sized> {
    source: &'a S,
    chunks: &'a [u32],
    /// Position in `chunks` of the next one to decode.
    next: usize,
    buf: Vec<(u64, SessionRecord)>,
    pos: usize,
}

impl<S: TraceSource + ?Sized> ChunkRun<'_, S> {
    /// Decodes the run's next chunk into `out`, cleared first; at the end
    /// of the run `out` stays empty.
    fn decode_next(&mut self, out: &mut Vec<(u64, SessionRecord)>) -> Result<(), SimError> {
        out.clear();
        if let Some(&chunk) = self.chunks.get(self.next) {
            self.source.read_chunk_indexed(chunk as usize, out)?;
            self.next += 1;
        }
        Ok(())
    }

    /// The run's head record, decoding forward as needed; `None` at end.
    fn head(&mut self) -> Result<Option<(u64, SessionRecord)>, SimError> {
        while self.pos == self.buf.len() {
            if self.next == self.chunks.len() {
                return Ok(None);
            }
            let mut buf = std::mem::take(&mut self.buf);
            self.decode_next(&mut buf)?;
            (self.buf, self.pos) = (buf, 0);
        }
        Ok(Some(self.buf[self.pos]))
    }
}

/// The one sequence-number merge (see the module docs): a cursor handing
/// out the records of its [`ChunkRun`]s in global order, holding one
/// decoded chunk per run.
pub(super) struct RunMerge<'a, S: TraceSource + ?Sized> {
    runs: Vec<ChunkRun<'a, S>>,
    /// One `(key, run)` entry per run not yet found exhausted, smallest
    /// key first. A key is the global index at the run's head or, while
    /// the chunk holding that head is still undecoded, a lower bound on
    /// it.
    heads: BinaryHeap<Reverse<(u64, usize)>>,
}

impl<'a, S: TraceSource + ?Sized> RunMerge<'a, S> {
    /// A cursor over `runs`, each a gidx-ascending chunk list of `source`.
    pub(super) fn new(source: &'a S, runs: impl IntoIterator<Item = &'a [u32]>) -> Self {
        let run = |chunks| ChunkRun {
            source,
            chunks,
            next: 0,
            buf: Vec::new(),
            pos: 0,
        };
        let runs: Vec<_> = runs.into_iter().map(run).collect();
        RunMerge {
            heads: (0..runs.len()).map(|i| Reverse((0, i))).collect(),
            runs,
        }
    }

    /// The globally next record — the minimum head across runs — or
    /// `None` once every run is exhausted.
    pub(super) fn next(&mut self) -> Result<Option<(u64, SessionRecord)>, SimError> {
        while let Some(mut top) = self.heads.peek_mut() {
            let Reverse((key, i)) = *top;
            let run = &mut self.runs[i];
            let Some((gidx, rec)) = run.head()? else {
                PeekMut::pop(top);
                continue;
            };
            if key < gidx {
                // Only a bound until now: refile the run under its real
                // head, which another run's may precede.
                *top = Reverse((gidx, i));
                continue;
            }
            run.pos += 1;
            // Across a chunk boundary the next head is not decoded until
            // it is its turn; until then, what it cannot be below.
            let next = run.buf.get(run.pos).map_or(gidx + 1, |&(next, _)| next);
            *top = Reverse((next, i));
            return Ok(Some((gidx, rec)));
        }
        Ok(None)
    }

    /// Refills `out` with the next stretch of the global order: up to
    /// `limit` merged records — or, from a lone run (a time-major source),
    /// its next chunk whole, decoded in place with no per-record copy.
    pub(super) fn refill(
        &mut self,
        out: &mut Vec<(u64, SessionRecord)>,
        limit: usize,
    ) -> Result<(), SimError> {
        if let [run] = &mut self.runs[..] {
            if run.pos == run.buf.len() {
                return run.decode_next(out);
            }
        }
        out.clear();
        while out.len() < limit {
            let Some(record) = self.next()? else { break };
            out.push(record);
        }
        Ok(())
    }

    /// Whether a buffered record or an undecoded chunk remains. (A file
    /// may end in empty chunks; then the stretch after the last record is
    /// simply empty.)
    pub(super) fn has_more(&self) -> bool {
        self.runs
            .iter()
            .any(|run| run.pos < run.buf.len() || run.next < run.chunks.len())
    }
}

/// The read-ahead of a strategy that looks into the future (see the
/// module docs): a second cursor over the chunk runs a replay reads, kept
/// `lookahead` ahead of it.
pub(super) struct LookAhead<'a, S: TraceSource + ?Sized> {
    merge: RunMerge<'a, S>,
    lookahead: SimDuration,
    /// Read already, but at or past every horizon so far.
    held: Option<SessionRecord>,
    covered: SimTime,
}

impl<'a, S: TraceSource + ?Sized> LookAhead<'a, S> {
    pub(super) fn new(source: &'a S, runs: &'a [Vec<u32>], lookahead: SimDuration) -> Self {
        LookAhead {
            merge: RunMerge::new(source, runs.iter().map(Vec::as_slice)),
            lookahead,
            held: None,
            covered: SimTime::EPOCH,
        }
    }

    /// The instant before which every record has been passed on:
    /// [`SimTime::MAX`] once the runs are exhausted.
    pub(super) fn covered(&self) -> SimTime {
        self.covered
    }

    /// Reads on to `lookahead` past `now` — to the end of the runs when
    /// the replay has no record left to name a `now` — passing `sink`
    /// every record on the way, in global order. Returns whether
    /// [`covered`](Self::covered) moved.
    pub(super) fn advance(
        &mut self,
        now: Option<SimTime>,
        mut sink: impl FnMut(&SessionRecord) -> Result<(), SimError>,
    ) -> Result<bool, SimError> {
        let horizon = now.map_or(SimTime::MAX, |now| now.saturating_add(self.lookahead));
        if horizon <= self.covered {
            return Ok(false);
        }
        loop {
            let next = match self.held.take() {
                Some(rec) => Some(rec),
                None => self.merge.next()?.map(|(_, rec)| rec),
            };
            match next {
                Some(rec) if rec.start < horizon => sink(&rec)?,
                Some(rec) => {
                    self.held = Some(rec);
                    self.covered = horizon;
                    return Ok(true);
                }
                None => {
                    self.covered = SimTime::MAX;
                    return Ok(true);
                }
            }
        }
    }
}

/// A [`StreamSupply`]'s read-ahead: the cursor, and scratch for one
/// hand-over.
struct ReadAhead<'a, S: TraceSource + ?Sized> {
    cursor: LookAhead<'a, S>,
    events: Vec<AccessEvent>,
}

/// The supply of a shard that decodes its own chunk runs (see the module
/// docs): its group's cell runs merged by global index, one record staged
/// at a time.
pub(super) struct StreamSupply<'a, S: TraceSource + ?Sized> {
    merge: RunMerge<'a, S>,
    catalog: &'a ProgramCatalog,
    topo: &'a Topology,
    seg_len: u64,
    staged: Option<PendingSession>,
    ahead: Option<ReadAhead<'a, S>>,
}

impl<'a, S: TraceSource + ?Sized> StreamSupply<'a, S> {
    /// The supply of a neighborhood over its own `runs`, reading
    /// `lookahead` ahead for a strategy that asks for it.
    pub(super) fn new(
        source: &'a S,
        runs: &'a [Vec<u32>],
        topo: &'a Topology,
        segmenter: &Segmenter,
        lookahead: Option<SimDuration>,
    ) -> Self {
        StreamSupply {
            merge: RunMerge::new(source, runs.iter().map(Vec::as_slice)),
            catalog: source.catalog(),
            topo,
            seg_len: segmenter.segment_len().as_secs(),
            staged: None,
            ahead: lookahead.map(|lookahead| ReadAhead {
                cursor: LookAhead::new(source, runs, lookahead),
                events: Vec::new(),
            }),
        }
    }
}

impl<S: TraceSource + ?Sized> RecordSupply for StreamSupply<'_, S> {
    fn peek(&mut self) -> Result<Option<(SimTime, u64)>, SimError> {
        if self.staged.is_none() {
            if let Some((gidx, rec)) = self.merge.next()? {
                let ctx = session_ctx(&rec, self.catalog, self.topo, self.seg_len)?;
                self.staged = Some(PendingSession { gidx, rec, ctx });
            }
        }
        Ok(self.staged.as_ref().map(|p| (p.rec.start, p.gidx)))
    }

    fn take(&mut self) -> PendingSession {
        self.staged.take().expect("a record is staged")
    }

    fn read_ahead(
        &mut self,
        sink: impl FnOnce(&[AccessEvent], SimTime) -> Result<(), SimError>,
    ) -> Result<(), SimError> {
        let Some(ahead) = self.ahead.as_mut() else {
            return Ok(());
        };
        // The staged record is the latest access there can be until the
        // next one is staged.
        let now = self.staged.as_ref().map(|staged| staged.rec.start);
        ahead.events.clear();
        let moved = ahead.cursor.advance(now, |rec| {
            ahead.events.push(AccessEvent::new(rec.start, rec.program)?);
            Ok(())
        })?;
        if moved {
            sink(&ahead.events, ahead.cursor.covered())?;
        }
        Ok(())
    }
}
