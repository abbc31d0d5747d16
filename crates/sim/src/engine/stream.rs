//! Record supplies: where a
//! [`SessionDriver`](super::lifecycle::SessionDriver) gets its sessions
//! from.
//!
//! * [`StreamSupply`] — a shard that reads its own chunk runs, merged by
//!   global index: the supply of every shard that shares nothing with
//!   another while it runs. Its chunks come from a [`ChunkSource`], one of
//!   two:
//!   - a neighborhood-major file whose grouping **matches** the plant,
//!     under a strategy that takes no feed (the sweep fast path): each
//!     chunk decoded by its shard;
//!   - a resident trace's [`Strides`]: the survey
//!     (`DriverParts::survey`) lists each neighborhood's record indices
//!     and cuts the list into strides of at most [`STRIDE`] records, each
//!     a chunk, gathered as `(i, records[i])` for every index `i` of it
//!     when a cursor reaches it. A neighborhood's run is its list of
//!     stride ids, the shape of a file's chunk index.
//!
//!   It is the one supply that reads its own chunks; it computes contexts
//!   at ingestion and publishes nothing.
//! * [`BlockSupply`] — one neighborhood's slice of the current
//!   [`Block`]: the one supply fed from outside its driver, by whoever
//!   fills the shared block on the caller's thread — the **blocked**
//!   replay's [`Demux`], or the online engine's ingress
//!   (`online::Ingress`). A `Demux` decodes each chunk once into the
//!   block — a time-major file's next chunk in place, a
//!   neighborhood-major file's cell runs merged back into global order;
//!   the ingress moves in the sessions submitted before the live clock's
//!   next second. Either validates every record and appends the block's
//!   feed events to the run's feed, then moves the block's *records* into
//!   neighborhood-grouped order ([`Block::group`], a stable counting sort
//!   applied in place); every shard's supply walks its own contiguous run
//!   of the block front to back and, once it is through, reports the
//!   block's edge so its driver parks there until the next block is
//!   attached.
//!
//! No supply reaches a record through an index as it replays: each walks
//! records laid out contiguously in the order it replays them — a
//! chunk as it decodes, a stride as it is gathered, or a block's group.
//! A stride is a chunk so that a shard holds one stride a cursor, 160 KiB
//! of `(u64, SessionRecord)`, whatever its neighborhood's load, and few
//! enough chunk steps that walking it costs what one contiguous run did.
//!
//! Every replay is sharded per neighborhood; what the engine can observe
//! of the source and the strategy picks the supply, the worker count
//! never does:
//!
//! | source                        | strategy   | supply         | chunks                           | reads ahead  | reads behind |
//! |-------------------------------|------------|----------------|----------------------------------|--------------|--------------|
//! | resident                      | any        | `StreamSupply` | strides, gathered by its shard   | every supply | every supply |
//! | matching neighborhood-major   | feed-less  | `StreamSupply` | each decoded once, by its shard  | every supply | every supply |
//! | time-major                    | any        | `BlockSupply`  | each decoded once, centrally     | the `Demux`  | the `Demux`  |
//! | matching neighborhood-major   | takes feed | `BlockSupply`  | each once, centrally, merged     | the `Demux`  | the `Demux`  |
//! | mismatched neighborhood-major | any        | `BlockSupply`  | each once, centrally, merged     | the `Demux`  | the `Demux`  |
//! | online submissions            | any        | `BlockSupply`  | none: the ingress's blocks       | the ingress  | the ingress  |
//!
//! Under a strategy that looks into the future (the Oracle), whoever
//! stages a neighborhood's records in order also reads the same records
//! `lookahead` further along and hands the accesses it passes, as
//! [`AccessEvent`]s, to the neighborhood's index server ahead of the
//! access that needs them ([`RecordSupply::read_ahead`]): the `Demux` per
//! block, grouped by neighborhood beside the block's records, so the
//! block boundary that orders records and feed orders this too; a
//! `StreamSupply` whenever it stages a record. Either reading is a
//! [`RunCursor`], one more cursor over the same chunk runs, so such a run
//! reads each chunk twice: from a file, a second decode; from a resident
//! trace, a second gather. The online ingress has its schedule in memory
//! already and hands each neighborhood all of it in the first block.
//!
//! Under a strategy that remembers its past (the windowed LFU family) the
//! same staging reads the records a second time `window` *behind* the
//! replay — the look-ahead's mirror, the same kind of [`RunCursor`],
//! bounded by the window's trailing edge instead of the look-ahead's
//! leading one — and hands each access back to its index server as it
//! leaves the history window ([`RecordSupply::read_behind`]): the `Demux`
//! per block, `window` behind the block's edge, its slice grouped beside
//! the look-ahead's and handed back by the `BlockSupply` access by
//! access; a `StreamSupply` before every access. The cursor reads nothing
//! until the window's edge reaches the replay's first record, so a window
//! longer than the run reads nothing twice; a shorter one reads again the
//! chunks its edge has passed, holding one chunk a run instead of a copy
//! of the window in every index. The online ingress, with no chunks to
//! read again, keeps one ring of the accesses submitted instead, and
//! slices it into each block the same way.
//!
//! A *placement cell* is the finest partition a multi-index source
//! carries — the intersection of its per-size groupings (a single-index
//! file has one cell per group) — and each cell's chunks form one
//! sequence-ascending [`ChunkRun`]. Wherever records of several runs must
//! come out in global order — a group spanning several cells, the
//! decoder reading a whole neighborhood-major file, either one's
//! second cursor — the one [`RunMerge`] cursor does it: a binary heap of run
//! heads (run counts are cell counts, tens to a few hundred), which over
//! a single run — a time-major file, a single-index file's group, a
//! resident neighborhood's strides — is plain sequential streaming.

use std::cmp::Reverse;
use std::collections::binary_heap::PeekMut;
use std::collections::BinaryHeap;
use std::sync::Arc;

use cablevod_cache::{AccessEvent, Feed, StrategyFactory};
use cablevod_hfc::segment::Segmenter;
use cablevod_hfc::topology::Topology;
use cablevod_hfc::units::{SimDuration, SimTime};
use cablevod_trace::catalog::ProgramCatalog;
use cablevod_trace::record::SessionRecord;
use cablevod_trace::source::TraceSource;
use cablevod_trace::TraceError;

use super::lifecycle::{feed_event, session_ctx, PendingSession, RecordSupply};
use super::DriverParts;
use crate::config::SimConfig;
use crate::error::SimError;

/// The most records of one neighborhood a [`Strides`] chunk holds (see
/// the module docs).
pub(super) const STRIDE: usize = 4_096;

/// Where a [`ChunkRun`] reads its chunks: a [`TraceSource`]'s, decoded,
/// or a resident trace's [`Strides`], gathered. The one thing the cursors
/// below ask of their source.
pub(super) trait ChunkSource {
    /// Reads `chunk` into `out`, cleared first, as `(global index,
    /// record)` pairs, ascending in global index.
    fn fetch(&self, chunk: u32, out: &mut Vec<(u64, SessionRecord)>) -> Result<(), TraceError>;
}

impl<S: TraceSource + ?Sized> ChunkSource for S {
    fn fetch(&self, chunk: u32, out: &mut Vec<(u64, SessionRecord)>) -> Result<(), TraceError> {
        self.read_chunk_indexed(chunk as usize, out)
    }
}

/// A resident trace as chunks (see the module docs): each neighborhood's
/// record indices, ascending, cut into strides of at most [`STRIDE`],
/// numbered in neighborhood order.
pub(super) struct Strides<'a> {
    records: &'a [SessionRecord],
    members: Vec<Vec<u32>>,
    /// Chunk `c` is `members[n][from..]`, cut at [`STRIDE`] records, for
    /// `(n, from) = chunks[c]`.
    chunks: Vec<(u32, u32)>,
    /// `runs[n]` is neighborhood `n`'s one run of chunk ids: the shape of
    /// a neighborhood-major file's chunk index.
    pub(super) runs: Vec<Vec<Vec<u32>>>,
}

impl<'a> Strides<'a> {
    /// Cuts `members` — one list of ascending indices into `records` a
    /// neighborhood, every record validated by the pass that listed it
    /// (`DriverParts::survey`) — into strides.
    pub(super) fn new(records: &'a [SessionRecord], members: Vec<Vec<u32>>) -> Self {
        let mut chunks = Vec::new();
        let runs = (0u32..)
            .zip(&members)
            .map(|(n, list)| {
                let run = (0..list.len() as u32)
                    .step_by(STRIDE)
                    .map(|from| {
                        chunks.push((n, from));
                        chunks.len() as u32 - 1
                    })
                    .collect();
                vec![run]
            })
            .collect();
        Strides {
            records,
            members,
            chunks,
            runs,
        }
    }
}

impl ChunkSource for Strides<'_> {
    fn fetch(&self, chunk: u32, out: &mut Vec<(u64, SessionRecord)>) -> Result<(), TraceError> {
        let (n, from) = self.chunks[chunk as usize];
        let rest = &self.members[n as usize][from as usize..];
        out.clear();
        out.extend(
            rest[..rest.len().min(STRIDE)]
                .iter()
                .map(|&i| (u64::from(i), self.records[i as usize])),
        );
        Ok(())
    }
}

/// The instant just past `until`: what a hand-back of every access at or
/// before `until` covers.
pub(super) fn past(until: SimTime) -> SimTime {
    until.saturating_add(SimDuration::from_secs(1))
}

/// The instant a read-ahead has to reach: `lookahead` past `now`, the
/// start of the latest access there can be until the next is staged —
/// or, with no access left to stage, the end of time.
fn ahead_of(now: Option<SimTime>, lookahead: SimDuration) -> SimTime {
    now.map_or(SimTime::MAX, |now| now.saturating_add(lookahead))
}

/// One stretch of the global record order, demultiplexed by
/// neighborhood: the unit of work of the blocked replay. Filled in place
/// by its producer — the [`Demux`] decoding a file, or the online
/// ingress (`online::Ingress`) — and read by every shard's
/// [`BlockSupply`].
#[derive(Debug, Default)]
pub(super) struct Block {
    /// The stretch's records, grouped by neighborhood and ascending in
    /// global index within each group ([`Block::group`]), so a group is
    /// one contiguous run in global order.
    pub(super) records: Vec<(u64, SessionRecord)>,
    /// `records[starts[n]..starts[n + 1]]` is neighborhood `n`'s run.
    starts: Vec<u32>,
    /// While more blocks follow: no session of a later block starts
    /// before it — the start of the last record the [`Demux`] decoded,
    /// wherever the grouping then put it, or the second after the online
    /// clock's "now". `None` on the final block.
    pub(super) edge: Option<SimTime>,
    /// Under a strategy that looks ahead: `ahead[n]` is what entered
    /// neighborhood `n`'s look-ahead with this block, after which every
    /// access before `covered` has been handed over.
    pub(super) ahead: Vec<Vec<AccessEvent>>,
    pub(super) covered: Option<SimTime>,
    /// Under a strategy that remembers its past: `behind[n]` is what left
    /// neighborhood `n`'s history window with this block, after which
    /// every access before `behind_covered` has been handed back.
    pub(super) behind: Vec<Vec<AccessEvent>>,
    pub(super) behind_covered: Option<SimTime>,
}

impl Block {
    /// Empties the block for the next fill.
    pub(super) fn reset(&mut self, nbhd_count: usize) {
        self.records.clear();
        self.starts.clear();
        self.starts.resize(nbhd_count + 2, 0);
        self.edge = None;
        self.ahead.iter_mut().for_each(Vec::clear);
        self.covered = None;
        self.behind.iter_mut().for_each(Vec::clear);
        self.behind_covered = None;
    }

    /// Moves the block's records into neighborhood-grouped order, `dest`
    /// naming each record's neighborhood: a stable counting sort, applied
    /// in place — the one grouping of every block, the [`Demux`]'s and
    /// the online ingress's. Tally into `starts[n + 2]`, prefix-sum so
    /// `starts[n + 1]` is where `n`'s run begins, then number every
    /// record's place through it — which leaves it at the run's end, that
    /// is, at the beginning of `n + 1`'s — and move the records there;
    /// `dest` is left a scratch.
    pub(super) fn group(&mut self, dest: &mut [u32]) {
        debug_assert_eq!(dest.len(), self.records.len());
        for &n in dest.iter() {
            self.starts[n as usize + 2] += 1;
        }
        for n in 1..self.starts.len() {
            self.starts[n] += self.starts[n - 1];
        }
        for dest in dest.iter_mut() {
            let slot = &mut self.starts[*dest as usize + 1];
            *dest = *slot;
            *slot += 1;
        }
        // Apply the permutation cycle by cycle: every swap puts one
        // record where it belongs for good — at most one swap a record,
        // and no second block-sized buffer.
        for at in 0..dest.len() {
            while dest[at] as usize != at {
                let to = dest[at] as usize;
                self.records.swap(at, to);
                dest.swap(at, to);
            }
        }
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
    /// Under a strategy that looks ahead: the second cursor over `runs`,
    /// and how far ahead of the block's edge it reads.
    ahead: Option<(RunCursor<'a, S>, SimDuration)>,
    /// Under a strategy that remembers its past: the trailing cursor over
    /// `runs`, and how far behind the block's edge it trails.
    behind: Option<(RunCursor<'a, S>, SimDuration)>,
    /// Records handed out so far, which is the global index due next.
    published: u64,
    last_start: SimTime,
    /// Scratch, an entry per record of the block being filled: its
    /// neighborhood, then where the grouping puts it.
    dest: Vec<u32>,
}

impl<'a, S: TraceSource + ?Sized> Demux<'a, S> {
    /// A decoder over `runs`, which together hold every record of
    /// `source` (see [`super::serial_runs`]), reading ahead and behind as
    /// far as `strategy` looks into its future and remembers its past.
    pub(super) fn new(
        source: &'a S,
        runs: &'a [Vec<u32>],
        topo: &'a Topology,
        config: &'a SimConfig,
        segmenter: Segmenter,
        strategy: &dyn StrategyFactory,
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
            ahead: strategy
                .schedule_lookahead()
                .map(|lookahead| (RunCursor::new(source, runs), lookahead)),
            behind: strategy
                .history_window()
                .map(|window| (RunCursor::new(source, runs), window)),
            published: 0,
            last_start: SimTime::EPOCH,
            dest: Vec::new(),
        }
    }

    /// Fills `block` with the next stretch of records, and appends their
    /// events to `feed` under a strategy that takes one: the final block
    /// carries no edge.
    ///
    /// # Errors
    ///
    /// A decode failure, a record out of the global sequence, or one
    /// [`session_ctx`] refuses.
    pub(super) fn fill(
        &mut self,
        block: &mut Block,
        mut feed: Option<&mut Feed>,
    ) -> Result<(), SimError> {
        block.reset(self.nbhd_count);
        self.merge.refill(&mut block.records, self.block_records)?;
        if let (Some((behind, _)), Some((_, rec))) = (self.behind.as_mut(), block.records.first()) {
            behind.note_first(rec.start);
        }
        let seg_len = self.segmenter.segment_len().as_secs();
        // Every record's context is computed here — it validates the
        // record, names its neighborhood and sizes its feed event — but
        // not kept: a shard recomputes the one it is about to start
        // (`BlockSupply::take`), which costs two table lookups and saves
        // a context-sized column per block.
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
            if let Some(feed) = feed.as_deref_mut() {
                feed.push(feed_event(rec, &ctx, self.config, &self.segmenter));
            }
            self.dest.push(ctx.nbhd);
        }
        // The edge is the last record decoded: read it before the
        // grouping moves another neighborhood's tail there.
        if let Some((_, rec)) = block.records.last() {
            self.last_start = rec.start;
        }
        block.group(&mut self.dest);
        let more = self.merge.has_more();
        if more {
            block.edge = Some(self.last_start);
        }
        if let Some((ahead, lookahead)) = self.ahead.as_mut() {
            // Until the next block is attached no shard starts a session
            // after `last_start`, so that is the `now` the look-ahead has
            // to be ahead of; the last block takes whatever is left.
            block.ahead.resize_with(self.nbhd_count, Vec::new);
            let horizon = ahead_of(more.then_some(self.last_start), *lookahead);
            ahead.advance(horizon, |rec| {
                let nbhd = self.topo.neighborhood_of_user(rec.user)?;
                block.ahead[nbhd.index()].push(AccessEvent::new(rec.start, rec.program)?);
                Ok(())
            })?;
            block.covered = Some(ahead.covered());
        }
        if let Some((behind, window)) = self.behind.as_mut() {
            // Until the next block is attached no shard's `now` passes
            // `last_start` — the final block's included — so that is what
            // the history has to be handed back for; what the cursor
            // reads past it waits for the next block.
            block.behind.resize_with(self.nbhd_count, Vec::new);
            if let Some(until) = self.last_start.checked_sub(*window) {
                behind.advance(past(until), |rec| {
                    let nbhd = self.topo.neighborhood_of_user(rec.user)?;
                    block.behind[nbhd.index()].push(AccessEvent::new(rec.start, rec.program)?);
                    Ok(())
                })?;
                block.behind_covered = Some(past(until));
            }
        }
        Ok(())
    }
}

/// One neighborhood's run of the current [`Block`] (see the module
/// docs). Holds the block only while records of its run remain, so by
/// the time every shard is parked at the edge the block's producer owns
/// it again and refills it in place.
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
    /// The last attached block, until its read-behind slice is handed
    /// back, and how much of the slice has been.
    behind: Option<(Arc<Block>, usize)>,
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
            behind: None,
            catalog,
            topo,
            seg_len: segmenter.segment_len().as_secs(),
        }
    }

    /// Hands the supply the next block.
    pub(super) fn attach(&mut self, block: &Arc<Block>) {
        debug_assert!(self.block.is_none(), "the previous run was not drained");
        self.resumes = block.edge;
        self.ahead = block.covered.map(|covered| (Arc::clone(block), covered));
        debug_assert!(
            self.behind.is_none(),
            "the last read-behind was not handed back"
        );
        self.behind = block.behind_covered.map(|_| (Arc::clone(block), 0));
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
            .expect("the block's producer computed this context once already");
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

    /// Hands back the attached block's slice as far as `until`; the idle
    /// sweep at the block's edge hands back the rest and lets go of the
    /// block.
    fn read_behind(
        &mut self,
        until: SimTime,
        sink: impl FnOnce(&[AccessEvent], SimTime) -> Result<(), SimError>,
    ) -> Result<(), SimError> {
        let Some((block, from)) = self.behind.take() else {
            return Ok(());
        };
        let rest = &block.behind[self.nbhd][from..];
        let leaving = rest.partition_point(|e| e.at() <= until);
        if leaving == rest.len() {
            let covered = block
                .behind_covered
                .expect("a slice comes with its instant");
            debug_assert!(until < covered, "a block hands back through its edge");
            return sink(rest, covered);
        }
        let handed = sink(&rest[..leaving], past(until));
        self.behind = Some((block, from + leaving));
        handed
    }
}

/// A sequential cursor over a gidx-ascending list of chunk ids, holding
/// one decoded chunk at a time.
struct ChunkRun<'a, C: ChunkSource + ?Sized> {
    source: &'a C,
    chunks: &'a [u32],
    /// Position in `chunks` of the next one to decode.
    next: usize,
    buf: Vec<(u64, SessionRecord)>,
    pos: usize,
}

impl<C: ChunkSource + ?Sized> ChunkRun<'_, C> {
    /// Decodes the run's next chunk into `out`, cleared first; at the end
    /// of the run `out` stays empty.
    fn decode_next(&mut self, out: &mut Vec<(u64, SessionRecord)>) -> Result<(), SimError> {
        out.clear();
        if let Some(&chunk) = self.chunks.get(self.next) {
            self.source.fetch(chunk, out)?;
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
pub(super) struct RunMerge<'a, C: ChunkSource + ?Sized> {
    runs: Vec<ChunkRun<'a, C>>,
    /// One `(key, run)` entry per run not yet found exhausted, smallest
    /// key first. A key is the global index at the run's head or, while
    /// the chunk holding that head is still undecoded, a lower bound on
    /// it.
    heads: BinaryHeap<Reverse<(u64, usize)>>,
}

impl<'a, C: ChunkSource + ?Sized> RunMerge<'a, C> {
    /// A cursor over `runs`, each a gidx-ascending chunk list of `source`.
    pub(super) fn new(source: &'a C, runs: impl IntoIterator<Item = &'a [u32]>) -> Self {
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

/// A second cursor over the chunk runs a replay reads (see the module
/// docs): kept `lookahead` ahead of the replay for a strategy that looks
/// into its future, or a history window behind it for one that remembers
/// its past. Either way it passes on, in global order, every record that
/// starts before a bound that only moves forward.
pub(super) struct RunCursor<'a, C: ChunkSource + ?Sized> {
    merge: RunMerge<'a, C>,
    /// Read already, but at or past every bound so far.
    held: Option<SessionRecord>,
    /// Every record starting before this instant has been passed on:
    /// [`SimTime::MAX`] once the runs are exhausted.
    covered: SimTime,
    /// The start of the first record the replay staged, once noted: no
    /// record precedes it, so a bound short of it reads nothing — and a
    /// history window that never reaches back that far decodes nothing.
    first: Option<SimTime>,
}

impl<'a, C: ChunkSource + ?Sized> RunCursor<'a, C> {
    pub(super) fn new(source: &'a C, runs: &'a [Vec<u32>]) -> Self {
        RunCursor {
            merge: RunMerge::new(source, runs.iter().map(Vec::as_slice)),
            held: None,
            covered: SimTime::EPOCH,
            first: None,
        }
    }

    /// See the `covered` field.
    pub(super) fn covered(&self) -> SimTime {
        self.covered
    }

    /// Notes the start of the first record the replay staged (once; later
    /// calls change nothing).
    pub(super) fn note_first(&mut self, start: SimTime) {
        self.first.get_or_insert(start);
    }

    /// Passes `sink` every record starting before `bound` that it has not
    /// passed yet, in global order. Returns whether
    /// [`covered`](Self::covered) moved.
    pub(super) fn advance(
        &mut self,
        bound: SimTime,
        mut sink: impl FnMut(&SessionRecord) -> Result<(), SimError>,
    ) -> Result<bool, SimError> {
        if bound <= self.covered || self.first.is_some_and(|first| bound <= first) {
            return Ok(false);
        }
        loop {
            let next = match self.held.take() {
                Some(rec) => Some(rec),
                None => self.merge.next()?.map(|(_, rec)| rec),
            };
            match next {
                Some(rec) if rec.start < bound => sink(&rec)?,
                Some(rec) => {
                    self.held = Some(rec);
                    self.covered = bound;
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

/// The supply of a shard that reads its own chunk runs (see the module
/// docs): its neighborhood's runs merged by global index, one record
/// staged at a time.
pub(super) struct StreamSupply<'a, C: ChunkSource + ?Sized> {
    merge: RunMerge<'a, C>,
    catalog: &'a ProgramCatalog,
    topo: &'a Topology,
    seg_len: u64,
    staged: Option<PendingSession>,
    /// Under a strategy that looks ahead: the read-ahead, and how far.
    ahead: Option<(RunCursor<'a, C>, SimDuration)>,
    /// Under a strategy that remembers its past: the trailing cursor.
    behind: Option<RunCursor<'a, C>>,
    /// Scratch for one hand-over or hand-back.
    events: Vec<AccessEvent>,
}

impl<'a, C: ChunkSource + ?Sized> StreamSupply<'a, C> {
    /// The supply of a neighborhood of `parts`' plant over its own `runs`
    /// of `chunks`, reading ahead for a strategy that looks ahead, and
    /// behind for one that keeps a history window.
    pub(super) fn new(chunks: &'a C, runs: &'a [Vec<u32>], parts: &DriverParts<'a>) -> Self {
        let strategy = parts.strategy;
        StreamSupply {
            merge: RunMerge::new(chunks, runs.iter().map(Vec::as_slice)),
            catalog: parts.catalog,
            topo: parts.topo,
            seg_len: parts.segmenter.segment_len().as_secs(),
            staged: None,
            ahead: strategy
                .schedule_lookahead()
                .map(|lookahead| (RunCursor::new(chunks, runs), lookahead)),
            behind: strategy
                .history_window()
                .map(|_| RunCursor::new(chunks, runs)),
            events: Vec::new(),
        }
    }
}

impl<C: ChunkSource + ?Sized> RecordSupply for StreamSupply<'_, C> {
    fn peek(&mut self) -> Result<Option<(SimTime, u64)>, SimError> {
        if self.staged.is_none() {
            if let Some((gidx, rec)) = self.merge.next()? {
                let ctx = session_ctx(&rec, self.catalog, self.topo, self.seg_len)?;
                self.staged = Some(PendingSession { gidx, rec, ctx });
                if let Some(behind) = self.behind.as_mut() {
                    behind.note_first(rec.start);
                }
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
        let Some((cursor, lookahead)) = self.ahead.as_mut() else {
            return Ok(());
        };
        // The staged record is the latest access there can be until the
        // next one is staged.
        let horizon = ahead_of(self.staged.as_ref().map(|s| s.rec.start), *lookahead);
        let events = &mut self.events;
        events.clear();
        let moved = cursor.advance(horizon, |rec| {
            events.push(AccessEvent::new(rec.start, rec.program)?);
            Ok(())
        })?;
        if moved {
            sink(events, cursor.covered())?;
        }
        Ok(())
    }

    fn read_behind(
        &mut self,
        until: SimTime,
        sink: impl FnOnce(&[AccessEvent], SimTime) -> Result<(), SimError>,
    ) -> Result<(), SimError> {
        let Some(cursor) = self.behind.as_mut() else {
            return Ok(());
        };
        let events = &mut self.events;
        events.clear();
        cursor.advance(past(until), |rec| {
            events.push(AccessEvent::new(rec.start, rec.program)?);
            Ok(())
        })?;
        sink(events, past(until))
    }
}
