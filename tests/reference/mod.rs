//! A deliberately naive whole-plant simulator: the engine's reference.
//!
//! [`simulate`] replays a resident trace under a [`SimConfig`] and folds
//! what it measured into a [`SimReport`], written from the paper's rules
//! (§IV-B, §V-B, §V-C) and the engine's documented contracts, with none
//! of the engine's machinery: no plant, no index server, no slot ledger,
//! no feed carrier, no record supply. One loop walks the trace in order
//! beside one [`BTreeMap`] of pending events for every neighborhood at
//! once, and everything a run mutates lives in plain maps and vectors
//! here. Where the engine is fast, this is obvious: a free-slot scan per
//! placed copy, a box's streams a list filtered on every touch, the feed a
//! vector grown one record at a time.
//!
//! The cache strategies are driven as black boxes through the strategy
//! seam ([`StrategyFactory`], [`CacheStrategy`], [`CacheOp`]): each has a
//! reference of its own one layer down, so what this model checks is
//! everything around them — sessions, segments, placement, capture,
//! stream slots, misses, meters, admission control and the fold.
//!
//! `Random` placement is not modelled: its draw order is pinned by the
//! ledger's own tests, not by a rule a second implementation could
//! follow.

use std::collections::BTreeMap;

use cablevod_cache::{
    AccessEvent, CacheOp, CacheStrategy, FeedEvent, FeedEvents, FetchModel, FillPolicy, IndexStats,
    PlacementPolicy, ScheduleWindow, StrategyContext,
};
use cablevod_hfc::channels::ChannelPlan;
use cablevod_hfc::fault::{FaultTimeline, FULL_CAPACITY_PERMILLE};
use cablevod_hfc::ids::{NeighborhoodId, PeerId, ProgramId};
use cablevod_hfc::meter::{RateMeter, RateStats, PEAK_END_HOUR, PEAK_START_HOUR};
use cablevod_hfc::segment::Segmenter;
use cablevod_hfc::topology::{Topology, TopologyConfig};
use cablevod_hfc::units::{SimDuration, SimTime};
use cablevod_sim::{
    AdmissionMode, DegradationReport, NeighborhoodDegradation, SimConfig, SimReport,
};
use cablevod_trace::record::{SessionRecord, Trace};

/// Replays `trace` under `config` (see the module docs).
///
/// # Panics
///
/// On an invalid config or trace, on `Random` placement, and on a
/// strategy that breaks its capacity promise — the engine's errors are
/// not this model's business.
pub fn simulate(trace: &Trace, config: &SimConfig) -> SimReport {
    Model::new(trace, config).run(trace.records())
}

/// One session in flight: what the record says, clamped to its program.
#[derive(Debug, Clone, Copy)]
struct Session {
    nbhd: usize,
    home: PeerId,
    program: ProgramId,
    length: SimDuration,
    /// When playback starts: the record's start, or the instant a retry
    /// was admitted.
    start: SimTime,
    /// Seek offset, clamped to the program, in seconds.
    offset: u64,
    /// Seconds streamed: from the offset to the record's end or the
    /// program's, whichever is first.
    watched: u64,
    /// Retries spent (enforcing admission).
    retries: u8,
    /// Whether a counting-mode interruption was already tallied.
    interrupted: bool,
}

/// What a pending event does when it comes due.
#[derive(Debug, Clone, Copy)]
enum Due {
    /// Request this segment of the program.
    Segment(u16),
    /// Ask admission control again.
    Retry,
}

/// One placed copy of a segment: the member hosting it and whether its
/// bytes are there yet.
#[derive(Debug, Clone, Copy)]
struct Copy {
    member: usize,
    present: bool,
}

/// An admitted program: replica `j` of segment `i` is `copies[i + j·count]`.
#[derive(Debug)]
struct Admitted {
    admitted_at: SimTime,
    copies: Vec<Copy>,
}

/// One neighborhood's admission state (fault plan, channel budget).
struct Admission {
    timeline: FaultTimeline,
    /// End second of every session ever admitted here.
    ends: Vec<u64>,
    /// Outage recovery instants, in time order, and how many are measured.
    recoveries: Vec<u64>,
    measured: usize,
    tally: NeighborhoodDegradation,
    /// `admitted_after[k]`: sessions admitted after exactly `k` retries.
    admitted_after: Vec<u64>,
}

/// Everything one neighborhood's run mutates.
struct Neighborhood {
    id: NeighborhoodId,
    /// Member peers in placement order, and each one's free slots.
    members: Vec<PeerId>,
    free: Vec<u32>,
    /// End times of every stream a box has started.
    streams: BTreeMap<PeerId, Vec<SimTime>>,
    cached: BTreeMap<ProgramId, Admitted>,
    strategy: Box<dyn CacheStrategy>,
    fill: FillPolicy,
    fetch: FetchModel,
    /// When the newest modeled central-server fetch of a program started.
    fetching: BTreeMap<ProgramId, SimTime>,
    stats: IndexStats,
    coax: RateMeter,
    admission: Option<Admission>,
}

/// The feed as the serial engine grows it: one event per record reached.
struct Feed(Vec<FeedEvent>);

impl FeedEvents for Feed {
    fn event_at(&self, seq: usize) -> FeedEvent {
        self.0[seq]
    }

    fn published(&self) -> usize {
        self.0.len()
    }
}

struct Model<'a> {
    trace: &'a Trace,
    config: &'a SimConfig,
    topo: Topology,
    segmenter: Segmenter,
    seg_len: u64,
    needs_feed: bool,
    nbhds: Vec<Neighborhood>,
    feed: Feed,
    /// Every pending segment request and retry, keyed by due time and the
    /// session's record index; a session has at most one pending.
    queue: BTreeMap<(SimTime, u64), (Due, Session)>,
    server: RateMeter,
    sessions: u64,
    segment_requests: u64,
    viewer_overcommits: u64,
}

impl<'a> Model<'a> {
    fn new(trace: &'a Trace, config: &'a SimConfig) -> Self {
        config.validate().expect("a valid config");
        let topo = Topology::build(
            TopologyConfig::new(trace.user_count(), config.neighborhood_size())
                .with_per_peer_storage(config.per_peer_storage())
                .with_stream_slots(config.stream_slots())
                .with_coax_spec(*config.coax_spec()),
        )
        .expect("a valid topology");
        let segmenter = Segmenter::new(config.segment_len(), config.stream_rate());
        let factory = config.strategy().factory();
        let replication = u32::from(config.replication());
        let nominal = config.stream_rate() * config.segment_len();
        let slots = (config.per_peer_storage().as_bits() / nominal.as_bits()) as u32;
        let costs: Option<std::sync::Arc<[u32]>> = factory.schedule_lookahead().map(|_| {
            trace
                .catalog()
                .iter()
                .map(|(_, info)| segmenter.segment_count(info.length) * replication)
                .collect()
        });
        let admission_on =
            !(config.admission() == AdmissionMode::Counting && config.faults().is_empty());

        let nbhds = (0..topo.neighborhood_count())
            .map(|n| {
                let id = NeighborhoodId::new(n as u32);
                let members = topo.neighborhood(id).expect("exists").members().to_vec();
                let capacity = u64::from(slots) * members.len() as u64;
                let mut strategy = factory
                    .build(StrategyContext {
                        capacity_slots: capacity,
                        home: id,
                        schedule: costs.clone().map(ScheduleWindow::new),
                    })
                    .expect("the strategy builds");
                if costs.is_some() {
                    // The Oracle's future: the whole of this neighborhood's.
                    let future: Vec<AccessEvent> = trace
                        .records()
                        .iter()
                        .filter(|r| topo.neighborhood_of_user(r.user).expect("a user") == id)
                        .map(|r| AccessEvent::new(r.start, r.program).expect("in range"))
                        .collect();
                    strategy
                        .extend_schedule(&future, SimTime::MAX)
                        .expect("in time order");
                }
                let fill = config.fill_override().unwrap_or(strategy.fill_policy());
                let admission = admission_on.then(|| {
                    let timeline = config.faults().timeline(id);
                    Admission {
                        recoveries: timeline.outage_ends().map(|t| t.as_secs()).collect(),
                        timeline,
                        ends: Vec::new(),
                        measured: 0,
                        tally: NeighborhoodDegradation::default(),
                        admitted_after: vec![0; usize::from(config.retry().max_retries()) + 1],
                    }
                });
                Neighborhood {
                    id,
                    free: vec![slots; members.len()],
                    members,
                    streams: BTreeMap::new(),
                    cached: BTreeMap::new(),
                    strategy,
                    fill,
                    fetch: factory.fetch_model().unwrap_or_default(),
                    fetching: BTreeMap::new(),
                    stats: IndexStats::default(),
                    coax: RateMeter::hourly(),
                    admission,
                }
            })
            .collect();
        Model {
            trace,
            config,
            seg_len: segmenter.segment_len().as_secs(),
            segmenter,
            topo,
            needs_feed: factory.needs_feed(),
            nbhds,
            feed: Feed(Vec::new()),
            queue: BTreeMap::new(),
            server: RateMeter::hourly(),
            sessions: 0,
            segment_requests: 0,
            viewer_overcommits: 0,
        }
    }

    /// The one loop: the next record, or the earliest pending event —
    /// the record first when they fall on the same second.
    fn run(mut self, records: &[SessionRecord]) -> SimReport {
        let mut next = 0;
        loop {
            let record_at = records.get(next).map(|r| r.start);
            let event_at = self.queue.keys().next().map(|&(t, _)| t);
            match (record_at, event_at) {
                (None, None) => break,
                (Some(r), Some(e)) if e < r => self.fire(),
                (Some(_), _) => {
                    self.start(next as u64, &records[next]);
                    next += 1;
                }
                (None, Some(_)) => self.fire(),
            }
        }
        self.fold()
    }

    /// A record is reached: its feed event is published, and its session
    /// asks for admission.
    fn start(&mut self, gidx: u64, rec: &SessionRecord) {
        let length = self
            .trace
            .catalog()
            .length(rec.program)
            .expect("a catalogued program");
        let nbhd = self.topo.neighborhood_of_user(rec.user).expect("a user");
        let offset = rec.offset.min(length).as_secs();
        let session = Session {
            nbhd: nbhd.index(),
            home: self.topo.home_peer(rec.user).expect("a user"),
            program: rec.program,
            length,
            start: rec.start,
            offset,
            watched: rec.duration.as_secs().min(length.as_secs() - offset),
            retries: 0,
            interrupted: false,
        };
        self.feed.0.push(FeedEvent {
            time: rec.start,
            neighborhood: nbhd,
            program: rec.program,
            cost: self.cost(length),
        });
        self.sessions += 1;
        match self.ask_admission(&session) {
            Verdict::Admit => {
                self.access(&session, rec.start);
                self.play(gidx, session);
            }
            Verdict::Retry(at) => {
                self.access(&session, rec.start);
                let session = Session {
                    retries: 1,
                    ..session
                };
                self.queue.insert((at, gidx), (Due::Retry, session));
            }
            Verdict::Blocked => self.access(&session, rec.start),
        }
    }

    /// The earliest pending event comes due.
    fn fire(&mut self) {
        let ((at, gidx), (due, mut session)) = self.queue.pop_first().expect("an event");
        match due {
            Due::Retry => {
                session.start = at;
                match self.ask_admission(&session) {
                    Verdict::Admit => self.play(gidx, session),
                    Verdict::Retry(later) => {
                        session.retries += 1;
                        self.queue.insert((later, gidx), (Due::Retry, session));
                    }
                    Verdict::Blocked => {}
                }
            }
            Due::Segment(seg) => {
                if self.outage_stops(&mut session, at) {
                    return;
                }
                if let Some((t, next)) = self.request(&session, seg) {
                    self.queue.insert((t, gidx), (Due::Segment(next), session));
                }
            }
        }
    }

    /// Playback begins: the viewer's own box gives it a stream slot for
    /// the whole session, never refused, and the first segment is asked
    /// for at once.
    fn play(&mut self, gidx: u64, session: Session) {
        let end = session.start + SimDuration::from_secs(session.watched);
        let limit = usize::from(self.config.stream_slots());
        let streams = self.nbhds[session.nbhd]
            .streams
            .entry(session.home)
            .or_default();
        streams.retain(|&e| e > session.start);
        if end > session.start {
            streams.push(end);
        }
        if streams.len() > limit {
            self.viewer_overcommits += 1;
        }
        if session.watched == 0 {
            return;
        }
        let first = (session.offset / self.seg_len) as u16;
        if let Some((t, next)) = self.request(&session, first) {
            self.queue.insert((t, gidx), (Due::Segment(next), session));
        }
    }

    /// A program's size in slots: every copy of every segment, a runt
    /// segment charged whole.
    fn cost(&self, length: SimDuration) -> u32 {
        self.segmenter.segment_count(length) * u32::from(self.config.replication())
    }

    /// The access a session's request makes at `now`: the strategy sees
    /// the feed up to and including this record, then the access, and
    /// whatever it decides is placed or removed.
    fn access(&mut self, session: &Session, now: SimTime) {
        let cost = self.cost(session.length);
        let replication = u32::from(self.config.replication());
        let seg = self.segmenter.segment_len();
        let needs_feed = self.needs_feed;
        let nbhd = &mut self.nbhds[session.nbhd];
        if needs_feed {
            nbhd.strategy
                .sync_global(&self.feed, now, self.feed.0.len());
        }
        nbhd.strategy
            .prepare(now)
            .expect("the look-ahead covers the access");
        let mut ops = Vec::new();
        nbhd.strategy
            .on_access(session.program, cost, now, &mut ops);
        for op in ops {
            match op {
                CacheOp::Evict(p) => {
                    let gone = nbhd.cached.remove(&p).expect("evicts what it admitted");
                    for copy in gone.copies {
                        nbhd.free[copy.member] += 1;
                    }
                    nbhd.stats.evictions += 1;
                }
                CacheOp::Admit(p) => {
                    let copies = if p == session.program {
                        cost
                    } else {
                        // A program the strategy learned of elsewhere: its
                        // segment count, from the cost it charged.
                        let charged = nbhd.strategy.cost_of(p).expect("a known cost");
                        let length = seg * u64::from(charged / replication);
                        self.segmenter.segment_count(length) * replication
                    };
                    assert!(!nbhd.cached.contains_key(&p), "admits {p} twice");
                    let placed = (0..copies)
                        .map(|_| Copy {
                            member: nbhd.place(self.config.placement()),
                            present: nbhd.fill == FillPolicy::Prefetch,
                        })
                        .collect();
                    nbhd.cached.insert(
                        p,
                        Admitted {
                            admitted_at: now,
                            copies: placed,
                        },
                    );
                    nbhd.stats.admissions += 1;
                }
            }
        }
    }

    /// Requests segment `seg` of the session's program and returns the
    /// next request, if the session has one: when and which.
    fn request(&mut self, session: &Session, seg: u16) -> Option<(SimTime, u16)> {
        let seg_len = self.seg_len;
        let span_end = session.offset + session.watched;
        let k = u64::from(seg);
        // The part of this segment the session plays.
        let from = session.offset.max(k * seg_len);
        let to = span_end.min((k + 1) * seg_len);
        let start = session.start + SimDuration::from_secs(from - session.offset);
        let end = start + SimDuration::from_secs(to - from);
        let size = self.config.stream_rate() * SimDuration::from_secs(to - from);
        self.segment_requests += 1;

        let count = self.segmenter.segment_count(session.length) as usize;
        let limit = usize::from(self.config.stream_slots());
        let replication = usize::from(self.config.replication());
        let nbhd = &mut self.nbhds[session.nbhd];
        let hit = match nbhd.cached.get_mut(&session.program) {
            None => {
                nbhd.stats.miss_uncached += 1;
                nbhd.note_fetch(session.program, start);
                false
            }
            // Pushed content cannot serve the session whose access pushed
            // it: the push is the very stream it watches.
            Some(entry)
                if nbhd.fill == FillPolicy::Prefetch && entry.admitted_at >= session.start =>
            {
                nbhd.stats.miss_not_materialized += 1;
                nbhd.note_fetch(session.program, start);
                false
            }
            Some(entry) if !entry.copies[usize::from(seg)].present => {
                // Fig 4, step 4: the placed peers read the miss broadcast.
                if nbhd.fill == FillPolicy::OnBroadcast {
                    for j in 0..replication {
                        entry.copies[usize::from(seg) + j * count].present = true;
                    }
                    nbhd.stats.capture_fills += 1;
                }
                nbhd.stats.miss_not_materialized += 1;
                nbhd.note_fetch(session.program, start);
                false
            }
            Some(entry) => {
                // Each replica in turn, until one's box has a free slot.
                let hosts: Vec<PeerId> = (0..replication)
                    .map(|j| nbhd.members[entry.copies[usize::from(seg) + j * count].member])
                    .collect();
                let served = hosts.into_iter().any(|peer| {
                    let streams = nbhd.streams.entry(peer).or_default();
                    streams.retain(|&e| e > start);
                    let free = streams.len() < limit;
                    if free {
                        streams.push(end.max(start));
                    }
                    free
                });
                if served {
                    nbhd.stats.hits += 1;
                } else {
                    nbhd.stats.miss_peer_busy += 1;
                }
                served
            }
        };
        if !hit {
            // Fig 4: the central server streams it to the headend.
            self.server.record(start, end, size);
        }
        // §VI-B: the segment crosses the coax whoever serves it.
        nbhd.coax.record(start, end, size);

        let next = (k + 1) * seg_len;
        (next < span_end).then(|| {
            (
                session.start + SimDuration::from_secs(next - session.offset),
                seg + 1,
            )
        })
    }

    /// Admission control for a session asking to start at its `start`.
    fn ask_admission(&mut self, session: &Session) -> Verdict {
        let enforcing = self.config.admission() == AdmissionMode::Enforcing;
        let retry = self.config.retry();
        let budget = {
            let plan = ChannelPlan::from_spec(self.config.coax_spec());
            u64::from(plan.free_channels())
                * u64::from(plan.streams_per_channel(self.config.stream_rate()))
        };
        let Some(adm) = self.nbhds[session.nbhd].admission.as_mut() else {
            return Verdict::Admit;
        };
        let t = session.start.as_secs();
        let outage = adm.timeline.outage_at(session.start).is_some();
        let capacity = budget * u64::from(adm.timeline.capacity_permille_at(session.start))
            / u64::from(FULL_CAPACITY_PERMILLE);
        let busy = adm.ends.iter().filter(|&&end| end > t).count() as u64;
        if outage || busy >= capacity {
            if enforcing {
                if session.retries < retry.max_retries() {
                    adm.tally.retries += 1;
                    return Verdict::Retry(session.start + retry.backoff(session.retries));
                }
                adm.tally.blocked_sessions += 1;
                return Verdict::Blocked;
            }
            adm.tally.blocked_sessions += 1;
        }
        // The first admission at or after a recovery measures its lag.
        while adm
            .recoveries
            .get(adm.measured)
            .is_some_and(|&end| end <= t)
        {
            let lag = t - adm.recoveries[adm.measured];
            adm.measured += 1;
            adm.tally.recoveries_measured += 1;
            adm.tally.recovery_lag_total_secs += lag;
            adm.tally.recovery_lag_max_secs = adm.tally.recovery_lag_max_secs.max(lag);
        }
        adm.admitted_after[usize::from(session.retries)] += 1;
        adm.ends.push(t + session.watched);
        Verdict::Admit
    }

    /// A pending segment request during an outage: enforcing admission
    /// drops the session (`true`); counting tallies it once and plays on.
    fn outage_stops(&mut self, session: &mut Session, at: SimTime) -> bool {
        let enforcing = self.config.admission() == AdmissionMode::Enforcing;
        let Some(adm) = self.nbhds[session.nbhd].admission.as_mut() else {
            return false;
        };
        if adm.timeline.outage_at(at).is_none() {
            return false;
        }
        if enforcing || !session.interrupted {
            adm.tally.interrupted_sessions += 1;
        }
        session.interrupted = true;
        enforcing
    }

    /// The report: warm-up days left out of the peak windows, the
    /// neighborhoods in order.
    fn fold(self) -> SimReport {
        let days = self.trace.days().max(1);
        let warmup = self.config.warmup_days().min(days - 1);
        let mut cache = IndexStats::default();
        let mut samples = Vec::new();
        let mut per_nbhd = Vec::new();
        let mut degradation: Option<(Vec<NeighborhoodDegradation>, Vec<u64>)> = None;
        for nbhd in &self.nbhds {
            cache += nbhd.stats;
            samples.extend(
                nbhd.coax
                    .window_samples(warmup, days, PEAK_START_HOUR, PEAK_END_HOUR),
            );
            per_nbhd.push(nbhd.coax.peak_stats(warmup, days).mean);
            if let Some(adm) = &nbhd.admission {
                let (tallies, histogram) = degradation
                    .get_or_insert_with(|| (Vec::new(), vec![0; adm.admitted_after.len()]));
                tallies.push(NeighborhoodDegradation {
                    outage_secs: adm.timeline.outage_secs(),
                    ..adm.tally.clone()
                });
                for (sum, n) in histogram.iter_mut().zip(&adm.admitted_after) {
                    *sum += n;
                }
            }
        }
        SimReport {
            server_peak: self.server.peak_stats(warmup, days),
            server_total: self.server.total(),
            server_hourly: self.server.hourly_profile(),
            coax_peak: RateStats::from_samples(&samples),
            coax_per_neighborhood: per_nbhd,
            cache,
            sessions: self.sessions,
            segment_requests: self.segment_requests,
            viewer_overcommits: self.viewer_overcommits,
            degradation: degradation
                .map(|(tallies, histogram)| DegradationReport::from_parts(tallies, histogram)),
            measured_from_day: warmup,
            measured_to_day: days,
        }
    }
}

/// What admission control says to a session asking to start.
enum Verdict {
    Admit,
    Retry(SimTime),
    Blocked,
}

impl Neighborhood {
    /// §V-B placement of one copy: the member with the most free slots,
    /// the lowest on ties (balanced), or the lowest with any (first-fit).
    fn place(&mut self, policy: PlacementPolicy) -> usize {
        let member = match policy {
            PlacementPolicy::Balanced => {
                let most = *self.free.iter().max().expect("a member");
                self.free.iter().position(|&f| f == most)
            }
            PlacementPolicy::FirstFit => self.free.iter().position(|&f| f > 0),
            PlacementPolicy::Random { .. } => unimplemented!("random placement is not modelled"),
        };
        let member = member
            .filter(|&m| self.free[m] > 0)
            .unwrap_or_else(|| panic!("{}: no free slot for a copy", self.id));
        self.free[member] -= 1;
        member
    }

    /// A miss that goes to the central server, under a fetch model with
    /// latency: while the program's last fetch is in flight — fewer
    /// milliseconds since it started than the latency — it is a delayed
    /// hit, otherwise it starts a fetch.
    fn note_fetch(&mut self, program: ProgramId, now: SimTime) {
        let latency_ms = self.fetch.latency_ms();
        if latency_ms == 0 {
            return;
        }
        let in_flight = |started: SimTime| (now.as_secs() - started.as_secs()) * 1_000 < latency_ms;
        match self.fetching.get(&program) {
            Some(&started) if in_flight(started) => self.stats.delayed_hits += 1,
            _ => {
                self.fetching.insert(program, now);
                self.stats.inflight_misses += 1;
            }
        }
    }
}
