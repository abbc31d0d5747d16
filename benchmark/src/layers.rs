//! Layer-isolation probes: direct calls into one layer's public
//! functions with the workload's own data, so a layer has a cost figure
//! of its own beside the end-to-end one. Each returns nanoseconds (or
//! milliseconds where named) at reference host speed.

use std::hint::black_box;

use cablevod_cache::{CacheStrategy, WindowedLfu};
use cablevod_hfc::ids::ProgramId;
use cablevod_hfc::meter::RateMeter;
use cablevod_hfc::segment::Segmenter;
use cablevod_hfc::topology::{Topology, TopologyConfig};
use cablevod_hfc::units::{SimDuration, SimTime};
use cablevod_serve::{IngressQueue, LatencyHistogram, ResponseCache};
use cablevod_sim::SimConfig;
use cablevod_trace::rechunk::neighborhood_groups;
use cablevod_trace::record::{SessionRecord, Trace};
use cablevod_trace::source::TraceSource;

use crate::calib::Calibrator;
use crate::span::Tracer;

/// `hfc.meter_record_ns`: `RateMeter::record` over the segment
/// intervals the workload's sessions produce.
pub fn meter_record_ns(
    trace: &Trace,
    config: &SimConfig,
    calib: &mut Calibrator,
    tracer: &Tracer,
) -> f64 {
    let _span = tracer.span("hfc.meter.record", None, 0);
    let segment = config.segment_len();
    let rate = config.stream_rate();
    let (intervals, _, norm) = calib.timed(|| {
        let mut meter = RateMeter::hourly();
        let mut intervals = 0u64;
        for rec in trace.records() {
            let end = rec.end();
            let mut at = rec.start;
            while at < end {
                let next = (at + segment).min(end);
                meter.record(at, next, rate * next.since(at));
                intervals += 1;
                at = next;
            }
        }
        black_box(meter.total());
        intervals
    });
    norm * 1e9 / intervals.max(1) as f64
}

/// `hfc.topology_build_ms`: the plant every run builds before its first
/// event.
pub fn topology_build_ms(
    users: u32,
    config: &SimConfig,
    calib: &mut Calibrator,
    tracer: &Tracer,
) -> Result<f64, String> {
    let _span = tracer.span("hfc.topology.build", None, 0);
    let (built, _, norm) = calib.timed(|| {
        Topology::build(
            TopologyConfig::new(users, config.neighborhood_size())
                .with_per_peer_storage(config.per_peer_storage())
                .with_stream_slots(config.stream_slots())
                .with_coax_spec(*config.coax_spec()),
        )
        .map(|topo| black_box(topo.neighborhood_count()))
    });
    built.map_err(|e| format!("topology build: {e}"))?;
    Ok(norm * 1e3)
}

/// `cache.lfu_on_access_ns`: `WindowedLfu::on_access` replayed with the
/// trace's own access sequence, one strategy instance per neighbourhood
/// as the engine builds them.
pub fn lfu_on_access_ns(
    trace: &Trace,
    config: &SimConfig,
    calib: &mut Calibrator,
    tracer: &Tracer,
) -> Result<f64, String> {
    let _span = tracer.span("cache.lfu.on_access", None, 0);
    // The history window of the default `lfu` every workload runs.
    let history = SimDuration::from_days(7);
    let groups = neighborhood_groups(trace.user_count(), config.neighborhood_size())
        .map_err(|e| format!("neighbourhood groups: {e}"))?;
    let segmenter = Segmenter::new(config.segment_len(), config.stream_rate());
    let costs: Vec<u32> = trace
        .catalog()
        .iter()
        .map(|(_, info)| u32::from(segmenter.segment_count(info.length)))
        .collect();
    let nbhds = groups.iter().copied().max().map_or(0, |g| g as usize + 1);
    let mut accesses: Vec<Vec<(SimTime, ProgramId)>> = vec![Vec::new(); nbhds];
    for rec in trace.records() {
        accesses[groups[rec.user.index()] as usize].push((rec.start, rec.program));
    }
    let nominal = config.stream_rate() * config.segment_len();
    let slots_per_peer = config.per_peer_storage().as_bits() / nominal.as_bits();
    let capacity = slots_per_peer * u64::from(config.neighborhood_size());
    let ((), _, norm) = calib.timed(|| {
        let mut ops = Vec::new();
        for sequence in &accesses {
            let mut lfu = WindowedLfu::new(capacity, history);
            for &(now, program) in sequence {
                lfu.on_access(program, costs[program.index()], now, &mut ops);
                ops.clear();
            }
            black_box(lfu.used_slots());
        }
    });
    Ok(norm * 1e9 / trace.len().max(1) as f64)
}

/// `trace.decode_ns_per_record`: a full-file `read_chunk` sweep.
pub fn decode_ns_per_record(
    source: &dyn TraceSource,
    calib: &mut Calibrator,
    tracer: &Tracer,
) -> Result<f64, String> {
    let _span = tracer.span("trace.decode.sweep", None, 0);
    let (swept, _, norm) = calib.timed(|| {
        let mut buf: Vec<SessionRecord> = Vec::new();
        let mut records = 0u64;
        for chunk in 0..source.chunk_count() {
            source.read_chunk(chunk, &mut buf)?;
            records += buf.len() as u64;
        }
        Ok::<u64, cablevod_trace::TraceError>(records)
    });
    let records = swept.map_err(|e| format!("decode sweep: {e}"))?;
    if records != source.record_count() {
        return Err(format!(
            "decode sweep read {records} of {} records",
            source.record_count()
        ));
    }
    Ok(norm * 1e9 / records.max(1) as f64)
}

const SERVE_PROBE_OPS: u64 = 1 << 20;

/// `serve.queue_offer_pop_ns`: one `IngressQueue` offer plus its pop, in
/// the batches the serve loop drains.
pub fn queue_offer_pop_ns(records: &[SessionRecord], calib: &mut Calibrator, t: &Tracer) -> f64 {
    let _span = t.span("serve.queue.offer_pop", None, 0);
    let ((), _, norm) = calib.timed(|| {
        let mut queue = IngressQueue::new(4_096);
        let mut ticket = 0u64;
        while ticket < SERVE_PROBE_OPS {
            for _ in 0..512 {
                let rec = records[(ticket % records.len() as u64) as usize];
                black_box(queue.offer(ticket, rec));
                ticket += 1;
            }
            while let Some(entry) = queue.pop() {
                black_box(entry);
            }
        }
    });
    norm * 1e9 / SERVE_PROBE_OPS as f64
}

/// `serve.response_cache_get_ns`: a current-epoch `ResponseCache` hit
/// over as many keys as the workload's lookups touch.
pub fn response_cache_get_ns(keys: &[(u32, u32)], calib: &mut Calibrator, t: &Tracer) -> f64 {
    let _span = t.span("serve.response_cache.get", None, 0);
    let mut cache: ResponseCache<(u32, u32), u64> = ResponseCache::new();
    for (i, key) in keys.iter().enumerate() {
        cache.insert(*key, i as u64);
    }
    let ((), _, norm) = calib.timed(|| {
        for i in 0..SERVE_PROBE_OPS {
            black_box(cache.get(&keys[(i % keys.len() as u64) as usize]));
        }
    });
    norm * 1e9 / SERVE_PROBE_OPS as f64
}

/// `serve.hist_record_ns`: one `LatencyHistogram::record`.
pub fn hist_record_ns(calib: &mut Calibrator, t: &Tracer) -> f64 {
    let _span = t.span("serve.hist.record", None, 0);
    let ((), _, norm) = calib.timed(|| {
        let mut hist = LatencyHistogram::new();
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        for _ in 0..SERVE_PROBE_OPS {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            hist.record(x >> 40);
        }
        black_box(hist.count());
    });
    norm * 1e9 / SERVE_PROBE_OPS as f64
}
