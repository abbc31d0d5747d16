//! Microbenches of the data structures on the simulation hot path.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use std::hint::black_box;

use cablevod_cache::strategy::CacheStrategy;
use cablevod_cache::{PlacementPolicy, SlotLedger, WindowedLfu};
use cablevod_hfc::ids::{PeerId, ProgramId};
use cablevod_hfc::meter::RateMeter;
use cablevod_hfc::units::{BitRate, SimDuration, SimTime};
use cablevod_trace::ecdf::Ecdf;

fn lfu_access(c: &mut Criterion) {
    let mut group = c.benchmark_group("components");
    const N: u64 = 10_000;
    group.throughput(Throughput::Elements(N));
    group.bench_function("windowed_lfu_access", |b| {
        b.iter(|| {
            let mut lfu = WindowedLfu::new(500, SimDuration::from_days(3));
            let mut ops = Vec::new();
            for i in 0..N {
                ops.clear();
                let program = ProgramId::new(((i * 7919) % 701) as u32);
                lfu.on_access(
                    program,
                    1 + (program.value() % 12),
                    SimTime::from_secs(i * 37),
                    &mut ops,
                );
            }
            black_box(lfu.used_slots())
        })
    });

    group.bench_function("slot_ledger_place_release", |b| {
        b.iter(|| {
            let mut ledger = SlotLedger::new(
                (0..1_000u32).map(|i| (PeerId::new(i), 33)),
                PlacementPolicy::Balanced,
            );
            let mut placed = Vec::new();
            for p in 0..1_500u32 {
                ledger
                    .place(ProgramId::new(p), 12, |slot| placed.push(slot))
                    .expect("fits");
                if p % 2 == 0 {
                    for slot in placed.drain(..) {
                        ledger.release(slot).expect("placed");
                    }
                }
            }
            black_box(ledger.total_free())
        })
    });

    group.throughput(Throughput::Elements(N));
    group.bench_function("rate_meter_record", |b| {
        let size = BitRate::STREAM_MPEG2_SD * SimDuration::from_minutes(5);
        b.iter(|| {
            let mut meter = RateMeter::hourly();
            for i in 0..N {
                let t = SimTime::from_secs(i * 211 % 2_419_200);
                meter.record(t, t + SimDuration::from_minutes(5), size);
            }
            black_box(meter.total())
        })
    });

    group.bench_function("ecdf_build_and_query", |b| {
        let samples: Vec<f64> = (0..50_000)
            .map(|i| ((i * 48_271) % 100_000) as f64)
            .collect();
        b.iter(|| {
            let ecdf = Ecdf::from_samples(samples.iter().copied());
            black_box((ecdf.quantile(0.5), ecdf.largest_atom(1_000.0, 60.0)))
        })
    });

    group.bench_function("stb_stream_slots", |b| {
        use cablevod_hfc::plant::Plant;
        use cablevod_hfc::topology::{Topology, TopologyConfig};
        let topo = Topology::build(TopologyConfig::new(1, 1)).expect("one box");
        let peer = PeerId::new(0);
        b.iter(|| {
            let mut plant = Plant::over(&topo, 0..1).expect("the one neighborhood");
            let mut granted = 0u32;
            for i in 0..N {
                let t = SimTime::from_secs(i * 61);
                if plant
                    .try_start_stream(peer, t, t + SimDuration::from_minutes(5))
                    .expect("a member")
                {
                    granted += 1;
                }
            }
            black_box(granted)
        })
    });
    group.finish();
}

criterion_group!(benches, lfu_access);
criterion_main!(benches);
