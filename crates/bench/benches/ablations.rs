//! Ablation benches (A1–A5, `cablevod::experiments::ablations`) plus the
//! architectural comparisons of §IV-A (multicast) and §VI-B (headend
//! cache).

use criterion::{criterion_group, criterion_main, Criterion};

use cablevod::experiments as exp;
use cablevod_bench::bench_trace;

fn ablations(c: &mut Criterion) {
    let trace = bench_trace();
    let mut group = c.benchmark_group("ablations");
    group.sample_size(10);
    group.bench_function("ablation_fill_mode", |b| {
        b.iter(|| exp::ablation_fill_mode(trace).expect("runs"))
    });
    group.bench_function("ablation_stream_slots", |b| {
        b.iter(|| exp::ablation_stream_slots(trace).expect("runs"))
    });
    group.bench_function("ablation_segment_length", |b| {
        b.iter(|| exp::ablation_segment_length(trace).expect("runs"))
    });
    group.bench_function("ablation_placement", |b| {
        b.iter(|| exp::ablation_placement(trace).expect("runs"))
    });
    group.bench_function("ablation_replication", |b| {
        b.iter(|| exp::ablation_replication(trace).expect("runs"))
    });
    group.finish();
}

fn architectures(c: &mut Criterion) {
    let trace = bench_trace();
    let mut group = c.benchmark_group("architectures");
    group.sample_size(10);
    group.bench_function("ablation_multicast", |b| {
        b.iter(|| exp::multicast_comparison(trace).expect("runs"))
    });
    group.bench_function("ablation_headend", |b| {
        b.iter(|| exp::headend_comparison(trace).expect("runs"))
    });
    group.finish();
}

criterion_group!(benches, ablations, architectures);
criterion_main!(benches);
