//! One Criterion bench per evaluation figure/table: each regenerates its
//! figure on the shared bench workload (a bench id starts with its
//! harness's name in `cablevod::experiments`, which is the paper's figure
//! number). Run `reproduce` for paper-scale numbers.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use cablevod::experiments as exp;
use cablevod_bench::{bench_trace, small_trace};
use cablevod_hfc::units::BitRate;

fn workload_figures(c: &mut Criterion) {
    let trace = bench_trace();
    let mut group = c.benchmark_group("workload");
    group.sample_size(10);
    group.bench_function("fig02_popularity_skew", |b| {
        b.iter(|| black_box(exp::fig02(trace)))
    });
    group.bench_function("fig03_session_lengths", |b| {
        b.iter(|| black_box(exp::fig03(trace)))
    });
    group.bench_function("fig06_length_deduction", |b| {
        b.iter(|| black_box(exp::fig06(trace)))
    });
    group.bench_function("fig07_hourly_demand", |b| {
        b.iter(|| black_box(exp::fig07(trace, BitRate::STREAM_MPEG2_SD)))
    });
    group.bench_function("fig12_popularity_decay", |b| {
        b.iter(|| black_box(exp::fig12(trace)))
    });
    group.finish();
}

fn caching_figures(c: &mut Criterion) {
    let trace = bench_trace();
    let mut group = c.benchmark_group("caching");
    group.sample_size(10);
    group.bench_function("fig08_cache_size_storage", |b| {
        b.iter(|| exp::fig08(trace).expect("runs"))
    });
    group.bench_function("fig09_cache_size_nbhd", |b| {
        b.iter(|| exp::fig09(trace).expect("runs"))
    });
    group.bench_function("fig10_neighborhood", |b| {
        b.iter(|| exp::fig10(trace).expect("runs"))
    });
    group.bench_function("fig11_lfu_history", |b| {
        b.iter(|| exp::fig11(trace).expect("runs"))
    });
    group.bench_function("fig13_global_lfu", |b| {
        b.iter(|| exp::fig13(trace).expect("runs"))
    });
    group.finish();
}

fn feasibility_figures(c: &mut Criterion) {
    let trace = bench_trace();
    let mut group = c.benchmark_group("feasibility");
    group.sample_size(10);
    group.bench_function("fig14_coax_traffic", |b| {
        b.iter(|| exp::fig14(trace).expect("runs"))
    });
    group.finish();
}

fn scaling_figures(c: &mut Criterion) {
    let trace = small_trace();
    let mut group = c.benchmark_group("scaling");
    group.sample_size(10);
    group.bench_function("fig15_scaling_grid", |b| {
        // A 2x2 grid keeps the bench fast; reproduce runs the full 5x5.
        b.iter(|| exp::scaling_grid(trace, &[1, 2], &[1, 2]).expect("runs"))
    });
    group.bench_function("fig16b_population", |b| {
        b.iter(|| exp::scaling_grid(trace, &[1, 2, 3], &[1]).expect("runs"))
    });
    group.bench_function("fig16c_catalog", |b| {
        b.iter(|| exp::scaling_grid(trace, &[1], &[1, 2, 3]).expect("runs"))
    });
    group.finish();
}

criterion_group!(
    benches,
    workload_figures,
    caching_figures,
    feasibility_figures,
    scaling_figures
);
criterion_main!(benches);
