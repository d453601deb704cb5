//! E15 — EO DAG traceability (Zhang [87]): DAG-guided lineage walk vs the
//! full-ledger scan baseline, swept over ledger size and lineage depth.
//!
//! Expected shape: DAG cost tracks lineage *depth* only; scan cost tracks
//! hops × ledger size, so the gap widens linearly with unrelated traffic.

use blockprov_sciwork::eo::EoNetwork;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

fn network_with(noise: usize, depth: usize) -> (EoNetwork, blockprov_sciwork::eo::EoTxId) {
    let mut net = EoNetwork::new(4, 2);
    for i in 0..noise {
        net.ingest("dc-noise", &format!("noise-{i}"), &[(i % 251) as u8]).unwrap();
    }
    let head = net.synthetic_pipeline("dc", "scene", depth, 2048).unwrap();
    (net, head)
}

fn bench_trace(c: &mut Criterion) {
    let mut group = c.benchmark_group("eo_trace_depth8");
    group.sample_size(20);
    for noise in [100usize, 1_000, 5_000] {
        let (net, head) = network_with(noise, 8);
        group.bench_with_input(BenchmarkId::new("dag", noise), &noise, |b, _| {
            b.iter(|| net.trace(black_box(head)).unwrap());
        });
        group.bench_with_input(BenchmarkId::new("scan", noise), &noise, |b, _| {
            b.iter(|| net.trace_by_scan(black_box(head)).unwrap());
        });
    }
    group.finish();

    // Print the records-examined shape once (experiment E15; the `tables`
    // binary's flag list in `src/bin/tables.rs` indexes the experiments).
    for noise in [100usize, 1_000, 5_000] {
        let (net, head) = network_with(noise, 8);
        let dag = net.trace(head).unwrap();
        let scan = net.trace_by_scan(head).unwrap();
        println!(
            "E15 ledger={} → records examined: dag={} scan={}",
            noise + 9,
            dag.records_examined,
            scan.records_examined
        );
    }
}

fn bench_depth_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("eo_trace_noise1000");
    group.sample_size(20);
    for depth in [2usize, 8, 32] {
        let (net, head) = network_with(1_000, depth);
        group.bench_with_input(BenchmarkId::new("dag", depth), &depth, |b, _| {
            b.iter(|| net.trace(black_box(head)).unwrap());
        });
    }
    group.finish();
}

criterion_group!(benches, bench_trace, bench_depth_scaling);
criterion_main!(benches);
