//! Ablation 1 (DESIGN.md §5): the streaming window. Sweeps the window of
//! the Fig. 6 harness's producer-thread stream (`run_neurdb`) — window 1
//! degenerates to ping-pong batching; large windows buy full overlap at
//! bounded memory.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use neurdb_core::{run_neurdb, AnalyticsWorkload, RowSource};
use neurdb_engine::AiEngine;
use std::hint::black_box;

fn bench_window_sweep(c: &mut Criterion) {
    let mut g = c.benchmark_group("streaming_window");
    g.sample_size(10);
    let src = RowSource {
        workload: AnalyticsWorkload::Ecommerce,
        cluster: 0,
        n_batches: 8,
        batch_size: 256,
        seed: 3,
    };
    for window in [1usize, 4, 16, 80] {
        g.bench_with_input(BenchmarkId::from_parameter(window), &window, |b, &w| {
            b.iter(|| {
                let engine = AiEngine::new();
                black_box(
                    run_neurdb(&engine, AnalyticsWorkload::Ecommerce, src.clone(), w, 5e-3).samples,
                )
            })
        });
    }
    g.finish();
}

criterion_group!(benches, bench_window_sweep);
criterion_main!(benches);
