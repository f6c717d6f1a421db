//! Ablation 2 (DESIGN.md §5): incremental update depth. Varies the frozen
//! prefix of the fine-tuned ArmNet — 0 frozen layers is full retraining,
//! `n-1` is head-only tuning — measuring adaptation wall-clock. Then the
//! head-only fine-tune that `Database::finetune` runs, over 20k rows of
//! few distinct values and over 20k distinct rows (the frozen prefix runs
//! once per distinct row, so the second is its worst case). Also benches
//! model (dis)assembly through the layered model storage.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use neurdb_core::{build_batches, AnalyticsWorkload};
use neurdb_engine::{AiEngine, DataBatch};
use neurdb_nn::{armnet_finetune_from, armnet_spec, encode_batch, ArmNetConfig, LossKind, Matrix};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;
use std::hint::black_box;

fn setup(engine: &AiEngine) -> neurdb_engine::Mid {
    let cfg = AnalyticsWorkload::Ecommerce.config();
    let batches = build_batches(AnalyticsWorkload::Ecommerce, 0, 8, 256, 1);
    engine
        .train(armnet_spec(&cfg), LossKind::Mse, 5e-3, batches)
        .mid
}

fn bench_frozen_prefix(c: &mut Criterion) {
    let engine = AiEngine::new();
    let mid = setup(&engine);
    let n_layers = armnet_spec(&AnalyticsWorkload::Ecommerce.config()).len();
    let mut g = c.benchmark_group("finetune_frozen_prefix");
    g.sample_size(10);
    for frozen in [0usize, 2, n_layers - 1] {
        g.bench_with_input(BenchmarkId::from_parameter(frozen), &frozen, |b, &f| {
            b.iter(|| {
                let batches = build_batches(AnalyticsWorkload::Ecommerce, 1, 4, 256, 2);
                let out = engine
                    .finetune(mid, LossKind::Mse, 5e-3, f, batches)
                    .unwrap();
                black_box(out.version)
            })
        });
    }
    g.finish();
}

/// The model `Database` trains for a 4-feature `PREDICT`.
const PREDICT_MODEL: ArmNetConfig = ArmNetConfig {
    nfields: 4,
    vocab: 2048,
    embed_dim: 8,
    hidden: 64,
    outputs: 1,
};

/// 20,000 rows in `Database::finetune`'s 4,096-row batches. The fields
/// take 10, 10, 5 and 7 values, as in the e2ebench `ai_predict` table:
/// about 3.5k distinct rows. With `all_distinct`, field 0 is the row
/// number instead, so no row repeats (ids past the vocabulary share its
/// last embedding, which costs the same).
fn predict_rows(all_distinct: bool) -> Vec<DataBatch> {
    let mut rng = StdRng::seed_from_u64(7);
    let raw: Vec<Vec<u64>> = (0..20_000)
        .map(|_| [10, 10, 5, 7].map(|n| rng.gen_range(0..n)).to_vec())
        .collect();
    let mut features = encode_batch(&raw, &PREDICT_MODEL);
    if all_distinct {
        for r in 0..features.rows {
            features.set(r, 0, r as f32);
        }
    }
    let distinct: HashSet<Vec<u32>> = (0..features.rows)
        .map(|r| features.row(r).iter().map(|v| v.to_bits()).collect())
        .collect();
    println!("[rows] {} rows, {} distinct", features.rows, distinct.len());
    let targets: Vec<f32> = (0..features.rows)
        .map(|_| rng.gen_range(-1.0..1.0))
        .collect();
    (0..features.rows)
        .step_by(4096)
        .map(|lo| {
            let hi = (lo + 4096).min(features.rows);
            DataBatch {
                features: Matrix::from_vec(
                    hi - lo,
                    PREDICT_MODEL.nfields,
                    features.data[lo * PREDICT_MODEL.nfields..hi * PREDICT_MODEL.nfields].to_vec(),
                ),
                targets: Matrix::from_vec(hi - lo, 1, targets[lo..hi].to_vec()),
            }
        })
        .collect()
}

fn bench_finetune_distinct_rows(c: &mut Criterion) {
    let inputs = [
        ("3.5k_distinct", predict_rows(false)),
        ("all_distinct", predict_rows(true)),
    ];
    let engine = AiEngine::new();
    let mid = engine
        .train(
            armnet_spec(&PREDICT_MODEL),
            LossKind::Mse,
            5e-3,
            &inputs[0].1,
        )
        .mid;
    let from = armnet_finetune_from(&PREDICT_MODEL);
    let mut g = c.benchmark_group("finetune_head_20k_rows");
    g.sample_size(10);
    for (name, batches) in &inputs {
        g.bench_function(name, |b| {
            b.iter(|| {
                let out = engine
                    .finetune(mid, LossKind::Mse, 5e-3, from, batches)
                    .unwrap();
                black_box(out.version)
            })
        });
    }
    g.finish();
}

fn bench_model_assembly(c: &mut Criterion) {
    let engine = AiEngine::new();
    let mid = setup(&engine);
    // Create 10 incremental versions so assembly walks the layer table.
    for _ in 0..10 {
        let batches = build_batches(AnalyticsWorkload::Ecommerce, 0, 1, 128, 3);
        engine
            .finetune(mid, LossKind::Mse, 5e-3, 6, batches)
            .unwrap();
    }
    c.bench_function("materialize_latest_of_11_versions", |b| {
        b.iter(|| black_box(engine.models.materialize_latest(mid).unwrap().num_layers()))
    });
    let report = engine.models.storage_report();
    println!(
        "\n[storage] {} versions, {} layer rows, {:.1}% saved vs naive",
        report.versions,
        report.layer_rows,
        100.0 * report.savings()
    );
}

criterion_group!(
    benches,
    bench_frozen_prefix,
    bench_finetune_distinct_rows,
    bench_model_assembly
);
criterion_main!(benches);
