//! The Fig. 6(c) drift-adaptation scenario end-to-end: train on Avazu
//! cluster C1, switch clusters, and verify that incremental updates
//! recover the loss faster than a frozen model — plus drift-monitor
//! integration.

use neurdb_bench::{build_batches, AnalyticsWorkload};
use neurdb_engine::{Adaptation, AiEngine, DriftMonitor, MonitorConfig};
use neurdb_nn::{armnet_finetune_from, armnet_spec, LossKind};

#[test]
fn incremental_update_recovers_after_cluster_switch() {
    let engine = AiEngine::new();
    let cfg = AnalyticsWorkload::Ecommerce.config();
    // Train on cluster 0.
    let b0 = build_batches(AnalyticsWorkload::Ecommerce, 0, 20, 64, 1);
    let out = engine.train(armnet_spec(&cfg), LossKind::Mse, 5e-3, b0);
    let mid = out.mid;
    // Loss on cluster 1 *before* adaptation (stale model).
    let eval_batches = build_batches(AnalyticsWorkload::Ecommerce, 1, 4, 64, 2);
    let loss_of = |engine: &AiEngine, mid| -> f32 {
        let mut model = engine.models.materialize_latest(mid).unwrap();
        eval_batches
            .iter()
            .map(|b| neurdb_nn::mse(&model.forward(&b.features), &b.targets).0)
            .sum::<f32>()
            / eval_batches.len() as f32
    };
    let stale_loss = loss_of(&engine, mid);
    // Incremental update on cluster 1 data (fine-tune trailing layers).
    let b1 = build_batches(AnalyticsWorkload::Ecommerce, 1, 20, 64, 3);
    let ft = engine
        .finetune(mid, LossKind::Mse, 5e-3, armnet_finetune_from(&cfg), b1)
        .unwrap();
    let adapted_loss = loss_of(&engine, mid);
    assert!(
        adapted_loss < stale_loss,
        "fine-tuning must reduce post-drift loss: {stale_loss} -> {adapted_loss}"
    );
    assert!(ft.version > out.version);
    // The old version is still materializable (model time travel).
    assert!(engine.models.materialize(mid, out.version).is_ok());
}

#[test]
fn monitor_detects_cluster_switch_from_loss_stream() {
    let engine = AiEngine::new();
    let cfg = AnalyticsWorkload::Ecommerce.config();
    let b0 = build_batches(AnalyticsWorkload::Ecommerce, 0, 30, 64, 4);
    let out = engine.train(armnet_spec(&cfg), LossKind::Mse, 5e-3, b0);
    // Feed the monitor converged losses, then drifted-cluster losses.
    let mut monitor = DriftMonitor::new(MonitorConfig {
        window: 5,
        finetune_ratio: 1.3,
        retrain_ratio: 6.0,
        cooldown: 5,
    });
    let tail = &out.losses[out.losses.len().saturating_sub(10)..];
    for l in tail {
        for _ in 0..2 {
            monitor.observe(*l as f64);
        }
    }
    let mut model = engine.models.materialize_latest(out.mid).unwrap();
    let drifted = build_batches(AnalyticsWorkload::Ecommerce, 3, 10, 64, 5);
    let mut fired = false;
    for b in &drifted {
        let (l, _) = neurdb_nn::mse(&model.forward(&b.features), &b.targets);
        if monitor.observe(l as f64) != Adaptation::None {
            fired = true;
            break;
        }
    }
    assert!(
        fired,
        "cluster switch should raise the loss enough to trigger"
    );
}

#[test]
fn storage_report_reflects_incremental_versions() {
    let engine = AiEngine::new();
    let cfg = AnalyticsWorkload::Healthcare.config();
    let b = build_batches(AnalyticsWorkload::Healthcare, 0, 10, 32, 6);
    let out = engine.train(armnet_spec(&cfg), LossKind::Bce, 5e-3, b);
    // Five incremental updates.
    for i in 0..5 {
        let b = build_batches(AnalyticsWorkload::Healthcare, 0, 4, 32, 7 + i);
        engine
            .finetune(out.mid, LossKind::Bce, 5e-3, armnet_finetune_from(&cfg), b)
            .unwrap();
    }
    let report = engine.models.storage_report();
    assert_eq!(report.versions, 6);
    assert!(
        report.savings() > 0.5,
        "layered storage should save >50%: {:.3}",
        report.savings()
    );
}
