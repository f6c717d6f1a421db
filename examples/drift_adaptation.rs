//! Drift adaptation tour: the three NeurDB adaptation mechanisms working
//! together on live drift —
//!
//! 1. the **monitor** detects a data-distribution switch from the loss
//!    stream (Avazu cluster C1 → C2);
//! 2. the **model manager** applies an *incremental update* (fine-tune the
//!    trailing layers, persist only those) and reports the storage saved;
//! 3. the **learned concurrency control** re-tunes itself with two-phase
//!    adaptation when the transactional workload shifts.
//!
//! ```sh
//! cargo run --release --example drift_adaptation
//! ```

use neurdb_bench::{build_batches, AnalyticsWorkload};
use neurdb_cc::{run_learned_adaptive, AdaptConfig, LearnedCc, Phase};
use neurdb_engine::{Adaptation, AiEngine, DriftMonitor, MonitorConfig};
use neurdb_nn::{armnet_finetune_from, armnet_spec, LossKind};
use neurdb_txn::{EngineConfig, TxnEngine, TxnSpec};
use neurdb_workloads::{Ycsb, YcsbConfig};
use std::sync::Arc;
use std::time::Duration;

fn main() {
    // ---------- 1+2: analytics drift -------------------------------------
    println!("== analytics drift: Avazu C1 -> C2 ==");
    let engine = AiEngine::new();
    let cfg = AnalyticsWorkload::Ecommerce.config();
    let b0 = build_batches(AnalyticsWorkload::Ecommerce, 0, 40, 256, 1);
    let out = engine.train(armnet_spec(&cfg), LossKind::Mse, 5e-3, b0);
    println!(
        "trained on C1: {} samples, final loss {:.4}",
        out.samples,
        out.losses.last().unwrap()
    );

    // Stream C2 through the model while the monitor watches the loss.
    let mut monitor = DriftMonitor::new(MonitorConfig {
        window: 5,
        finetune_ratio: 1.3,
        retrain_ratio: 8.0,
        cooldown: 10,
    });
    for l in &out.losses[out.losses.len() - 10..] {
        monitor.observe(*l as f64);
    }
    let mut model = engine.models.materialize_latest(out.mid).unwrap();
    let c2 = build_batches(AnalyticsWorkload::Ecommerce, 1, 10, 256, 2);
    let mut decision = Adaptation::None;
    for (i, b) in c2.iter().enumerate() {
        let (l, _) = neurdb_nn::mse(&model.forward(&b.features), &b.targets);
        decision = monitor.observe(l as f64);
        if decision != Adaptation::None {
            println!(
                "monitor fired after {} drifted batches: {:?}",
                i + 1,
                decision
            );
            break;
        }
    }
    assert_ne!(decision, Adaptation::None, "drift must be detected");

    // Incremental update: freeze everything but the head.
    let frozen = armnet_finetune_from(&cfg);
    let c2_train = build_batches(AnalyticsWorkload::Ecommerce, 1, 40, 256, 3);
    let ft = engine
        .finetune(out.mid, LossKind::Mse, 5e-3, frozen, c2_train)
        .unwrap();
    println!(
        "fine-tuned layers {}.. in {:.3}s; loss {:.4} -> {:.4}",
        frozen,
        ft.total_seconds,
        ft.losses.first().unwrap(),
        ft.losses.last().unwrap()
    );
    let report = engine.models.storage_report();
    println!(
        "model storage: {} versions, {:.1}% saved vs full-copy versioning",
        report.versions,
        100.0 * report.savings()
    );

    // ---------- 3: transactional drift ------------------------------------
    println!("\n== transactional drift: uniform -> hotspot YCSB ==");
    let policy = Arc::new(LearnedCc::seeded());
    let txn_engine = Arc::new(TxnEngine::new(policy.clone(), EngineConfig::default()));
    let ycsb = Arc::new(Ycsb::new(YcsbConfig {
        records: 20_000,
        ..Default::default()
    }));
    ycsb.load(&txn_engine);
    let uniform = {
        let y = ycsb.clone();
        Arc::new(move |tid: usize, seq: u64| y.transaction_for(tid, seq))
    };
    let hotspot = Arc::new(move |tid: usize, seq: u64| {
        // All threads hammer 4 keys with multi-op RMW transactions: a
        // sharp contention regime shift (think flash sale).
        let h = (tid as u64)
            .wrapping_mul(31)
            .wrapping_add(seq.wrapping_mul(7));
        TxnSpec::new(
            0,
            vec![
                neurdb_txn::Op::Rmw(h % 4, 1),
                neurdb_txn::Op::Read(4 + h % 16),
                neurdb_txn::Op::Rmw((h + 1) % 4, 1),
                neurdb_txn::Op::Read(4 + (h * 3) % 16),
                neurdb_txn::Op::Rmw((h + 2) % 4, 1),
            ],
        )
    });
    let phases = vec![
        Phase {
            label: "uniform".into(),
            threads: 4,
            slices: 4,
            gen: uniform,
        },
        Phase {
            label: "hotspot".into(),
            threads: 4,
            slices: 6,
            gen: hotspot,
        },
    ];
    let timeline = run_learned_adaptive(
        &txn_engine,
        &policy,
        &phases,
        Duration::from_millis(120),
        AdaptConfig {
            candidates: 4,
            refine_iters: 4,
            ..Default::default()
        },
        9,
    );
    for p in &timeline {
        println!(
            "  t={:>6.2}s  {:>9.0} txn/s{}",
            p.t,
            p.throughput,
            if p.adapted {
                "  <- two-phase adaptation ran"
            } else {
                ""
            }
        );
    }
    let adapted = timeline.iter().any(|p| p.adapted);
    println!(
        "adaptation triggered: {adapted}; policy is '{}'",
        txn_engine.policy_name()
    );
}
