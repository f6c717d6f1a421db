//! Fig. 7(a) as a Criterion bench plus an ablation of the learned CC: the
//! contention-state encoding. Measures per-policy YCSB throughput and the
//! learned CC's decision latency (which must stay off the critical path —
//! the reason the paper compresses the model).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use neurdb_cc::{encode, LearnedCc, PolyjuiceCc};
use neurdb_txn::{
    run_workload, CcPolicy, EngineConfig, KeyContention, OpCtx, Ssi, TwoPhaseLocking, TxnEngine,
};
use neurdb_workloads::{Ycsb, YcsbConfig};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Duration;

fn bench_policy_throughput(c: &mut Criterion) {
    let mut g = c.benchmark_group("ycsb_policy");
    g.sample_size(10);
    g.measurement_time(Duration::from_secs(8));
    let policies: Vec<(&str, Arc<dyn CcPolicy>)> = vec![
        ("ssi", Arc::new(Ssi)),
        ("2pl", Arc::new(TwoPhaseLocking)),
        ("neurdb_cc", Arc::new(LearnedCc::seeded())),
        ("polyjuice", Arc::new(PolyjuiceCc::default_policy())),
    ];
    for (name, policy) in policies {
        g.bench_with_input(BenchmarkId::from_parameter(name), &policy, |b, policy| {
            b.iter_custom(|iters| {
                // One timed workload slice per sample set; report the time
                // a fixed slice takes (commits vary with the policy).
                let ycsb = Arc::new(Ycsb::new(YcsbConfig {
                    records: 100_000,
                    ..Default::default()
                }));
                let engine = Arc::new(TxnEngine::new(policy.clone(), EngineConfig::default()));
                ycsb.load(&engine);
                let y = ycsb.clone();
                let start = std::time::Instant::now();
                for _ in 0..iters.min(3) {
                    let y2 = y.clone();
                    let stats =
                        run_workload(&engine, 4, Duration::from_millis(100), move |tid, seq| {
                            y2.transaction_for(tid, seq)
                        });
                    black_box(stats.commits);
                }
                start.elapsed()
            })
        });
    }
    g.finish();
}

fn bench_decision_latency(c: &mut Criterion) {
    // The decision model runs on every operation; the paper compresses it
    // so it does not bottleneck millisecond transactions.
    let ctx = OpCtx {
        key: 42,
        ops_done: 3,
        txn_len_hint: 10,
        txn_type: 1,
        contention: KeyContention {
            recent_reads: 17.0,
            recent_writes: 5.0,
            recent_aborts: 1.0,
            write_locked: false,
        },
    };
    let mut g = c.benchmark_group("cc_decision");
    g.throughput(Throughput::Elements(1));
    let learned = LearnedCc::seeded();
    g.bench_function("encoding_only", |b| b.iter(|| black_box(encode(&ctx))));
    g.bench_function("learned_read_decision", |b| {
        b.iter(|| black_box(learned.read_decision(&ctx)))
    });
    g.bench_function("learned_write_decision", |b| {
        b.iter(|| black_box(learned.write_decision(&ctx)))
    });
    let pj = PolyjuiceCc::default_policy();
    g.bench_function("polyjuice_read_decision", |b| {
        b.iter(|| black_box(pj.read_decision(&ctx)))
    });
    g.finish();
}

criterion_group!(benches, bench_policy_throughput, bench_decision_latency);
criterion_main!(benches);
