//! Fig. 8 as a Criterion bench plus an ablation of NeurQO: optimizer
//! planning time per STATS query, and the dual-module model with vs
//! without the system-condition input (conditions matter under drift).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use neurdb_qo::{
    candidate_plans, cost_plan, dp_best_plan, latency_of, BaoOptimizer, CostBasedOptimizer,
    DualQoModel, LeroOptimizer, NeurQo, Optimizer, PretrainConfig,
};
use neurdb_workloads::{query_graph, stats_queries, DriftLevel};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;

fn bench_planning_time(c: &mut Criterion) {
    let training: Vec<_> = stats_queries()
        .iter()
        .map(|q| query_graph(q, DriftLevel::Original, 0))
        .collect();
    let mut bao = BaoOptimizer::train(&training, 10, 1);
    let mut lero = LeroOptimizer::train(&training, 5, 2);
    let (mut neur, _) = NeurQo::pretrained(
        PretrainConfig {
            iters: 60,
            tables: 5,
            candidates: 5,
        },
        3,
    );
    let mut pg = CostBasedOptimizer;
    // The 5-way join (query 8) is the heaviest planning problem.
    let g = query_graph(&stats_queries()[7], DriftLevel::Original, 1);
    let mut group = c.benchmark_group("plan_q8");
    for (name, opt) in [
        ("postgresql", &mut pg as &mut dyn Optimizer),
        ("bao", &mut bao),
        ("lero", &mut lero),
        ("neurdb", &mut neur),
    ] {
        group.bench_with_input(BenchmarkId::from_parameter(name), &g, |b, g| {
            b.iter(|| black_box(opt.choose_plan(g).num_joins()))
        });
    }
    group.finish();
}

fn bench_plan_enumeration(c: &mut Criterion) {
    let g = query_graph(&stats_queries()[7], DriftLevel::Original, 1);
    let mut rng = StdRng::seed_from_u64(4);
    c.bench_function("dp_best_plan_5way", |b| {
        b.iter(|| black_box(dp_best_plan(&g).num_joins()))
    });
    c.bench_function("candidate_plans_6_of_5way", |b| {
        b.iter(|| black_box(candidate_plans(&g, 6, &mut rng).len()))
    });
    c.bench_function("cost_plan_5way", |b| {
        let p = dp_best_plan(&g);
        b.iter(|| black_box(cost_plan(&p, &g, true).cost))
    });
}

/// Ablation: how much do fresh system conditions matter under drift?
/// Compares the pretrained dual model's chosen-plan latency when the
/// condition tokens are live vs zeroed (by handing it the stale graph).
fn bench_condition_ablation(c: &mut Criterion) {
    let (mut neur, _) = NeurQo::pretrained(
        PretrainConfig {
            iters: 200,
            tables: 5,
            candidates: 6,
        },
        7,
    );
    let mut rng = StdRng::seed_from_u64(8);
    let mut live_total = 0.0;
    let mut blind_total = 0.0;
    let mut blind_model = DualQoModel::new(16, 8, 3e-3, &mut rng); // untrained = no condition knowledge
    for q in stats_queries() {
        let g = query_graph(&q, DriftLevel::Severe, 2024);
        let p_live = neur.choose_plan(&g);
        live_total += latency_of(&p_live, &g);
        let cands = candidate_plans(&g, 6, &mut rng);
        let p_blind = blind_model.choose(&cands, &g).clone();
        blind_total += latency_of(&p_blind, &g);
    }
    println!(
        "\n[ablation] severe-drift latency: pretrained-with-conditions {live_total:.0} vs \
         untrained {blind_total:.0} ({:.2}x)",
        blind_total / live_total
    );
    c.bench_function("neurqo_predict_scores", |b| {
        let g = query_graph(&stats_queries()[7], DriftLevel::Severe, 9);
        let cands = candidate_plans(&g, 6, &mut rng);
        b.iter(|| black_box(neur.model.predict(&cands, &g)[0]))
    });
}

criterion_group!(
    benches,
    bench_planning_time,
    bench_plan_enumeration,
    bench_condition_ablation
);
criterion_main!(benches);
