//! # neurdb-qo
//!
//! The fast-adaptive **learned query optimizer** of NeurDB-RS (paper
//! Section 4.2, Fig. 5) and its comparison set:
//!
//! * [`NeurQo`] — the dual-module model: tree-transformer plan encoder +
//!   cross-attention over *system conditions* (fresh lightweight data
//!   statistics, estimate-staleness signals), and a multi-head-attention
//!   analyzer that scores candidate plans. Pre-trained over synthetic
//!   distributions generated with a Bayesian-optimization-style curriculum
//!   ([`pretrain`]), which is what lets it keep choosing good plans when
//!   the data drifts away from the catalog statistics.
//! * [`CostBasedOptimizer`] — exhaustive DP on (stale) estimates: PostgreSQL.
//! * [`BaoOptimizer`] / [`LeroOptimizer`] — frozen learned baselines.
//!
//! "Latency" is the plan's cost under **true** statistics — a simulator
//! surrogate that preserves plan ranking (ROADMAP.md item 10 replaces it
//! with executed queries).

pub mod baselines;
pub mod graph;
pub mod model;
pub mod plan;
pub mod pretrain;

pub use baselines::{
    arm_plan, latency_of, plan_summary, BaoArm, BaoOptimizer, CostBasedOptimizer, LeroOptimizer,
    Optimizer, RandomOptimizer, BAO_ARMS,
};
pub use graph::{random_graph, JoinEdge, JoinGraph, SystemConditions, TableInfo};
pub use model::{normalize_cost, plan_features, DualQoModel, COND_FEAT, NODE_FEAT};
pub use plan::{candidate_plans, cost_plan, dp_best_plan, PlanCost, PlanTree};
pub use pretrain::{pretrain, pretrain_workload, pretrained_model, PretrainConfig, PretrainReport};

use rand::rngs::StdRng;
use rand::SeedableRng;

/// The NeurDB learned query optimizer: pre-trained dual-module model over
/// generated candidate plans.
pub struct NeurQo {
    pub model: DualQoModel,
    /// Candidate plans generated per query.
    pub k: usize,
    rng: StdRng,
}

impl NeurQo {
    pub fn new(model: DualQoModel, k: usize, seed: u64) -> Self {
        NeurQo {
            model,
            k,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// Build with default pre-training.
    pub fn pretrained(cfg: PretrainConfig, seed: u64) -> (Self, PretrainReport) {
        let (model, report) = pretrained_model(cfg, seed);
        (Self::new(model, 6, seed ^ 0x90), report)
    }

    /// Build with workload-aware pre-training over drift variants of the
    /// deployed workload's query graphs (the paper's deployment mode).
    pub fn pretrained_for(
        base: &[JoinGraph],
        cfg: PretrainConfig,
        seed: u64,
    ) -> (Self, PretrainReport) {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x51D);
        let mut model = DualQoModel::new(16, 8, 3e-3, &mut rng);
        let report = pretrain_workload(&mut model, base, cfg, seed);
        (Self::new(model, 6, seed ^ 0x90), report)
    }
}

impl Optimizer for NeurQo {
    fn choose_plan(&mut self, graph: &JoinGraph) -> PlanTree {
        // Filter-and-refine (the paper's FRP design principle): the cheap
        // filtering stage discards candidates whose *estimated* cost is
        // far above the best estimate — even under heavy drift a
        // 30x-estimated-worse plan is almost never the true optimum — and
        // the learned model refines the ranking of the survivors using the
        // live system conditions.
        let cands = candidate_plans(graph, self.k, &mut self.rng);
        let costs: Vec<f64> = cands
            .iter()
            .map(|p| cost_plan(p, graph, false).cost)
            .collect();
        let best_est = costs.iter().cloned().fold(f64::MAX, f64::min);
        let survivors: Vec<PlanTree> = cands
            .into_iter()
            .zip(costs)
            .filter(|(_, c)| *c <= best_est * 30.0)
            .map(|(p, _)| p)
            .collect();
        self.model.choose(&survivors, graph).clone()
    }
    fn name(&self) -> &str {
        "neurdb"
    }

    /// Online adaptation from metered execution (paper Section 4.2's
    /// fast-adaptive loop): the observed graph carries *measured*
    /// cardinalities in its `true_*` fields, so one supervised step over a
    /// fresh candidate set fits the model's ranking to what the engine
    /// actually saw — no retraining pipeline, no stale-estimate detour.
    fn observe(&mut self, observed: &JoinGraph) {
        if observed.num_tables() < 2 {
            return;
        }
        let cands = candidate_plans(observed, self.k, &mut self.rng);
        if cands.len() >= 2 {
            self.model.train_step(&cands, observed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn neurqo_end_to_end_under_drift() {
        let (mut nq, _) = NeurQo::pretrained(
            PretrainConfig {
                iters: 250,
                tables: 4,
                candidates: 5,
            },
            3,
        );
        let mut pg = CostBasedOptimizer;
        let mut rng = StdRng::seed_from_u64(77);
        let mut nq_total = 0.0;
        let mut pg_total = 0.0;
        for _ in 0..15 {
            let g = random_graph(4, &mut rng).drift(0.9, &mut rng);
            nq_total += latency_of(&nq.choose_plan(&g), &g);
            pg_total += latency_of(&pg.choose_plan(&g), &g);
        }
        // Under severe drift the learned optimizer should at least be
        // competitive with the stale-stats DP (typically better).
        assert!(
            nq_total < pg_total * 1.3,
            "neurdb {nq_total:.0} should be competitive with stale pg {pg_total:.0}"
        );
    }

    #[test]
    fn neurqo_plans_are_valid() {
        let (mut nq, _) = NeurQo::pretrained(
            PretrainConfig {
                iters: 50,
                tables: 5,
                candidates: 5,
            },
            4,
        );
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..5 {
            let g = random_graph(5, &mut rng);
            let p = nq.choose_plan(&g);
            assert_eq!(p.mask(), (1u32 << 5) - 1);
        }
    }
}
