//! Outside-in layer probes: a SELECT is run once through
//! `Database::execute` and once through the public layer functions it
//! is built from (`neurdb_sql::parse`, `plan_select_with`,
//! `execute_plan_instrumented`), each call timed from here. Operator
//! self time comes from the executor's per-operator metrics.

use crate::spans::{self, Span, Tracer};
use crate::stats::Samples;
use crate::{Args, Outcome};
use neurdb_core::{
    execute_plan_instrumented, plan_select_with, Database, OpMetrics, PhysicalPlan, PlannerConfig,
};
use neurdb_sql::Statement;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

/// Operator classes whose self time is reported; every other operator
/// is summed into `other`.
pub const OP_CLASSES: [&str; 9] = [
    "seq_scan",
    "index_scan",
    "exchange",
    "partial_agg",
    "hash_join",
    "partitioned_join",
    "hash_agg",
    "project",
    "other",
];

/// Accumulated timings of probed SELECTs.
#[derive(Default)]
pub struct SelectProbe {
    /// `Database::execute` of the whole statement, µs.
    pub execute_us: Samples,
    /// Per probe: `execute_us` minus its parse, plan, and execute, µs.
    pub unattributed_us: Samples,
    pub parse_us: Samples,
    pub plan_us: Samples,
    pub exec_us: Samples,
    /// Self time per operator class, summed over probes, ms.
    pub op_self_ms: BTreeMap<&'static str, f64>,
    /// Parallel workers' compute and hand-off wait, summed, ms.
    pub worker_busy_ms: f64,
    pub worker_wait_ms: f64,
    pub probes: usize,
}

impl SelectProbe {
    /// Execute `sql` whole, then layer by layer, recording both; the
    /// two must return the same number of rows.
    pub fn probe(
        &mut self,
        db: &Database,
        sql: &str,
        config: &PlannerConfig,
        tr: &mut Tracer,
        op: u64,
    ) -> Result<(), String> {
        tr.begin("probe.select", op);

        tr.begin("core.database.execute", op);
        let t = Instant::now();
        let whole = db.execute(sql).map_err(|e| format!("{sql}: {e}"))?;
        let whole_us = t.elapsed().as_secs_f64() * 1e6;
        self.execute_us.push(whole_us);
        tr.end();

        tr.begin("sql.parse", op);
        let t = Instant::now();
        let stmt = neurdb_sql::parse(sql).map_err(|e| format!("{sql}: {e}"))?;
        self.parse_us.push(t.elapsed().as_secs_f64() * 1e6);
        tr.end();
        let Statement::Select(select) = stmt else {
            return Err(format!("not a SELECT: {sql}"));
        };

        tr.begin("core.planner.plan", op);
        let t = Instant::now();
        let config = PlannerConfig {
            system: db.system_conditions(),
            ..config.clone()
        };
        let mut tables = Vec::with_capacity(select.from.len());
        for tref in &select.from {
            let table = db.table(&tref.name).map_err(|e| e.to_string())?;
            tables.push((tref.binding().to_string(), table));
        }
        let planned =
            plan_select_with(&select, &tables, None, &config).map_err(|e| e.to_string())?;
        self.plan_us.push(t.elapsed().as_secs_f64() * 1e6);
        tr.end();

        tr.begin("core.exec.execute", op);
        let t = Instant::now();
        let (rows, metrics) =
            execute_plan_instrumented(&planned.plan).map_err(|e| e.to_string())?;
        self.exec_us.push(t.elapsed().as_secs_f64() * 1e6);
        tr.end();
        tr.end();
        let n = self.exec_us.len() - 1;
        self.unattributed_us
            .push(whole_us - self.parse_us.ms[n] - self.plan_us.ms[n] - self.exec_us.ms[n]);

        let whole_rows = whole.rows().map_or(0, |r| r.rows.len());
        if rows.rows.len() != whole_rows {
            return Err(format!(
                "layered execution returned {} rows, Database::execute {whole_rows}: {sql}",
                rows.rows.len()
            ));
        }
        let mut idx = 0;
        operator_self_times(&planned.plan, &metrics, &mut idx, &mut self.op_self_ms);
        for m in &metrics {
            self.worker_busy_ms += m.busy_ns as f64 / 1e6;
            self.worker_wait_ms += m.wait_ns as f64 / 1e6;
        }
        self.probes += 1;
        Ok(())
    }

    /// Fold another probe's samples and totals into this one.
    pub fn absorb(&mut self, other: SelectProbe) {
        self.execute_us.extend(&other.execute_us);
        self.unattributed_us.extend(&other.unattributed_us);
        self.parse_us.extend(&other.parse_us);
        self.plan_us.extend(&other.plan_us);
        self.exec_us.extend(&other.exec_us);
        for (class, ms) in other.op_self_ms {
            *self.op_self_ms.entry(class).or_default() += ms;
        }
        self.worker_busy_ms += other.worker_busy_ms;
        self.worker_wait_ms += other.worker_wait_ms;
        self.probes += other.probes;
    }

    /// Mean self time of an operator class per probed statement, ms.
    pub fn op_self_per_query(&self, class: &str) -> f64 {
        if self.probes == 0 {
            return 0.0;
        }
        self.op_self_ms.get(class).copied().unwrap_or(0.0) / self.probes as f64
    }
}

fn op_class(p: &PhysicalPlan) -> &'static str {
    match p {
        PhysicalPlan::SeqScan { .. } => "seq_scan",
        PhysicalPlan::IndexScan { .. } => "index_scan",
        PhysicalPlan::Exchange { .. } => "exchange",
        PhysicalPlan::PartialHashAggregate { .. } => "partial_agg",
        PhysicalPlan::HashJoin { .. } => "hash_join",
        PhysicalPlan::PartitionedHashJoin { .. } => "partitioned_join",
        PhysicalPlan::HashAggregate { .. } => "hash_agg",
        PhysicalPlan::Project { .. } => "project",
        _ => "other",
    }
}

fn children(p: &PhysicalPlan) -> Vec<&PhysicalPlan> {
    match p {
        PhysicalPlan::HashJoin { left, right, .. }
        | PhysicalPlan::NestedLoopJoin { left, right, .. } => vec![left, right],
        PhysicalPlan::PartitionedHashJoin { probe, build, .. } => vec![probe, build],
        PhysicalPlan::Filter { input, .. }
        | PhysicalPlan::Reorder { input, .. }
        | PhysicalPlan::Exchange { input, .. }
        | PhysicalPlan::PartialHashAggregate { input, .. }
        | PhysicalPlan::HashAggregate { input, .. }
        | PhysicalPlan::Project { input, .. }
        | PhysicalPlan::Sort { input, .. }
        | PhysicalPlan::Limit { input, .. } => vec![input],
        _ => vec![],
    }
}

/// Walk the plan in pre-order (the order of the metrics vector) and
/// add each operator's inclusive time minus its children's to its
/// class. Returns the node's inclusive time.
fn operator_self_times(
    p: &PhysicalPlan,
    metrics: &[OpMetrics],
    idx: &mut usize,
    out: &mut BTreeMap<&'static str, f64>,
) -> u128 {
    let Some(m) = metrics.get(*idx) else {
        return 0;
    };
    *idx += 1;
    let mut below = 0u128;
    for c in children(p) {
        below += operator_self_times(c, metrics, idx, out);
    }
    *out.entry(op_class(p)).or_default() += m.nanos.saturating_sub(below) as f64 / 1e6;
    m.nanos
}

/// Median wall time of `f` over `reps` calls, ms.
pub fn median_ms<T>(reps: usize, mut f: impl FnMut() -> T) -> f64 {
    let mut s = Samples::default();
    for _ in 0..reps {
        let t = Instant::now();
        std::hint::black_box(f());
        s.push(t.elapsed().as_secs_f64() * 1e3);
    }
    s.median()
}

/// Median time of a full heap scan of `table`, ms.
pub fn table_scan_ms(db: &Database, table: &str, reps: usize) -> Result<f64, String> {
    let t: Arc<neurdb_storage::Table> = db.table(table).map_err(|e| e.to_string())?;
    let mut err = None;
    let ms = median_ms(reps, || {
        if let Err(e) = t.scan() {
            err = Some(e.to_string());
        }
    });
    err.map_or(Ok(ms), Err)
}

/// Buffer-pool hit ratio, and misses and evictions per operation,
/// between two `buffer_stats()` snapshots taken around `ops` operations.
pub fn set_buffer_metrics(
    before: &neurdb_storage::BufferStats,
    after: &neurdb_storage::BufferStats,
    ops: u64,
    out: &mut Outcome,
) {
    let (hits, misses) = (after.hits - before.hits, after.misses - before.misses);
    let ops = ops.max(1) as f64;
    out.set(
        "storage.buffer.hit_ratio",
        hits as f64 / (hits + misses).max(1) as f64,
    );
    out.set("storage.buffer.misses_per_query", misses as f64 / ops);
    out.set(
        "storage.buffer.evictions_per_query",
        (after.evictions - before.evictions) as f64 / ops,
    );
}

/// Operator self times and worker split of probed SELECTs.
pub fn set_operator_metrics(probe: &SelectProbe, out: &mut Outcome) {
    for class in OP_CLASSES {
        out.set(
            &format!("core.exec.{class}_self_ms"),
            probe.op_self_per_query(class),
        );
    }
    let n = probe.probes.max(1) as f64;
    out.set("core.exec.worker_busy_ms", probe.worker_busy_ms / n);
    out.set("core.exec.worker_wait_ms", probe.worker_wait_ms / n);
}

/// Write the run's spans and per-class latency histograms, and report
/// the span count and the largest self times.
pub fn write_trace_files(
    args: &Args,
    all: &[Span],
    classes: &[(&str, &Samples)],
    out: &mut Outcome,
) -> Result<(), String> {
    let stem = format!("{}-seed{}", args.workload, args.seed);
    let span_path = args.out_dir.join(format!("{stem}-spans.jsonl"));
    spans::write_jsonl(&span_path, all).map_err(|e| format!("{}: {e}", span_path.display()))?;
    let mut hist = String::from("{");
    for (i, (name, s)) in classes.iter().enumerate() {
        if i > 0 {
            hist.push(',');
        }
        hist.push_str(&format!(
            "\"{name}\":{{\"n\":{},\"buckets\":{}}}",
            s.len(),
            s.histogram_json()
        ));
    }
    hist.push('}');
    let hist_path = args.out_dir.join(format!("{stem}-hist.json"));
    std::fs::write(&hist_path, hist).map_err(|e| format!("{}: {e}", hist_path.display()))?;
    out.set("trace.spans", all.len() as f64);
    out.note(format!(
        "spans: {} ({}); histograms: {}",
        all.len(),
        span_path.display(),
        hist_path.display()
    ));
    let mut by_self: Vec<_> = spans::totals(all).into_iter().collect();
    by_self.sort_by_key(|(_, t)| std::cmp::Reverse(t.self_ns));
    for (name, t) in by_self.iter().take(12) {
        out.note(format!(
            "  span {name:<40} n={:<6} total={:>10.3}ms self={:>10.3}ms",
            t.count,
            t.total_ns as f64 / 1e6,
            t.self_ns as f64 / 1e6
        ));
    }
    Ok(())
}
