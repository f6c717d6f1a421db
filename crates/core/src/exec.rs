//! The SELECT executor: a tree of batch operators built from a
//! [`PhysicalPlan`] (see [`crate::planner`]). Each operator yields
//! `Vec<Tuple>` batches via [`Operator::next_batch`]; scans pull straight
//! from the storage layer's batched heap cursor
//! ([`neurdb_storage::Table::scan_batches`]) or a B-tree index cursor
//! ([`neurdb_storage::Table::index_scan`]), so a query never materializes
//! a base table it only streams over.
//!
//! **Vectorization** — predicate evaluation over scans and filters runs
//! through compiled selection-vector kernels ([`crate::vector`]): simple
//! comparisons become typed column loops, everything else falls back to
//! row-at-a-time evaluation with identical semantics.
//!
//! **Parallelism** — a plan's `Gather` node ([`PhysicalPlan::Exchange`])
//! is the morsel-driven execution boundary: it spawns one worker thread
//! per degree of parallelism, hands each worker a page-range partition of
//! the scanned heap ([`neurdb_storage::Table::scan_partitions`]), runs a
//! private copy of the child fragment in every worker, and merges their
//! output batches through a bounded channel. Everything above the Gather
//! stays single-threaded, so stateful consumers (Sort, hash builds) never
//! observe concurrency. Aggregations directly over a parallel scan are
//! split into per-worker partial aggregates whose encoded states the
//! Gather's consumer merges (two-phase parallel aggregation).
//!
//! **Parallel hash join** — a hash join whose probe side merits fan-out
//! runs as [`PartitionedHashJoinOp`]: the build side drains on the
//! consumer thread into one shared read-only hash table (through a
//! Gather when its own scan fanned out), then each worker probes it with
//! its own morsel stream of the probe scan. A partial aggregate sitting
//! directly above the join is pushed into the probe workers
//! ([`PushedAgg`]): only encoded per-group aggregate states cross the
//! output channel instead of every joined row.
//!
//! Every operator is wrapped in a metering shell that counts rows/batches
//! and inclusive wall time — `EXPLAIN ANALYZE` renders those counters
//! next to each plan node, including per-worker row counts at a Gather
//! or a partitioned join.

use crate::error::CoreError;
use crate::expr::{eval, Bindings};
use crate::planner::{plan_select, PhysicalPlan};
use crate::transactions::ScanOverlay;
use crate::vector::{PredicateSet, ProjectionSet};
use crossbeam::channel;
use neurdb_obs::trace;
use neurdb_sql::{AggFunc, Expr, SelectItem, SelectStmt, SortOrder};
use neurdb_storage::{HeapBatchScan, RecordId, Table, Tuple, Value};
use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

/// Rows per scan batch (operators in between may grow or shrink batches).
pub const BATCH_ROWS: usize = 1024;

/// In-flight batches a Gather buffers per worker before back-pressure.
const EXCHANGE_QUEUE_PER_WORKER: usize = 2;

/// A query result: column headers plus rows.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryResult {
    pub columns: Vec<String>,
    pub rows: Vec<Tuple>,
}

impl QueryResult {
    pub fn empty() -> Self {
        QueryResult {
            columns: vec![],
            rows: vec![],
        }
    }

    pub fn len(&self) -> usize {
        self.rows.len()
    }

    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }
}

/// Execution counters for one operator (pre-order position in the plan).
#[derive(Debug, Clone, Default)]
pub struct OpMetrics {
    /// Operator label (matches the plan node's EXPLAIN line).
    pub op: String,
    /// Rows this operator emitted.
    pub rows_out: u64,
    /// Non-empty batches emitted.
    pub batches: u64,
    /// Inclusive wall time (includes children pulled from within; for
    /// operators inside a Gather fragment, summed across workers).
    pub nanos: u128,
    /// Parallel operators only (Gather, partitioned join): total time
    /// the pool's workers spent computing fragment batches, summed
    /// across workers.
    pub busy_ns: u128,
    /// Parallel operators only: total time the pool's workers spent
    /// blocked handing batches to the exchange queue (back-pressure
    /// from the consumer), summed across workers.
    pub wait_ns: u128,
    /// Operator-specific annotation (e.g. a Gather's per-worker rows).
    pub note: String,
}

/// Execute a SELECT against resolved tables (`binding name -> table`):
/// plan (join order via `neurdb-qo`'s DP) and run the operator pipeline.
pub fn execute_select(
    stmt: &SelectStmt,
    tables: &[(String, Arc<Table>)],
) -> Result<QueryResult, CoreError> {
    let planned = plan_select(stmt, tables, None)?;
    execute_plan(&planned.plan)
}

/// Run a physical plan to completion.
pub fn execute_plan(plan: &PhysicalPlan) -> Result<QueryResult, CoreError> {
    execute_plan_instrumented(plan).map(|(r, _)| r)
}

/// Run a physical plan, returning per-operator metrics in pre-order
/// (aligned with [`PhysicalPlan::render`]).
pub fn execute_plan_instrumented(
    plan: &PhysicalPlan,
) -> Result<(QueryResult, Vec<OpMetrics>), CoreError> {
    let mut rows = Vec::new();
    let metrics = execute_plan_batches(plan, |batch| {
        rows.extend(batch);
        Ok(())
    })?;
    let columns = plan.output_columns();
    Ok((QueryResult { columns, rows }, metrics))
}

/// The executor's one batch loop: run a physical plan, handing each
/// output batch to `visit` as the root produces it, and return the
/// per-operator metrics in pre-order. An error from `visit` stops the
/// plan.
pub(crate) fn execute_plan_batches(
    plan: &PhysicalPlan,
    mut visit: impl FnMut(Batch) -> Result<(), CoreError>,
) -> Result<Vec<OpMetrics>, CoreError> {
    let sink: MetricsSink = Rc::new(RefCell::new(Vec::new()));
    let mut root = build_operator(plan, &sink, &mut None, false)?;
    let result = loop {
        match root.next_batch() {
            Ok(Some(batch)) => {
                if let Err(e) = visit(batch) {
                    break Err(e);
                }
            }
            Ok(None) => break Ok(()),
            Err(e) => break Err(e),
        }
    };
    drop(root);
    result?;
    Ok(Rc::try_unwrap(sink)
        .expect("operators dropped")
        .into_inner())
}

// ----------------------------- operators -----------------------------

type Batch = Vec<Tuple>;
type MetricsSink = Rc<RefCell<Vec<OpMetrics>>>;
/// A hash join's build side: every row under its (non-NULL) join key.
type JoinTable = HashMap<Value, Vec<Tuple>>;

/// A pull-based batch operator.
trait Operator {
    /// The next non-empty batch, or `None` once exhausted.
    fn next_batch(&mut self) -> Result<Option<Batch>, CoreError>;
}

/// Metering shell: times each pull and counts emitted rows/batches.
struct Metered {
    inner: Box<dyn Operator>,
    id: usize,
    sink: MetricsSink,
}

impl Operator for Metered {
    fn next_batch(&mut self) -> Result<Option<Batch>, CoreError> {
        let start = Instant::now();
        let out = self.inner.next_batch();
        let nanos = start.elapsed().as_nanos();
        let mut sink = self.sink.borrow_mut();
        let m = &mut sink[self.id];
        m.nanos += nanos;
        if let Ok(Some(batch)) = &out {
            m.rows_out += batch.len() as u64;
            m.batches += 1;
        }
        out
    }
}

/// Register metric slots for `plan` and its subtree in pre-order without
/// building operators (a Gather's child fragments are built inside the
/// worker threads against worker-local sinks). Returns the slot id of
/// `plan` itself.
fn register_slots(plan: &PhysicalPlan, sink: &MetricsSink) -> usize {
    let id = {
        let mut s = sink.borrow_mut();
        s.push(OpMetrics {
            op: plan.label(),
            ..OpMetrics::default()
        });
        s.len() - 1
    };
    for child in plan.children() {
        register_slots(child, sink);
    }
    id
}

/// Number of plan nodes in the subtree rooted at `plan`.
fn plan_size(plan: &PhysicalPlan) -> usize {
    1 + plan.children().iter().map(|c| plan_size(c)).sum::<usize>()
}

/// The table of the (single) sequential scan leaf inside a Gather
/// fragment — the planner's invariant is exactly one scan per fragment.
fn fragment_scan_table(plan: &PhysicalPlan) -> Option<&Arc<Table>> {
    match plan {
        PhysicalPlan::SeqScan { table, .. } => Some(table),
        other => other.children().into_iter().find_map(fragment_scan_table),
    }
}

/// Build the operator tree for `plan`, registering one [`OpMetrics`] slot
/// per node in pre-order (parent before children, children left-to-right)
/// so metrics align with [`PhysicalPlan::render`].
///
/// `partition` carries a worker's scan cursor when building a Gather
/// fragment (`in_worker`): the fragment's scan leaf consumes it instead
/// of opening a full-table cursor.
fn build_operator(
    plan: &PhysicalPlan,
    sink: &MetricsSink,
    partition: &mut Option<HeapBatchScan>,
    in_worker: bool,
) -> Result<Box<dyn Operator>, CoreError> {
    let id = {
        let mut s = sink.borrow_mut();
        s.push(OpMetrics {
            op: plan.label(),
            ..OpMetrics::default()
        });
        s.len() - 1
    };
    let inner: Box<dyn Operator> = match plan {
        PhysicalPlan::SeqScan {
            table,
            predicates,
            env,
            overlay,
            ..
        } => {
            let cursor = match partition.take() {
                Some(part) => part,
                None => table.scan_batches(BATCH_ROWS),
            };
            Box::new(SeqScanOp {
                cursor,
                predicates: PredicateSet::compile(predicates, env),
                overlay: overlay.clone(),
            })
        }
        PhysicalPlan::IndexScan {
            table,
            col,
            lo,
            hi,
            predicates,
            env,
            overlay,
            ..
        } => {
            let compiled = PredicateSet::compile(predicates, env);
            match table.index_scan(*col, lo.as_ref(), hi.as_ref()) {
                Some(cursor) => Box::new(IndexScanOp {
                    table: table.clone(),
                    cursor,
                    predicates: compiled,
                    overlay: overlay.clone(),
                }),
                // Index dropped between planning and execution: the
                // sequential sweep with the same residual predicates is
                // exactly equivalent.
                None => Box::new(SeqScanOp {
                    cursor: table.scan_batches(BATCH_ROWS),
                    predicates: compiled,
                    overlay: overlay.clone(),
                }),
            }
        }
        PhysicalPlan::Exchange { input, dop, .. } => {
            if in_worker {
                return Err(CoreError::Unsupported(
                    "nested Exchange inside a parallel fragment".to_string(),
                ));
            }
            let child_base = register_slots(input, sink);
            let child_len = plan_size(input);
            Box::new(ExchangeOp::spawn(
                input,
                *dop,
                id,
                (child_base, child_len),
                sink.clone(),
            )?)
        }
        PhysicalPlan::PartialHashAggregate {
            input,
            group_by,
            aggs,
            in_env,
        } => {
            // A partial aggregate directly above a parallel join is
            // pushed *into* the join workers: each worker folds its
            // joined stream locally and only encoded aggregate states
            // cross the exchange channel. This node's metric slot then
            // counts the state rows; the join's own slot is filled from
            // the worker reports at shutdown.
            let fused =
                !in_worker && matches!(input.as_ref(), PhysicalPlan::PartitionedHashJoin { .. });
            if fused {
                let agg = Arc::new(PushedAgg {
                    group_by: group_by.clone(),
                    aggs: aggs.clone(),
                    env: in_env.clone(),
                });
                let join_id = {
                    let mut s = sink.borrow_mut();
                    s.push(OpMetrics {
                        op: input.label(),
                        ..OpMetrics::default()
                    });
                    s.len() - 1
                };
                build_partitioned_join(input, join_id, sink, Some(agg), Some(id))?
            } else {
                Box::new(PartialHashAggregateOp {
                    input: build_operator(input, sink, partition, in_worker)?,
                    spec: AggSpec::new(group_by.clone(), aggs.clone(), in_env.clone()),
                    done: false,
                })
            }
        }
        PhysicalPlan::HashJoin {
            left,
            right,
            left_key,
            right_key,
            ..
        } => Box::new(HashJoinOp {
            left: build_operator(left, sink, partition, in_worker)?,
            right: Some(build_operator(right, sink, partition, in_worker)?),
            left_key: *left_key,
            right_key: *right_key,
            table: JoinTable::new(),
        }),
        PhysicalPlan::PartitionedHashJoin { .. } => {
            if in_worker {
                return Err(CoreError::Unsupported(
                    "nested parallel join inside a parallel fragment".to_string(),
                ));
            }
            build_partitioned_join(plan, id, sink, None, None)?
        }
        PhysicalPlan::NestedLoopJoin { left, right, .. } => Box::new(NestedLoopJoinOp {
            left: build_operator(left, sink, partition, in_worker)?,
            right: Some(build_operator(right, sink, partition, in_worker)?),
            right_rows: Vec::new(),
        }),
        PhysicalPlan::Filter {
            input,
            predicates,
            env,
        } => Box::new(FilterOp {
            input: build_operator(input, sink, partition, in_worker)?,
            predicates: PredicateSet::compile(predicates, env),
        }),
        PhysicalPlan::Reorder { input, perm, .. } => Box::new(ReorderOp {
            input: build_operator(input, sink, partition, in_worker)?,
            perm: perm.clone(),
        }),
        PhysicalPlan::HashAggregate {
            input,
            group_by,
            items,
            in_env,
            from_partials,
            ..
        } => {
            let mut aggs = Vec::new();
            for item in items {
                if let SelectItem::Expr { expr, .. } = item {
                    collect_aggs(expr, &mut aggs);
                }
            }
            Box::new(HashAggregateOp {
                input: build_operator(input, sink, partition, in_worker)?,
                spec: AggSpec::new(group_by.clone(), aggs, in_env.clone()),
                items: items.clone(),
                from_partials: *from_partials,
                done: false,
            })
        }
        PhysicalPlan::Project {
            input,
            items,
            in_env,
            ..
        } => Box::new(ProjectOp {
            input: build_operator(input, sink, partition, in_worker)?,
            proj: ProjectionSet::compile(items, in_env),
        }),
        PhysicalPlan::Sort {
            input,
            keys,
            visible,
            ..
        } => Box::new(SortOp {
            input: build_operator(input, sink, partition, in_worker)?,
            keys: keys.clone(),
            visible: *visible,
            done: false,
        }),
        PhysicalPlan::Limit { input, n } => Box::new(LimitOp {
            input: build_operator(input, sink, partition, in_worker)?,
            remaining: *n as usize,
        }),
    };
    Ok(Box::new(Metered {
        inner,
        id,
        sink: sink.clone(),
    }))
}

/// Construct the operator for a [`PhysicalPlan::PartitionedHashJoin`]
/// with metric slot `join_id` (already registered by the caller). Slot
/// registration stays pre-order (probe subtree, then build subtree) to
/// match [`PhysicalPlan::render`]. `agg`/`partial_slot` carry a fused
/// partial aggregate pushed down from the node above.
fn build_partitioned_join(
    plan: &PhysicalPlan,
    join_id: usize,
    sink: &MetricsSink,
    agg: Option<Arc<PushedAgg>>,
    partial_slot: Option<usize>,
) -> Result<Box<dyn Operator>, CoreError> {
    let PhysicalPlan::PartitionedHashJoin {
        probe,
        build,
        left_key,
        right_key,
        probe_dop,
        ..
    } = plan
    else {
        unreachable!("build_partitioned_join on a non-join plan");
    };
    let probe_slots = (register_slots(probe, sink), plan_size(probe));
    Ok(Box::new(PartitionedHashJoinOp {
        build: Some(build_operator(build, sink, &mut None, false)?),
        probe: probe.as_ref().clone(),
        dop: *probe_dop,
        probe_slots,
        left_key: *left_key,
        right_key: *right_key,
        agg,
        pool: None,
        id: join_id,
        partial_slot,
        sink: sink.clone(),
        build_rows: 0,
        build_busy_ns: 0,
        finished: false,
    }))
}

// ------------------------------- scans -------------------------------

/// The tuples of one heap or index batch a scan may emit: all of them,
/// or — under a transaction overlay — those whose record id the overlay
/// does not hide. The overlay check is per batch, not per row, when
/// there is none.
fn visible_rows(raw: Vec<(RecordId, Tuple)>, overlay: Option<&ScanOverlay>) -> Vec<Tuple> {
    match overlay {
        None => raw.into_iter().map(|(_, t)| t).collect(),
        Some(ov) => raw
            .into_iter()
            .filter(|(rid, _)| !ov.hidden.contains(rid))
            .map(|(_, t)| t)
            .collect(),
    }
}

/// A scan's last batch once its cursor is exhausted: the overlay's rows
/// that pass the scan's predicates. Taking the overlay makes it emit
/// exactly once.
fn overlay_tail(
    overlay: &mut Option<Arc<ScanOverlay>>,
    predicates: &PredicateSet,
) -> Result<Option<Batch>, CoreError> {
    let Some(ov) = overlay.take() else {
        return Ok(None);
    };
    let out = predicates.filter_rows(ov.rows.clone())?;
    Ok((!out.is_empty()).then_some(out))
}

struct SeqScanOp {
    cursor: HeapBatchScan,
    predicates: PredicateSet,
    overlay: Option<Arc<ScanOverlay>>,
}

impl Operator for SeqScanOp {
    fn next_batch(&mut self) -> Result<Option<Batch>, CoreError> {
        loop {
            let Some(raw) = self.cursor.next_batch()? else {
                return overlay_tail(&mut self.overlay, &self.predicates);
            };
            let rows = visible_rows(raw, self.overlay.as_deref());
            let out = self.predicates.filter_rows(rows)?;
            if !out.is_empty() {
                return Ok(Some(out));
            }
        }
    }
}

struct IndexScanOp {
    table: Arc<Table>,
    cursor: neurdb_storage::TableIndexScan,
    predicates: PredicateSet,
    overlay: Option<Arc<ScanOverlay>>,
}

impl Operator for IndexScanOp {
    fn next_batch(&mut self) -> Result<Option<Batch>, CoreError> {
        loop {
            let Some(raw) = self.table.index_scan_next(&mut self.cursor, BATCH_ROWS)? else {
                return overlay_tail(&mut self.overlay, &self.predicates);
            };
            let rows = visible_rows(raw, self.overlay.as_deref());
            let out = self.predicates.filter_rows(rows)?;
            if !out.is_empty() {
                return Ok(Some(out));
            }
        }
    }
}

// ------------------------------ exchange ------------------------------

/// What a finished parallel worker reports back.
struct WorkerReport {
    worker: usize,
    /// Metrics of the worker's private fragment (pre-order, aligned with
    /// the fragment plan).
    metrics: Vec<OpMetrics>,
    /// The error that stopped the worker, if any.
    err: Option<CoreError>,
    /// Nanoseconds spent computing fragment batches and applying the
    /// worker task (join probe).
    busy_ns: u128,
    /// Nanoseconds blocked sending through bounded channels
    /// (back-pressure from the consumer side).
    wait_ns: u128,
    /// Rows the worker's task produced: forwarded rows (Gather) or
    /// joined rows (probe). Reported even when a pushed aggregate
    /// swallows the rows, so skew stays visible.
    task_rows: u64,
}

/// A partial aggregation pushed into parallel join workers: each worker
/// folds its joined stream into an [`AggTable`] and emits one batch of
/// encoded state rows, which the final `HashAggregate(from_partials)`
/// merges. Only tiny per-group states cross the exchange channel instead
/// of every joined row.
struct PushedAgg {
    group_by: Vec<Expr>,
    aggs: Vec<(AggFunc, Option<Expr>)>,
    env: Bindings,
}

impl PushedAgg {
    fn spec(&self) -> AggSpec {
        AggSpec::new(self.group_by.clone(), self.aggs.clone(), self.env.clone())
    }
}

/// What each parallel worker does with the batches its private fragment
/// produces before sending them downstream.
#[derive(Clone)]
enum WorkerTask {
    /// Forward fragment batches as-is (a Gather).
    Forward,
    /// Probe a shared hash-join build table with every fragment row and
    /// forward the joined rows (or, with `agg`, fold them into a partial
    /// aggregate and emit the states at the end).
    Probe {
        table: Arc<JoinTable>,
        left_key: usize,
        agg: Option<Arc<PushedAgg>>,
    },
}

/// The shared threading core of every parallel operator (Gather,
/// partitioned hash join): `dop` worker threads each run a private copy
/// of a plan fragment over one page-range partition of the fragment's
/// scan table and stream batches into a bounded channel (back-pressure:
/// [`EXCHANGE_QUEUE_PER_WORKER`] batches of headroom per worker). At
/// shutdown the workers' fragment metrics fold into the main sink's
/// `child_slots` range and per-worker output rows are reported.
struct WorkerPool {
    rx: Option<channel::Receiver<(usize, Batch)>>,
    reports: channel::Receiver<WorkerReport>,
    handles: Vec<JoinHandle<()>>,
    /// Per-worker task-produced rows (forwarded/joined), filled
    /// from the end-of-run reports at shutdown.
    task_rows: Vec<u64>,
    /// Summed across workers after shutdown: time computing fragment
    /// batches vs. blocked on the exchange queue.
    busy_ns: u128,
    wait_ns: u128,
    /// `(base, len)` slot range of the worker fragment in the main sink.
    child_slots: (usize, usize),
    finished: bool,
}

impl WorkerPool {
    fn spawn(
        fragment: &PhysicalPlan,
        dop: usize,
        task: &WorkerTask,
        child_slots: (usize, usize),
    ) -> Result<WorkerPool, CoreError> {
        let dop = dop.max(1);
        let table = fragment_scan_table(fragment).ok_or_else(|| {
            CoreError::Unsupported("parallel fragment without a scan leaf".to_string())
        })?;
        let partitions = table.scan_partitions(dop, BATCH_ROWS);
        let (tx, rx) = channel::bounded(dop * EXCHANGE_QUEUE_PER_WORKER);
        let (report_tx, reports) = channel::unbounded();
        let trace_handle = trace::current_handle();
        let task_kind = match task {
            WorkerTask::Forward => "forward",
            WorkerTask::Probe { .. } => "probe",
        };
        let mut handles = Vec::with_capacity(dop);
        for (w, cursor) in partitions.into_iter().enumerate() {
            let plan = fragment.clone();
            let tx = tx.clone();
            let report_tx = report_tx.clone();
            let task = task.clone();
            let trace_handle = trace_handle.clone();
            handles.push(std::thread::spawn(move || {
                let _trace_scope = trace_handle.enter();
                let mut worker_span = trace::span("worker");
                worker_span.attr("worker", w);
                worker_span.attr("task", task_kind);
                let local: MetricsSink = Rc::new(RefCell::new(Vec::new()));
                let mut busy_ns = 0u128;
                let mut wait_ns = 0u128;
                let mut task_rows = 0u64;
                let result = (|| {
                    let mut root = build_operator(&plan, &local, &mut Some(cursor), true)?;
                    // A pushed partial aggregate accumulates across the
                    // whole morsel stream; its states flush at the end.
                    let mut agg_state = match &task {
                        WorkerTask::Probe { agg: Some(a), .. } => {
                            Some((a.spec(), AggTable::default()))
                        }
                        _ => None,
                    };
                    loop {
                        let start = Instant::now();
                        let Some(batch) = root.next_batch()? else {
                            busy_ns += start.elapsed().as_nanos();
                            break;
                        };
                        match &task {
                            WorkerTask::Forward => {
                                task_rows += batch.len() as u64;
                                busy_ns += start.elapsed().as_nanos();
                                let send_start = Instant::now();
                                let sent = tx.send((w, batch));
                                wait_ns += send_start.elapsed().as_nanos();
                                if sent.is_err() {
                                    break; // consumer gone (e.g. LIMIT satisfied)
                                }
                            }
                            WorkerTask::Probe {
                                table: join_table,
                                left_key,
                                ..
                            } => {
                                let out = probe_join_table(&batch, join_table, *left_key);
                                task_rows += out.len() as u64;
                                if let Some((spec, table)) = &mut agg_state {
                                    table.update_batch(spec, &out)?;
                                    busy_ns += start.elapsed().as_nanos();
                                    continue;
                                }
                                busy_ns += start.elapsed().as_nanos();
                                if out.is_empty() {
                                    continue;
                                }
                                let send_start = Instant::now();
                                let sent = tx.send((w, out));
                                wait_ns += send_start.elapsed().as_nanos();
                                if sent.is_err() {
                                    break;
                                }
                            }
                        }
                    }
                    if let Some((spec, table)) = agg_state {
                        let rows = table.into_state_rows(&spec);
                        if !rows.is_empty() {
                            let send_start = Instant::now();
                            let _ = tx.send((w, rows));
                            wait_ns += send_start.elapsed().as_nanos();
                        }
                    }
                    Ok(())
                })();
                let metrics = Rc::try_unwrap(local)
                    .expect("fragment operators dropped")
                    .into_inner();
                let _ = report_tx.send(WorkerReport {
                    worker: w,
                    metrics,
                    err: result.err(),
                    busy_ns,
                    wait_ns,
                    task_rows,
                });
            }));
        }
        Ok(WorkerPool {
            rx: Some(rx),
            reports,
            handles,
            task_rows: vec![0; dop],
            busy_ns: 0,
            wait_ns: 0,
            child_slots,
            finished: false,
        })
    }

    /// The next merged batch, or `None` once every worker hung up (any
    /// worker error surfaces after the join in [`WorkerPool::shutdown`]).
    fn next(&mut self) -> Result<Option<(usize, Batch)>, CoreError> {
        if self.finished {
            return Ok(None);
        }
        let rx = self.rx.as_ref().expect("receiver alive until shutdown");
        match rx.recv() {
            Ok((w, batch)) => Ok(Some((w, batch))),
            Err(_) => Ok(None),
        }
    }

    /// Join the workers, fold their fragment metrics into `sink`, and
    /// surface the first worker error. Idempotent; also runs on early
    /// teardown (LIMIT, consumer error), where dropping the receiver
    /// unblocks any worker stuck on a full queue.
    fn shutdown(&mut self, sink: &MetricsSink) -> Option<CoreError> {
        if self.finished {
            return None;
        }
        self.finished = true;
        // Dropping the receiver unblocks any worker stuck on a full
        // queue: its send fails and it exits.
        self.rx = None;
        let mut first_err = None;
        for h in self.handles.drain(..) {
            if h.join().is_err() && first_err.is_none() {
                first_err = Some(CoreError::Unsupported(
                    "parallel worker panicked".to_string(),
                ));
            }
        }
        let (base, len) = self.child_slots;
        let mut sink = sink.borrow_mut();
        while let Ok(report) = self.reports.try_recv() {
            for (i, m) in report.metrics.into_iter().enumerate().take(len) {
                let slot = &mut sink[base + i];
                slot.rows_out += m.rows_out;
                slot.batches += m.batches;
                slot.nanos += m.nanos;
            }
            self.busy_ns += report.busy_ns;
            self.wait_ns += report.wait_ns;
            self.task_rows[report.worker] = report.task_rows;
            if first_err.is_none() {
                first_err = report.err;
            }
        }
        first_err
    }
}

/// Gather: merges the batch streams of `dop` fragment workers. See the
/// module docs for the threading model.
struct ExchangeOp {
    pool: WorkerPool,
    /// Own metric slot in the main sink.
    id: usize,
    sink: MetricsSink,
}

impl ExchangeOp {
    fn spawn(
        fragment: &PhysicalPlan,
        dop: usize,
        id: usize,
        child_slots: (usize, usize),
        sink: MetricsSink,
    ) -> Result<ExchangeOp, CoreError> {
        Ok(ExchangeOp {
            pool: WorkerPool::spawn(fragment, dop, &WorkerTask::Forward, child_slots)?,
            id,
            sink,
        })
    }

    fn shutdown(&mut self) -> Option<CoreError> {
        if self.pool.finished {
            return None;
        }
        let err = self.pool.shutdown(&self.sink);
        let mut sink = self.sink.borrow_mut();
        let slot = &mut sink[self.id];
        slot.note = format!("workers={:?}", self.pool.task_rows);
        slot.busy_ns += self.pool.busy_ns;
        slot.wait_ns += self.pool.wait_ns;
        err
    }
}

impl Operator for ExchangeOp {
    fn next_batch(&mut self) -> Result<Option<Batch>, CoreError> {
        match self.pool.next()? {
            Some((_, batch)) => Ok(Some(batch)),
            // All workers hung up: fold metrics, propagate any error.
            None => match self.shutdown() {
                Some(e) => Err(e),
                None => Ok(None),
            },
        }
    }
}

impl Drop for ExchangeOp {
    fn drop(&mut self) {
        // Early teardown (LIMIT, consumer error): still join the workers
        // and keep whatever metrics they managed to record.
        let _ = self.shutdown();
    }
}

// ----------------------------- hash joins -----------------------------

/// Drain a hash join's build input into one table keyed on column `key`
/// — the build half of every hash join, serial and parallel. NULL keys
/// never match, so they never enter the table. Returns the table and the
/// number of rows drained.
fn build_join_table(input: &mut dyn Operator, key: usize) -> Result<(JoinTable, u64), CoreError> {
    let mut span = trace::span("build");
    let mut table = JoinTable::new();
    let mut rows = 0u64;
    while let Some(batch) = input.next_batch()? {
        rows += batch.len() as u64;
        for row in batch {
            let k = row.get(key).clone();
            if !k.is_null() {
                table.entry(k).or_default().push(row);
            }
        }
    }
    span.attr("rows", rows);
    Ok((table, rows))
}

/// Probe a join table with one batch of probe-side rows — the probe half
/// of every hash join. Joined rows are `probe ++ build`; a NULL probe key
/// finds nothing because the build never inserts one.
fn probe_join_table(batch: &[Tuple], table: &JoinTable, key: usize) -> Batch {
    let mut out = Vec::new();
    for l in batch {
        if let Some(matches) = table.get(l.get(key)) {
            for r in matches {
                let mut vals = l.values.clone();
                vals.extend(r.values.iter().cloned());
                out.push(Tuple::new(vals));
            }
        }
    }
    out
}

/// Parallel hash join. The first pull drains the build side on the
/// calling thread into one shared read-only [`JoinTable`], then `dop`
/// morsel workers each probe it with their own page-range stream of the
/// probe fragment. An empty build side short-circuits: probe workers
/// never spawn and the probe scan never runs. With a pushed partial
/// aggregate, probe workers fold joined rows into per-worker aggregate
/// states and only the encoded states cross the channel.
struct PartitionedHashJoinOp {
    /// Drained (and dropped) on the first pull.
    build: Option<Box<dyn Operator>>,
    /// The fragment every probe worker runs over its scan partition.
    probe: PhysicalPlan,
    dop: usize,
    /// `(base, len)` slot range of the probe fragment in the main sink.
    probe_slots: (usize, usize),
    left_key: usize,
    right_key: usize,
    agg: Option<Arc<PushedAgg>>,
    pool: Option<WorkerPool>,
    /// Own metric slot; `partial_slot` is set when a pushed aggregate
    /// means the metering shell above counts state rows into the
    /// partial-aggregate node instead of joined rows into this one.
    id: usize,
    partial_slot: Option<usize>,
    sink: MetricsSink,
    /// Rows the build drained and the time it took, folded into the
    /// join slot at shutdown.
    build_rows: u64,
    build_busy_ns: u128,
    finished: bool,
}

impl PartitionedHashJoinOp {
    /// Drain the build side, then spawn the probe workers over its table
    /// (none when the table is empty).
    fn start(&mut self, mut build: Box<dyn Operator>) -> Result<(), CoreError> {
        let start = Instant::now();
        let (table, rows) = build_join_table(build.as_mut(), self.right_key)?;
        self.build_busy_ns = start.elapsed().as_nanos();
        self.build_rows = rows;
        if !table.is_empty() {
            let task = WorkerTask::Probe {
                table: Arc::new(table),
                left_key: self.left_key,
                agg: self.agg.clone(),
            };
            self.pool = Some(WorkerPool::spawn(
                &self.probe,
                self.dop,
                &task,
                self.probe_slots,
            )?);
        }
        Ok(())
    }

    fn shutdown(&mut self) -> Option<CoreError> {
        if self.finished {
            return None;
        }
        self.finished = true;
        let mut err = None;
        let mut note = String::new();
        let mut busy = self.build_busy_ns;
        let mut wait = 0u128;
        let mut joined_total = 0u64;
        if let Some(pool) = self.pool.as_mut() {
            err = pool.shutdown(&self.sink);
            note = format!("workers={:?} ", pool.task_rows);
            joined_total = pool.task_rows.iter().sum();
            busy += pool.busy_ns;
            wait += pool.wait_ns;
        }
        let mut sink = self.sink.borrow_mut();
        let slot = &mut sink[self.id];
        slot.note = format!("{note}build=[{}]", self.build_rows);
        slot.busy_ns += busy;
        slot.wait_ns += wait;
        if self.partial_slot.is_some() {
            // The metering shell wraps the fused partial-aggregate node,
            // so the join's own counters come from the worker reports.
            slot.rows_out += joined_total;
            slot.nanos += busy;
        }
        err
    }
}

impl Operator for PartitionedHashJoinOp {
    fn next_batch(&mut self) -> Result<Option<Batch>, CoreError> {
        if let Some(build) = self.build.take() {
            if let Err(e) = self.start(build) {
                self.shutdown();
                return Err(e);
            }
        }
        // No pool: the build side was empty, so nothing can match (a
        // pushed aggregate is still correct: the final HashAggregate
        // sees zero state rows).
        let next = match self.pool.as_mut() {
            Some(pool) => pool.next()?,
            None => None,
        };
        match next {
            Some((_, batch)) => Ok(Some(batch)),
            None => match self.shutdown() {
                Some(e) => Err(e),
                None => Ok(None),
            },
        }
    }
}

impl Drop for PartitionedHashJoinOp {
    fn drop(&mut self) {
        let _ = self.shutdown();
    }
}

// ---------------------------- filter / misc ---------------------------

struct FilterOp {
    input: Box<dyn Operator>,
    predicates: PredicateSet,
}

impl Operator for FilterOp {
    fn next_batch(&mut self) -> Result<Option<Batch>, CoreError> {
        loop {
            let Some(batch) = self.input.next_batch()? else {
                return Ok(None);
            };
            let out = self.predicates.filter_rows(batch)?;
            if !out.is_empty() {
                return Ok(Some(out));
            }
        }
    }
}

struct ReorderOp {
    input: Box<dyn Operator>,
    perm: Vec<usize>,
}

impl Operator for ReorderOp {
    fn next_batch(&mut self) -> Result<Option<Batch>, CoreError> {
        let Some(batch) = self.input.next_batch()? else {
            return Ok(None);
        };
        Ok(Some(
            batch
                .into_iter()
                .map(|t| Tuple::new(self.perm.iter().map(|&i| t.values[i].clone()).collect()))
                .collect(),
        ))
    }
}

struct HashJoinOp {
    left: Box<dyn Operator>,
    /// Consumed (drained into `table`) on the first pull.
    right: Option<Box<dyn Operator>>,
    left_key: usize,
    right_key: usize,
    table: JoinTable,
}

impl Operator for HashJoinOp {
    fn next_batch(&mut self) -> Result<Option<Batch>, CoreError> {
        if let Some(mut right) = self.right.take() {
            self.table = build_join_table(right.as_mut(), self.right_key)?.0;
        }
        if self.table.is_empty() {
            // Empty build side can never produce a match; skip the probe.
            return Ok(None);
        }
        loop {
            let Some(batch) = self.left.next_batch()? else {
                return Ok(None);
            };
            let out = probe_join_table(&batch, &self.table, self.left_key);
            if !out.is_empty() {
                return Ok(Some(out));
            }
        }
    }
}

struct NestedLoopJoinOp {
    left: Box<dyn Operator>,
    right: Option<Box<dyn Operator>>,
    right_rows: Vec<Tuple>,
}

impl Operator for NestedLoopJoinOp {
    fn next_batch(&mut self) -> Result<Option<Batch>, CoreError> {
        if let Some(mut right) = self.right.take() {
            while let Some(batch) = right.next_batch()? {
                self.right_rows.extend(batch);
            }
        }
        if self.right_rows.is_empty() {
            // Empty build side: the cross product is provably empty —
            // don't drain the left subtree for nothing.
            return Ok(None);
        }
        let Some(batch) = self.left.next_batch()? else {
            return Ok(None);
        };
        let mut out = Vec::with_capacity(batch.len() * self.right_rows.len());
        for l in &batch {
            for r in &self.right_rows {
                let mut vals = l.values.clone();
                vals.extend(r.values.iter().cloned());
                out.push(Tuple::new(vals));
            }
        }
        Ok(Some(out))
    }
}

/// Scalar projection through compiled column kernels
/// ([`crate::vector::ProjectionSet`]): column indexes resolve once at
/// build time, arithmetic/comparison items evaluate column-at-a-time,
/// and anything else falls back to row evaluation with identical
/// semantics.
struct ProjectOp {
    input: Box<dyn Operator>,
    proj: ProjectionSet,
}

impl Operator for ProjectOp {
    fn next_batch(&mut self) -> Result<Option<Batch>, CoreError> {
        let Some(batch) = self.input.next_batch()? else {
            return Ok(None);
        };
        Ok(Some(self.proj.project(batch)?))
    }
}

// ---------------------------- aggregation -----------------------------

/// How one aggregate call reads its argument per row.
#[derive(Debug, Clone)]
enum AggArg {
    /// `COUNT(*)`.
    Star,
    /// A plain column: resolved once, read by index in a column loop.
    Col(usize),
    /// A general expression: row-at-a-time evaluation.
    Expr(Expr),
}

/// The shared shape of an aggregation: group keys + aggregate calls,
/// with column-resolved fast paths precomputed.
struct AggSpec {
    group_by: Vec<Expr>,
    /// All group keys are plain columns: extract keys by index.
    group_cols: Option<Vec<usize>>,
    aggs: Vec<(AggFunc, AggArg)>,
    env: Bindings,
}

impl AggSpec {
    fn new(group_by: Vec<Expr>, aggs: Vec<(AggFunc, Option<Expr>)>, env: Bindings) -> AggSpec {
        let as_col = |e: &Expr| -> Option<usize> {
            match e {
                Expr::Column(c) => env.resolve(c).ok(),
                Expr::Qualified(q, c) => env.resolve_qualified(q, c).ok(),
                _ => None,
            }
        };
        let group_cols = group_by.iter().map(&as_col).collect::<Option<Vec<_>>>();
        let aggs = aggs
            .into_iter()
            .map(|(f, arg)| {
                let arg = match arg {
                    None => AggArg::Star,
                    Some(e) => match as_col(&e) {
                        Some(i) => AggArg::Col(i),
                        None => AggArg::Expr(e),
                    },
                };
                (f, arg)
            })
            .collect();
        AggSpec {
            group_by,
            group_cols,
            aggs,
            env,
        }
    }

    fn key(&self, row: &Tuple) -> Result<Vec<Value>, CoreError> {
        match &self.group_cols {
            Some(cols) => Ok(cols.iter().map(|&i| row.values[i].clone()).collect()),
            None => self
                .group_by
                .iter()
                .map(|e| eval(e, row, &self.env).map_err(CoreError::from))
                .collect(),
        }
    }

    /// Values per encoded partial-state row: the sample row, the group
    /// key, then four state fields per aggregate (see
    /// [`AggState::encode_into`]).
    fn state_row_arity(&self) -> usize {
        self.env.arity() + self.group_by.len() + 4 * self.aggs.len()
    }
}

/// Accumulated groups, in first-seen order.
#[derive(Default)]
struct AggTable {
    groups: HashMap<Vec<Value>, (Tuple, Vec<AggState>)>,
    order: Vec<Vec<Value>>,
}

impl AggTable {
    fn entry(&mut self, spec: &AggSpec, key: Vec<Value>, sample: &Tuple) -> &mut Vec<AggState> {
        let AggTable { groups, order } = self;
        let entry = groups.entry(key).or_insert_with_key(|k| {
            order.push(k.clone());
            (
                sample.clone(),
                spec.aggs.iter().map(|(f, _)| AggState::new(*f)).collect(),
            )
        });
        &mut entry.1
    }

    /// Accumulate a batch of raw rows. No GROUP BY runs the aggregate
    /// kernels as per-aggregate column loops over the whole batch;
    /// grouped input falls back to per-row accumulation after the
    /// (column-resolved) key extraction.
    fn update_batch(&mut self, spec: &AggSpec, batch: &[Tuple]) -> Result<(), CoreError> {
        if batch.is_empty() {
            return Ok(());
        }
        if spec.group_by.is_empty() {
            let states = self.entry(spec, Vec::new(), &batch[0]);
            // Split borrows: states is the only live borrow of self.
            for (i, (_, arg)) in spec.aggs.iter().enumerate() {
                match arg {
                    AggArg::Star => states[i].count += batch.len() as u64,
                    AggArg::Col(c) => {
                        for row in batch {
                            states[i].update_value(&row.values[*c]);
                        }
                    }
                    AggArg::Expr(e) => {
                        for row in batch {
                            let v = eval(e, row, &spec.env)?;
                            states[i].update_value(&v);
                        }
                    }
                }
            }
            return Ok(());
        }
        for row in batch {
            let key = spec.key(row)?;
            let states = self.entry(spec, key, row);
            for (i, (_, arg)) in spec.aggs.iter().enumerate() {
                match arg {
                    AggArg::Star => states[i].count += 1,
                    AggArg::Col(c) => states[i].update_value(&row.values[*c]),
                    AggArg::Expr(e) => {
                        let v = eval(e, row, &spec.env)?;
                        states[i].update_value(&v);
                    }
                }
            }
        }
        Ok(())
    }

    /// Merge a batch of encoded partial-state rows (from
    /// [`AggTable::into_state_rows`] on a worker).
    fn merge_state_rows(&mut self, spec: &AggSpec, batch: &[Tuple]) -> Result<(), CoreError> {
        let arity = spec.env.arity();
        let k = spec.group_by.len();
        for row in batch {
            if row.arity() != spec.state_row_arity() {
                return Err(CoreError::Unsupported(
                    "malformed partial aggregate state row".to_string(),
                ));
            }
            let sample = Tuple::new(row.values[..arity].to_vec());
            let key: Vec<Value> = row.values[arity..arity + k].to_vec();
            let states = self.entry(spec, key, &sample);
            for (i, state) in states.iter_mut().enumerate() {
                state.merge_encoded(&row.values[arity + k + 4 * i..arity + k + 4 * (i + 1)]);
            }
        }
        Ok(())
    }

    /// Encode every group as one state row: `sample ++ key ++ states`.
    fn into_state_rows(mut self, spec: &AggSpec) -> Vec<Tuple> {
        let mut out = Vec::with_capacity(self.order.len());
        for key in &self.order {
            let (sample, states) = self.groups.remove(key).expect("group in order");
            let mut vals = Vec::with_capacity(spec.state_row_arity());
            vals.extend(sample.values);
            vals.extend(key.iter().cloned());
            for s in &states {
                s.encode_into(&mut vals);
            }
            out.push(Tuple::new(vals));
        }
        out
    }

    /// Emit final rows: substitute aggregate results into the projection
    /// expressions. An empty input with no GROUP BY still yields one
    /// all-aggregate row.
    fn finish(mut self, spec: &AggSpec, items: &[SelectItem]) -> Result<Vec<Tuple>, CoreError> {
        if self.groups.is_empty() && spec.group_by.is_empty() {
            let key: Vec<Value> = vec![];
            self.order.push(key.clone());
            self.groups.insert(
                key,
                (
                    Tuple::new(vec![Value::Null; spec.env.arity()]),
                    spec.aggs.iter().map(|(f, _)| AggState::new(*f)).collect(),
                ),
            );
        }
        let mut rows = Vec::with_capacity(self.order.len());
        for key in &self.order {
            let (sample, states) = &self.groups[key];
            let mut agg_iter = states.iter();
            let mut vals = Vec::with_capacity(items.len());
            for item in items {
                let SelectItem::Expr { expr, .. } = item else {
                    return Err(CoreError::Unsupported(
                        "wildcard with aggregates".to_string(),
                    ));
                };
                vals.push(eval_with_aggs(expr, sample, &spec.env, &mut agg_iter)?);
            }
            rows.push(Tuple::new(vals));
        }
        Ok(rows)
    }
}

/// Final-phase aggregation: raw rows, or partial states under a Gather.
struct HashAggregateOp {
    input: Box<dyn Operator>,
    spec: AggSpec,
    items: Vec<SelectItem>,
    from_partials: bool,
    done: bool,
}

impl Operator for HashAggregateOp {
    fn next_batch(&mut self) -> Result<Option<Batch>, CoreError> {
        if self.done {
            return Ok(None);
        }
        self.done = true;
        let mut table = AggTable::default();
        while let Some(batch) = self.input.next_batch()? {
            if self.from_partials {
                table.merge_state_rows(&self.spec, &batch)?;
            } else {
                table.update_batch(&self.spec, &batch)?;
            }
        }
        let rows = table.finish(&self.spec, &self.items)?;
        if rows.is_empty() {
            Ok(None)
        } else {
            Ok(Some(rows))
        }
    }
}

/// Worker-side aggregation inside a Gather fragment: drains its morsel
/// stream into an [`AggTable`] and emits the encoded states as a single
/// batch (one row per group).
struct PartialHashAggregateOp {
    input: Box<dyn Operator>,
    spec: AggSpec,
    done: bool,
}

impl Operator for PartialHashAggregateOp {
    fn next_batch(&mut self) -> Result<Option<Batch>, CoreError> {
        if self.done {
            return Ok(None);
        }
        self.done = true;
        let mut table = AggTable::default();
        while let Some(batch) = self.input.next_batch()? {
            table.update_batch(&self.spec, &batch)?;
        }
        let rows = table.into_state_rows(&self.spec);
        if rows.is_empty() {
            Ok(None)
        } else {
            Ok(Some(rows))
        }
    }
}

// -------------------------------- sort --------------------------------

/// Sort by input column positions; hidden sort-key columns (appended by
/// the planner past `visible`) are stripped from every row afterwards.
struct SortOp {
    input: Box<dyn Operator>,
    keys: Vec<(usize, SortOrder)>,
    visible: usize,
    done: bool,
}

impl Operator for SortOp {
    fn next_batch(&mut self) -> Result<Option<Batch>, CoreError> {
        if self.done {
            return Ok(None);
        }
        self.done = true;
        let mut rows: Vec<Tuple> = Vec::new();
        while let Some(batch) = self.input.next_batch()? {
            rows.extend(batch);
        }
        if rows.is_empty() {
            return Ok(None);
        }
        rows.sort_by(|a, b| {
            for (pos, ord) in &self.keys {
                let c = a.values[*pos].total_cmp(&b.values[*pos]);
                let c = match ord {
                    SortOrder::Asc => c,
                    SortOrder::Desc => c.reverse(),
                };
                if !c.is_eq() {
                    return c;
                }
            }
            std::cmp::Ordering::Equal
        });
        if rows.first().is_some_and(|r| r.arity() > self.visible) {
            for r in &mut rows {
                r.values.truncate(self.visible);
            }
        }
        Ok(Some(rows))
    }
}

struct LimitOp {
    input: Box<dyn Operator>,
    remaining: usize,
}

impl Operator for LimitOp {
    fn next_batch(&mut self) -> Result<Option<Batch>, CoreError> {
        if self.remaining == 0 {
            return Ok(None);
        }
        let Some(mut batch) = self.input.next_batch()? else {
            return Ok(None);
        };
        if batch.len() > self.remaining {
            batch.truncate(self.remaining);
        }
        self.remaining -= batch.len();
        Ok(Some(batch))
    }
}

// ---------------------------- aggregates -----------------------------

/// Collect aggregate calls appearing in a projection expression, in
/// traversal order (shared with the planner's partial-aggregate
/// lowering).
pub(crate) fn collect_aggs(e: &Expr, out: &mut Vec<(AggFunc, Option<Expr>)>) {
    match e {
        Expr::Agg { func, arg } => out.push((*func, arg.as_deref().cloned())),
        Expr::Binary { left, right, .. } => {
            collect_aggs(left, out);
            collect_aggs(right, out);
        }
        Expr::Unary { expr, .. } => collect_aggs(expr, out),
        _ => {}
    }
}

/// Accumulator for one aggregate call. The four fields are the complete
/// state of every supported aggregate, which is what makes per-worker
/// partial aggregation mergeable: `count`/`sum` add, `min`/`max` fold.
#[derive(Debug, Clone)]
struct AggState {
    func: AggFunc,
    count: u64,
    sum: f64,
    min: Option<Value>,
    max: Option<Value>,
}

impl AggState {
    fn new(func: AggFunc) -> Self {
        AggState {
            func,
            count: 0,
            sum: 0.0,
            min: None,
            max: None,
        }
    }

    #[inline]
    fn update_value(&mut self, v: &Value) {
        if v.is_null() {
            return;
        }
        self.count += 1;
        if let Some(f) = v.as_f64() {
            self.sum += f;
        }
        if self.min.as_ref().is_none_or(|m| v < m) {
            self.min = Some(v.clone());
        }
        if self.max.as_ref().is_none_or(|m| v > m) {
            self.max = Some(v.clone());
        }
    }

    /// Append the encoded state: `[count, sum, min, max]` (absent
    /// min/max encode as NULL — aggregates ignore NULLs, so the encoding
    /// is unambiguous).
    fn encode_into(&self, out: &mut Vec<Value>) {
        out.push(Value::Int(self.count as i64));
        out.push(Value::Float(self.sum));
        out.push(self.min.clone().unwrap_or(Value::Null));
        out.push(self.max.clone().unwrap_or(Value::Null));
    }

    /// Merge an encoded `[count, sum, min, max]` slice into this state.
    fn merge_encoded(&mut self, enc: &[Value]) {
        self.count += enc[0].as_i64().unwrap_or(0) as u64;
        if let Some(s) = enc[1].as_f64() {
            self.sum += s;
        }
        if !enc[2].is_null() && self.min.as_ref().is_none_or(|m| &enc[2] < m) {
            self.min = Some(enc[2].clone());
        }
        if !enc[3].is_null() && self.max.as_ref().is_none_or(|m| &enc[3] > m) {
            self.max = Some(enc[3].clone());
        }
    }

    fn finish(&self) -> Value {
        match self.func {
            AggFunc::Count => Value::Int(self.count as i64),
            AggFunc::Sum => {
                if self.count == 0 {
                    Value::Null
                } else {
                    Value::Float(self.sum)
                }
            }
            AggFunc::Avg => {
                if self.count == 0 {
                    Value::Null
                } else {
                    Value::Float(self.sum / self.count as f64)
                }
            }
            AggFunc::Min => self.min.clone().unwrap_or(Value::Null),
            AggFunc::Max => self.max.clone().unwrap_or(Value::Null),
        }
    }
}

/// Evaluate an expression where each aggregate node consumes the next
/// pre-computed aggregate state (in-order traversal matches
/// [`collect_aggs`]).
fn eval_with_aggs<'a>(
    expr: &Expr,
    sample: &Tuple,
    env: &Bindings,
    aggs: &mut impl Iterator<Item = &'a AggState>,
) -> Result<Value, CoreError> {
    Ok(match expr {
        Expr::Agg { .. } => aggs.next().expect("aggregate state").finish(),
        Expr::Binary { op, left, right } => {
            let l = eval_with_aggs(left, sample, env, aggs)?;
            let r = eval_with_aggs(right, sample, env, aggs)?;
            // Reuse scalar machinery via a tiny synthetic expression.
            let le = Expr::Literal(value_to_literal(&l));
            let re = Expr::Literal(value_to_literal(&r));
            eval(
                &Expr::Binary {
                    op: *op,
                    left: Box::new(le),
                    right: Box::new(re),
                },
                sample,
                env,
            )?
        }
        Expr::Unary { op, expr: inner } => {
            let v = eval_with_aggs(inner, sample, env, aggs)?;
            let ve = Expr::Literal(value_to_literal(&v));
            eval(
                &Expr::Unary {
                    op: *op,
                    expr: Box::new(ve),
                },
                sample,
                env,
            )?
        }
        other => eval(other, sample, env)?,
    })
}

fn value_to_literal(v: &Value) -> neurdb_sql::Literal {
    use neurdb_sql::Literal;
    match v {
        Value::Null => Literal::Null,
        Value::Bool(b) => Literal::Bool(*b),
        Value::Int(i) => Literal::Int(*i),
        Value::Float(f) => Literal::Float(*f),
        Value::Text(s) => Literal::Str(s.clone()),
    }
}

/// Display name of a projected item (shared with the planner).
pub(crate) fn item_name(item: &SelectItem, idx: usize) -> String {
    match item {
        SelectItem::Wildcard => "*".to_string(),
        SelectItem::Expr { expr, alias } => alias.clone().unwrap_or_else(|| match expr {
            Expr::Column(c) => c.clone(),
            Expr::Qualified(q, c) => format!("{q}.{c}"),
            Expr::Agg { func, .. } => format!("{func:?}").to_lowercase(),
            _ => format!("col{idx}"),
        }),
    }
}
