//! The NeurDB-RS database facade: SQL sessions over the storage substrate,
//! with the in-database AI ecosystem wired into the executor so `PREDICT`
//! statements run as first-class queries (paper Section 3's running
//! example: parse → plan → scan → AI operator → AI engine → result).
//!
//! Two construction modes:
//!
//! * [`Database::new`] — volatile (the seed's behavior): simulated disk,
//!   no log, state dies with the process.
//! * [`Database::open`] — durable: a directory-backed [`DurableStore`]
//!   journals every statement through the WAL, model-manager events are
//!   logged so trained models and their version chains survive crashes,
//!   and reopening the directory runs redo recovery.

use crate::analytics::{
    encode_inference, extract_examples, make_batches, value_to_field, Standardizer,
};
use crate::durability::{
    decode_app_snapshot, encode_app_snapshot, model_event_record, replay_model_record, BindingMeta,
    SnapshotBinding,
};
use crate::error::{CoreError, CoreResult};
use crate::exec::{execute_plan_batches, OpMetrics, QueryResult, BATCH_ROWS};
use crate::expr::{literal_value, Bindings};
use crate::planner::{
    choose_index, conjuncts, plan_select_overlaid, resolvable, PhysicalPlan, PlannedSelect,
    PlannerConfig,
};
use crate::session::SessionContext;
use crate::transactions::{CcState, SessionTxn};
use neurdb_cc::PolicyMode;
use neurdb_engine::{AiEngine, Mid, TrainOutcome};
use neurdb_nn::{armnet_spec, ArmNetConfig, LossKind};
use neurdb_obs::trace::{self, FinishedTrace, Tracer};
use neurdb_obs::MetricsRegistry;
use neurdb_qo::SystemConditions;
use neurdb_sql::{
    parse, parse_script, ColumnSpec, Expr, PredictStmt, PredictTask, SelectItem, SelectStmt,
    Statement, TableRef, TrainOn, TypeName,
};
use neurdb_storage::{ColumnDef, DataType, RecordId, Schema, Table, Tuple, Value};
use neurdb_wal::{DurableStore, DurableStoreOptions, Lsn, WalRecord, SYSTEM_TXN};
use parking_lot::Mutex;
use std::collections::{HashMap, VecDeque};
use std::path::Path;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Whether a LIMIT in `plan` can stop pulling its subtree mid-stream,
/// leaving truncated operator counters below it. A full pipeline breaker
/// under the Limit — Sort or a (final) aggregation, possibly behind
/// streaming pass-throughs — drains its input completely before the
/// first row comes out, so counters below it are exact despite the
/// Limit.
fn limit_truncates(plan: &PhysicalPlan) -> bool {
    fn breaks_pipeline(plan: &PhysicalPlan) -> bool {
        match plan {
            PhysicalPlan::Sort { .. } | PhysicalPlan::HashAggregate { .. } => true,
            PhysicalPlan::Project { input, .. }
            | PhysicalPlan::Filter { input, .. }
            | PhysicalPlan::Reorder { input, .. }
            | PhysicalPlan::Limit { input, .. } => breaks_pipeline(input),
            _ => false,
        }
    }
    match plan {
        PhysicalPlan::Limit { input, .. } => !breaks_pipeline(input),
        other => other.children().into_iter().any(limit_truncates),
    }
}

/// `SHOW METRICS LIKE` matching: a pattern with `%`/`*` (any run) or
/// `_` (any one char) wildcards matches the whole name, SQL-LIKE style;
/// a pattern without wildcards matches as a case-insensitive substring.
fn like_match(pattern: &str, name: &str) -> bool {
    let pat: Vec<char> = pattern.to_ascii_lowercase().chars().collect();
    let name_lc = name.to_ascii_lowercase();
    if !pat.iter().any(|&c| c == '%' || c == '*' || c == '_') {
        return name_lc.contains(&pattern.to_ascii_lowercase());
    }
    let text: Vec<char> = name_lc.chars().collect();
    // Iterative glob with single-wildcard backtracking (no nested-star
    // blowup: on mismatch, retry from one past the last star anchor).
    let (mut p, mut t) = (0usize, 0usize);
    let (mut star, mut anchor) = (None::<usize>, 0usize);
    while t < text.len() {
        if p < pat.len() && (pat[p] == '%' || pat[p] == '*') {
            star = Some(p);
            p += 1;
            anchor = t;
        } else if p < pat.len() && (pat[p] == '_' || pat[p] == text[t]) {
            p += 1;
            t += 1;
        } else if let Some(s) = star {
            p = s + 1;
            anchor += 1;
            t = anchor;
        } else {
            return false;
        }
    }
    while p < pat.len() && (pat[p] == '%' || pat[p] == '*') {
        p += 1;
    }
    p == pat.len()
}

/// Result of executing one statement.
#[derive(Debug)]
pub enum Output {
    /// SELECT results.
    Rows(QueryResult),
    /// Rows affected by DML / DDL acknowledgements.
    Affected(usize),
    /// PREDICT results.
    Prediction(PredictionReport),
}

impl Output {
    pub fn rows(&self) -> Option<&QueryResult> {
        match self {
            Output::Rows(r) => Some(r),
            Output::Prediction(p) => Some(&p.result),
            _ => None,
        }
    }

    pub fn affected(&self) -> Option<usize> {
        match self {
            Output::Affected(n) => Some(*n),
            _ => None,
        }
    }
}

/// What a PREDICT statement produced.
#[derive(Debug)]
pub struct PredictionReport {
    pub result: QueryResult,
    /// Model id serving the prediction.
    pub mid: Mid,
    /// Set when this statement trained a fresh model (first use).
    pub train_outcome: Option<TrainOutcome>,
}

/// The rows a DML statement's predicate can match, collected in full
/// before any row changes, so an update that moves rows within the
/// scanned range never revisits them (the Halloween problem). The
/// access path is the one a SELECT with the same predicate would take
/// ([`choose_index`] over the predicate's conjuncts): an index range
/// when one applies, the whole heap otherwise. Candidates are a
/// superset of the matches; callers re-apply the full predicate. A
/// predicate naming an unknown column takes the heap, so it fails on
/// the first row as it always has.
pub(crate) fn dml_candidates(
    t: &Table,
    env: &Bindings,
    predicate: Option<&Expr>,
) -> CoreResult<Vec<(RecordId, Tuple)>> {
    let conj = predicate.map(conjuncts).unwrap_or_default();
    let choice = match conj.iter().all(|c| resolvable(c, env)) {
        true => choose_index(t, env, &conj, &mut t.cached_stats()),
        false => None,
    };
    let cursor = choice.and_then(|ic| t.index_scan(ic.col, ic.lo.as_ref(), ic.hi.as_ref()));
    let Some(mut cursor) = cursor else {
        return Ok(t.scan()?);
    };
    let mut rows = Vec::new();
    while let Some(batch) = t.index_scan_next(&mut cursor, BATCH_ROWS)? {
        rows.extend(batch);
    }
    Ok(rows)
}

/// `SELECT * FROM table [WHERE predicate]`: the query every row read
/// of PREDICT and of a fine-tune plans.
fn select_star(table: &str, predicate: Option<&Expr>) -> SelectStmt {
    SelectStmt {
        items: vec![SelectItem::Wildcard],
        from: vec![TableRef {
            name: table.to_string(),
            alias: None,
        }],
        predicate: predicate.cloned(),
        group_by: Vec::new(),
        order_by: Vec::new(),
        limit: None,
    }
}

/// Entries the slow-query log retains before evicting the oldest.
const SLOW_LOG_CAP: usize = 128;

/// One structured slow-query log entry: a statement whose wall time met
/// its session's `SET slow_query_ms` threshold. SELECTs carry plan
/// provenance (which optimizer chose the join order) and the rendered
/// plan annotated with the same per-operator rows/batches/time slots
/// `EXPLAIN ANALYZE` prints; other statements log text and timing only.
#[derive(Debug, Clone)]
pub struct SlowQueryEntry {
    /// `<session id>-<statement seq>`, minted when the statement started.
    pub trace_id: String,
    pub session_id: u64,
    /// The statement text as submitted (for scripts, the whole script).
    pub sql: String,
    pub elapsed: Duration,
    /// Join-order provenance for SELECTs (e.g. which optimizer planned
    /// it), when the planner recorded one.
    pub join_order: Option<String>,
    /// Rendered plan with per-operator timings; empty for non-SELECTs.
    pub plan: Vec<String>,
    /// The statement's error, when it failed (failed statements are
    /// often the most interesting slow ones; the error text renders in
    /// place of the plan).
    pub error: Option<String>,
    /// The statement's span tree, when tracing was armed for it. Held
    /// by `Arc` so ring eviction in the [`Tracer`] never loses a trace
    /// the slow-query log still references.
    pub trace: Option<Arc<FinishedTrace>>,
}

/// Cached per-(table, target) model state.
struct CachedModel {
    mid: Mid,
    cfg: ArmNetConfig,
    loss: LossKind,
    std: Standardizer,
    features: Vec<usize>,
}

/// The database.
pub struct Database {
    pub(crate) store: Arc<DurableStore>,
    /// Concurrency-control state for multi-statement transactions: the
    /// shared CC engine, the live (switchable, learned-by-default)
    /// policy, the commit lock, and the adaptation cadence.
    pub(crate) cc: CcState,
    /// The in-database AI engine (model manager and runtime).
    pub ai: AiEngine,
    /// Learned join-order optimizer for the SELECT planner. `None` (the
    /// default) routes multi-join queries through `neurdb-qo`'s
    /// cost-based DP; install a pre-trained model (e.g.
    /// [`neurdb_qo::NeurQo`]) via [`Database::set_join_optimizer`].
    join_optimizer: Mutex<Option<Box<dyn neurdb_qo::Optimizer + Send>>>,
    /// The default session backing the embedded convenience API
    /// ([`Database::execute`]). Server front ends create one
    /// [`SessionContext`] per connection and use
    /// [`Database::execute_in_session`] instead, so their `SET`
    /// statements never touch (or observe) this shared instance.
    default_session: Mutex<SessionContext>,
    /// Structured slow-query log, newest last, capped at
    /// [`SLOW_LOG_CAP`] entries (oldest evicted). Fed by every session
    /// whose `SET slow_query_ms` threshold a statement meets; read via
    /// [`Database::slow_queries`] or `SHOW slow_queries`.
    slow_log: Mutex<VecDeque<SlowQueryEntry>>,
    /// Per-statement span-tree tracer: sampling decision (`SET
    /// trace_sample`), per-session force (`SET trace = on`), and the
    /// bounded ring behind `SHOW TRACES` / `SHOW TRACE <id>`.
    tracer: Tracer,
    models: Arc<Mutex<HashMap<(String, String), CachedModel>>>,
    /// Learning rate for in-database training.
    pub learning_rate: f32,
    /// Minimum total samples a training task should consume; small tables
    /// are cycled for multiple epochs until this budget is met.
    pub train_sample_budget: usize,
}

impl Default for Database {
    fn default() -> Self {
        Self::new()
    }
}

impl Database {
    /// Rows per training and fine-tuning batch (the paper's batch size).
    pub const TRAIN_BATCH_ROWS: usize = 4096;

    /// The ArmNet a training PREDICT builds over `nfields` feature
    /// columns.
    pub fn predict_model_config(nfields: usize) -> ArmNetConfig {
        ArmNetConfig {
            nfields,
            vocab: 2048,
            embed_dim: 8,
            hidden: 64,
            outputs: 1,
        }
    }

    /// Epochs a training PREDICT runs over `rows` examples: small tables
    /// cycle until [`Database::train_sample_budget`] samples are met (a
    /// single pass over a few hundred rows cannot converge), at most 100.
    pub fn train_epochs(&self, rows: usize) -> usize {
        (self.train_sample_budget / rows.max(1)).clamp(1, 100)
    }

    /// A volatile in-memory database (no durability).
    pub fn new() -> Self {
        Self::with_buffer_capacity(4096)
    }

    pub fn with_buffer_capacity(frames: usize) -> Self {
        Self::from_store(DurableStore::volatile(frames))
    }

    /// Open (or create) a durable database in `dir` with default
    /// durability options, running crash recovery first: the latest
    /// checkpoint is restored, committed statements are redone into
    /// heaps/indexes/catalog, and model-manager events are replayed so
    /// trained models, their version chains, and their PREDICT bindings
    /// come back.
    pub fn open(dir: impl AsRef<Path>) -> CoreResult<Database> {
        Self::open_with(dir, DurableStoreOptions::default())
    }

    /// [`Database::open`] with explicit store/WAL options.
    pub fn open_with(dir: impl AsRef<Path>, opts: DurableStoreOptions) -> CoreResult<Database> {
        let (store, recovered) = DurableStore::open(dir.as_ref(), opts)?;
        let db = Self::from_store(store);

        // 1. Restore the model store + serving bindings from the
        //    checkpoint's app snapshot.
        if let Some(snapshot) = &recovered.snapshot {
            let (mm_bytes, bindings) = decode_app_snapshot(snapshot).ok_or_else(|| {
                CoreError::Storage(neurdb_storage::StorageError::Codec(
                    "corrupt app snapshot in checkpoint manifest".into(),
                ))
            })?;
            if !mm_bytes.is_empty() {
                db.ai.models.restore(&mm_bytes).ok_or_else(|| {
                    CoreError::Storage(neurdb_storage::StorageError::Codec(
                        "corrupt model-store snapshot".into(),
                    ))
                })?;
            }
            let mut cache = db.models.lock();
            for b in bindings {
                if let Some(cached) = Self::binding_to_cached(b.mid, &b.meta) {
                    cache.insert((b.table, b.target), cached);
                }
            }
        }

        // 2. Replay committed post-checkpoint model events and bindings,
        //    in log order.
        for rec in &recovered.records {
            match rec {
                WalRecord::ModelBind {
                    table,
                    target,
                    mid,
                    meta,
                    ..
                } => {
                    if let Some(cached) = Self::binding_to_cached(*mid, meta) {
                        db.models
                            .lock()
                            .insert((table.clone(), target.clone()), cached);
                    }
                }
                other => {
                    replay_model_record(&db.ai.models, other).ok_or_else(|| {
                        CoreError::Storage(neurdb_storage::StorageError::Codec(
                            "corrupt model event in log".into(),
                        ))
                    })?;
                }
            }
        }

        // 3. From here on, model-manager mutations flow into the WAL.
        db.install_model_sink();
        Ok(db)
    }

    fn from_store(store: DurableStore) -> Database {
        Database {
            cc: CcState::new(store.metrics()),
            store: Arc::new(store),
            ai: AiEngine::new(),
            join_optimizer: Mutex::new(None),
            default_session: Mutex::new(SessionContext::new()),
            slow_log: Mutex::new(VecDeque::new()),
            tracer: Tracer::new(64),
            models: Arc::new(Mutex::new(HashMap::new())),
            learning_rate: 5e-3,
            train_sample_budget: 30_000,
        }
    }

    fn binding_to_cached(mid: Mid, meta: &[u8]) -> Option<CachedModel> {
        let meta = BindingMeta::decode(meta)?;
        Some(CachedModel {
            mid,
            cfg: meta.cfg,
            loss: meta.loss,
            std: Standardizer {
                mean: meta.std_mean,
                std: meta.std_std,
            },
            features: meta.features,
        })
    }

    /// Wire the model manager's event sink to the WAL (durable mode).
    fn install_model_sink(&self) {
        if !self.store.is_durable() {
            return;
        }
        let store = self.store.clone();
        self.ai.models.set_event_sink(Box::new(move |event| {
            // Unlatched: the sink runs under the model store's write
            // lock, and the checkpoint holds the quiesce latch while
            // snapshotting that store — taking the latch here would
            // deadlock. Replay of model events is idempotent instead.
            store.append_record_unlatched(&model_event_record(event));
        }));
    }

    /// Whether this database journals to a WAL.
    pub fn is_durable(&self) -> bool {
        self.store.is_durable()
    }

    /// Write a checkpoint: flush dirty pages, snapshot the page file and
    /// the model store (+ PREDICT bindings), and truncate the log.
    /// Errors on volatile databases.
    pub fn checkpoint(&self) -> CoreResult<Lsn> {
        let lsn = self.store.checkpoint(|| {
            let cache = self.models.lock();
            let bindings: Vec<SnapshotBinding> = cache
                .iter()
                .map(|((table, target), m)| SnapshotBinding {
                    table: table.clone(),
                    target: target.clone(),
                    mid: m.mid,
                    meta: BindingMeta {
                        cfg: m.cfg,
                        loss: m.loss,
                        std_mean: m.std.mean,
                        std_std: m.std.std,
                        features: m.features.clone(),
                    }
                    .encode(),
                })
                .collect();
            encode_app_snapshot(&self.ai.models, &bindings)
        })?;
        Ok(lsn)
    }

    /// WAL statistics (`None` for volatile databases).
    pub fn wal_stats(&self) -> Option<neurdb_wal::WalStats> {
        self.store.wal_stats()
    }

    /// The underlying durable store (crash-test hooks live here).
    pub fn store(&self) -> &Arc<DurableStore> {
        &self.store
    }

    /// Buffer-pool statistics (part of the QO's system conditions).
    pub fn buffer_stats(&self) -> neurdb_storage::BufferStats {
        self.store.buffer_stats()
    }

    /// The metrics registry every layer of this database records into
    /// (WAL, buffer pool, executor, and any attached server front end).
    /// `SHOW METRICS` renders a snapshot of it.
    pub fn metrics(&self) -> &Arc<MetricsRegistry> {
        self.store.metrics()
    }

    /// Fresh system conditions from the buffer pool — the live signal
    /// stamped onto every SELECT's [`PlannerConfig`] (and thus its join
    /// graph) right before planning, so the learned optimizer is
    /// conditioned on the machine's current state.
    pub fn system_conditions(&self) -> SystemConditions {
        let b = self.buffer_stats();
        SystemConditions {
            buffer_hit_ratio: b.hit_ratio(),
            buffer_occupancy: b.occupancy(),
        }
    }

    /// The per-statement span-tree tracer: sampling knobs and the ring
    /// of recent finished traces (`SHOW TRACES` / `SHOW TRACE <id>`).
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// Snapshot of the slow-query log, oldest first.
    pub fn slow_queries(&self) -> Vec<SlowQueryEntry> {
        self.slow_log.lock().iter().cloned().collect()
    }

    fn push_slow(&self, entry: SlowQueryEntry) {
        let mut log = self.slow_log.lock();
        if log.len() == SLOW_LOG_CAP {
            log.pop_front();
        }
        log.push_back(entry);
    }

    /// Look up a table.
    pub fn table(&self, name: &str) -> CoreResult<Arc<Table>> {
        self.store
            .table(name)
            .ok_or_else(|| CoreError::UnknownTable(name.to_string()))
    }

    pub fn table_names(&self) -> Vec<String> {
        self.store.table_names()
    }

    /// Execute one SQL statement in the database's default session (the
    /// embedded convenience API — see [`Database::execute_in_session`]
    /// for the multi-client path).
    pub fn execute(&self, sql: &str) -> CoreResult<Output> {
        let stmt = parse(sql)?;
        self.execute_default(stmt, sql)
    }

    /// Execute one SQL statement in `session`. This is the primitive
    /// that server front ends build on: each connection owns a
    /// [`SessionContext`], so `SET parallelism` (and every future
    /// session setting) is scoped to that connection instead of being
    /// last-writer-wins across the whole process.
    pub fn execute_in_session(
        &self,
        session: &mut SessionContext,
        sql: &str,
    ) -> CoreResult<Output> {
        let stmt = parse(sql)?;
        self.execute_statement(session, stmt, sql)
    }

    /// Execute a `;`-separated script in the default session, returning
    /// the last statement's output.
    pub fn execute_script(&self, sql: &str) -> CoreResult<Output> {
        let stmts = parse_script(sql)?;
        let mut last = Output::Affected(0);
        for s in stmts {
            last = self.execute_default(s, sql)?;
        }
        Ok(last)
    }

    /// Execute a `;`-separated script in `session`, returning the last
    /// statement's output.
    pub fn execute_script_in_session(
        &self,
        session: &mut SessionContext,
        sql: &str,
    ) -> CoreResult<Output> {
        let stmts = parse_script(sql)?;
        let mut last = Output::Affected(0);
        for s in stmts {
            last = self.execute_statement(session, s, sql)?;
        }
        Ok(last)
    }

    /// Route a statement through the default session. `SET` and
    /// transaction control must mutate the shared instance under its
    /// lock — and once a transaction is open, *every* statement must,
    /// because the transaction lives in the session. Otherwise the
    /// statement runs on a snapshot so concurrent [`Database::execute`]
    /// callers never serialize on the session lock for the duration of
    /// a query (cloning a session never clones its transaction, which
    /// is why the `in_txn` check gates the snapshot path). The trace id
    /// is minted from the shared session either way, so statements run
    /// on snapshots never repeat one.
    fn execute_default(&self, stmt: Statement, sql: &str) -> CoreResult<Output> {
        let mut session = self.default_session.lock();
        let trace_id = session.next_trace_id();
        let must_share = session.in_txn()
            || matches!(
                stmt,
                Statement::Set { .. } | Statement::Begin | Statement::Commit | Statement::Rollback
            );
        if must_share {
            self.run_statement(&mut session, trace_id, stmt, sql)
        } else {
            let mut snapshot = session.clone();
            drop(session);
            self.run_statement(&mut snapshot, trace_id, stmt, sql)
        }
    }

    /// Mint the statement's trace id from `session` and run it.
    fn execute_statement(
        &self,
        session: &mut SessionContext,
        stmt: Statement,
        sql: &str,
    ) -> CoreResult<Output> {
        let trace_id = session.next_trace_id();
        self.run_statement(session, trace_id, stmt, sql)
    }

    /// The per-statement shell around [`Database::dispatch_statement`]:
    /// arms tracing (session force or 1-in-N sampling; the untraced path
    /// is one branch), times the statement end to end (executor teardown
    /// included), and files a slow-query entry — success *or* failure —
    /// under `trace_id` when the session's `SET slow_query_ms` threshold
    /// is met, capturing the span tree when one was recorded.
    fn run_statement(
        &self,
        session: &mut SessionContext,
        trace_id: String,
        stmt: Statement,
        sql: &str,
    ) -> CoreResult<Output> {
        let threshold = session.slow_query_ms();
        let armed = self.tracer.maybe_start(session.trace_force());
        let start = Instant::now();
        let mut provenance = None;
        let result = {
            let _scope = armed.as_ref().map(|t| t.enter());
            self.dispatch_statement(session, stmt, &mut provenance)
        };
        let elapsed = start.elapsed();
        let finished = armed.map(|t| self.tracer.finish(t, trace_id.clone(), sql.to_string()));
        if let Some(ms) = threshold {
            if elapsed.as_millis() as u64 >= ms {
                let (join_order, plan) = provenance.unwrap_or((None, Vec::new()));
                self.push_slow(SlowQueryEntry {
                    trace_id,
                    session_id: session.session_id(),
                    sql: sql.to_string(),
                    elapsed,
                    join_order,
                    plan,
                    error: result.as_ref().err().map(|e| e.to_string()),
                    trace: finished,
                });
            }
        }
        result
    }

    /// Route one parsed statement to its implementation. `provenance`
    /// receives a SELECT's plan provenance (join-order source + rendered
    /// plan with per-operator timings) for the slow-query log.
    ///
    /// Inside an open transaction a statement runs through
    /// [`Database::run_statement_body`] as well, and any error —
    /// evaluation, schema violation, unsupported statement, CC conflict
    /// — auto-aborts the transaction: its buffered effects are
    /// discarded, the session moves to the `aborted` state (statements
    /// error until `ROLLBACK`), and the client receives a structured
    /// [`CoreError::TxnAborted`] naming the transaction.
    fn dispatch_statement(
        &self,
        session: &mut SessionContext,
        stmt: Statement,
        provenance: &mut Option<(Option<String>, Vec<String>)>,
    ) -> CoreResult<Output> {
        // Transaction control first: it transitions the session's
        // transaction slot regardless of its current state.
        match stmt {
            Statement::Begin => return self.begin_txn(session),
            Statement::Commit => return self.commit_txn(session),
            Statement::Rollback => return self.rollback_txn(session),
            _ => {}
        }
        match &mut session.txn {
            None => self.run_statement_body(session, stmt, provenance),
            Some(SessionTxn::Failed { id }) => Err(CoreError::Unsupported(format!(
                "current transaction {id} is aborted; statements are ignored \
                 until ROLLBACK"
            ))),
            Some(SessionTxn::Active(at)) => {
                at.statements += 1;
                self.run_statement_body(session, stmt, provenance)
                    .map_err(|e| CoreError::TxnAborted {
                        txn: self.auto_abort_txn(session),
                        message: format!("{e}"),
                    })
            }
        }
    }

    /// Run one non-transaction-control statement, in autocommit or
    /// inside the session's open transaction. Only three things differ
    /// inside a transaction: DML stages into the transaction's overlay
    /// instead of applying at once ([`Database::execute_dml`]), a SELECT
    /// or PREDICT first registers its table reads with the CC engine,
    /// and DDL and a PREDICT that would train a model are refused.
    fn run_statement_body(
        &self,
        session: &mut SessionContext,
        stmt: Statement,
        provenance: &mut Option<(Option<String>, Vec<String>)>,
    ) -> CoreResult<Output> {
        let in_txn = session.in_txn();
        match stmt {
            Statement::Insert { .. } | Statement::Update { .. } | Statement::Delete { .. } => {
                self.execute_dml(session, &stmt).map(Output::Affected)
            }
            // DDL restructures shared catalog state the overlay cannot
            // buffer, so it is not transactional (nor is training; see
            // `Database::predict`).
            Statement::CreateTable { .. }
            | Statement::DropTable { .. }
            | Statement::CreateIndex { .. }
                if in_txn =>
            {
                Err(CoreError::Unsupported(
                    "DDL cannot run inside a transaction".into(),
                ))
            }
            // DDL runs as a statement-level store transaction under the
            // commit lock, like autocommit DML; the durability wait
            // happens after the lock is released (group commit batches
            // across sessions).
            Statement::CreateTable { .. }
            | Statement::DropTable { .. }
            | Statement::CreateIndex { .. } => {
                let (result, lsn) = {
                    let lock_span = trace::span("txn.commit_lock_wait");
                    let _commit = self.cc.commit_lock.lock();
                    drop(lock_span);
                    let txn = self.store.begin();
                    let result = self.apply_ddl(txn, stmt);
                    let lsn = self.store.commit_nowait(txn);
                    (result, lsn)
                };
                let durable = self.await_durable(lsn);
                let out = result?;
                durable?;
                Ok(out)
            }
            Statement::Select(s) => {
                let mut rows = Vec::new();
                let (planned, metrics) = self.run_select(session, &s, |batch| {
                    rows.extend(batch);
                    Ok(())
                })?;
                if session.slow_query_ms().is_some() {
                    *provenance = Some((
                        planned.join_order.clone(),
                        planned.plan.render(Some(&metrics)),
                    ));
                }
                let columns = planned.plan.output_columns();
                Ok(Output::Rows(QueryResult { columns, rows }))
            }
            Statement::Predict(p) => self.predict(session, &p).map(Output::Prediction),
            Statement::Explain { analyze, stmt } => {
                self.explain(session, *stmt, analyze).map(Output::Rows)
            }
            Statement::Set { name, value } => {
                self.set_session(session, &name, &value)?;
                Ok(Output::Affected(0))
            }
            Statement::Show { name, arg, format } => self
                .show(session, &name, arg.as_deref(), format.as_deref())
                .map(Output::Rows),
            Statement::Begin | Statement::Commit | Statement::Rollback => {
                unreachable!("transaction control handled by dispatch_statement")
            }
        }
    }

    /// Apply a `SET name = value` statement to `session` (or, for
    /// database-scoped knobs like `cc_policy`, to the shared engine).
    fn set_session(
        &self,
        session: &mut SessionContext,
        name: &str,
        value: &neurdb_sql::Literal,
    ) -> CoreResult<()> {
        match name.to_ascii_lowercase().as_str() {
            "parallelism" => {
                let n = match literal_value(value) {
                    Value::Int(i) if (1..=256).contains(&i) => i as usize,
                    other => {
                        return Err(CoreError::Unsupported(format!(
                            "SET parallelism expects an integer in 1..=256, got {other}"
                        )))
                    }
                };
                session.set_parallelism(n);
                Ok(())
            }
            "parallel_min_rows" => {
                // The planner's fan-out gate; 0 force-parallelizes every
                // scan (a testing knob, same contract as the
                // `PlannerConfig` field).
                let n = match literal_value(value) {
                    Value::Int(i) if i >= 0 => i as f64,
                    other => {
                        return Err(CoreError::Unsupported(format!(
                            "SET parallel_min_rows expects a non-negative integer, got {other}"
                        )))
                    }
                };
                session.planner_config_mut().parallel_min_rows = n;
                Ok(())
            }
            "slow_query_ms" => {
                let n = match literal_value(value) {
                    Value::Int(i) if i >= 0 => i as u64,
                    other => {
                        return Err(CoreError::Unsupported(format!(
                            "SET slow_query_ms expects a non-negative integer \
                             (0 logs every statement), got {other}"
                        )))
                    }
                };
                session.set_slow_query_ms(n);
                Ok(())
            }
            "trace" => {
                // Session-scoped: force-trace every statement this
                // session runs (`SET trace = on|off`, or 1/0).
                let on = match literal_value(value) {
                    Value::Text(s) if s.eq_ignore_ascii_case("on") => true,
                    Value::Text(s) if s.eq_ignore_ascii_case("off") => false,
                    Value::Bool(b) => b,
                    Value::Int(i) if i == 0 || i == 1 => i == 1,
                    other => {
                        return Err(CoreError::Unsupported(format!(
                            "SET trace expects on/off, got {other}"
                        )))
                    }
                };
                session.set_trace_force(on);
                Ok(())
            }
            "trace_sample" => {
                // Database-scoped (the tracer is shared): trace one
                // statement in N across all sessions; 0 disables
                // sampling. Setting it re-arms the deterministic
                // counter, so the next statement traces.
                let n = match literal_value(value) {
                    Value::Int(i) if i >= 0 => i as u64,
                    other => {
                        return Err(CoreError::Unsupported(format!(
                            "SET trace_sample expects a non-negative integer \
                             (0 disables sampling), got {other}"
                        )))
                    }
                };
                self.tracer.set_sample_every(n);
                Ok(())
            }
            "cc_policy" => {
                // Database-scoped (the CC engine is shared): switches
                // the live policy all transactions consult.
                let mode = match literal_value(value) {
                    Value::Text(s) => PolicyMode::parse(&s).ok_or_else(|| {
                        CoreError::Unsupported(format!(
                            "SET cc_policy expects 'learned', 'polyjuice', 'occ', \
                             or '2pl', got '{s}'"
                        ))
                    })?,
                    other => {
                        return Err(CoreError::Unsupported(format!(
                            "SET cc_policy expects a string \
                             ('learned', 'polyjuice', 'occ', or '2pl'), got {other}"
                        )))
                    }
                };
                self.cc.live.set_mode(mode);
                Ok(())
            }
            "cc_adapt_every" => {
                // Database-scoped: run the two-phase adaptation loop
                // every n completed transactions (0 disables it).
                let n = match literal_value(value) {
                    Value::Int(i) if i >= 0 => i as u64,
                    other => {
                        return Err(CoreError::Unsupported(format!(
                            "SET cc_adapt_every expects a non-negative integer \
                             (0 disables adaptation), got {other}"
                        )))
                    }
                };
                self.cc.adapt_every.store(n, Ordering::Relaxed);
                Ok(())
            }
            other => Err(CoreError::Unsupported(format!(
                "unknown session setting '{other}'"
            ))),
        }
    }

    /// Plan `s` as `session` sees it and run it through the executor's
    /// batch loop, handing each output batch to `visit`: the one read
    /// path of SELECT, PREDICT and fine-tunes. Inside a transaction the
    /// read first registers with the CC engine (per FROM table), and
    /// planning merges the transaction's overlay into the scans. The
    /// plan and execute steps are traced, and the operator counters
    /// fold into the metrics registry.
    fn run_select(
        &self,
        session: &mut SessionContext,
        s: &SelectStmt,
        mut visit: impl FnMut(Vec<Tuple>) -> CoreResult<()>,
    ) -> CoreResult<(PlannedSelect, Vec<OpMetrics>)> {
        if session.in_txn() {
            let tables: Vec<String> = s.from.iter().map(|t| t.name.clone()).collect();
            self.txn_note_table_reads(session, &tables)?;
        }
        let planned = {
            let mut sp = trace::span("plan");
            let planned = self.plan(session, s)?;
            if let Some(source) = &planned.join_order {
                sp.attr("join_order", source);
            }
            planned
        };
        let metrics = {
            let mut sp = trace::span("execute");
            let mut rows = 0;
            let metrics = execute_plan_batches(&planned.plan, |batch| {
                rows += batch.len();
                visit(batch)
            })?;
            sp.attr("rows", rows);
            metrics
        };
        self.note_operator_metrics(&metrics);
        Ok((planned, metrics))
    }

    /// Labeled examples of `features` -> `target` from `SELECT * FROM
    /// table [WHERE predicate]`. The read plans with the default, serial
    /// [`PlannerConfig`] and outside any transaction, whatever the
    /// calling session's settings, so the examples arrive in the order
    /// of the planner's access path (heap order, or key order when an
    /// index range serves the predicate) and trained bytes never depend
    /// on worker timing. Each batch goes straight to
    /// [`extract_examples`], so no copy of the table is made.
    fn labeled_examples(
        &self,
        table: &str,
        predicate: Option<&Expr>,
        features: &[usize],
        target: usize,
    ) -> CoreResult<(Vec<Vec<u64>>, Vec<f32>)> {
        let (mut xs, mut ys) = (Vec::new(), Vec::new());
        let read = select_star(table, predicate);
        self.run_select(&mut SessionContext::new(), &read, |batch| {
            let (bx, by) = extract_examples(&batch, features, target);
            xs.extend(bx);
            ys.extend(by);
            Ok(())
        })?;
        Ok((xs, ys))
    }

    /// Fold one instrumented execution's counters into the registry:
    /// rows and non-empty batches per operator class (`exec.rows.<op>`,
    /// `exec.batches.<op>`), plus the parallel workers' split of time
    /// spent computing vs. blocked on the exchange queue
    /// (`exec.worker.busy_ns` / `exec.worker.wait_ns`).
    fn note_operator_metrics(&self, metrics: &[OpMetrics]) {
        let reg = self.store.metrics();
        for m in metrics {
            let class =
                m.op.split(|c: char| c == '(' || c.is_whitespace())
                    .next()
                    .filter(|s| !s.is_empty())
                    .unwrap_or("op")
                    .to_ascii_lowercase();
            reg.counter(&format!("exec.rows.{class}")).add(m.rows_out);
            reg.counter(&format!("exec.batches.{class}")).add(m.batches);
            if m.busy_ns > 0 {
                reg.counter("exec.worker.busy_ns").add(m.busy_ns as u64);
            }
            if m.wait_ns > 0 {
                reg.counter("exec.worker.wait_ns").add(m.wait_ns as u64);
            }
        }
    }

    /// Answer a `SHOW name` statement: catalog items (`SHOW TABLES`),
    /// this session's settings, metrics (optionally filtered with
    /// `LIKE`), and traces (`SHOW TRACES`, `SHOW TRACE <id> [FORMAT
    /// json]`). `SHOW SESSIONS` is server-scoped — the `neurdb-server`
    /// front end intercepts it before the core facade; an embedded
    /// session has no server to enumerate.
    fn show(
        &self,
        session: &SessionContext,
        name: &str,
        arg: Option<&str>,
        format: Option<&str>,
    ) -> CoreResult<QueryResult> {
        let one_column = |name: &str, value: Value| QueryResult {
            columns: vec![name.to_string()],
            rows: vec![Tuple::new(vec![value])],
        };
        let lowered = name.to_ascii_lowercase();
        if arg.is_some() && !matches!(lowered.as_str(), "metrics" | "trace") {
            return Err(CoreError::Unsupported(format!(
                "SHOW {lowered} does not take an argument"
            )));
        }
        if let Some(fmt) = format {
            if lowered != "trace" {
                return Err(CoreError::Unsupported(format!(
                    "SHOW {lowered} does not take FORMAT"
                )));
            }
            if fmt != "json" {
                return Err(CoreError::Unsupported(format!(
                    "SHOW TRACE supports FORMAT json, got '{fmt}'"
                )));
            }
        }
        match lowered.as_str() {
            "tables" => {
                let mut names = self.table_names();
                names.sort();
                Ok(QueryResult {
                    columns: vec!["table".to_string()],
                    rows: names
                        .into_iter()
                        .map(|n| Tuple::new(vec![Value::Text(n)]))
                        .collect(),
                })
            }
            "parallelism" => Ok(one_column(
                "parallelism",
                Value::Int(session.parallelism() as i64),
            )),
            "parallel_min_rows" => Ok(one_column(
                "parallel_min_rows",
                Value::Int(session.planner_config().parallel_min_rows as i64),
            )),
            "slow_query_ms" => Ok(one_column(
                "slow_query_ms",
                session
                    .slow_query_ms()
                    .map_or(Value::Null, |ms| Value::Int(ms as i64)),
            )),
            "trace_sample" => Ok(one_column(
                "trace_sample",
                Value::Int(self.tracer.sample_every() as i64),
            )),
            // Buffer-pool state as `(property, value)` rows: geometry
            // (shards, capacity, resident), the aggregate and
            // point-lookup-class hit ratios, and per-shard hit ratios so
            // skew across the latch shards is visible.
            "buffer" => {
                let pool = self.store.pool();
                let stats = pool.stats();
                let mut rows: Vec<(String, Value)> = vec![
                    ("shards".into(), Value::Int(pool.shard_count() as i64)),
                    ("capacity".into(), Value::Int(stats.capacity as i64)),
                    ("resident".into(), Value::Int(stats.resident as i64)),
                    ("hits".into(), Value::Int(stats.hits as i64)),
                    ("misses".into(), Value::Int(stats.misses as i64)),
                    ("evictions".into(), Value::Int(stats.evictions as i64)),
                    ("hit_ratio".into(), Value::Float(stats.hit_ratio())),
                    (
                        "point_hit_ratio".into(),
                        Value::Float(stats.point_hit_ratio()),
                    ),
                ];
                for (i, s) in pool.shard_stats().iter().enumerate() {
                    rows.push((format!("shard{i}.hit_ratio"), Value::Float(s.hit_ratio())));
                }
                Ok(QueryResult {
                    columns: vec!["property".to_string(), "value".to_string()],
                    rows: rows
                        .into_iter()
                        .map(|(n, v)| Tuple::new(vec![Value::Text(n), v]))
                        .collect(),
                })
            }
            // The system-wide metrics snapshot: one `(metric, value)` row
            // per counter (INT) and gauge (FLOAT); histograms expand to
            // `.count`/`.p50`/`.p95`/`.p99` rows (INT nanoseconds for the
            // `_ns`-suffixed ones, NULL quantiles while empty). Gauges
            // mirroring buffer/WAL stats are refreshed first, so the
            // snapshot is current as of this statement.
            "metrics" => {
                self.store.refresh_metrics();
                let snap = self.store.metrics().snapshot();
                let mut rows: Vec<(String, Value)> = Vec::new();
                for (name, v) in &snap.counters {
                    rows.push((name.clone(), Value::Int(*v as i64)));
                }
                for (name, v) in &snap.gauges {
                    rows.push((name.clone(), Value::Float(*v)));
                }
                for (name, h) in &snap.histograms {
                    let q = |v: Option<u64>| v.map_or(Value::Null, |v| Value::Int(v as i64));
                    rows.push((format!("{name}.count"), Value::Int(h.count as i64)));
                    rows.push((format!("{name}.p50"), q(h.p50())));
                    rows.push((format!("{name}.p95"), q(h.p95())));
                    rows.push((format!("{name}.p99"), q(h.p99())));
                    rows.push((format!("{name}.max"), q((h.count > 0).then_some(h.max))));
                }
                // `SHOW METRICS LIKE '<pattern>'`: substring match, or a
                // glob when the pattern carries `%`/`*`/`_` wildcards.
                if let Some(pattern) = arg {
                    rows.retain(|(n, _)| like_match(pattern, n));
                }
                rows.sort_by(|a, b| a.0.cmp(&b.0));
                Ok(QueryResult {
                    columns: vec!["metric".to_string(), "value".to_string()],
                    rows: rows
                        .into_iter()
                        .map(|(n, v)| Tuple::new(vec![Value::Text(n), v]))
                        .collect(),
                })
            }
            // The trace ring, oldest first: one row per retained trace
            // with wall time and span count; `SHOW TRACE <id>` renders
            // one of them in full.
            "traces" => Ok(QueryResult {
                columns: vec![
                    "trace_id".to_string(),
                    "wall_ms".to_string(),
                    "spans".to_string(),
                    "sql".to_string(),
                ],
                rows: self
                    .tracer
                    .recent()
                    .into_iter()
                    .map(|t| {
                        Tuple::new(vec![
                            Value::Text(t.id.clone()),
                            Value::Float(t.wall_ns as f64 / 1e6),
                            Value::Int(t.span_count() as i64),
                            Value::Text(t.sql.clone()),
                        ])
                    })
                    .collect(),
            }),
            // One full trace: the indented span tree (total/self times
            // and attrs per span), or the Chrome trace-event JSON body
            // with FORMAT json (what `scripts/trace_to_perfetto.py`
            // consumes). Falls back to traces captured by slow-query
            // entries that the ring has already evicted.
            "trace" => {
                let id = arg.expect("parser guarantees SHOW TRACE carries an id");
                let found = self.tracer.get(id).or_else(|| {
                    self.slow_log
                        .lock()
                        .iter()
                        .rev()
                        .find(|e| e.trace_id == id)
                        .and_then(|e| e.trace.clone())
                });
                let Some(t) = found else {
                    return Err(CoreError::Unsupported(format!(
                        "no trace '{id}' (not sampled, or evicted from the ring; \
                         arm tracing with SET trace = on or SET trace_sample = N)"
                    )));
                };
                let lines = match format {
                    Some(_) => vec![t.to_chrome_json()],
                    None => t.render_tree(),
                };
                Ok(QueryResult {
                    columns: vec!["trace".to_string()],
                    rows: lines
                        .into_iter()
                        .map(|l| Tuple::new(vec![Value::Text(l)]))
                        .collect(),
                })
            }
            // The slow-query log, oldest first: trace id, owning
            // session, wall milliseconds, statement text, join-order
            // provenance, and the rendered plan with per-operator
            // timings (NULL for non-SELECTs).
            "slow_queries" => Ok(QueryResult {
                columns: vec![
                    "trace_id".to_string(),
                    "session_id".to_string(),
                    "elapsed_ms".to_string(),
                    "sql".to_string(),
                    "join_order".to_string(),
                    "plan".to_string(),
                ],
                rows: self
                    .slow_queries()
                    .into_iter()
                    .map(|e| {
                        Tuple::new(vec![
                            Value::Text(e.trace_id),
                            Value::Int(e.session_id as i64),
                            Value::Float(e.elapsed.as_secs_f64() * 1e3),
                            Value::Text(e.sql),
                            e.join_order.map_or(Value::Null, Value::Text),
                            // Failed statements log their error text in
                            // place of the plan.
                            if let Some(err) = e.error {
                                Value::Text(format!("error: {err}"))
                            } else if e.plan.is_empty() {
                                Value::Null
                            } else {
                                Value::Text(e.plan.join("\n"))
                            },
                        ])
                    })
                    .collect(),
            }),
            // Live concurrency-control state: active policy, decisions
            // consulted, adaptation rounds, and the engine's observed
            // commit/abort balance.
            "cc" => Ok(self.show_cc()),
            "sessions" => Err(CoreError::Unsupported(
                "SHOW SESSIONS is served by neurdb-server; this session is not \
                 attached to a server"
                    .into(),
            )),
            other => Err(CoreError::Unsupported(format!(
                "unknown SHOW item '{other}'"
            ))),
        }
    }

    /// The default session's maximum per-scan degree of parallelism.
    pub fn parallelism(&self) -> usize {
        self.default_session.lock().parallelism()
    }

    /// Set the default session's maximum per-scan degree of parallelism
    /// (equivalent to `SET parallelism = n` through
    /// [`Database::execute`]).
    pub fn set_parallelism(&self, n: usize) {
        self.default_session.lock().set_parallelism(n);
    }

    /// Plan a SELECT: resolve its tables *as the session sees them*
    /// (an open transaction's buffered changes ride along as scan
    /// overlays — read-your-own-writes), then lower it through the
    /// planner (join order via the installed learned optimizer, falling
    /// back to `neurdb-qo`'s cost-based DP).
    fn plan(
        &self,
        session: &SessionContext,
        s: &neurdb_sql::SelectStmt,
    ) -> CoreResult<PlannedSelect> {
        // Stamp fresh system conditions (buffer-pool state) onto the
        // session's planner config: the join graph carries them into
        // the learned optimizer's condition tokens.
        let config = &PlannerConfig {
            system: self.system_conditions(),
            ..session.planner_config().clone()
        };
        let mut resolved = Vec::with_capacity(s.from.len());
        let mut overlays = Vec::with_capacity(s.from.len());
        for tref in &s.from {
            let (table, overlay) = self.effective_table(session, &tref.name)?;
            resolved.push((tref.binding().to_string(), table));
            overlays.push(overlay);
        }
        // Only hold the optimizer lock when a learned model will actually
        // be consulted (it is stateful); planning with the DP baseline —
        // the common case — must not serialize concurrent sessions.
        if s.from.len() >= 3 && self.join_optimizer.lock().is_some() {
            // Warm the per-table statistics caches *outside* the lock so
            // a stats build (a full scan per table, on first use or past
            // the rebuild threshold) is not serialized; under the lock the
            // planner then gets cached `Arc`s and only the choose_plan call
            // itself is exclusive.
            for (_, t) in &resolved {
                let _ = t.stats();
            }
            let mut opt = self.join_optimizer.lock();
            if opt.is_some() {
                let learned = opt
                    .as_mut()
                    .map(|b| &mut **b as &mut dyn neurdb_qo::Optimizer);
                return plan_select_overlaid(s, &resolved, &overlays, learned, config);
            }
        }
        plan_select_overlaid(s, &resolved, &overlays, None, config)
    }

    /// `EXPLAIN [ANALYZE] SELECT ...`: render the physical plan (and,
    /// with ANALYZE, execute it and annotate every operator with observed
    /// rows, batches, and inclusive time). The result is one `plan` text
    /// column, one row per plan line.
    fn explain(
        &self,
        session: &SessionContext,
        stmt: Statement,
        analyze: bool,
    ) -> CoreResult<QueryResult> {
        let Statement::Select(s) = stmt else {
            return Err(CoreError::Unsupported(
                "EXPLAIN supports SELECT statements".into(),
            ));
        };
        let planned = self.plan(session, &s)?;
        let mut lines = Vec::new();
        if let Some(source) = &planned.join_order {
            lines.push(format!("join order: {source}"));
        }
        match analyze {
            true => {
                let metrics = execute_plan_batches(&planned.plan, |_| Ok(()))?;
                // Metered execution doubles as a training signal: feed
                // the observed cardinalities back to the learned
                // optimizer.
                self.record_plan_feedback(&planned, &metrics);
                lines.extend(planned.plan.render(Some(&metrics)));
            }
            false => lines.extend(planned.plan.render(None)),
        }
        Ok(QueryResult {
            columns: vec!["plan".to_string()],
            rows: lines
                .into_iter()
                .map(|l| Tuple::new(vec![Value::Text(l)]))
                .collect(),
        })
    }

    /// Feed a metered execution back to the learned join optimizer: the
    /// planner's join graph gets its `true_*` fields overwritten with the
    /// cardinalities the operators actually observed (post-predicate rows
    /// per scan, output rows per join), and the installed optimizer's
    /// [`neurdb_qo::Optimizer::observe`] trains on the corrected graph.
    /// Returns whether feedback was delivered (multi-table plan with an
    /// installed optimizer).
    ///
    /// Zero-observation guards: an operator that reported **zero** rows
    /// is indistinguishable from one that never executed (an empty build
    /// side short-circuits its probe subtree; `LIMIT` tears fragments
    /// down early), so zero-row scans keep their planning-time estimate
    /// instead of injecting a bogus `true_rows`, and a join updates its
    /// edge only when both inputs actually produced rows. Every rewritten
    /// field is clamped finite and positive before `observe` — the model
    /// must never train on zeros, NaNs, or infinities.
    pub fn record_plan_feedback(&self, planned: &PlannedSelect, metrics: &[OpMetrics]) -> bool {
        let Some(graph) = &planned.graph else {
            return false;
        };
        // A LIMIT that stops pulling mid-stream leaves every operator
        // below it with *truncated* counters — not ground truth at any
        // scale, so the whole execution is unusable as feedback. Only a
        // pipeline breaker (Sort, aggregation) between the Limit and the
        // joins guarantees the subtree was drained completely.
        if limit_truncates(&planned.plan) {
            return false;
        }
        let mut observed = graph.clone();
        let name_to_idx: HashMap<&str, usize> = observed
            .tables
            .iter()
            .enumerate()
            .map(|(i, t)| (t.name.as_str(), i))
            .collect();
        // Walk the plan in pre-order (aligned with `metrics`) collecting
        // observed output rows per scan binding and per join mask.
        // `(mask, observed output rows)` per subtree; joins also record
        // their two input sets and input cardinalities.
        fn walk(
            plan: &PhysicalPlan,
            next: &mut usize,
            metrics: &[OpMetrics],
            names: &HashMap<&str, usize>,
            scans: &mut Vec<(usize, u64)>,
            joins: &mut Vec<(u32, u32, f64, u64)>,
        ) -> (u32, u64) {
            let id = *next;
            *next += 1;
            let rows = metrics.get(id).map_or(0, |m| m.rows_out);
            match plan {
                PhysicalPlan::SeqScan { binding, .. } | PhysicalPlan::IndexScan { binding, .. } => {
                    match names.get(binding.as_str()) {
                        Some(&i) => {
                            scans.push((i, rows));
                            (1u32 << i, rows)
                        }
                        None => (0, rows),
                    }
                }
                PhysicalPlan::HashJoin { .. }
                | PhysicalPlan::PartitionedHashJoin { .. }
                | PhysicalPlan::NestedLoopJoin { .. } => {
                    let children = plan.children();
                    let (lmask, lrows) = walk(children[0], next, metrics, names, scans, joins);
                    let (rmask, rrows) = walk(children[1], next, metrics, names, scans, joins);
                    joins.push((lmask, rmask, lrows as f64 * rrows as f64, rows));
                    (lmask | rmask, rows)
                }
                other => {
                    let mut mask = 0;
                    let mut inner_rows = rows;
                    for child in other.children() {
                        let (m, r) = walk(child, next, metrics, names, scans, joins);
                        mask |= m;
                        // Pass-through nodes (Reorder, Gather over a
                        // scan) report the child cardinality when their
                        // own slot saw nothing (e.g. unexecuted).
                        if inner_rows == 0 {
                            inner_rows = r;
                        }
                    }
                    (mask, inner_rows)
                }
            }
        }
        let mut next = 0usize;
        let mut scans = Vec::new();
        let mut joins = Vec::new();
        walk(
            &planned.plan,
            &mut next,
            metrics,
            &name_to_idx,
            &mut scans,
            &mut joins,
        );
        // A scan's observed rows under a Gather or a partitioned join are
        // counted by the scan operator itself (worker metrics fold into
        // its slot), so one update per base table suffices. Zero rows are
        // skipped: a subtree short-circuited away (empty build side,
        // LIMIT teardown) reports zero without ever running, and a
        // genuinely empty scan carries no more signal than its estimate.
        for (i, rows) in scans {
            if rows > 0 {
                observed.tables[i].true_rows = (rows as f64).max(1.0);
            }
        }
        // Attribute each join's observed output to the single graph edge
        // crossing its two input sets, when unambiguous; the denominator
        // is the product of the *observed* input cardinalities. Joins
        // whose inputs produced nothing (never-executed subtrees) leave
        // the edge estimate untouched.
        for (lmask, rmask, in_cross, rows) in joins {
            if in_cross <= 0.0 {
                continue;
            }
            let crossing: Vec<usize> = observed
                .joins
                .iter()
                .enumerate()
                .filter(|(_, e)| {
                    let (ba, bb) = (1u32 << e.a, 1u32 << e.b);
                    (lmask & ba != 0 && rmask & bb != 0) || (lmask & bb != 0 && rmask & ba != 0)
                })
                .map(|(j, _)| j)
                .collect();
            if let [j] = crossing[..] {
                observed.joins[j].true_sel = (rows as f64 / in_cross).clamp(1e-9, 1.0);
            }
        }
        // Defense in depth: nothing non-finite or non-positive may reach
        // the learned model's training step.
        for t in &mut observed.tables {
            if !t.true_rows.is_finite() || t.true_rows < 1.0 {
                t.true_rows = 1.0;
            }
        }
        for e in &mut observed.joins {
            if !e.true_sel.is_finite() || e.true_sel <= 0.0 {
                e.true_sel = if e.est_sel.is_finite() && e.est_sel > 0.0 {
                    e.est_sel
                } else {
                    1e-9
                };
            }
        }
        let mut opt = self.join_optimizer.lock();
        match opt.as_mut() {
            Some(o) => {
                o.observe(&observed);
                true
            }
            None => false,
        }
    }

    /// Install a learned join-order optimizer (e.g. a pre-trained
    /// [`neurdb_qo::NeurQo`]); subsequent multi-join SELECTs route their
    /// join ordering through it instead of the DP baseline.
    ///
    /// (See [`Database::record_plan_feedback`] for how metered
    /// executions train it.)
    pub fn set_join_optimizer(&self, opt: Box<dyn neurdb_qo::Optimizer + Send>) {
        *self.join_optimizer.lock() = Some(opt);
    }

    /// Remove the learned optimizer, restoring the DP baseline.
    pub fn clear_join_optimizer(&self) {
        *self.join_optimizer.lock() = None;
    }

    /// Apply one DDL statement inside store transaction `txn`.
    fn apply_ddl(&self, txn: u64, stmt: Statement) -> CoreResult<Output> {
        match stmt {
            Statement::CreateTable { name, columns } => {
                self.create_table(txn, &name, &columns)?;
            }
            Statement::DropTable { name } => {
                // Resolve first so a missing table surfaces as
                // `UnknownTable` (not a generic catalog error).
                self.table(&name)?;
                self.store.drop_table(txn, &name)?;
            }
            Statement::CreateIndex { table, column } => {
                let t = self.table(&table)?;
                let idx = t
                    .schema
                    .column_index(&column)
                    .ok_or_else(|| CoreError::UnknownColumn(column.clone()))?;
                self.store.create_index(txn, &table, idx)?;
            }
            _ => unreachable!("apply_ddl receives only DDL statements"),
        }
        Ok(Output::Affected(0))
    }

    fn create_table(&self, txn: u64, name: &str, columns: &[ColumnSpec]) -> CoreResult<()> {
        if self.store.table(name).is_some() {
            return Err(CoreError::Unsupported(format!(
                "table '{name}' already exists"
            )));
        }
        let cols = columns
            .iter()
            .map(|c| {
                let ty = match c.ty {
                    TypeName::Int => DataType::Int,
                    TypeName::Float => DataType::Float,
                    TypeName::Text => DataType::Text,
                    TypeName::Bool => DataType::Bool,
                };
                let mut def = ColumnDef::new(c.name.clone(), ty);
                if c.not_null {
                    def = def.not_null();
                }
                if c.unique {
                    def = def.unique();
                }
                def
            })
            .collect();
        self.store.create_table(txn, name, Schema::new(cols))?;
        Ok(())
    }

    // ------------------------- PREDICT -----------------------------

    /// Resolve feature column indexes for a PREDICT statement. `TRAIN ON *`
    /// excludes unique-constrained columns and the target itself (paper
    /// Section 2.3).
    fn resolve_features(
        &self,
        t: &Table,
        stmt: &PredictStmt,
        target_idx: usize,
    ) -> CoreResult<Vec<usize>> {
        match &stmt.train_on {
            TrainOn::Star => Ok(t.schema.feature_columns(&stmt.target)),
            TrainOn::Columns(cols) => cols
                .iter()
                .map(|c| {
                    let idx = t
                        .schema
                        .column_index(c)
                        .ok_or_else(|| CoreError::UnknownColumn(c.clone()))?;
                    if idx == target_idx {
                        return Err(CoreError::Unsupported(format!(
                            "target column '{c}' cannot be a feature"
                        )));
                    }
                    Ok(idx)
                })
                .collect(),
        }
    }

    /// Run a PREDICT in `session`. The first PREDICT on a `(table,
    /// target)` trains a model from the `WITH` rows; later ones serve it.
    /// The inference rows are a planned `SELECT * FROM table [WHERE …]`,
    /// so inside a transaction they include its own uncommitted writes.
    /// Training is refused there: it registers and logs a model, a
    /// durable side effect a ROLLBACK could not undo.
    fn predict(
        &self,
        session: &mut SessionContext,
        stmt: &PredictStmt,
    ) -> CoreResult<PredictionReport> {
        let t = self.table(&stmt.table)?;
        let target_idx = t
            .schema
            .column_index(&stmt.target)
            .ok_or_else(|| CoreError::UnknownColumn(stmt.target.clone()))?;
        let features = self.resolve_features(&t, stmt, target_idx)?;
        if features.is_empty() {
            return Err(CoreError::Unsupported("no feature columns".into()));
        }
        let loss = match stmt.task {
            PredictTask::Regression => LossKind::Mse,
            PredictTask::Classification => LossKind::Bce,
        };
        let key = (stmt.table.clone(), stmt.target.clone());

        // --- Training (first use of this (table, target)) ---
        let mut train_outcome = None;
        let cached = {
            let models = self.models.lock();
            models
                .get(&key)
                .map(|m| (m.mid, m.cfg, m.loss, m.std, m.features.clone()))
        };
        let (mid, cfg, std, model_features) = match cached {
            Some((mid, cfg, cached_loss, std, feats)) => {
                if cached_loss != loss {
                    return Err(CoreError::Unsupported(format!(
                        "model for {}.{} was trained as {:?}",
                        stmt.table, stmt.target, cached_loss
                    )));
                }
                (mid, cfg, std, feats)
            }
            None if session.in_txn() => {
                return Err(CoreError::Unsupported(
                    "a PREDICT that trains a model cannot run inside a transaction".into(),
                ))
            }
            None => {
                let cfg = Self::predict_model_config(features.len());
                // The examples live only until they are batched.
                let (std, epochs, one_epoch) = {
                    // Gather training rows (WITH filters them).
                    let (xs, ys) = self.labeled_examples(
                        &stmt.table,
                        stmt.with.as_ref(),
                        &features,
                        target_idx,
                    )?;
                    if xs.is_empty() {
                        return Err(CoreError::Unsupported(
                            "no labeled training rows".to_string(),
                        ));
                    }
                    let std = match stmt.task {
                        PredictTask::Regression => Standardizer::fit(&ys),
                        PredictTask::Classification => Standardizer::identity(),
                    };
                    let epochs = self.train_epochs(xs.len());
                    let one_epoch = make_batches(&xs, &ys, &cfg, Self::TRAIN_BATCH_ROWS, &std);
                    (std, epochs, one_epoch)
                };
                let outcome = self.ai.train(
                    armnet_spec(&cfg),
                    loss,
                    self.learning_rate,
                    std::iter::repeat_n(&one_epoch, epochs).flatten(),
                );
                let mid = outcome.mid;
                self.models.lock().insert(
                    key.clone(),
                    CachedModel {
                        mid,
                        cfg,
                        loss,
                        std,
                        features: features.clone(),
                    },
                );
                // Durability: the sink already logged the registration
                // event; bind (table, target) -> mid with its serving
                // metadata and force both to stable storage before the
                // statement reports success.
                let meta = BindingMeta {
                    cfg,
                    loss,
                    std_mean: std.mean,
                    std_std: std.std,
                    features: features.clone(),
                };
                if let Some(lsn) = self.store.append_record(&WalRecord::ModelBind {
                    txn: SYSTEM_TXN,
                    table: stmt.table.clone(),
                    target: stmt.target.clone(),
                    mid,
                    meta: meta.encode(),
                }) {
                    self.store.wait_durable(lsn)?;
                }
                train_outcome = Some(outcome);
                (mid, cfg, std, features.clone())
            }
        };

        // --- Inference ---
        let feature_names: Vec<String> = model_features
            .iter()
            .map(|&i| t.schema.column(i).name.clone())
            .collect();
        let (xs, display_rows): (Vec<Vec<u64>>, Vec<Vec<Value>>) = match &stmt.values {
            Some(rows) => {
                let mut xs = Vec::with_capacity(rows.len());
                let mut disp = Vec::with_capacity(rows.len());
                for r in rows {
                    if r.len() != model_features.len() {
                        return Err(CoreError::Unsupported(format!(
                            "VALUES arity {} != feature count {}",
                            r.len(),
                            model_features.len()
                        )));
                    }
                    let vals: Vec<Value> = r.iter().map(literal_value).collect();
                    xs.push(vals.iter().map(value_to_field).collect());
                    disp.push(vals);
                }
                (xs, disp)
            }
            None => {
                let mut xs = Vec::new();
                let mut disp = Vec::new();
                let read = select_star(&stmt.table, stmt.predicate.as_ref());
                self.run_select(session, &read, |batch| {
                    for row in &batch {
                        xs.push(
                            model_features
                                .iter()
                                .map(|&i| value_to_field(row.get(i)))
                                .collect(),
                        );
                        disp.push(model_features.iter().map(|&i| row.get(i).clone()).collect());
                    }
                    Ok(())
                })?;
                (xs, disp)
            }
        };
        let mut columns = feature_names;
        let mut rows = Vec::with_capacity(xs.len());
        if xs.is_empty() {
            columns.push(format!("predicted_{}", stmt.target));
            return Ok(PredictionReport {
                result: QueryResult { columns, rows },
                mid,
                train_outcome,
            });
        }
        let preds = self.ai.infer(mid, &encode_inference(&xs, &cfg))?;
        match stmt.task {
            PredictTask::Regression => {
                columns.push(format!("predicted_{}", stmt.target));
                for (i, disp) in display_rows.into_iter().enumerate() {
                    let mut vals = disp;
                    vals.push(Value::Float(std.inverse(preds.get(i, 0)) as f64));
                    rows.push(Tuple::new(vals));
                }
            }
            PredictTask::Classification => {
                columns.push(format!("predicted_{}", stmt.target));
                columns.push("probability".to_string());
                for (i, disp) in display_rows.into_iter().enumerate() {
                    let logit = preds.get(i, 0);
                    let p = 1.0 / (1.0 + (-logit).exp());
                    let mut vals = disp;
                    vals.push(Value::Bool(p > 0.5));
                    vals.push(Value::Float(p as f64));
                    rows.push(Tuple::new(vals));
                }
            }
        }
        Ok(PredictionReport {
            result: QueryResult { columns, rows },
            mid,
            train_outcome,
        })
    }

    /// Incrementally update the PREDICT model of `(table, target)` on the
    /// table's current rows: freeze all but the final layer and persist
    /// only the fine-tuned layers as a new version (the paper's model
    /// incremental update, Fig. 3). Returns the fine-tuning outcome.
    pub fn finetune(&self, table: &str, target: &str) -> CoreResult<TrainOutcome> {
        let key = (table.to_string(), target.to_string());
        let (mid, cfg, loss, std, features) = {
            let models = self.models.lock();
            let m = models
                .get(&key)
                .ok_or_else(|| CoreError::Unsupported(format!("no model for {table}.{target}")))?;
            (m.mid, m.cfg, m.loss, m.std, m.features.clone())
        };
        let t = self.table(table)?;
        let target_idx = t
            .schema
            .column_index(target)
            .ok_or_else(|| CoreError::UnknownColumn(target.to_string()))?;
        // The examples live only until they are batched.
        let batches = {
            let (xs, ys) = self.labeled_examples(table, None, &features, target_idx)?;
            if xs.is_empty() {
                return Err(CoreError::Unsupported(
                    "no labeled rows to fine-tune on".into(),
                ));
            }
            make_batches(&xs, &ys, &cfg, Self::TRAIN_BATCH_ROWS, &std)
        };
        let frozen = neurdb_nn::armnet_finetune_from(&cfg);
        let outcome = self
            .ai
            .finetune(mid, loss, self.learning_rate, frozen, batches)?;
        // The sink logged the incremental-update event; make it durable
        // before reporting the new version to the caller.
        self.store.sync()?;
        Ok(outcome)
    }
}
