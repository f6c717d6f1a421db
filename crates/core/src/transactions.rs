//! Multi-statement transactions for the SQL facade: `BEGIN` / `COMMIT` /
//! `ROLLBACK`, with the learned concurrency control of `neurdb-cc` on the
//! serving path — and the one DML implementation, which autocommit
//! statements share (see [`Database::execute_dml`]).
//!
//! # Undo strategy: deferred-apply write set
//!
//! The WAL is redo-only (recovery replays exactly the committed-txn
//! prefix), so an open transaction must not touch the shared heaps at
//! all until its fate is decided. Each session therefore buffers its
//! writes in per-table **overlays** ([`TableOverlay`]): an `UPDATE` or
//! `DELETE` records the committed pre-image and the pending after-image
//! keyed by record id, an `INSERT` appends to a pending-rows list.
//!
//! * Concurrent readers scan the untouched heaps — they can never
//!   observe an uncommitted row, by construction.
//! * Staging evaluates every row and checks every staged tuple against
//!   the schema, so a statement that fails — on evaluation, a NOT NULL
//!   or type violation, or a CC conflict — fails before anything is
//!   applied.
//! * `ROLLBACK` (and auto-abort on a statement error) is O(1): drop the
//!   overlays.
//! * `COMMIT` revalidates every buffered pre-image against the heap
//!   under the database-wide commit lock, then applies the overlays as
//!   one store transaction whose `TxnCommit` record is the *only*
//!   commit record the WAL sees for the whole user transaction —
//!   recovery is all-or-nothing per user transaction.
//! * The store-level transaction spans only the short apply step, so a
//!   checkpoint's quiesce never waits on an open user transaction.
//!
//! An autocommit `INSERT`/`UPDATE`/`DELETE` is the degenerate case: it
//! stages into a fresh overlay without consulting the CC engine and
//! applies it at once through the same [`Database::apply_write_set`],
//! under the commit lock, so every statement is all-or-nothing too.
//!
//! The tradeoff versus in-place version chains: read-your-own-writes
//! needs overlay-aware statement execution (an in-transaction `SELECT`'s
//! scans hide the record ids the overlay changed and append its rows —
//! see [`ScanOverlay`]), and a very large transaction buffers its whole
//! write set in memory. For the OLTP-shaped transactions the paper's CC
//! section studies (YCSB / TPC-C, a handful of ops each) the O(1) abort
//! and the untouched read path are the better end of the trade.
//!
//! # Learned CC on the serving path
//!
//! Every in-transaction statement consults the session-shared
//! [`TxnEngine`] wired with a [`LivePolicy`] (the paper's flattened
//! decision model, plus Polyjuice/OCC/2PL fallbacks switchable via
//! `SET cc_policy`): row reads/writes map to engine keys (a stable hash
//! of table x record id), predicate statements additionally read a
//! per-table *epoch* key that inserts bump, and the policy decides
//! buffer/lock/abort per op. Observed contention feeds the two-phase
//! adaptation loop (`SET cc_adapt_every = n` re-tunes every n
//! completed transactions; [`Database::cc_adapt_now`] forces a round).

use crate::database::{dml_candidates, Database, Output};
use crate::error::{CoreError, CoreResult};
use crate::exec::QueryResult;
use crate::expr::{eval, eval_predicate, Bindings};
use crate::session::SessionContext;
use neurdb_cc::LivePolicy;
use neurdb_obs::{trace, Counter, Histogram, MetricsRegistry};
use neurdb_sql::{Expr, Statement};
use neurdb_storage::{RecordId, StorageError, Table, Tuple, Value};
use neurdb_txn::{CcPolicy, EngineConfig, Txn, TxnEngine, TxnError};
use neurdb_wal::Lsn;
use parking_lot::Mutex;
use std::collections::hash_map::DefaultHasher;
use std::collections::{btree_map, BTreeMap, HashSet};
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Default ops hint handed to the engine for interactive transactions
/// (the learned policy's "txn length" feature).
const TXN_LEN_HINT: usize = 8;

// ------------------------- engine key mapping -------------------------

fn hash2(tag: u8, table: &str, extra: Option<RecordId>) -> u64 {
    // std's SipHash with default keys is deterministic across processes
    // given the same inputs, which keeps engine keys stable for a table
    // name + record id for the lifetime of the database.
    let mut h = DefaultHasher::new();
    tag.hash(&mut h);
    table.hash(&mut h);
    if let Some(rid) = extra {
        rid.hash(&mut h);
    }
    h.finish()
}

/// Engine key standing for one heap record of `table`.
pub(crate) fn row_key(table: &str, rid: RecordId) -> u64 {
    hash2(1, table, Some(rid))
}

/// Engine key standing for `table`'s membership: predicate statements
/// read it, inserts write it, so an insert invalidates (or locks out,
/// under a pessimistic policy) concurrent predicate transactions — a
/// coarse phantom guard.
pub(crate) fn epoch_key(table: &str) -> u64 {
    hash2(0, table, None)
}

// --------------------------- session state ----------------------------

/// One buffered change to a committed heap row.
pub(crate) struct RowChange {
    /// The committed tuple as first observed by this transaction; the
    /// commit-time validation re-reads the heap and aborts on mismatch.
    /// Stable across repeated in-transaction updates of the same row.
    pub(crate) pre: Tuple,
    /// The pending after-image; `None` buffers a delete.
    pub(crate) new: Option<Tuple>,
}

/// Buffered effects of the open transaction on one table.
#[derive(Default)]
pub(crate) struct TableOverlay {
    /// Changes to committed rows, keyed (and applied) in record-id
    /// order so the commit apply is deterministic.
    pub(crate) modified: BTreeMap<RecordId, RowChange>,
    /// Rows this transaction inserted (no record id until commit).
    pub(crate) inserted: Vec<Tuple>,
}

impl TableOverlay {
    pub(crate) fn is_empty(&self) -> bool {
        self.modified.is_empty() && self.inserted.is_empty()
    }

    /// The read-side view of this overlay, built in O(overlay).
    fn scan_snapshot(&self) -> ScanOverlay {
        ScanOverlay {
            hidden: self.modified.keys().copied().collect(),
            rows: self
                .modified
                .values()
                .filter_map(|ch| ch.new.clone())
                .chain(self.inserted.iter().cloned())
                .collect(),
        }
    }
}

/// What a scan inside a transaction merges into the shared heap for
/// read-your-own-writes: heap and index batches drop the `hidden` record
/// ids (rows this transaction updated or deleted), and once the cursor
/// is exhausted the scan emits the `rows` that pass its predicates (the
/// surviving after-images, then the pending inserts). Index bounds are
/// never applied to `rows` — an after-image's key may lie outside them.
#[derive(Debug)]
pub struct ScanOverlay {
    pub(crate) hidden: HashSet<RecordId>,
    pub(crate) rows: Vec<Tuple>,
}

/// A live transaction owned by a session.
pub struct ActiveTxn {
    /// The CC engine handle (holds any policy-acquired locks).
    pub(crate) handle: Txn,
    /// Statements executed inside this transaction so far.
    pub(crate) statements: u64,
    /// Deferred write set, keyed by table (sorted for apply order).
    pub(crate) overlays: BTreeMap<String, TableOverlay>,
}

/// The transaction slot of a [`SessionContext`]: either live, or failed
/// (a statement error auto-aborted it) and waiting for the client to
/// acknowledge with `ROLLBACK`/`COMMIT`.
pub enum SessionTxn {
    Active(Box<ActiveTxn>),
    /// Auto-aborted: effects are already discarded; every statement
    /// except `ROLLBACK`/`COMMIT` errors until the client clears it.
    Failed {
        id: u64,
    },
}

impl SessionTxn {
    pub fn id(&self) -> u64 {
        match self {
            SessionTxn::Active(at) => at.handle.id,
            SessionTxn::Failed { id } => *id,
        }
    }

    pub fn statements(&self) -> u64 {
        match self {
            SessionTxn::Active(at) => at.statements,
            SessionTxn::Failed { .. } => 0,
        }
    }

    pub fn state_name(&self) -> &'static str {
        match self {
            SessionTxn::Active(_) => "active",
            SessionTxn::Failed { .. } => "aborted",
        }
    }
}

impl fmt::Debug for SessionTxn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SessionTxn({}, {})", self.id(), self.state_name())
    }
}

// ------------------------- database CC state --------------------------

/// Process-wide concurrency-control state owned by the [`Database`].
pub(crate) struct CcState {
    /// The shared CC engine all sessions' transactions run through.
    pub(crate) engine: Arc<TxnEngine>,
    /// The switchable policy the engine consults (learned by default).
    pub(crate) live: Arc<LivePolicy>,
    /// Serializes every commit apply (transactional and autocommit)
    /// with the pre-image validation that precedes it, so validation
    /// cannot race a concurrent writer between check and apply.
    pub(crate) commit_lock: Mutex<()>,
    /// Completed user transactions (commit + abort + rollback).
    pub(crate) completions: AtomicU64,
    /// Registry handles of the transaction counters, resolved once.
    pub(crate) metrics: TxnMetrics,
    /// Run the two-phase adaptation loop every n completions (0 = off;
    /// `SET cc_adapt_every = n`). On by default: the learned model's
    /// immediate-abort action is only rescued by adaptation — under a
    /// sustained abort storm on a hot key the counterfactual replay
    /// rewards locking over aborting, so the loop steers the policy out
    /// of retry livelock. Aborts count as completions, which is what
    /// makes the loop fire *during* a storm rather than after it.
    pub(crate) adapt_every: AtomicU64,
}

/// Default adaptation cadence (in completed transactions).
const ADAPT_EVERY_DEFAULT: u64 = 64;

/// The transaction counters of the metrics registry, looked up once when
/// the database opens instead of through the registry's map on every use.
pub(crate) struct TxnMetrics {
    /// `cc.decisions`: operations that consulted the CC engine.
    pub(crate) decisions: Arc<Counter>,
    pub(crate) commits: Arc<Counter>,
    pub(crate) aborts: Arc<Counter>,
    pub(crate) rollbacks: Arc<Counter>,
    /// `txn.commit_ns`: COMMIT latency, validation through durability.
    pub(crate) commit_ns: Arc<Histogram>,
}

impl TxnMetrics {
    fn new(reg: &MetricsRegistry) -> TxnMetrics {
        TxnMetrics {
            decisions: reg.counter("cc.decisions"),
            commits: reg.counter("txn.commits"),
            aborts: reg.counter("txn.aborts"),
            rollbacks: reg.counter("txn.rollbacks"),
            commit_ns: reg.histogram("txn.commit_ns"),
        }
    }
}

impl CcState {
    pub(crate) fn new(metrics: &MetricsRegistry) -> CcState {
        let live = Arc::new(LivePolicy::new(0x005e_edcc));
        let engine = Arc::new(TxnEngine::new(
            live.clone() as Arc<dyn CcPolicy>,
            EngineConfig::default(),
        ));
        CcState {
            engine,
            live,
            commit_lock: Mutex::new(()),
            completions: AtomicU64::new(0),
            metrics: TxnMetrics::new(metrics),
            adapt_every: AtomicU64::new(ADAPT_EVERY_DEFAULT),
        }
    }
}

fn conflict_err(e: TxnError) -> CoreError {
    CoreError::Unsupported(format!("concurrency-control conflict: {e:?}"))
}

/// The committed rows an in-transaction `UPDATE`/`DELETE` may match, as
/// `(rid, heap row)` in record-id order: the index-targeted
/// [`dml_candidates`] plus every rid the overlay already changed, since
/// an after-image's key may have left the index range. A changed rid
/// whose heap row a concurrent commit deleted is skipped, as a heap scan
/// would skip it.
fn txn_candidates(
    t: &Table,
    env: &Bindings,
    predicate: Option<&Expr>,
    ov: &TableOverlay,
) -> CoreResult<BTreeMap<RecordId, Tuple>> {
    let mut rows: BTreeMap<RecordId, Tuple> =
        dml_candidates(t, env, predicate)?.into_iter().collect();
    for &rid in ov.modified.keys() {
        if let btree_map::Entry::Vacant(slot) = rows.entry(rid) {
            match t.get(rid) {
                Ok(row) => {
                    slot.insert(row);
                }
                Err(StorageError::SlotNotFound { .. }) => {}
                Err(e) => return Err(e.into()),
            }
        }
    }
    Ok(rows)
}

/// Evaluate an `INSERT`'s rows into tuples of `t`'s schema (columns
/// left out are NULL), each checked against the schema, and append them
/// to `staged`. Returns the number of rows. On error `staged` may hold
/// some of the rows; callers discard it.
fn stage_insert(
    t: &Table,
    columns: Option<&[String]>,
    rows: &[Vec<Expr>],
    staged: &mut Vec<Tuple>,
) -> CoreResult<usize> {
    let arity = t.schema.arity();
    let positions: Vec<usize> = match columns {
        Some(cols) => cols
            .iter()
            .map(|c| {
                t.schema
                    .column_index(c)
                    .ok_or_else(|| CoreError::UnknownColumn(c.clone()))
            })
            .collect::<CoreResult<_>>()?,
        None => (0..arity).collect(),
    };
    let empty_env = Bindings::default();
    let empty_row = Tuple::new(vec![]);
    staged.reserve(rows.len());
    for row in rows {
        if row.len() != positions.len() {
            return Err(CoreError::Unsupported(format!(
                "INSERT arity mismatch: {} values for {} columns",
                row.len(),
                positions.len()
            )));
        }
        let mut vals = vec![Value::Null; arity];
        for (expr, &pos) in row.iter().zip(positions.iter()) {
            vals[pos] = eval(expr, &empty_row, &empty_env)?;
        }
        let tuple = Tuple::new(vals);
        t.validate(&tuple)?;
        staged.push(tuple);
    }
    Ok(rows.len())
}

// ------------------------ Database txn methods -------------------------

impl Database {
    /// `BEGIN [TRANSACTION | WORK]`.
    pub(crate) fn begin_txn(&self, session: &mut SessionContext) -> CoreResult<Output> {
        if let Some(t) = &session.txn {
            return Err(CoreError::Unsupported(format!(
                "BEGIN: transaction {} is already open on this session",
                t.id()
            )));
        }
        let handle = self.cc.engine.begin_with_hint(TXN_LEN_HINT);
        session.txn = Some(SessionTxn::Active(Box::new(ActiveTxn {
            handle,
            statements: 0,
            overlays: BTreeMap::new(),
        })));
        Ok(Output::Affected(0))
    }

    /// `ROLLBACK [TRANSACTION | WORK]`: discard the open transaction's
    /// buffered effects (a no-op heap-wise — nothing was applied).
    pub(crate) fn rollback_txn(&self, session: &mut SessionContext) -> CoreResult<Output> {
        match session.txn.take() {
            None => Err(CoreError::Unsupported(
                "ROLLBACK: no transaction is open on this session".into(),
            )),
            // Auto-abort already released everything; ROLLBACK just
            // acknowledges (the abort was counted when it happened).
            Some(SessionTxn::Failed { .. }) => Ok(Output::Affected(0)),
            Some(SessionTxn::Active(at)) => {
                self.cc.engine.abort(at.handle);
                self.cc.metrics.rollbacks.inc();
                self.note_txn_completion();
                Ok(Output::Affected(0))
            }
        }
    }

    /// `COMMIT [TRANSACTION | WORK]`: validate, apply the write set as
    /// one store transaction, and wait until its commit record is
    /// durable.
    pub(crate) fn commit_txn(&self, session: &mut SessionContext) -> CoreResult<Output> {
        match session.txn.take() {
            None => Err(CoreError::Unsupported(
                "COMMIT: no transaction is open on this session".into(),
            )),
            Some(SessionTxn::Failed { id }) => Err(CoreError::TxnAborted {
                txn: id,
                message: "transaction was aborted; its statements were discarded".into(),
            }),
            Some(SessionTxn::Active(at)) => self.apply_commit(*at),
        }
    }

    /// Abort the session's open transaction because a statement inside
    /// it failed; leaves the session in the `Failed` state so later
    /// statements error until `ROLLBACK`. Returns the aborted txn id.
    pub(crate) fn auto_abort_txn(&self, session: &mut SessionContext) -> u64 {
        match session.txn.take() {
            Some(SessionTxn::Active(at)) => {
                let id = at.handle.id;
                self.cc.engine.abort(at.handle);
                self.cc.metrics.aborts.inc();
                self.note_txn_completion();
                session.txn = Some(SessionTxn::Failed { id });
                id
            }
            Some(f @ SessionTxn::Failed { .. }) => {
                let id = f.id();
                session.txn = Some(f);
                id
            }
            None => 0,
        }
    }

    /// Roll back whatever transaction the session still has open —
    /// server front ends call this when a connection drops mid-
    /// transaction. Safe to call with no transaction open.
    pub fn rollback_session(&self, session: &mut SessionContext) {
        if let Some(SessionTxn::Active(at)) = session.txn.take() {
            self.cc.engine.abort(at.handle);
            self.cc.metrics.rollbacks.inc();
            self.note_txn_completion();
        }
    }

    fn apply_commit(&self, at: ActiveTxn) -> CoreResult<Output> {
        let start = Instant::now();
        let ActiveTxn {
            handle, overlays, ..
        } = at;
        let id = handle.id;

        // Everything from validation through the commit record is under
        // the commit lock: no other transaction (or autocommit
        // statement) can write between our pre-image check and our
        // apply.
        let lock_span = trace::span("txn.commit_lock_wait");
        let guard = self.cc.commit_lock.lock();
        drop(lock_span);

        // First-committer-wins validation: every row we buffered a
        // change for must still carry the pre-image we read.
        let mut fcw_span = trace::span("txn.fcw_validate");
        fcw_span.attr("tables", overlays.len());
        for (name, ov) in &overlays {
            let t = match self.table(name) {
                Ok(t) => t,
                Err(e) => {
                    drop(guard);
                    return self.commit_conflict(handle, id, format!("{e}"));
                }
            };
            for (rid, ch) in &ov.modified {
                match t.get(*rid) {
                    Ok(current) if current == ch.pre => {}
                    _ => {
                        drop(guard);
                        return self.commit_conflict(
                            handle,
                            id,
                            format!(
                                "row {}:{} of '{name}' was changed by a concurrent transaction",
                                rid.page, rid.slot
                            ),
                        );
                    }
                }
            }
        }

        drop(fcw_span);

        // The CC engine's own validation (OCC read sets / SSI / lock
        // release, per the live policy).
        let cc_span = trace::span("txn.cc_validate");
        if let Err(e) = self.cc.engine.commit(handle) {
            drop(cc_span);
            drop(guard);
            self.cc.metrics.aborts.inc();
            self.note_txn_completion();
            return Err(CoreError::TxnAborted {
                txn: id,
                message: format!("concurrency-control validation failed: {e:?}"),
            });
        }
        drop(cc_span);

        // Apply the write set as one store transaction. Its TxnCommit
        // record is the only commit the WAL sees for this user
        // transaction, so recovery replays it all or not at all.
        let (lsn, applied) = match overlays.values().any(|ov| !ov.is_empty()) {
            true => self.apply_write_set(overlays),
            false => (None, Ok(())),
        };
        drop(guard);

        // Group-commit friendly: the durability wait happens after the
        // commit lock is released.
        let durable = self.await_durable(lsn);
        if let Err(e) = applied {
            self.cc.metrics.aborts.inc();
            self.note_txn_completion();
            return Err(e);
        }
        durable?;
        self.cc.metrics.commits.inc();
        self.cc.metrics.commit_ns.record_duration(start.elapsed());
        self.note_txn_completion();
        Ok(Output::Affected(0))
    }

    /// Apply a staged write set as one store transaction, table by
    /// table: changes to committed rows in record-id order, then the
    /// inserts. Returns the commit record's LSN (`None` on a volatile
    /// store) and the apply result. Staging validated every tuple
    /// against its schema, so the apply fails only on a storage error
    /// (e.g. an updated row that no longer fits its page); the store
    /// transaction is closed even then, and the operations applied
    /// before the error stay, as live sessions observed them.
    pub(crate) fn apply_write_set<S: AsRef<str>>(
        &self,
        overlays: impl IntoIterator<Item = (S, TableOverlay)>,
    ) -> (Option<Lsn>, CoreResult<()>) {
        let mut span = trace::span("txn.overlay_apply");
        let mut rows = 0u64;
        let store = self.store();
        let wtxn = store.begin();
        let apply = || -> CoreResult<()> {
            for (name, ov) in overlays {
                let name = name.as_ref();
                for (rid, ch) in ov.modified {
                    rows += 1;
                    match ch.new {
                        Some(t) => store.update(wtxn, name, rid, t)?,
                        None => store.delete(wtxn, name, rid)?,
                    }
                }
                for t in ov.inserted {
                    rows += 1;
                    store.insert(wtxn, name, t)?;
                }
            }
            Ok(())
        };
        let applied = apply();
        let lsn = store.commit_nowait(wtxn);
        span.attr("rows", rows);
        (lsn, applied)
    }

    /// Wait until the commit record at `lsn` is durable (no-op for
    /// `None`). Callers release the commit lock first, so concurrent
    /// commits share one group-commit flush.
    pub(crate) fn await_durable(&self, lsn: Option<Lsn>) -> CoreResult<()> {
        if let Some(lsn) = lsn {
            let mut sp = trace::span("txn.wait_durable");
            sp.attr("lsn", lsn);
            self.store().wait_durable(lsn)?;
        }
        Ok(())
    }

    fn commit_conflict(&self, handle: Txn, id: u64, message: String) -> CoreResult<Output> {
        self.cc.engine.abort(handle);
        self.cc.metrics.aborts.inc();
        self.note_txn_completion();
        Err(CoreError::TxnAborted { txn: id, message })
    }

    /// One user transaction finished (commit, abort, or rollback):
    /// maybe run the two-phase adaptation loop.
    fn note_txn_completion(&self) {
        let done = self.cc.completions.fetch_add(1, Ordering::Relaxed) + 1;
        let every = self.cc.adapt_every.load(Ordering::Relaxed);
        if every > 0 && done.is_multiple_of(every) {
            self.run_adaptation();
        }
    }

    fn run_adaptation(&self) {
        let mut sp = trace::span("cc.adapt");
        let adapted = self.cc.live.adapt_now(&self.cc.engine.metrics).is_some();
        sp.attr("installed", adapted);
        if adapted {
            self.store().metrics().counter("cc.adaptations").inc();
        }
    }

    /// Force one round of the two-phase adaptation loop on the live
    /// policy, fed by the engine's observed contention. Returns the
    /// replayed reward of the installed parameters, or `None` when no
    /// decisions were sampled since the last round.
    pub fn cc_adapt_now(&self) -> Option<f64> {
        let r = self.cc.live.adapt_now(&self.cc.engine.metrics);
        if r.is_some() {
            self.store().metrics().counter("cc.adaptations").inc();
        }
        r
    }

    /// How many operations consulted the live CC policy so far.
    pub fn cc_decisions(&self) -> u64 {
        self.cc.live.consults()
    }

    /// The active CC policy's name (`SET cc_policy` switches it).
    pub fn cc_policy_name(&self) -> &'static str {
        self.cc.live.mode().name()
    }

    // ----------------------- engine op helpers ------------------------

    /// Policy-mediated engine read; every call is one consulted CC
    /// decision (`cc.decisions`).
    fn cc_read(&self, handle: &mut Txn, key: u64) -> CoreResult<u64> {
        self.cc.metrics.decisions.inc();
        self.cc.engine.read(handle, key).map_err(conflict_err)
    }

    /// Policy-mediated engine write (the engine's value payload is
    /// unused by the SQL facade; the key's lock/version state is what
    /// matters).
    fn cc_write(&self, handle: &mut Txn, key: u64) -> CoreResult<()> {
        self.cc.metrics.decisions.inc();
        self.cc.engine.write(handle, key, 0).map_err(conflict_err)
    }

    /// Record a predicate read of each table in `tables` on the open
    /// transaction (its epoch key): in-transaction `SELECT`s call this
    /// so a concurrent insert invalidates — or a pessimistic policy
    /// blocks — this transaction at commit.
    pub(crate) fn txn_note_table_reads(
        &self,
        session: &mut SessionContext,
        tables: &[String],
    ) -> CoreResult<()> {
        let Some(SessionTxn::Active(at)) = &mut session.txn else {
            return Ok(());
        };
        for name in tables {
            let ek = epoch_key(name);
            self.cc.engine.ensure(ek);
            self.cc.metrics.decisions.inc();
            self.cc
                .engine
                .read(&mut at.handle, ek)
                .map_err(conflict_err)?;
        }
        Ok(())
    }

    // ------------------------------ DML ------------------------------

    /// `INSERT`/`UPDATE`/`DELETE`, the one DML path. Inside an open
    /// transaction the statement is staged into the transaction's
    /// overlay of its table, consulting the CC engine, and applied at
    /// `COMMIT`. In autocommit it is staged into a fresh overlay without
    /// the CC engine and applied at once as a one-statement store
    /// transaction, under the commit lock so a concurrent `COMMIT`'s
    /// pre-image validation cannot race it. Either way an error while
    /// staging — evaluation, schema violation, conflict — leaves the
    /// heaps untouched. Returns the affected row count.
    pub(crate) fn execute_dml(
        &self,
        session: &mut SessionContext,
        stmt: &Statement,
    ) -> CoreResult<usize> {
        let (Statement::Insert { table, .. }
        | Statement::Update { table, .. }
        | Statement::Delete { table, .. }) = stmt
        else {
            unreachable!("execute_dml receives only DML statements");
        };
        if let Some(SessionTxn::Active(at)) = &mut session.txn {
            let at = &mut **at;
            let t = self.table(table)?;
            let ov = at.overlays.entry(table.clone()).or_default();
            return self.stage_dml(&t, ov, Some(&mut at.handle), stmt);
        }
        let lock_span = trace::span("txn.commit_lock_wait");
        let guard = self.cc.commit_lock.lock();
        drop(lock_span);
        let t = self.table(table)?;
        let mut ov = TableOverlay::default();
        let n = self.stage_dml(&t, &mut ov, None, stmt)?;
        let (lsn, applied) = self.apply_write_set([(table, ov)]);
        drop(guard);
        let durable = self.await_durable(lsn);
        applied?;
        durable?;
        Ok(n)
    }

    /// Stage one DML statement on `t` into `ov`. With `cc` (the open
    /// transaction's engine handle) an `INSERT` writes the table's epoch
    /// key, so concurrent predicate transactions see the membership
    /// change; see [`Database::stage_write`] for `UPDATE`/`DELETE`.
    fn stage_dml(
        &self,
        t: &Table,
        ov: &mut TableOverlay,
        cc: Option<&mut Txn>,
        stmt: &Statement,
    ) -> CoreResult<usize> {
        match stmt {
            Statement::Insert { columns, rows, .. } => {
                let n = stage_insert(t, columns.as_deref(), rows, &mut ov.inserted)?;
                if let Some(handle) = cc {
                    let ek = epoch_key(&t.name);
                    self.cc.engine.ensure(ek);
                    self.cc_write(handle, ek)?;
                }
                Ok(n)
            }
            Statement::Update {
                assignments,
                predicate,
                ..
            } => self.stage_write(t, ov, cc, Some(assignments), predicate.as_ref()),
            Statement::Delete { predicate, .. } => {
                self.stage_write(t, ov, cc, None, predicate.as_ref())
            }
            _ => unreachable!("stage_dml receives only DML statements"),
        }
    }

    /// Stage `UPDATE` (`assignments` given) or `DELETE` (`None`): the
    /// predicate runs over the *effective* rows (heap merged with `ov`),
    /// buffering after-images or tombstones for committed rows and
    /// rewriting or dropping pending inserts in place. Candidates come
    /// from [`txn_candidates`] and are collected before any change is
    /// buffered; the full predicate is re-applied to each one's
    /// effective row. Every after-image is checked against the schema.
    /// With `cc`, the table's epoch key and each touched committed row
    /// are read (and the row written) through the CC engine.
    fn stage_write(
        &self,
        t: &Table,
        ov: &mut TableOverlay,
        mut cc: Option<&mut Txn>,
        assignments: Option<&[(String, Expr)]>,
        predicate: Option<&Expr>,
    ) -> CoreResult<usize> {
        let names = t.schema.names();
        let env = Bindings::for_table(&t.name, &names);
        let targets: Vec<usize> = assignments
            .unwrap_or_default()
            .iter()
            .map(|(c, _)| {
                t.schema
                    .column_index(c)
                    .ok_or_else(|| CoreError::UnknownColumn(c.clone()))
            })
            .collect::<CoreResult<_>>()?;
        let hit = |row: &Tuple| -> CoreResult<bool> {
            match predicate {
                Some(p) => Ok(eval_predicate(p, row, &env)?),
                None => Ok(true),
            }
        };
        // The after-image of `row`, or `None` for a delete.
        let after = |row: &Tuple| -> CoreResult<Option<Tuple>> {
            let Some(assignments) = assignments else {
                return Ok(None);
            };
            let mut new_row = row.clone();
            for ((_, expr), &pos) in assignments.iter().zip(targets.iter()) {
                new_row.values[pos] = eval(expr, row, &env)?;
            }
            t.validate(&new_row)?;
            Ok(Some(new_row))
        };
        if let Some(handle) = cc.as_deref_mut() {
            let ek = epoch_key(&t.name);
            self.cc.engine.ensure(ek);
            self.cc_read(handle, ek)?;
        }
        let mut n = 0;
        for (rid, heap_row) in txn_candidates(t, &env, predicate, ov)? {
            let effective = match ov.modified.get(&rid) {
                Some(RowChange { new: None, .. }) => continue,
                Some(RowChange { new: Some(cur), .. }) => cur,
                None => &heap_row,
            };
            if !hit(effective)? {
                continue;
            }
            if let Some(handle) = cc.as_deref_mut() {
                let rk = row_key(&t.name, rid);
                self.cc.engine.ensure(rk);
                self.cc.metrics.decisions.add(2);
                self.cc.engine.read(handle, rk).map_err(conflict_err)?;
                self.cc.engine.write(handle, rk, 0).map_err(conflict_err)?;
            }
            let new = after(effective)?;
            match ov.modified.entry(rid) {
                btree_map::Entry::Occupied(mut e) => e.get_mut().new = new,
                btree_map::Entry::Vacant(e) => {
                    e.insert(RowChange { pre: heap_row, new });
                }
            }
            n += 1;
        }
        // Rows this transaction itself inserted (no record id yet, no
        // engine key — they are invisible outside this session). An
        // error discards the whole overlay, so a half-rebuilt list is
        // never observed.
        let mut kept = Vec::with_capacity(ov.inserted.len());
        for row in std::mem::take(&mut ov.inserted) {
            if !hit(&row)? {
                kept.push(row);
                continue;
            }
            n += 1;
            kept.extend(after(&row)?);
        }
        ov.inserted = kept;
        Ok(n)
    }

    // ------------------- overlay-aware table reads --------------------

    /// Resolve `name` as this session sees it: the shared table, plus —
    /// when the session's open transaction has buffered changes to it —
    /// a snapshot of those changes for the scans to merge in
    /// (read-your-own-writes for in-transaction `SELECT`s). Other
    /// sessions never get an overlay: uncommitted rows are never visible
    /// to them.
    pub(crate) fn effective_table(
        &self,
        session: &SessionContext,
        name: &str,
    ) -> CoreResult<(Arc<Table>, Option<Arc<ScanOverlay>>)> {
        let base = self.table(name)?;
        let overlay = match &session.txn {
            Some(SessionTxn::Active(at)) => at
                .overlays
                .get(name)
                .filter(|ov| !ov.is_empty())
                .map(|ov| Arc::new(ov.scan_snapshot())),
            _ => None,
        };
        Ok((base, overlay))
    }

    /// `SHOW cc`: the live concurrency-control state as
    /// `(property, value)` rows.
    pub(crate) fn show_cc(&self) -> QueryResult {
        let tracker = &self.cc.engine.metrics;
        let rows: Vec<(String, Value)> = vec![
            (
                "policy".into(),
                Value::Text(self.cc.live.mode().name().into()),
            ),
            (
                "decisions".into(),
                Value::Int(self.cc.live.consults() as i64),
            ),
            (
                "adaptations".into(),
                Value::Int(self.cc.live.adaptations() as i64),
            ),
            (
                "adapt_every".into(),
                Value::Int(self.cc.adapt_every.load(Ordering::Relaxed) as i64),
            ),
            (
                "engine.commits".into(),
                Value::Int(tracker.commits() as i64),
            ),
            ("engine.aborts".into(), Value::Int(tracker.aborts() as i64)),
            (
                "engine.abort_ratio".into(),
                Value::Float(tracker.abort_ratio()),
            ),
        ];
        QueryResult {
            columns: vec!["property".to_string(), "value".to_string()],
            rows: rows
                .into_iter()
                .map(|(n, v)| Tuple::new(vec![Value::Text(n), v]))
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn engine_keys_are_stable_and_distinct() {
        let rid = RecordId::new(3, 7);
        assert_eq!(row_key("t", rid), row_key("t", rid));
        assert_eq!(epoch_key("t"), epoch_key("t"));
        assert_ne!(row_key("t", rid), epoch_key("t"));
        assert_ne!(epoch_key("t"), epoch_key("u"));
        assert_ne!(row_key("t", rid), row_key("u", rid));
        assert_ne!(row_key("t", rid), row_key("t", RecordId::new(3, 8)));
    }

    #[test]
    fn session_txn_reports_state() {
        let cc = CcState::new(&MetricsRegistry::new());
        let handle = cc.engine.begin_with_hint(2);
        let id = handle.id;
        let t = SessionTxn::Active(Box::new(ActiveTxn {
            handle,
            statements: 3,
            overlays: BTreeMap::new(),
        }));
        assert_eq!(t.id(), id);
        assert_eq!(t.statements(), 3);
        assert_eq!(t.state_name(), "active");
        let f = SessionTxn::Failed { id: 9 };
        assert_eq!(f.id(), 9);
        assert_eq!(f.statements(), 0);
        assert_eq!(f.state_name(), "aborted");
        if let SessionTxn::Active(at) = t {
            cc.engine.abort(at.handle);
        }
    }

    #[test]
    fn overlay_emptiness() {
        let mut ov = TableOverlay::default();
        assert!(ov.is_empty());
        ov.inserted.push(Tuple::new(vec![Value::Int(1)]));
        assert!(!ov.is_empty());
    }

    #[test]
    fn scan_snapshot_hides_changed_rids_and_carries_live_rows() {
        let row = |v| Tuple::new(vec![Value::Int(v)]);
        let mut ov = TableOverlay::default();
        let (upd, del) = (RecordId::new(0, 1), RecordId::new(0, 2));
        ov.modified.insert(
            upd,
            RowChange {
                pre: row(1),
                new: Some(row(10)),
            },
        );
        ov.modified.insert(
            del,
            RowChange {
                pre: row(2),
                new: None,
            },
        );
        ov.inserted.push(row(3));
        let snap = ov.scan_snapshot();
        assert_eq!(snap.hidden, HashSet::from([upd, del]));
        assert_eq!(snap.rows, vec![row(10), row(3)]);
    }
}
