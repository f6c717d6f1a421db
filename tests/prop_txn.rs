//! Property tests: randomly interleaved multi-statement transactions
//! across several sessions are commit-order serializable. Whatever
//! interleaving the schedule produces, the final table state must equal
//! a serial replay — on a fresh database — of exactly the transactions
//! that committed, in the order they committed. Rolled-back and aborted
//! transactions must leave zero trace. Each property runs on the
//! unindexed table and again with an index on `t (id)`, against the
//! unindexed reference, so index-targeted UPDATE/DELETE and overlay
//! merges over index scans are checked against the sequential paths.
//!
//! A differential property drives one random statement stream through
//! four databases — {indexed, unindexed} x {inside transactions,
//! autocommit} — and requires the same affected counts, the same
//! SELECT results and the same final state from all of them.

use neurdb_core::{CoreError, Database, Output, SessionContext};
use proptest::prelude::*;

const SESSIONS: usize = 3;

/// Sorted row-multiset digest of `t`, for whole-state comparisons.
fn rows_of(db: &Database) -> Vec<String> {
    let t = db.table("t").unwrap();
    let mut rows: Vec<String> = t
        .scan()
        .unwrap()
        .into_iter()
        .map(|(_, r)| format!("{r:?}"))
        .collect();
    rows.sort();
    rows
}

fn seeded_db(indexed: bool) -> Database {
    let db = Database::new();
    db.execute("CREATE TABLE t (id INT, val INT NOT NULL)")
        .unwrap();
    db.execute("INSERT INTO t VALUES (1, 10), (2, 20), (3, 30), (4, 40), (5, 50), (6, 60)")
        .unwrap();
    if indexed {
        db.execute("CREATE INDEX ON t (id)").unwrap();
    }
    db
}

/// One schedule step: which session acts, what it does, and the value
/// scalars feeding the statement. Updates and deletes only ever target
/// the seeded id range 1..=6; inserts draw fresh ids from a counter
/// starting at 100, so predicates and fresh rows never interact and the
/// serial reference stays exact even under insert/predicate races. The
/// last action is a two-row INSERT whose second row violates `val`'s
/// NOT NULL: it must abort its transaction at the statement, before
/// anything is applied.
fn step_sql(action: u8, k: i64, v: i64, next_id: &mut i64) -> String {
    match action % 6 {
        0 => format!(
            "UPDATE t SET val = val + {} WHERE id = {}",
            (v % 7) + 1,
            (k % 6) + 1
        ),
        1 => format!("DELETE FROM t WHERE id = {}", (k % 6) + 1),
        2 => {
            let id = *next_id;
            *next_id += 1;
            format!("INSERT INTO t VALUES ({id}, {v})")
        }
        3 => "COMMIT".to_string(),
        4 => "ROLLBACK".to_string(),
        _ => {
            let id = *next_id;
            *next_id += 2;
            format!("INSERT INTO t VALUES ({id}, {v}), ({}, NULL)", id + 1)
        }
    }
}

/// Drive one interleaved schedule against a shared database, recording
/// the statements of every transaction that successfully committed, in
/// commit order. Conflict aborts (first-committer-wins) surface as
/// [`CoreError::TxnAborted`]; those transactions are cleared with
/// `ROLLBACK` and excluded from the committed history.
fn run_schedule(steps: &[(usize, u8, i64, i64)], indexed: bool) -> (Vec<String>, Vec<Vec<String>>) {
    let db = seeded_db(indexed);
    let mut sessions: Vec<SessionContext> = (0..SESSIONS).map(|_| SessionContext::new()).collect();
    let mut pending: Vec<Vec<String>> = vec![Vec::new(); SESSIONS];
    let mut committed: Vec<Vec<String>> = Vec::new();
    let mut next_id = 100i64;
    for &(s, action, k, v) in steps {
        let s = s % SESSIONS;
        if !sessions[s].in_txn() {
            db.execute_in_session(&mut sessions[s], "BEGIN").unwrap();
            pending[s].clear();
        }
        let stmt = step_sql(action, k, v, &mut next_id);
        match db.execute_in_session(&mut sessions[s], &stmt) {
            Ok(_) => match stmt.as_str() {
                "COMMIT" => committed.push(std::mem::take(&mut pending[s])),
                "ROLLBACK" => pending[s].clear(),
                _ => pending[s].push(stmt),
            },
            Err(CoreError::TxnAborted { .. }) => {
                // Statement or commit hit a concurrency-control
                // conflict or a schema violation; the transaction's
                // effects are gone. Clear the failed state so the
                // session can keep going.
                pending[s].clear();
                if sessions[s].in_txn() {
                    db.execute_in_session(&mut sessions[s], "ROLLBACK").unwrap();
                }
            }
            Err(e) => panic!("unexpected error for {stmt:?}: {e}"),
        }
    }
    // Abandon whatever is still open: open transactions must leave zero
    // trace, same as an explicit ROLLBACK.
    for s in sessions.iter_mut() {
        if s.in_txn() {
            db.execute_in_session(s, "ROLLBACK").unwrap();
        }
    }
    (rows_of(&db), committed)
}

/// Serial reference: replay only the committed transactions, in commit
/// order, each as plain autocommit statements on a fresh database.
fn serial_reference(committed: &[Vec<String>]) -> Vec<String> {
    let db = seeded_db(false);
    for txn in committed {
        for stmt in txn {
            db.execute(stmt).unwrap();
        }
    }
    rows_of(&db)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

    /// Interleaved execution across three sessions is equivalent to a
    /// serial replay of the committed transactions in commit order.
    #[test]
    fn interleaved_txns_match_serial_commit_order(
        steps in prop::collection::vec(
            (0usize..SESSIONS, 0u8..6, 0i64..64, 0i64..64),
            4..40,
        )
    ) {
        for indexed in [false, true] {
            let (actual, committed) = run_schedule(&steps, indexed);
            let expect = serial_reference(&committed);
            prop_assert_eq!(actual, expect, "indexed: {}", indexed);
        }
    }

    /// A transaction of arbitrary DML followed by ROLLBACK restores the
    /// pre-transaction state byte for byte, and concurrent observers
    /// never saw any of it.
    #[test]
    fn rollback_restores_reference_state(
        ops in prop::collection::vec((0u8..3, 0i64..64, 0i64..64), 1..12)
    ) {
        for indexed in [false, true] {
            let db = seeded_db(indexed);
            let before = rows_of(&db);
            let mut s = SessionContext::new();
            let mut next_id = 100i64;
            db.execute_in_session(&mut s, "BEGIN").unwrap();
            for &(action, k, v) in &ops {
                let stmt = step_sql(action, k, v, &mut next_id);
                db.execute_in_session(&mut s, &stmt).unwrap();
                // A single writer has nobody to conflict with, and the
                // shared heap must be untouched while the txn is open.
                prop_assert_eq!(&rows_of(&db), &before);
            }
            db.execute_in_session(&mut s, "ROLLBACK").unwrap();
            prop_assert_eq!(rows_of(&db), before);
            prop_assert!(!s.in_txn());
        }
    }

    /// One random stream of UPDATE/DELETE/INSERT/SELECT (with COMMITs
    /// and statistics warm-ups that let range predicates take the
    /// index) gives identical affected counts, SELECT results and final
    /// state on all four databases of the [`Differential`] harness.
    #[test]
    fn indexed_and_unindexed_twins_agree_in_and_out_of_transactions(
        ops in prop::collection::vec(
            (0u8..DIFF_OPS, 0u8..PRED_KINDS, -5i64..45, -5i64..45),
            1..40,
        )
    ) {
        let mut d = Differential::new();
        for &(op, pred, a, b) in &ops {
            d.step(&diff_sql(op, pred, a, b));
        }
        d.finish();
    }
}

// ------------------------- differential harness -------------------------

/// Statement kinds of the differential stream (see [`diff_sql`]).
const DIFF_OPS: u8 = 8;
/// Predicate shapes of the differential stream (see [`diff_pred`]).
const PRED_KINDS: u8 = 10;

/// A WHERE clause over `t (id, val)`: equality, ranges with inclusive
/// and strict bounds, negative and float literals, a literal on the
/// left, `= NULL`, a non-indexable column, or none at all.
fn diff_pred(kind: u8, a: i64, b: i64) -> String {
    let (lo, hi) = (a.min(b), a.max(b));
    match kind % PRED_KINDS {
        0 => format!(" WHERE id = {a}"),
        1 => format!(" WHERE id >= {a}"),
        2 => format!(" WHERE id > {lo} AND id < {hi}"),
        3 => format!(" WHERE id <= {lo} AND id >= {}", lo - 3),
        4 => format!(" WHERE id < {a}.5"),
        5 => format!(" WHERE {a} <= id AND val > {b}"),
        6 => " WHERE id = NULL".to_string(),
        7 => format!(" WHERE val = {b}"),
        8 => format!(" WHERE id >= -{} AND id <= {hi}", a.abs()),
        _ => String::new(),
    }
}

/// One statement of the differential stream. [`Differential::step`]
/// interprets `COMMIT` (the in-transaction databases commit and begin
/// again) and `ANALYZE` (cache table statistics, which lets range
/// predicates choose the index).
fn diff_sql(op: u8, pred: u8, a: i64, b: i64) -> String {
    let w = diff_pred(pred, a, b);
    match op % DIFF_OPS {
        0 => format!(
            "UPDATE t SET val = val + {} WHERE id = {a}",
            b.rem_euclid(7) + 1
        ),
        1 => format!("UPDATE t SET val = val - 1{w}"),
        // Moves keys: later statements in the transaction must find the
        // moved rows by their new key.
        2 => format!("UPDATE t SET id = id + 10 WHERE id >= {a}"),
        3 => format!("DELETE FROM t{w}"),
        4 => format!("INSERT INTO t VALUES ({a}, {b}), ({b}, {a})"),
        5 => format!("SELECT id, val FROM t{w}"),
        6 => "COMMIT".to_string(),
        _ => "ANALYZE".to_string(),
    }
}

/// Four databases fed the same statements: indexed and unindexed twins
/// running everything inside transactions (a new one opens after each
/// COMMIT), and indexed and unindexed references applying every
/// statement immediately in autocommit. Every statement must produce the
/// same output on all four — in particular, an in-transaction SELECT
/// must equal the autocommit SELECT on a database that already applied
/// the transaction's statements.
struct Differential {
    /// `(database, session, runs inside transactions)`.
    dbs: Vec<(Database, SessionContext, bool)>,
    history: Vec<String>,
}

impl Differential {
    fn new() -> Differential {
        let mut dbs = Vec::new();
        for indexed in [true, false] {
            for in_txn in [true, false] {
                let db = Database::new();
                db.execute("CREATE TABLE t (id INT, val INT)").unwrap();
                let rows: Vec<String> = (0..20).map(|i| format!("({i}, {})", i * 3 % 7)).collect();
                db.execute(&format!("INSERT INTO t VALUES {}", rows.join(", ")))
                    .unwrap();
                if indexed {
                    db.execute("CREATE INDEX ON t (id)").unwrap();
                }
                let mut session = SessionContext::new();
                if in_txn {
                    db.execute_in_session(&mut session, "BEGIN").unwrap();
                }
                dbs.push((db, session, in_txn));
            }
        }
        Differential {
            dbs,
            history: Vec::new(),
        }
    }

    /// A canonical, order-free rendering of one statement's output.
    fn render(out: Output) -> String {
        match out {
            Output::Affected(n) => format!("affected {n}"),
            other => {
                let mut rows: Vec<String> = other
                    .rows()
                    .unwrap()
                    .rows
                    .iter()
                    .map(|r| format!("{r:?}"))
                    .collect();
                rows.sort();
                rows.join("; ")
            }
        }
    }

    fn step(&mut self, sql: &str) {
        self.history.push(sql.to_string());
        let mut outputs = Vec::new();
        for (db, session, in_txn) in &mut self.dbs {
            let out = match sql {
                "ANALYZE" => {
                    db.table("t").unwrap().stats().unwrap();
                    continue;
                }
                "COMMIT" if !*in_txn => continue,
                "COMMIT" => {
                    db.execute_in_session(session, "COMMIT").unwrap();
                    db.execute_in_session(session, "BEGIN").unwrap();
                    continue;
                }
                _ => db.execute_in_session(session, sql),
            };
            let out = out.unwrap_or_else(|e| panic!("{sql}: {e}\nhistory: {:#?}", self.history));
            outputs.push(Self::render(out));
        }
        for (i, out) in outputs.iter().enumerate().skip(1) {
            assert_eq!(
                out, &outputs[0],
                "database {i} disagrees on {sql}\nhistory: {:#?}",
                self.history
            );
        }
    }

    /// Commit the open transactions; all four final states must match.
    fn finish(mut self) {
        self.step("COMMIT");
        let states: Vec<Vec<String>> = self.dbs.iter().map(|(db, _, _)| rows_of(db)).collect();
        for (i, state) in states.iter().enumerate().skip(1) {
            assert_eq!(
                state, &states[0],
                "database {i}'s final state differs\nhistory: {:#?}",
                self.history
            );
        }
    }
}

/// The differential harness on a fixed stream covering what random
/// streams hit only sometimes: keys moved inside a transaction and then
/// re-updated and deleted by their new key, an in-transaction SELECT
/// after DELETE and INSERT, ranges that take the index once statistics
/// are cached, and float, negative and NULL literals.
#[test]
fn differential_covers_key_moves_and_read_your_own_writes() {
    let mut d = Differential::new();
    for sql in [
        "ANALYZE",
        "UPDATE t SET id = id + 10 WHERE id >= 15",
        "SELECT id, val FROM t WHERE id >= 15",
        "UPDATE t SET val = val + 100 WHERE id = 27",
        "SELECT id, val FROM t WHERE id > 25 AND id < 28",
        "DELETE FROM t WHERE id = 28",
        "SELECT id, val FROM t WHERE id >= 20",
        "UPDATE t SET id = id + 10 WHERE id >= 25",
        "SELECT id, val FROM t WHERE id >= 35",
        "DELETE FROM t WHERE id <= 3",
        "INSERT INTO t VALUES (2, 5), (-1, 9), (40, 1)",
        "SELECT id, val FROM t WHERE id < 3.5",
        "SELECT id, val FROM t WHERE id >= -2 AND id <= 2",
        "SELECT id, val FROM t",
        "UPDATE t SET val = 0 WHERE id = NULL",
        "DELETE FROM t WHERE id = 40",
        "SELECT id, val FROM t WHERE id >= 36",
        "COMMIT",
        "ANALYZE",
        "DELETE FROM t WHERE id > 30",
        "INSERT INTO t VALUES (31, 31)",
        "SELECT id, val FROM t WHERE id > 30",
        "UPDATE t SET id = id - 20 WHERE id > 30",
        "SELECT id, val FROM t WHERE id = 11",
    ] {
        d.step(sql);
    }
    d.finish();
}
