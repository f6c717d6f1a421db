//! Multi-statement transactions end to end: `BEGIN`/`COMMIT`/`ROLLBACK`
//! semantics, reader isolation (uncommitted rows are never visible to
//! other sessions), read-your-own-writes inside the transaction,
//! auto-abort on statement error, first-committer-wins conflicts, and
//! the `txn.*` metrics/`SHOW cc` observability surface.

use neurdb_core::{CoreError, Database, Output, SessionContext};
use neurdb_storage::Value;

/// Sorted row-multiset digest of one table, for byte-identical
/// comparisons across sessions and transaction outcomes.
fn rows_of(db: &Database, table: &str) -> Vec<String> {
    let t = db.table(table).unwrap();
    let mut rows: Vec<String> = t
        .scan()
        .unwrap()
        .into_iter()
        .map(|(_, r)| format!("{r:?}"))
        .collect();
    rows.sort();
    rows
}

fn seeded_db() -> Database {
    let db = Database::new();
    db.execute("CREATE TABLE t (id INT, val INT)").unwrap();
    db.execute("INSERT INTO t VALUES (1, 10), (2, 20), (3, 30)")
        .unwrap();
    db
}

fn metric(db: &Database, name: &str) -> i64 {
    let out = db.execute("SHOW METRICS").unwrap();
    let rows = out.rows().unwrap();
    for r in &rows.rows {
        if r.get(0) == &Value::Text(name.to_string()) {
            if let Value::Int(v) = r.get(1) {
                return *v;
            }
        }
    }
    0
}

#[test]
fn rollback_restores_pre_txn_state_byte_identical() {
    let db = seeded_db();
    let before = rows_of(&db, "t");
    let mut s = SessionContext::new();
    db.execute_in_session(&mut s, "BEGIN").unwrap();
    db.execute_in_session(&mut s, "INSERT INTO t VALUES (4, 40)")
        .unwrap();
    db.execute_in_session(&mut s, "UPDATE t SET val = val + 1 WHERE id = 1")
        .unwrap();
    db.execute_in_session(&mut s, "DELETE FROM t WHERE id = 2")
        .unwrap();
    // The shared heap is untouched while the transaction is open.
    assert_eq!(rows_of(&db, "t"), before);
    db.execute_in_session(&mut s, "ROLLBACK").unwrap();
    assert_eq!(rows_of(&db, "t"), before);
    assert!(!s.in_txn());
}

#[test]
fn commit_applies_all_statements_atomically() {
    let db = seeded_db();
    let mut s = SessionContext::new();
    db.execute_in_session(&mut s, "BEGIN TRANSACTION").unwrap();
    db.execute_in_session(&mut s, "INSERT INTO t VALUES (4, 40)")
        .unwrap();
    db.execute_in_session(&mut s, "UPDATE t SET val = 99 WHERE id = 1")
        .unwrap();
    db.execute_in_session(&mut s, "DELETE FROM t WHERE id = 3")
        .unwrap();
    db.execute_in_session(&mut s, "COMMIT").unwrap();
    let after = rows_of(&db, "t");
    let expect = {
        let db2 = Database::new();
        db2.execute("CREATE TABLE t (id INT, val INT)").unwrap();
        db2.execute("INSERT INTO t VALUES (1, 99), (2, 20), (4, 40)")
            .unwrap();
        rows_of(&db2, "t")
    };
    assert_eq!(after, expect);
    assert_eq!(metric(&db, "txn.commits"), 1);
    assert!(metric(&db, "txn.commit_ns.count") >= 1);
}

#[test]
fn concurrent_readers_never_observe_uncommitted_rows() {
    let db = std::sync::Arc::new(seeded_db());
    let before = rows_of(&db, "t");
    let mut writer = SessionContext::new();
    db.execute_in_session(&mut writer, "BEGIN").unwrap();
    db.execute_in_session(&mut writer, "UPDATE t SET val = 0")
        .unwrap();
    db.execute_in_session(&mut writer, "INSERT INTO t VALUES (9, 90)")
        .unwrap();
    // Readers on other sessions (and threads) see the committed state,
    // byte for byte.
    let db2 = db.clone();
    let seen = std::thread::spawn(move || {
        let mut reader = SessionContext::new();
        let out = db2
            .execute_in_session(&mut reader, "SELECT id, val FROM t ORDER BY id")
            .unwrap();
        out.rows().unwrap().rows.len()
    })
    .join()
    .unwrap();
    assert_eq!(seen, 3);
    assert_eq!(rows_of(&db, "t"), before);
    db.execute_in_session(&mut writer, "ROLLBACK").unwrap();
    assert_eq!(rows_of(&db, "t"), before);
}

#[test]
fn select_inside_txn_reads_own_writes() {
    let db = seeded_db();
    let mut s = SessionContext::new();
    db.execute_in_session(&mut s, "BEGIN").unwrap();
    db.execute_in_session(&mut s, "INSERT INTO t VALUES (4, 40)")
        .unwrap();
    db.execute_in_session(&mut s, "UPDATE t SET val = 11 WHERE id = 1")
        .unwrap();
    db.execute_in_session(&mut s, "DELETE FROM t WHERE id = 2")
        .unwrap();
    let out = db
        .execute_in_session(&mut s, "SELECT id, val FROM t ORDER BY id")
        .unwrap();
    let rows = &out.rows().unwrap().rows;
    let got: Vec<(i64, i64)> = rows
        .iter()
        .map(|r| {
            let (Value::Int(a), Value::Int(b)) = (r.get(0), r.get(1)) else {
                panic!("non-int row");
            };
            (*a, *b)
        })
        .collect();
    assert_eq!(got, vec![(1, 11), (3, 30), (4, 40)]);
    // Repeated in-transaction updates keep folding onto the overlay.
    db.execute_in_session(&mut s, "UPDATE t SET val = val + 1 WHERE id = 4")
        .unwrap();
    let out = db
        .execute_in_session(&mut s, "SELECT val FROM t WHERE id = 4")
        .unwrap();
    assert_eq!(out.rows().unwrap().rows[0].get(0), &Value::Int(41));
    db.execute_in_session(&mut s, "ROLLBACK").unwrap();
}

#[test]
fn statement_error_auto_aborts_with_structured_error() {
    let db = seeded_db();
    let before = rows_of(&db, "t");
    let mut s = SessionContext::new();
    db.execute_in_session(&mut s, "BEGIN").unwrap();
    db.execute_in_session(&mut s, "INSERT INTO t VALUES (4, 40)")
        .unwrap();
    let open_id = s.txn_id().unwrap();
    // A failing statement aborts the whole transaction and names it.
    let err = db
        .execute_in_session(&mut s, "UPDATE t SET nope = 1")
        .unwrap_err();
    match err {
        CoreError::TxnAborted { txn, ref message } => {
            assert_eq!(txn, open_id);
            assert!(message.contains("nope"), "message: {message}");
        }
        other => panic!("expected TxnAborted, got {other:?}"),
    }
    assert_eq!(s.txn_state(), Some("aborted"));
    // Until ROLLBACK, further statements are refused...
    let err = db
        .execute_in_session(&mut s, "SELECT id FROM t")
        .unwrap_err();
    assert!(format!("{err}").contains("aborted"), "got: {err}");
    // ...and COMMIT reports the abort instead of committing.
    let err = db.execute_in_session(&mut s, "COMMIT").unwrap_err();
    assert!(matches!(err, CoreError::TxnAborted { txn, .. } if txn == open_id));
    assert!(!s.in_txn());
    // Nothing leaked into the heap; the abort was counted.
    assert_eq!(rows_of(&db, "t"), before);
    assert_eq!(metric(&db, "txn.aborts"), 1);

    // The ROLLBACK path also clears a failed transaction.
    db.execute_in_session(&mut s, "BEGIN").unwrap();
    let _ = db
        .execute_in_session(&mut s, "SELECT nope FROM t")
        .unwrap_err();
    assert_eq!(s.txn_state(), Some("aborted"));
    db.execute_in_session(&mut s, "ROLLBACK").unwrap();
    assert!(!s.in_txn());
    assert_eq!(rows_of(&db, "t"), before);
}

/// A schema violation inside a transaction fails the statement that
/// stages it — not the later COMMIT — so the transaction aborts before
/// anything reaches the heap, and COMMIT reports the abort.
#[test]
fn schema_violation_aborts_txn_at_the_statement() {
    for bad in [
        "INSERT INTO t VALUES (2, NULL)",
        "UPDATE t SET v = NULL WHERE id = 1",
    ] {
        let db = Database::new();
        db.execute("CREATE TABLE t (id INT, v INT NOT NULL)")
            .unwrap();
        db.execute("INSERT INTO t VALUES (0, 0)").unwrap();
        let before = rows_of(&db, "t");
        let mut s = SessionContext::new();
        db.execute_in_session(&mut s, "BEGIN").unwrap();
        db.execute_in_session(&mut s, "INSERT INTO t VALUES (1, 1)")
            .unwrap();
        let open_id = s.txn_id().unwrap();
        match db.execute_in_session(&mut s, bad).unwrap_err() {
            CoreError::TxnAborted { txn, message } => {
                assert_eq!(txn, open_id);
                assert!(message.contains("null"), "{bad}: {message}");
            }
            other => panic!("{bad}: expected TxnAborted, got {other:?}"),
        }
        assert_eq!(s.txn_state(), Some("aborted"));
        let err = db.execute_in_session(&mut s, "COMMIT").unwrap_err();
        assert!(
            matches!(err, CoreError::TxnAborted { txn, .. } if txn == open_id),
            "{bad}: {err:?}"
        );
        assert!(!s.in_txn());
        assert_eq!(rows_of(&db, "t"), before, "{bad}");
        assert_eq!(metric(&db, "txn.commits"), 0);
        assert_eq!(metric(&db, "txn.aborts"), 1);
    }
}

#[test]
fn ddl_and_predict_refused_inside_txn() {
    let db = seeded_db();
    let mut s = SessionContext::new();
    db.execute_in_session(&mut s, "BEGIN").unwrap();
    let err = db
        .execute_in_session(&mut s, "CREATE TABLE u (x INT)")
        .unwrap_err();
    assert!(matches!(err, CoreError::TxnAborted { .. }));
    assert_eq!(s.txn_state(), Some("aborted"));
    db.execute_in_session(&mut s, "ROLLBACK").unwrap();

    // A PREDICT that would train a model is refused too: registering
    // and logging the model is a durable side effect a ROLLBACK could
    // not undo.
    db.execute_in_session(&mut s, "BEGIN").unwrap();
    let err = db
        .execute_in_session(&mut s, "PREDICT VALUE OF val FROM t TRAIN ON id")
        .unwrap_err();
    let CoreError::TxnAborted { message, .. } = &err else {
        panic!("expected TxnAborted, got {err:?}");
    };
    assert!(message.contains("trains a model"), "got: {message}");
    assert_eq!(s.txn_state(), Some("aborted"));
    db.execute_in_session(&mut s, "ROLLBACK").unwrap();
    assert_eq!(db.ai.models.num_models(), 0, "no model was trained");
}

#[test]
fn predict_inside_txn_sees_own_uncommitted_insert() {
    let db = seeded_db();
    // Train outside any transaction; later PREDICTs only serve.
    db.execute("PREDICT VALUE OF val FROM t TRAIN ON id")
        .unwrap();
    let predicted_ids = |out: Output| -> Vec<Value> {
        let Output::Prediction(p) = out else {
            panic!("expected a prediction")
        };
        assert!(p.train_outcome.is_none(), "served, not retrained");
        p.result.rows.iter().map(|r| r.get(0).clone()).collect()
    };
    let sql = "PREDICT VALUE OF val FROM t WHERE id >= 3 TRAIN ON id";
    let mut s = SessionContext::new();
    db.execute_in_session(&mut s, "BEGIN").unwrap();
    db.execute_in_session(&mut s, "INSERT INTO t VALUES (7, 70)")
        .unwrap();
    let decisions = metric(&db, "cc.decisions");
    let mine = predicted_ids(db.execute_in_session(&mut s, sql).unwrap());
    assert_eq!(mine, vec![Value::Int(3), Value::Int(7)]);
    assert!(
        metric(&db, "cc.decisions") > decisions,
        "the PREDICT registered its table read with CC"
    );
    assert_eq!(s.txn_state(), Some("active"));
    // Other sessions never see the uncommitted row.
    assert_eq!(predicted_ids(db.execute(sql).unwrap()), vec![Value::Int(3)]);
    db.execute_in_session(&mut s, "ROLLBACK").unwrap();
    assert_eq!(
        predicted_ids(db.execute_in_session(&mut s, sql).unwrap()),
        vec![Value::Int(3)]
    );
}

#[test]
fn txn_control_state_machine_errors() {
    let db = seeded_db();
    let mut s = SessionContext::new();
    assert!(db.execute_in_session(&mut s, "COMMIT").is_err());
    assert!(db.execute_in_session(&mut s, "ROLLBACK").is_err());
    db.execute_in_session(&mut s, "BEGIN").unwrap();
    // Nested BEGIN is refused but — being transaction control, not a
    // statement inside the transaction — does not auto-abort it.
    let err = db.execute_in_session(&mut s, "BEGIN").unwrap_err();
    assert!(matches!(err, CoreError::Unsupported(_)), "got: {err:?}");
    assert_eq!(s.txn_state(), Some("active"));
    db.execute_in_session(&mut s, "UPDATE t SET val = 5 WHERE id = 1")
        .unwrap();
    db.execute_in_session(&mut s, "COMMIT").unwrap();
    let out = db.execute("SELECT val FROM t WHERE id = 1").unwrap();
    assert_eq!(out.rows().unwrap().rows[0].get(0), &Value::Int(5));
}

#[test]
fn first_committer_wins_on_write_write_conflict() {
    let db = seeded_db();
    let mut a = SessionContext::new();
    let mut b = SessionContext::new();
    db.execute_in_session(&mut a, "BEGIN").unwrap();
    db.execute_in_session(&mut b, "BEGIN").unwrap();
    db.execute_in_session(&mut a, "UPDATE t SET val = 100 WHERE id = 1")
        .unwrap();
    db.execute_in_session(&mut b, "UPDATE t SET val = 200 WHERE id = 1")
        .unwrap();
    db.execute_in_session(&mut a, "COMMIT").unwrap();
    // B's pre-image no longer matches: its commit must abort, and its
    // buffered write must not clobber A's.
    let err = db.execute_in_session(&mut b, "COMMIT").unwrap_err();
    assert!(matches!(err, CoreError::TxnAborted { .. }), "got: {err:?}");
    let out = db.execute("SELECT val FROM t WHERE id = 1").unwrap();
    assert_eq!(out.rows().unwrap().rows[0].get(0), &Value::Int(100));
    assert_eq!(metric(&db, "txn.commits"), 1);
    assert!(metric(&db, "txn.aborts") >= 1);
}

#[test]
fn rollback_counter_and_empty_txns() {
    let db = seeded_db();
    let mut s = SessionContext::new();
    db.execute_in_session(&mut s, "BEGIN").unwrap();
    db.execute_in_session(&mut s, "ROLLBACK WORK").unwrap();
    db.execute_in_session(&mut s, "BEGIN WORK").unwrap();
    db.execute_in_session(&mut s, "COMMIT WORK").unwrap();
    assert_eq!(metric(&db, "txn.rollbacks"), 1);
    assert_eq!(metric(&db, "txn.commits"), 1);
}

#[test]
fn show_cc_reports_policy_and_decisions() {
    let db = seeded_db();
    let mut s = SessionContext::new();
    db.execute_in_session(&mut s, "BEGIN").unwrap();
    db.execute_in_session(&mut s, "UPDATE t SET val = val + 1 WHERE id = 1")
        .unwrap();
    db.execute_in_session(&mut s, "COMMIT").unwrap();
    let out = db.execute("SHOW cc").unwrap();
    let rows = &out.rows().unwrap().rows;
    let get = |k: &str| {
        rows.iter()
            .find(|r| r.get(0) == &Value::Text(k.to_string()))
            .unwrap_or_else(|| panic!("missing SHOW cc row '{k}'"))
            .get(1)
            .clone()
    };
    assert_eq!(get("policy"), Value::Text("neurdb-cc".into()));
    let Value::Int(decisions) = get("decisions") else {
        panic!("decisions not an int");
    };
    assert!(decisions > 0, "the learned policy was never consulted");
    assert!(metric(&db, "cc.decisions") > 0);
    // Switching the policy is observable and effective for new txns.
    db.execute("SET cc_policy = '2pl'").unwrap();
    let out = db.execute("SHOW cc").unwrap();
    assert!(out
        .rows()
        .unwrap()
        .rows
        .iter()
        .any(|r| r.get(1) == &Value::Text("2pl".into())));
    db.execute("SET cc_policy = 'learned'").unwrap();
    // Unknown policies are refused.
    assert!(db.execute("SET cc_policy = 'chaos'").is_err());
}

#[test]
fn cc_adaptation_loop_runs_on_cadence() {
    let db = seeded_db();
    db.execute("SET cc_adapt_every = 2").unwrap();
    let mut s = SessionContext::new();
    for i in 0..4 {
        db.execute_in_session(&mut s, "BEGIN").unwrap();
        db.execute_in_session(&mut s, &format!("UPDATE t SET val = {i} WHERE id = 1"))
            .unwrap();
        db.execute_in_session(&mut s, "COMMIT").unwrap();
    }
    assert!(metric(&db, "cc.adaptations") >= 1);
    // Manual trigger also works once decisions have been sampled.
    db.execute_in_session(&mut s, "BEGIN").unwrap();
    db.execute_in_session(&mut s, "UPDATE t SET val = 7 WHERE id = 2")
        .unwrap();
    db.execute_in_session(&mut s, "COMMIT").unwrap();
    assert!(db.cc_adapt_now().is_some());
}

#[test]
fn default_session_supports_scripted_txns() {
    // The embedded convenience API routes everything through the shared
    // default session; a script with BEGIN...COMMIT works there too.
    let db = seeded_db();
    db.execute_script("BEGIN; UPDATE t SET val = 1 WHERE id = 1; COMMIT")
        .unwrap();
    let out = db.execute("SELECT val FROM t WHERE id = 1").unwrap();
    assert_eq!(out.rows().unwrap().rows[0].get(0), &Value::Int(1));
    // A rollback script leaves no trace.
    db.execute_script("BEGIN; DELETE FROM t; ROLLBACK").unwrap();
    assert_eq!(rows_of(&db, "t").len(), 3);
}

#[test]
fn explain_and_show_allowed_inside_txn() {
    let db = seeded_db();
    let mut s = SessionContext::new();
    db.execute_in_session(&mut s, "BEGIN").unwrap();
    db.execute_in_session(&mut s, "INSERT INTO t VALUES (4, 40)")
        .unwrap();
    let out = db
        .execute_in_session(&mut s, "EXPLAIN SELECT id FROM t")
        .unwrap();
    assert!(matches!(out, Output::Rows(_)));
    let out = db.execute_in_session(&mut s, "SHOW parallelism").unwrap();
    assert!(matches!(out, Output::Rows(_)));
    assert_eq!(s.txn_state(), Some("active"));
    db.execute_in_session(&mut s, "ROLLBACK").unwrap();
}

/// Read-your-own-writes merges the transaction's overlay into the scans
/// instead of copying the table: a scan with an overlay says so in
/// EXPLAIN and stays serial even when the session forces parallelism,
/// hidden rows stay hidden, and a moved key is found by its new value
/// although the index still files the row under the old one.
#[test]
fn overlay_scans_stay_serial_and_merge_own_writes() {
    let db = Database::new();
    db.execute("CREATE TABLE t (id INT, val INT)").unwrap();
    let rows: Vec<String> = (0..2000).map(|i| format!("({i}, {i})")).collect();
    db.execute(&format!("INSERT INTO t VALUES {}", rows.join(", ")))
        .unwrap();
    db.execute("CREATE INDEX ON t (id)").unwrap();
    let mut s = SessionContext::new();
    for set in ["SET parallelism = 4", "SET parallel_min_rows = 0"] {
        db.execute_in_session(&mut s, set).unwrap();
    }
    let explain = |s: &mut SessionContext, sql: &str| -> String {
        let out = db.execute_in_session(s, &format!("EXPLAIN {sql}")).unwrap();
        let lines: Vec<String> = out
            .rows()
            .unwrap()
            .rows
            .iter()
            .map(|r| r.get(0).as_str().unwrap().to_string())
            .collect();
        lines.join("\n")
    };
    let count = |s: &mut SessionContext, sql: &str| -> usize {
        let out = db.execute_in_session(s, sql).unwrap();
        out.rows().unwrap().rows.len()
    };
    let scalar = |s: &mut SessionContext, sql: &str| -> Value {
        let out = db.execute_in_session(s, sql).unwrap();
        out.rows().unwrap().rows[0].get(0).clone()
    };
    assert!(explain(&mut s, "SELECT id FROM t").contains("Gather(dop=4)"));

    db.execute_in_session(&mut s, "BEGIN").unwrap();
    db.execute_in_session(&mut s, "UPDATE t SET id = id + 5000 WHERE id = 7")
        .unwrap();
    db.execute_in_session(&mut s, "INSERT INTO t VALUES (9999, 1)")
        .unwrap();
    let plan = explain(&mut s, "SELECT id FROM t");
    assert!(!plan.contains("Gather"), "{plan}");
    assert!(
        plan.contains("overlay=[-1 +2]") && plan.contains("dop=1"),
        "{plan}"
    );
    let plan = explain(&mut s, "SELECT id FROM t WHERE id = 5007");
    assert!(
        plan.contains("IndexScan(t id=5007)") && plan.contains("overlay"),
        "{plan}"
    );

    assert_eq!(count(&mut s, "SELECT id FROM t WHERE id = 5007"), 1);
    assert_eq!(count(&mut s, "SELECT id FROM t WHERE id = 7"), 0);
    assert_eq!(scalar(&mut s, "SELECT COUNT(*) FROM t"), Value::Int(2001));
    // A self-join reads the overlay through both scans, once each.
    assert_eq!(
        scalar(&mut s, "SELECT COUNT(*) FROM t a, t b WHERE a.id = b.id"),
        Value::Int(2001)
    );
    // Other sessions still see the committed table only.
    assert_eq!(
        scalar(&mut SessionContext::new(), "SELECT COUNT(*) FROM t"),
        Value::Int(2000)
    );
    db.execute_in_session(&mut s, "COMMIT").unwrap();
    assert_eq!(count(&mut s, "SELECT id FROM t WHERE id = 5007"), 1);
    assert_eq!(scalar(&mut s, "SELECT COUNT(*) FROM t"), Value::Int(2001));
}
