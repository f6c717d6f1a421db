//! Kill-and-reopen crash recovery: a TPC-C-style SQL workload with
//! trained models, crashed at randomized WAL positions, must recover
//! exactly the durable prefix — committed rows, index contents, catalog,
//! and the model version chain — with uncommitted work absent.
//!
//! Harness: the workload snapshots a state digest after every statement
//! along with the WAL record count at that point. A "kill" at record
//! cutoff `N` (the log tail past `N` is lost, optionally torn) must
//! recover the state of the last snapshot whose commit record is `≤ N`.

use neurdb_core::{Database, Output, SessionContext};
use neurdb_engine::Mid;
use neurdb_storage::Value;
use neurdb_wal::{DurableStoreOptions, FsyncPolicy, WalOptions};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::path::PathBuf;

fn tmpdir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("neurdb-recovery-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

fn opts() -> DurableStoreOptions {
    DurableStoreOptions {
        frames: 128,
        wal: WalOptions {
            segment_bytes: 64 << 10,
            fsync: FsyncPolicy::Never,
            ..WalOptions::default()
        },
        ..Default::default()
    }
}

/// Deterministic digest of everything recovery must preserve: sorted
/// table rows, index lookup results, and bound model version chains.
fn digest(db: &Database) -> String {
    let mut out = String::new();
    for name in db.table_names() {
        let t = db.table(&name).unwrap();
        let mut rows: Vec<String> = t
            .scan()
            .unwrap()
            .into_iter()
            .map(|(_, r)| format!("{r:?}"))
            .collect();
        rows.sort();
        out.push_str(&format!("table {name} ({} rows)\n", rows.len()));
        for r in rows {
            out.push_str(&r);
            out.push('\n');
        }
        // Index contents must agree with scans: digest every indexed
        // column through lookups.
        for col in t.indexed_columns() {
            let mut keys: Vec<Value> = t
                .scan()
                .unwrap()
                .iter()
                .map(|(_, r)| r.get(col).clone())
                .collect();
            keys.sort_by(|a, b| a.total_cmp(b));
            keys.dedup();
            for k in keys {
                let mut hits: Vec<String> = t
                    .lookup(col, &k)
                    .unwrap()
                    .into_iter()
                    .map(|(_, r)| format!("{r:?}"))
                    .collect();
                hits.sort();
                out.push_str(&format!("idx {name}.{col} {k:?} -> {hits:?}\n"));
            }
        }
    }
    out
}

/// Model-chain digest for a bound model: version timestamps plus a CRC
/// of every version's assembled layer states.
fn model_digest(db: &Database, mid: Mid) -> String {
    let versions = db.ai.models.versions(mid).unwrap();
    let mut out = format!("mid {mid} versions {versions:?}\n");
    for v in &versions {
        let states = db.ai.models.layer_states_at(mid, *v).unwrap();
        let mut crc = 0u32;
        for s in &states {
            crc ^= neurdb_wal::crc32(s);
        }
        out.push_str(&format!("  v{v}: {} layers crc {crc:08x}\n", states.len()));
    }
    out
}

/// One deterministic TPC-C-flavored workload step. Returns the SQL.
fn workload_statement(i: usize, rng: &mut StdRng) -> String {
    match i {
        0 => "CREATE TABLE warehouse (w_id INT PRIMARY KEY, w_tax FLOAT, w_ytd FLOAT)".into(),
        1 => "CREATE TABLE customer (c_id INT PRIMARY KEY, c_w INT, c_balance FLOAT, c_payments INT)".into(),
        2 => "CREATE INDEX ON customer (c_id)".into(),
        3 => {
            // Initial load: multi-row insert.
            let rows: Vec<String> = (0..4)
                .map(|w| format!("({w}, {:.2}, 0.0)", rng.gen_range(0.0..0.2)))
                .collect();
            format!("INSERT INTO warehouse VALUES {}", rows.join(", "))
        }
        4 => {
            let rows: Vec<String> = (0..60)
                .map(|c| {
                    format!(
                        "({c}, {}, {:.2}, {})",
                        c % 4,
                        rng.gen_range(-100.0..4000.0),
                        rng.gen_range(0..5)
                    )
                })
                .collect();
            format!("INSERT INTO customer VALUES {}", rows.join(", "))
        }
        _ => match rng.gen_range(0..10) {
            // New order: insert a fresh customer row (ids grow).
            0..=2 => format!(
                "INSERT INTO customer VALUES ({}, {}, {:.2}, 0)",
                1000 + i,
                i % 4,
                rng.gen_range(0.0..100.0)
            ),
            // Payment: update balances in a warehouse.
            3..=6 => format!(
                "UPDATE customer SET c_balance = c_balance + {:.2}, c_payments = c_payments + 1 WHERE c_w = {}",
                rng.gen_range(-50.0..50.0),
                rng.gen_range(0..4)
            ),
            // Warehouse YTD roll-up.
            7..=8 => format!(
                "UPDATE warehouse SET w_ytd = w_ytd + {:.2} WHERE w_id = {}",
                rng.gen_range(0.0..500.0),
                rng.gen_range(0..4)
            ),
            // Delivery/cleanup: delete one late-added customer.
            _ => format!("DELETE FROM customer WHERE c_id = {}", 1000 + rng.gen_range(5..i.max(6))),
        },
    }
}

struct Snapshot {
    /// WAL records appended when this state was fully committed.
    records: u64,
    digest: String,
    model: Option<(Mid, String)>,
}

/// Run the workload until the WAL has at least `crash_at` records (or the
/// script ends), snapshotting after every action. Returns snapshots and
/// the bound model id, leaving the directory "crashed" at `crash_at`.
fn run_until_crash(dir: &PathBuf, crash_at: u64, torn: bool, seed: u64) -> Vec<Snapshot> {
    let mut db = Database::open_with(dir, opts()).unwrap();
    db.train_sample_budget = 2_000; // keep in-test training fast
                                    // Arm the crash point up front: everything the workload logs past
                                    // record `crash_at` silently never reaches the disk, exactly like an
                                    // OS losing its write-back cache at power-off. The session cannot
                                    // tell; it keeps operating on doomed state.
    db.store().lose_after_records(crash_at, torn);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut snapshots = Vec::new();
    let mut bound_mid: Option<Mid> = None;
    let mut past_crash = 0;
    let total_steps = 48;
    for i in 0..total_steps {
        // Interleave model work and a checkpoint at fixed positions.
        if i == 20 {
            let out = db
                .execute("PREDICT VALUE OF c_balance FROM customer TRAIN ON c_w, c_payments")
                .unwrap();
            if let Output::Prediction(p) = out {
                bound_mid = Some(p.mid);
            }
        } else if i == 30 {
            db.finetune("customer", "c_balance").unwrap();
        } else if i == 25 {
            // Only checkpoint comfortably before the crash point: a real
            // power-off cannot be outrun by checkpoint file writes.
            if db.wal_stats().unwrap().appended_records + 40 < crash_at {
                db.checkpoint().unwrap();
            }
        } else {
            let sql = workload_statement(i, &mut rng);
            db.execute(&sql).unwrap();
        }
        let records = db.wal_stats().unwrap().appended_records;
        snapshots.push(Snapshot {
            records,
            digest: digest(&db),
            model: bound_mid.map(|m| (m, model_digest(&db, m))),
        });
        // Run a few statements past the crash point so recovery has a
        // genuinely lost (but in-memory visible) tail to discard.
        if records >= crash_at {
            past_crash += 1;
            if past_crash >= 3 {
                break;
            }
        }
    }
    // Kill: drop without any clean shutdown.
    drop(db);
    snapshots
}

#[test]
fn kill_and_reopen_at_randomized_points() {
    let mut seed_rng = StdRng::seed_from_u64(0xC1DA);
    // Probe the record count of a full run once, then crash at random
    // points across the whole workload (early, mid-model-training, late).
    let dir = tmpdir("probe");
    let total = {
        let snaps = run_until_crash(&dir, u64::MAX, false, 7);
        snaps.last().unwrap().records
    };
    std::fs::remove_dir_all(&dir).unwrap();
    assert!(total > 60, "workload too small to be interesting: {total}");

    for case in 0..6 {
        let crash_at = seed_rng.gen_range(1..=total);
        let torn = case % 2 == 0;
        let dir = tmpdir(&format!("kill-{case}"));
        let snapshots = run_until_crash(&dir, crash_at, torn, 7);
        // Expected state: the last fully-durable action.
        let expected = snapshots.iter().rev().find(|s| s.records <= crash_at);

        let db = Database::open_with(&dir, opts()).unwrap();
        match expected {
            Some(snap) => {
                assert_eq!(
                    digest(&db),
                    snap.digest,
                    "case {case}: crash at {crash_at}/{total} records (torn={torn})"
                );
                if let Some((mid, model)) = &snap.model {
                    assert_eq!(
                        &model_digest(&db, *mid),
                        model,
                        "case {case}: model chain must survive crash at {crash_at}"
                    );
                }
            }
            None => {
                // Crash before the first action became durable.
                assert!(db.table_names().is_empty());
            }
        }
        drop(db);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

#[test]
fn recovered_model_serves_without_retraining() {
    let dir = tmpdir("serve");
    let trained_mid;
    {
        let db = Database::open_with(&dir, opts()).unwrap();
        db.execute("CREATE TABLE review (id INT PRIMARY KEY, brand INT, stars INT, score FLOAT)")
            .unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        for i in 0..80 {
            db.execute(&format!(
                "INSERT INTO review VALUES ({i}, {}, {}, {:.2})",
                i % 4,
                i % 5,
                (i % 5) as f64 + rng.gen_range(0.0..0.3)
            ))
            .unwrap();
        }
        let out = db
            .execute("PREDICT VALUE OF score FROM review TRAIN ON brand, stars")
            .unwrap();
        let Output::Prediction(p) = out else { panic!() };
        assert!(p.train_outcome.is_some(), "first PREDICT trains");
        trained_mid = p.mid;
        // Crash without checkpoint or clean shutdown.
    }
    {
        let db = Database::open_with(&dir, opts()).unwrap();
        // The version chain survived...
        assert!(!db.ai.models.versions(trained_mid).unwrap().is_empty());
        // ...and PREDICT serves it instead of retraining.
        let out = db
            .execute("PREDICT VALUE OF score FROM review WHERE id < 10 TRAIN ON brand, stars")
            .unwrap();
        let Output::Prediction(p) = out else { panic!() };
        assert_eq!(p.mid, trained_mid, "recovered binding reuses the model");
        assert!(
            p.train_outcome.is_none(),
            "PREDICT after recovery must not retrain"
        );
        assert!(!p.result.rows.is_empty());
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn incremental_versions_survive_checkpoint_and_crash() {
    let dir = tmpdir("versions");
    let mid;
    let versions_before;
    let states_before;
    {
        let db = Database::open_with(&dir, opts()).unwrap();
        db.execute("CREATE TABLE m (id INT PRIMARY KEY, x INT, y INT, label FLOAT)")
            .unwrap();
        for i in 0..60 {
            db.execute(&format!(
                "INSERT INTO m VALUES ({i}, {}, {}, {:.1})",
                i % 7,
                i % 3,
                (i % 3) as f64
            ))
            .unwrap();
        }
        let Output::Prediction(p) = db
            .execute("PREDICT VALUE OF label FROM m TRAIN ON x, y")
            .unwrap()
        else {
            panic!()
        };
        mid = p.mid;
        // Checkpoint *between* versions: v1 lands in the snapshot, the
        // incremental update only in the log.
        db.checkpoint().unwrap();
        db.finetune("m", "label").unwrap();
        versions_before = db.ai.models.versions(mid).unwrap();
        states_before = db
            .ai
            .models
            .layer_states_at(mid, *versions_before.last().unwrap())
            .unwrap();
        assert!(versions_before.len() >= 2, "finetune adds a version");
    }
    {
        let db = Database::open_with(&dir, opts()).unwrap();
        assert_eq!(db.ai.models.versions(mid).unwrap(), versions_before);
        let states = db
            .ai
            .models
            .layer_states_at(mid, *versions_before.last().unwrap())
            .unwrap();
        assert_eq!(states, states_before, "layer blobs byte-identical");
        // And still executable.
        let mut m = db.ai.models.materialize_latest(mid).unwrap();
        let x = neurdb_nn::Matrix::from_vec(1, 2, vec![1.0, 2.0]);
        let _ = m.forward(&x);
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

// ------------------- multi-statement transactions ----------------------

/// Fixed transactional workload for the txn-crash tests: seed a table,
/// commit one multi-statement transaction, then leave a second
/// transaction open when the process dies. Returns the WAL record count
/// before and after the COMMIT plus digests of the seeded and committed
/// states, so callers can place crash points on either side of the
/// commit record.
fn txn_crash_workload(dir: &PathBuf, crash_at: u64, torn: bool) -> (u64, u64, String, String) {
    let db = Database::open_with(dir, opts()).unwrap();
    db.store().lose_after_records(crash_at, torn);
    db.execute("CREATE TABLE acct (id INT PRIMARY KEY, bal INT)")
        .unwrap();
    db.execute("INSERT INTO acct VALUES (1, 100), (2, 200), (3, 300)")
        .unwrap();
    let seeded = digest(&db);
    let before = db.wal_stats().unwrap().appended_records;

    let mut s = SessionContext::new();
    db.execute_in_session(&mut s, "BEGIN").unwrap();
    db.execute_in_session(&mut s, "UPDATE acct SET bal = bal - 50 WHERE id = 1")
        .unwrap();
    db.execute_in_session(&mut s, "UPDATE acct SET bal = bal + 50 WHERE id = 2")
        .unwrap();
    db.execute_in_session(&mut s, "INSERT INTO acct VALUES (4, 400)")
        .unwrap();
    // Deferred apply: an open transaction writes nothing to the log.
    assert_eq!(
        db.wal_stats().unwrap().appended_records,
        before,
        "open transaction must not reach the WAL before COMMIT"
    );
    db.execute_in_session(&mut s, "COMMIT").unwrap();
    let after = db.wal_stats().unwrap().appended_records;
    let committed = digest(&db);

    // A second transaction is mid-flight when the process dies; its
    // staged writes live only in the session and must leave zero trace.
    let mut s2 = SessionContext::new();
    db.execute_in_session(&mut s2, "BEGIN").unwrap();
    db.execute_in_session(&mut s2, "DELETE FROM acct WHERE id = 3")
        .unwrap();
    db.execute_in_session(&mut s2, "UPDATE acct SET bal = 0 WHERE id = 1")
        .unwrap();
    drop(db); // kill without shutdown
    (before, after, seeded, committed)
}

/// Crash with transactions mid-flight: a committed transaction recovers
/// exactly (all statements or none), a crash anywhere inside the
/// commit's own record run erases the whole transaction, and a
/// transaction still open at the kill leaves zero trace.
#[test]
fn txn_commit_is_atomic_across_kill_and_reopen() {
    // Probe pass: learn where the commit's records land.
    let dir = tmpdir("txn-probe");
    let (before, after, seeded, committed) = txn_crash_workload(&dir, u64::MAX, false);
    std::fs::remove_dir_all(&dir).unwrap();
    assert!(
        after > before,
        "COMMIT must append log records ({before}..{after})"
    );

    // Survive the kill with the full commit durable: recover exactly the
    // committed state — and never any of the open transaction.
    let dir = tmpdir("txn-committed");
    let (_, _, _, expect) = txn_crash_workload(&dir, after, false);
    assert_eq!(expect, committed);
    let db = Database::open_with(&dir, opts()).unwrap();
    assert_eq!(digest(&db), committed, "committed txn must recover exactly");
    drop(db);
    std::fs::remove_dir_all(&dir).unwrap();

    // Crash at every point inside the commit's record run (including
    // torn final records): the transaction is all-or-nothing, so every
    // cut before the commit record recovers the pre-transaction state.
    for cut in before..after {
        for &torn in &[false, true] {
            let dir = tmpdir(&format!("txn-cut-{cut}-{torn}"));
            let _ = txn_crash_workload(&dir, cut, torn);
            let db = Database::open_with(&dir, opts()).unwrap();
            assert_eq!(
                digest(&db),
                seeded,
                "cut at {cut}/{after} (torn={torn}): partial transaction must vanish"
            );
            drop(db);
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }
}

/// The serving-path durable-prefix check from the issue: concurrent
/// clients drive multi-statement transactions through a real server
/// over a durable store; after a reopen, every acknowledged COMMIT is
/// present in full and every ROLLBACK left zero trace.
#[test]
fn concurrent_client_txns_recover_durable_prefix() {
    use neurdb_server::{client::Client, ClientError, Server, ServerConfig};
    use std::sync::Arc;

    const CLIENTS: usize = 4;
    const TXNS: usize = 8;

    let dir = tmpdir("txn-serve");
    {
        let db = Arc::new(Database::open_with(&dir, opts()).unwrap());
        db.execute("CREATE TABLE ledger (id INT PRIMARY KEY, tid INT, v INT)")
            .unwrap();
        let handle = Server::start(db, "127.0.0.1:0", ServerConfig::default()).unwrap();
        let addr = handle.local_addr();

        let mut threads = Vec::new();
        for t in 0..CLIENTS {
            threads.push(std::thread::spawn(move || {
                let mut c = Client::connect(addr).unwrap();
                for i in 0..TXNS {
                    let id = (t * 10_000 + i) as i64;
                    // Committed two-row transaction; concurrent commits
                    // can conflict (first-committer-wins), so retry
                    // until this transaction's COMMIT is acknowledged.
                    let mut attempts = 0u32;
                    'retry: loop {
                        attempts += 1;
                        assert!(attempts < 2_000, "client {t} txn {i}: retry storm");
                        if attempts > 1 {
                            // Brief backoff so the adaptation loop's
                            // contention signal can cool off.
                            std::thread::sleep(std::time::Duration::from_micros(
                                200 * u64::from(attempts.min(20)),
                            ));
                        }
                        c.affected("BEGIN").unwrap();
                        for stmt in [
                            format!("INSERT INTO ledger VALUES ({id}, {t}, {i})"),
                            format!("INSERT INTO ledger VALUES ({}, {t}, {i})", id + 5_000),
                        ] {
                            match c.affected(&stmt) {
                                Ok(_) => {}
                                Err(ClientError::TxnAborted(_)) => {
                                    let _ = c.affected("ROLLBACK");
                                    continue 'retry;
                                }
                                Err(e) => panic!("unexpected error: {e}"),
                            }
                        }
                        match c.affected("COMMIT") {
                            Ok(_) => break,
                            Err(ClientError::TxnAborted(_)) => {
                                let _ = c.affected("ROLLBACK");
                            }
                            Err(e) => panic!("unexpected COMMIT error: {e}"),
                        }
                    }
                    // Rolled-back transaction: must never become durable.
                    c.affected("BEGIN").unwrap();
                    let _ = c.affected(&format!(
                        "INSERT INTO ledger VALUES ({}, {t}, 999)",
                        id + 7_000
                    ));
                    let _ = c.affected("ROLLBACK");
                }
                c.close().unwrap();
            }));
        }
        for th in threads {
            th.join().unwrap();
        }
        handle.shutdown();
    }

    // Kill-and-reopen: the acknowledged commits are the durable prefix.
    let db = Database::open_with(&dir, opts()).unwrap();
    let count = |sql: &str| -> i64 {
        let out = db.execute(sql).unwrap();
        match out.rows().unwrap().rows[0].get(0) {
            Value::Int(n) => *n,
            other => panic!("expected COUNT, got {other:?}"),
        }
    };
    assert_eq!(
        count("SELECT COUNT(*) FROM ledger"),
        (CLIENTS * TXNS * 2) as i64,
        "every acknowledged COMMIT recovers in full"
    );
    for t in 0..CLIENTS {
        assert_eq!(
            count(&format!("SELECT COUNT(*) FROM ledger WHERE tid = {t}")),
            (TXNS * 2) as i64
        );
    }
    assert_eq!(
        count("SELECT COUNT(*) FROM ledger WHERE v = 999"),
        0,
        "rolled-back transactions leave zero trace"
    );
    drop(db);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A statement that fails on a schema constraint leaves no trace: the
/// live state equals the pre-statement state, nothing reaches the log,
/// and a reopen recovers the same state.
#[test]
fn failed_statement_leaves_no_trace_live_or_recovered() {
    let dir = tmpdir("failed-stmt");
    let before = {
        let db = Database::open_with(&dir, opts()).unwrap();
        db.execute("CREATE TABLE t (id INT, v INT NOT NULL)")
            .unwrap();
        db.execute("CREATE INDEX ON t (id)").unwrap();
        db.execute("INSERT INTO t VALUES (1, 1), (2, 2), (3, 3)")
            .unwrap();
        let before = digest(&db);
        let records = db.wal_stats().unwrap().appended_records;
        for bad in [
            "INSERT INTO t VALUES (4, 4), (5, NULL), (6, 6)",
            "UPDATE t SET v = 10 / (id - 2)",
        ] {
            assert!(db.execute(bad).is_err(), "{bad} must fail");
            assert_eq!(digest(&db), before, "live state after {bad}");
        }
        assert_eq!(
            db.wal_stats().unwrap().appended_records,
            records,
            "a failed statement must not reach the WAL"
        );
        before
    };
    let db = Database::open_with(&dir, opts()).unwrap();
    assert_eq!(digest(&db), before, "recovered state");
    drop(db);
    std::fs::remove_dir_all(&dir).unwrap();
}
