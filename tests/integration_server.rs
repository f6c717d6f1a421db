//! End-to-end tests for the `neurdb-server` subsystem: wire-protocol
//! round trips, per-session isolation of `SET` state (the PR 5
//! regression: `SET parallelism` used to be last-writer-wins across the
//! whole process), structured error frames, admission control, graceful
//! shutdown, and a many-clients-over-a-durable-store smoke test that
//! reuses the kill-and-reopen recovery pattern.
//!
//! Every test arms a watchdog that aborts the process on deadlock, so a
//! hung accept loop or unjoined worker fails CI instead of hanging it.

use neurdb_core::{Database, SessionContext};
use neurdb_server::protocol::{
    decode_response, read_frame, write_request, Request, Response, WireErrorKind,
};
use neurdb_server::{client::Client, ClientError, Server, ServerConfig};
use neurdb_storage::Value;
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

/// Aborts the whole process if the owning test runs past `secs` — a
/// hard per-test timeout (a deadlocked server would otherwise hang
/// `cargo test` until the CI job limit).
struct Watchdog {
    done: Arc<AtomicBool>,
}

impl Watchdog {
    fn arm(name: &'static str, secs: u64) -> Watchdog {
        let done = Arc::new(AtomicBool::new(false));
        let flag = done.clone();
        thread::spawn(move || {
            let deadline = Instant::now() + Duration::from_secs(secs);
            while Instant::now() < deadline {
                if flag.load(Ordering::Relaxed) {
                    return;
                }
                thread::sleep(Duration::from_millis(100));
            }
            eprintln!("watchdog: test '{name}' exceeded {secs}s, aborting process");
            std::process::abort();
        });
        Watchdog { done }
    }
}

impl Drop for Watchdog {
    fn drop(&mut self) {
        self.done.store(true, Ordering::Relaxed);
    }
}

fn start_volatile() -> neurdb_server::ServerHandle {
    let db = Arc::new(Database::new());
    Server::start(db, "127.0.0.1:0", ServerConfig::default()).unwrap()
}

fn plan_text(c: &mut Client, sql: &str) -> String {
    let rows = c.query(sql).unwrap();
    rows.rows
        .iter()
        .map(|r| match &r[0] {
            Value::Text(s) => s.clone(),
            other => panic!("plan row should be text, got {other:?}"),
        })
        .collect::<Vec<_>>()
        .join("\n")
}

#[test]
fn wire_roundtrip_typed_results() {
    let _w = Watchdog::arm("wire_roundtrip_typed_results", 120);
    let handle = start_volatile();
    let mut c = Client::connect(handle.local_addr()).unwrap();
    assert!(c.session_id() > 0);

    assert_eq!(
        c.affected("CREATE TABLE items (id INT PRIMARY KEY, name TEXT, price FLOAT, live BOOL)")
            .unwrap(),
        0
    );
    assert_eq!(
        c.affected("INSERT INTO items VALUES (1, 'apple', 1.5, TRUE), (2, 'pear', NULL, FALSE)")
            .unwrap(),
        2
    );

    // Every value type survives the wire with its type intact.
    let rows = c
        .query("SELECT id, name, price, live FROM items ORDER BY id")
        .unwrap();
    assert_eq!(rows.columns, vec!["id", "name", "price", "live"]);
    assert_eq!(
        rows.rows[0],
        vec![
            Value::Int(1),
            Value::Text("apple".into()),
            Value::Float(1.5),
            Value::Bool(true)
        ]
    );
    assert_eq!(rows.rows[1][2], Value::Null);

    assert_eq!(
        c.affected("UPDATE items SET price = 2.0 WHERE id = 2")
            .unwrap(),
        1
    );
    assert_eq!(c.affected("DELETE FROM items WHERE id = 1").unwrap(), 1);

    // EXPLAIN output arrives as plan rows.
    let plan = plan_text(&mut c, "EXPLAIN SELECT id FROM items WHERE id = 2");
    assert!(plan.contains("Scan") || plan.contains("Project"), "{plan}");

    // Aggregates and SHOW work through the same path.
    let agg = c.query("SELECT COUNT(*) FROM items").unwrap();
    assert_eq!(agg.rows[0][0], Value::Int(1));
    let tables = c.query("SHOW TABLES").unwrap();
    assert_eq!(tables.rows, vec![vec![Value::Text("items".into())]]);

    c.close().unwrap();
    handle.shutdown();
}

/// The PR 5 satellite regression, at the core-API level: two sessions
/// on one `Database` with different `parallelism` settings must plan
/// different `dop`s *concurrently*, without interfering with each other
/// or with the default session (before `SessionContext`, the last
/// `SET parallelism` won globally).
#[test]
fn concurrent_sessions_plan_independent_dops() {
    let _w = Watchdog::arm("concurrent_sessions_plan_independent_dops", 120);
    let db = Arc::new(Database::new());
    db.execute("CREATE TABLE t (a INT, b INT)").unwrap();
    let mut stmt = String::from("INSERT INTO t VALUES ");
    for i in 0..64 {
        if i > 0 {
            stmt.push(',');
        }
        stmt.push_str(&format!("({i}, {})", i % 8));
    }
    db.execute(&stmt).unwrap();

    let explain = |session: &mut SessionContext, db: &Database| -> String {
        let out = db
            .execute_in_session(session, "EXPLAIN SELECT a FROM t WHERE b = 3")
            .unwrap();
        out.rows()
            .unwrap()
            .rows
            .iter()
            .map(|r| r.get(0).as_str().unwrap().to_string())
            .collect::<Vec<_>>()
            .join("\n")
    };

    let mut threads = Vec::new();
    for (parallelism, expect_gather) in [(4usize, true), (2, true), (1, false)] {
        let db = db.clone();
        threads.push(thread::spawn(move || {
            let mut session = SessionContext::new();
            // Force-parallelize regardless of table size so the dop in
            // the plan equals the session's setting exactly.
            db.execute_in_session(&mut session, "SET parallel_min_rows = 0")
                .unwrap();
            db.execute_in_session(&mut session, &format!("SET parallelism = {parallelism}"))
                .unwrap();
            for _ in 0..50 {
                let plan = explain(&mut session, &db);
                if expect_gather {
                    assert!(
                        plan.contains(&format!("Gather(dop={parallelism})")),
                        "session with parallelism={parallelism} planned: {plan}"
                    );
                } else {
                    assert!(
                        !plan.contains("Gather"),
                        "serial session planned a Gather: {plan}"
                    );
                }
            }
            assert_eq!(session.parallelism(), parallelism);
        }));
    }
    for t in threads {
        t.join().unwrap();
    }
    // The default session never saw any of it.
    assert_eq!(db.parallelism(), 1);
}

/// The same isolation property through the server: four concurrent
/// clients each `SET` a different parallelism and must each see their
/// own `dop` in EXPLAIN / EXPLAIN ANALYZE output, interleaved.
#[test]
fn wire_sessions_isolate_parallelism() {
    let _w = Watchdog::arm("wire_sessions_isolate_parallelism", 120);
    let db = Arc::new(Database::new());
    db.execute("CREATE TABLE events (eid INT PRIMARY KEY, kind INT)")
        .unwrap();
    let mut stmt = String::from("INSERT INTO events VALUES ");
    for i in 0..256 {
        if i > 0 {
            stmt.push(',');
        }
        stmt.push_str(&format!("({i}, {})", i % 16));
    }
    db.execute(&stmt).unwrap();
    let handle = Server::start(db, "127.0.0.1:0", ServerConfig::default()).unwrap();
    let addr = handle.local_addr();

    let mut threads = Vec::new();
    for parallelism in 1..=4usize {
        threads.push(thread::spawn(move || {
            let mut c = Client::connect(addr).unwrap();
            c.affected("SET parallel_min_rows = 0").unwrap();
            c.affected(&format!("SET parallelism = {parallelism}"))
                .unwrap();
            for round in 0..20 {
                // Alternate plain EXPLAIN with EXPLAIN ANALYZE so the
                // executed dop is covered too, and run the real query to
                // confirm results are unaffected by other sessions.
                let stmt = if round % 2 == 0 {
                    "EXPLAIN SELECT eid FROM events WHERE kind = 3"
                } else {
                    "EXPLAIN ANALYZE SELECT eid FROM events WHERE kind = 3"
                };
                let plan = {
                    let rows = c.query(stmt).unwrap();
                    rows.rows
                        .iter()
                        .map(|r| match &r[0] {
                            Value::Text(s) => s.clone(),
                            other => panic!("{other:?}"),
                        })
                        .collect::<Vec<_>>()
                        .join("\n")
                };
                if parallelism > 1 {
                    assert!(
                        plan.contains(&format!("Gather(dop={parallelism})")),
                        "client parallelism={parallelism} saw plan: {plan}"
                    );
                } else {
                    assert!(!plan.contains("Gather"), "{plan}");
                }
                let rows = c.query("SELECT eid FROM events WHERE kind = 3").unwrap();
                assert_eq!(rows.rows.len(), 16);
            }
            let p = c.query("SHOW parallelism").unwrap();
            assert_eq!(p.rows[0][0], Value::Int(parallelism as i64));
            c.close().unwrap();
        }));
    }
    for t in threads {
        t.join().unwrap();
    }
    handle.shutdown();
}

/// `SHOW SESSIONS` enumerates live connections with their per-session
/// parallelism and statement counters.
#[test]
fn show_sessions_reports_live_connections() {
    let _w = Watchdog::arm("show_sessions_reports_live_connections", 120);
    let handle = start_volatile();
    let addr = handle.local_addr();
    let mut a = Client::connect(addr).unwrap();
    let mut b = Client::connect(addr).unwrap();
    a.affected("SET parallelism = 8").unwrap();
    a.affected("CREATE TABLE t (x INT)").unwrap();
    b.affected("SET parallelism = 2").unwrap();

    let sessions = b.query("SHOW SESSIONS").unwrap();
    assert_eq!(
        sessions.columns,
        vec![
            "session_id",
            "peer",
            "statements",
            "parallelism",
            "total_ms",
            "last_ms",
            "current_query",
            "txn_id",
            "txn_statements",
            "txn_state"
        ]
    );
    assert_eq!(sessions.rows.len(), 2);
    let row_for = |id: u64| {
        sessions
            .rows
            .iter()
            .find(|r| r[0] == Value::Int(id as i64))
            .unwrap_or_else(|| panic!("session {id} missing"))
    };
    assert_eq!(row_for(a.session_id())[3], Value::Int(8));
    assert_eq!(row_for(a.session_id())[2], Value::Int(2)); // SET + CREATE
    assert_eq!(row_for(b.session_id())[3], Value::Int(2));
    // Completed statements accumulate wall time: cumulative latency is
    // at least the last statement's, and both are non-negative.
    let (total, last) = match (&row_for(a.session_id())[4], &row_for(a.session_id())[5]) {
        (Value::Float(t), Value::Float(l)) => (*t, *l),
        other => panic!("expected FLOAT latency columns, got {other:?}"),
    };
    assert!(total >= last && last >= 0.0, "total={total} last={last}");
    // The introspecting session sees its own in-flight SHOW SESSIONS.
    assert_eq!(
        row_for(b.session_id())[6],
        Value::Text("SHOW SESSIONS".into())
    );

    // The handle-level view agrees.
    assert_eq!(handle.session_count(), 2);
    a.close().unwrap();
    b.close().unwrap();
    handle.shutdown();
}

/// Structured error frames, kind by kind.
#[test]
fn sql_errors_keep_the_connection_usable() {
    let _w = Watchdog::arm("sql_errors_keep_the_connection_usable", 120);
    let handle = start_volatile();
    let mut c = Client::connect(handle.local_addr()).unwrap();
    match c.execute("SELECT * FROM missing") {
        Err(ClientError::Sql(m)) => assert!(m.contains("missing"), "{m}"),
        other => panic!("expected Sql error, got {other:?}"),
    }
    match c.execute("THIS IS NOT SQL") {
        Err(ClientError::Sql(m)) => assert!(m.contains("parse"), "{m}"),
        other => panic!("expected Sql error, got {other:?}"),
    }
    // Same connection still serves statements.
    c.affected("CREATE TABLE ok (a INT)").unwrap();
    assert_eq!(c.affected("INSERT INTO ok VALUES (1)").unwrap(), 1);
    c.close().unwrap();
    handle.shutdown();
}

#[test]
fn protocol_errors_are_structured_frames() {
    let _w = Watchdog::arm("protocol_errors_are_structured_frames", 120);
    let handle = start_volatile();
    let mut raw = TcpStream::connect(handle.local_addr()).unwrap();
    let hello = decode_response(&read_frame(&mut raw).unwrap()).unwrap();
    assert!(matches!(hello, Response::Hello { .. }));

    // An unknown frame type gets a structured Protocol error, not a
    // dropped connection.
    use std::io::Write;
    raw.write_all(&1u32.to_be_bytes()).unwrap();
    raw.write_all(&[0x7f]).unwrap();
    raw.flush().unwrap();
    match decode_response(&read_frame(&mut raw).unwrap()).unwrap() {
        Response::Error { kind, message } => {
            assert_eq!(kind, WireErrorKind::Protocol);
            assert!(message.contains("unknown request"), "{message}");
        }
        other => panic!("expected protocol error frame, got {other:?}"),
    }

    // The connection survived: a well-formed request still runs.
    write_request(&mut raw, &Request::Query("SHOW TABLES".into())).unwrap();
    match decode_response(&read_frame(&mut raw).unwrap()).unwrap() {
        Response::Rows(_) => {}
        other => panic!("expected rows after recovering, got {other:?}"),
    }
    write_request(&mut raw, &Request::Close).unwrap();
    handle.shutdown();
}

#[test]
fn admission_control_rejects_with_busy_frame() {
    let _w = Watchdog::arm("admission_control_rejects_with_busy_frame", 120);
    let db = Arc::new(Database::new());
    let config = ServerConfig {
        max_connections: 1,
        ..ServerConfig::default()
    };
    let handle = Server::start(db, "127.0.0.1:0", config).unwrap();
    let addr = handle.local_addr();

    let first = Client::connect(addr).unwrap();
    match Client::connect(addr) {
        Err(ClientError::Busy(m)) => assert!(m.contains("capacity"), "{m}"),
        other => panic!("expected Busy, got {other:?}"),
    }

    // Capacity frees once the first client leaves.
    first.close().unwrap();
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        match Client::connect(addr) {
            Ok(c) => {
                c.close().unwrap();
                break;
            }
            Err(ClientError::Busy(_)) if Instant::now() < deadline => {
                thread::sleep(Duration::from_millis(20));
            }
            Err(other) => panic!("unexpected error while waiting for capacity: {other:?}"),
        }
    }
    handle.shutdown();
}

#[test]
fn graceful_shutdown_notifies_idle_connections() {
    let _w = Watchdog::arm("graceful_shutdown_notifies_idle_connections", 120);
    let handle = start_volatile();
    let addr = handle.local_addr();

    // A raw idle connection: after shutdown it must receive a parting
    // Shutdown error frame (not a silent close).
    let mut raw = TcpStream::connect(addr).unwrap();
    let _hello = decode_response(&read_frame(&mut raw).unwrap()).unwrap();

    // A driver-level client: its next statement after shutdown fails
    // with a typed Shutdown error (or a connection error if the close
    // raced the notice).
    let mut c = Client::connect(addr).unwrap();
    c.affected("CREATE TABLE t (a INT)").unwrap();

    handle.shutdown(); // joins every thread before returning

    match decode_response(&read_frame(&mut raw).unwrap()).unwrap() {
        Response::Error { kind, message } => {
            assert_eq!(kind, WireErrorKind::Shutdown);
            assert!(message.contains("shutting down"), "{message}");
        }
        other => panic!("expected shutdown frame, got {other:?}"),
    }

    match c.execute("SELECT * FROM t") {
        Err(ClientError::Shutdown(_)) | Err(ClientError::Io(_)) => {}
        other => panic!("expected Shutdown or Io after shutdown, got {other:?}"),
    }
}

/// In-flight statements are drained on shutdown: a statement that is
/// already executing completes and its response is delivered.
#[test]
fn graceful_shutdown_drains_in_flight_statements() {
    let _w = Watchdog::arm("graceful_shutdown_drains_in_flight_statements", 120);
    let db = Arc::new(Database::new());
    db.execute("CREATE TABLE big (a INT, b INT)").unwrap();
    let mut stmt = String::from("INSERT INTO big VALUES ");
    for i in 0..4000 {
        if i > 0 {
            stmt.push(',');
        }
        stmt.push_str(&format!("({i}, {})", i % 13));
    }
    db.execute(&stmt).unwrap();
    let handle = Server::start(db, "127.0.0.1:0", ServerConfig::default()).unwrap();
    let addr = handle.local_addr();

    let worker = thread::spawn(move || {
        let mut c = Client::connect(addr).unwrap();
        // A self-join heavy enough to still be running when shutdown
        // lands; its response must still arrive.
        let rows = c
            .query("SELECT COUNT(*) FROM big x, big y WHERE x.b = y.b AND x.a < 50")
            .unwrap();
        assert_eq!(rows.rows.len(), 1);
    });
    // Let the statement get going, then shut down underneath it.
    thread::sleep(Duration::from_millis(30));
    handle.shutdown();
    worker.join().unwrap();
}

fn tmpdir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("neurdb-server-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

/// The observability acceptance smoke: after a real workload over a
/// durable store, `SHOW METRICS` over a live TCP connection reports
/// non-zero WAL-fsync, buffer-hit, and server-statement-latency
/// metrics, with histogram quantiles (p50/p99) rendered as rows.
#[test]
fn show_metrics_round_trips_over_tcp() {
    let _w = Watchdog::arm("show_metrics_round_trips_over_tcp", 120);
    let dir = tmpdir("metrics");
    let db = Arc::new(Database::open(&dir).unwrap());
    let handle = Server::start(db, "127.0.0.1:0", ServerConfig::default()).unwrap();
    let mut c = Client::connect(handle.local_addr()).unwrap();

    c.affected("CREATE TABLE m (id INT PRIMARY KEY, v INT)")
        .unwrap();
    for i in 0..50 {
        c.affected(&format!("INSERT INTO m VALUES ({i}, {})", i % 7))
            .unwrap();
    }
    assert_eq!(
        c.query("SELECT * FROM m WHERE v = 3").unwrap().rows.len(),
        7
    );

    let metrics = c.query("SHOW METRICS").unwrap();
    assert_eq!(metrics.columns, vec!["metric", "value"]);
    let get = |name: &str| -> &Value {
        metrics
            .rows
            .iter()
            .find(|r| r[0] == Value::Text(name.to_string()))
            .map(|r| &r[1])
            .unwrap_or_else(|| panic!("metric '{name}' missing from SHOW METRICS"))
    };
    let int_of = |name: &str| -> i64 {
        match get(name) {
            Value::Int(i) => *i,
            other => panic!("metric '{name}' should be INT, got {other:?}"),
        }
    };
    // WAL fsync latency histogram: every INSERT forced at least one
    // fsync on this durable store, and quantiles are positive.
    assert!(int_of("wal.fsync_ns.count") > 0);
    assert!(int_of("wal.fsync_ns.p50") > 0);
    assert!(int_of("wal.fsync_ns.p99") >= int_of("wal.fsync_ns.p50"));
    // Buffer pool was hit by the scans.
    match get("buffer.hits") {
        Value::Float(h) => assert!(*h > 0.0, "buffer.hits = {h}"),
        other => panic!("buffer.hits should be FLOAT, got {other:?}"),
    }
    // Server-side per-statement-kind latency histograms saw the
    // workload (the SELECT above, and every INSERT).
    assert!(int_of("srv.stmt_ns.select.count") >= 1);
    assert!(int_of("srv.stmt_ns.select.p50") > 0);
    assert!(int_of("srv.stmt_ns.insert.count") >= 50);
    assert!(int_of("srv.stmt_ns.insert.p99") >= int_of("srv.stmt_ns.insert.p50"));
    // Executor counters: the SELECT's scan emitted rows.
    assert!(int_of("exec.rows.seqscan") > 0);
    // Wire accounting: frames flowed both ways.
    assert!(int_of("srv.frames_in") > 0);
    assert!(int_of("srv.bytes_out") > 0);
    // Connection gauges: this client is the one active connection.
    match get("srv.connections.active") {
        Value::Float(a) => assert_eq!(*a, 1.0),
        other => panic!("srv.connections.active should be FLOAT, got {other:?}"),
    }

    c.close().unwrap();
    handle.shutdown();
}

/// The concurrency smoke from the issue: N client threads × M
/// statements against one server over a durable store, then close,
/// reopen the directory, and verify the durable prefix (everything the
/// clients saw acknowledged) survived — the PR 1 recovery-harness
/// pattern applied to the serving path.
#[test]
fn durable_store_survives_concurrent_clients_and_reopen() {
    let _w = Watchdog::arm("durable_store_survives_concurrent_clients_and_reopen", 240);
    const CLIENTS: usize = 4;
    const INSERTS: usize = 25;

    let dir = tmpdir("smoke");
    let db = Arc::new(Database::open(&dir).unwrap());
    db.execute("CREATE TABLE stress (id INT PRIMARY KEY, tid INT, payload TEXT)")
        .unwrap();
    db.execute("CREATE TABLE dims (tid INT PRIMARY KEY, label TEXT)")
        .unwrap();
    for t in 0..CLIENTS {
        db.execute(&format!("INSERT INTO dims VALUES ({t}, 'thread{t}')"))
            .unwrap();
    }
    let handle = Server::start(db, "127.0.0.1:0", ServerConfig::default()).unwrap();
    let addr = handle.local_addr();

    let mut threads = Vec::new();
    for t in 0..CLIENTS {
        threads.push(thread::spawn(move || {
            let mut c = Client::connect(addr).unwrap();
            for i in 0..INSERTS {
                let id = t * 10_000 + i;
                assert_eq!(
                    c.affected(&format!(
                        "INSERT INTO stress VALUES ({id}, {t}, 'row-{t}-{i}')"
                    ))
                    .unwrap(),
                    1
                );
                // Interleave reads and a join so the parallel paths and
                // the catalog are exercised under concurrency.
                if i % 5 == 0 {
                    let rows = c
                        .query(&format!(
                            "SELECT s.id, d.label FROM stress s, dims d \
                             WHERE s.tid = d.tid AND s.tid = {t}"
                        ))
                        .unwrap();
                    assert_eq!(rows.rows.len(), i + 1);
                }
            }
            c.close().unwrap();
        }));
    }
    for t in threads {
        t.join().unwrap();
    }
    handle.shutdown();

    // "Kill": the only remaining owner closes the store...
    // (the server handle is gone, so the Arc count is 1 again)
    // ...and reopening must recover every acknowledged statement.
    let reopened = Database::open(&dir).unwrap();
    let out = reopened.execute("SELECT COUNT(*) FROM stress").unwrap();
    assert_eq!(
        out.rows().unwrap().rows[0].get(0),
        &Value::Int((CLIENTS * INSERTS) as i64)
    );
    for t in 0..CLIENTS {
        let out = reopened
            .execute(&format!("SELECT COUNT(*) FROM stress WHERE tid = {t}"))
            .unwrap();
        assert_eq!(
            out.rows().unwrap().rows[0].get(0),
            &Value::Int(INSERTS as i64)
        );
    }
    // Catalog and the joinable dimension table came back too.
    let out = reopened
        .execute("SELECT COUNT(*) FROM stress s, dims d WHERE s.tid = d.tid")
        .unwrap();
    assert_eq!(
        out.rows().unwrap().rows[0].get(0),
        &Value::Int((CLIENTS * INSERTS) as i64)
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// PREDICT through the wire: train + serve over one connection, typed
/// prediction frame on the client.
#[test]
fn predict_over_the_wire() {
    let _w = Watchdog::arm("predict_over_the_wire", 240);
    let handle = start_volatile();
    let mut c = Client::connect(handle.local_addr()).unwrap();
    c.affected("CREATE TABLE review (id INT PRIMARY KEY, brand INT, stars INT, score FLOAT)")
        .unwrap();
    let mut stmt = String::from("INSERT INTO review VALUES ");
    for i in 0..200 {
        if i > 0 {
            stmt.push(',');
        }
        stmt.push_str(&format!("({i}, {}, {}, {}.0)", i % 4, i % 5, i % 5));
    }
    c.affected(&stmt).unwrap();

    match c
        .execute("PREDICT VALUE OF score FROM review WHERE brand = 0 TRAIN ON * WITH brand <> 0")
        .unwrap()
    {
        Response::Prediction { mid, trained, rows } => {
            assert!(mid > 0);
            assert!(trained, "first PREDICT should train");
            assert_eq!(rows.rows.len(), 50);
            assert!(rows.columns.iter().any(|c| c == "predicted_score"));
        }
        other => panic!("expected prediction, got {other:?}"),
    }
    // Second call serves from the cached model.
    match c
        .execute("PREDICT VALUE OF score FROM review WHERE brand = 0 TRAIN ON * WITH brand <> 0")
        .unwrap()
    {
        Response::Prediction { trained, .. } => assert!(!trained),
        other => panic!("expected prediction, got {other:?}"),
    }
    c.close().unwrap();
    handle.shutdown();
}

// ---------------- multi-statement transactions over the wire -----------

/// The auto-abort regression from the issue: a statement error inside an
/// open transaction aborts it server-side with a structured TxnAborted
/// frame naming the transaction; further statements are refused until
/// ROLLBACK clears it, the connection stays usable throughout, and none
/// of the transaction's effects survive.
#[test]
fn txn_statement_error_auto_aborts_with_structured_frame() {
    let _w = Watchdog::arm("txn_statement_error_auto_aborts_with_structured_frame", 120);
    let handle = start_volatile();
    let mut c = Client::connect(handle.local_addr()).unwrap();
    c.affected("CREATE TABLE t (id INT, val INT)").unwrap();
    c.affected("INSERT INTO t VALUES (1, 10)").unwrap();

    c.affected("BEGIN").unwrap();
    c.affected("UPDATE t SET val = 11 WHERE id = 1").unwrap();
    // The failing statement surfaces as a typed TxnAborted frame (wire
    // kind 4), not a generic SQL error, and names the transaction.
    match c.execute("INSERT INTO missing VALUES (1)") {
        Err(ClientError::TxnAborted(m)) => {
            assert!(
                m.starts_with("transaction ") && m.contains("aborted"),
                "abort frame must name the aborted transaction: {m}"
            );
        }
        other => panic!("expected TxnAborted frame, got {other:?}"),
    }
    // While aborted, ordinary statements are refused...
    match c.execute("SELECT * FROM t") {
        Err(ClientError::Sql(m)) => assert!(m.contains("aborted"), "{m}"),
        other => panic!("expected refusal while aborted, got {other:?}"),
    }
    // ...until ROLLBACK clears the state; the connection never dropped.
    c.affected("ROLLBACK").unwrap();
    let rows = c.query("SELECT val FROM t WHERE id = 1").unwrap();
    assert_eq!(rows.rows[0][0], Value::Int(10), "txn effects discarded");
    c.close().unwrap();
    handle.shutdown();
}

/// `SHOW SESSIONS` exposes another session's open transaction: its id,
/// statement count, and state, live while the transaction is open and
/// cleared again after ROLLBACK.
#[test]
fn show_sessions_exposes_open_txn_state() {
    let _w = Watchdog::arm("show_sessions_exposes_open_txn_state", 120);
    let handle = start_volatile();
    let addr = handle.local_addr();
    let mut a = Client::connect(addr).unwrap();
    let mut b = Client::connect(addr).unwrap();
    a.affected("CREATE TABLE t (id INT)").unwrap();
    a.affected("BEGIN").unwrap();
    a.affected("INSERT INTO t VALUES (1)").unwrap();
    a.affected("INSERT INTO t VALUES (2)").unwrap();

    let sessions = b.query("SHOW SESSIONS").unwrap();
    let col = |name: &str| {
        sessions
            .columns
            .iter()
            .position(|c| c == name)
            .unwrap_or_else(|| panic!("column {name} missing"))
    };
    let row_a = sessions
        .rows
        .iter()
        .find(|r| r[0] == Value::Int(a.session_id() as i64))
        .unwrap();
    match &row_a[col("txn_id")] {
        Value::Int(id) => assert!(*id > 0, "open txn id must be positive"),
        other => panic!("txn_id should be INT while open, got {other:?}"),
    }
    assert_eq!(row_a[col("txn_statements")], Value::Int(2));
    assert_eq!(row_a[col("txn_state")], Value::Text("active".into()));
    // The observing session has no transaction open.
    let row_b = sessions
        .rows
        .iter()
        .find(|r| r[0] == Value::Int(b.session_id() as i64))
        .unwrap();
    assert_eq!(row_b[col("txn_id")], Value::Null);
    assert_eq!(row_b[col("txn_state")], Value::Null);

    a.affected("ROLLBACK").unwrap();
    let sessions = b.query("SHOW SESSIONS").unwrap();
    let row_a = sessions
        .rows
        .iter()
        .find(|r| r[0] == Value::Int(a.session_id() as i64))
        .unwrap();
    assert_eq!(row_a[col("txn_id")], Value::Null, "rollback clears txn");
    assert_eq!(row_a[col("txn_state")], Value::Null);

    a.close().unwrap();
    b.close().unwrap();
    handle.shutdown();
}

/// The issue's serving-path acceptance: a YCSB-style zipf-skewed
/// read-modify-write workload from 4 concurrent wire clients, each
/// statement bracketed in BEGIN/COMMIT, completes with the learned CC
/// policy observably consulted (cc.decisions > 0) and transactions
/// committing (txn.commits > 0) — all observed over the wire.
#[test]
fn ycsb_zipf_concurrent_txns_consult_learned_cc() {
    use neurdb_workloads::Zipf;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    let _w = Watchdog::arm("ycsb_zipf_concurrent_txns_consult_learned_cc", 240);
    const CLIENTS: usize = 4;
    const KEYS: u64 = 64;
    const TXNS: usize = 12;

    let handle = start_volatile();
    let addr = handle.local_addr();
    let mut admin = Client::connect(addr).unwrap();
    admin
        .affected("CREATE TABLE ycsb (id INT PRIMARY KEY, val INT)")
        .unwrap();
    let mut stmt = String::from("INSERT INTO ycsb VALUES ");
    for k in 0..KEYS {
        if k > 0 {
            stmt.push(',');
        }
        stmt.push_str(&format!("({k}, 0)"));
    }
    admin.affected(&stmt).unwrap();

    let mut threads = Vec::new();
    for t in 0..CLIENTS {
        threads.push(thread::spawn(move || {
            let mut c = Client::connect(addr).unwrap();
            let zipf = Zipf::new(KEYS, 0.9);
            let mut rng = StdRng::seed_from_u64(0x9e37_79b9 ^ t as u64);
            let mut committed = 0usize;
            for i in 0..TXNS {
                let k1 = zipf.sample(&mut rng);
                let k2 = zipf.sample(&mut rng);
                let mut attempts = 0u32;
                'retry: loop {
                    attempts += 1;
                    assert!(attempts < 2_000, "client {t} txn {i}: retry storm");
                    if attempts > 1 {
                        thread::sleep(Duration::from_micros(200 * u64::from(attempts.min(20))));
                    }
                    c.affected("BEGIN").unwrap();
                    for k in [k1, k2] {
                        match c.affected(&format!("UPDATE ycsb SET val = val + 1 WHERE id = {k}")) {
                            Ok(_) => {}
                            Err(ClientError::TxnAborted(_)) => {
                                let _ = c.affected("ROLLBACK");
                                continue 'retry;
                            }
                            Err(e) => panic!("unexpected error: {e}"),
                        }
                    }
                    match c.affected("COMMIT") {
                        Ok(_) => {
                            committed += 1;
                            break;
                        }
                        Err(ClientError::TxnAborted(_)) => {
                            let _ = c.affected("ROLLBACK");
                        }
                        Err(e) => panic!("unexpected COMMIT error: {e}"),
                    }
                }
            }
            c.close().unwrap();
            committed
        }));
    }
    let committed: usize = threads.into_iter().map(|t| t.join().unwrap()).sum();
    assert_eq!(
        committed,
        CLIENTS * TXNS,
        "every transaction eventually commits"
    );

    // Observability over the wire: the learned policy was consulted and
    // transactions committed.
    let metrics = admin.query("SHOW METRICS").unwrap();
    let int_of = |name: &str| -> i64 {
        metrics
            .rows
            .iter()
            .find(|r| r[0] == Value::Text(name.to_string()))
            .map(|r| match &r[1] {
                Value::Int(v) => *v,
                other => panic!("metric {name} should be INT, got {other:?}"),
            })
            .unwrap_or_else(|| panic!("metric {name} missing"))
    };
    assert!(
        int_of("cc.decisions") > 0,
        "learned CC policy was consulted"
    );
    assert!(int_of("txn.commits") >= (CLIENTS * TXNS) as i64);
    assert!(int_of("txn.commit_ns.count") >= (CLIENTS * TXNS) as i64);

    // The policy in charge is the learned one (SHOW CC property rows).
    let cc = admin.query("SHOW CC").unwrap();
    let prop = |name: &str| -> String {
        cc.rows
            .iter()
            .find(|r| r[0] == Value::Text(name.to_string()))
            .map(|r| match &r[1] {
                Value::Text(s) => s.clone(),
                other => format!("{other:?}"),
            })
            .unwrap_or_else(|| panic!("property {name} missing"))
    };
    assert_eq!(prop("policy"), "neurdb-cc");

    // The zipf increments all landed: total val equals committed
    // transactions × 2 updates each.
    let rows = admin.query("SELECT SUM(val) FROM ycsb").unwrap();
    assert_eq!(rows.rows[0][0], Value::Int((CLIENTS * TXNS * 2) as i64));

    admin.close().unwrap();
    handle.shutdown();
}

// --------------------------- structured tracing ---------------------------

/// The tentpole acceptance, over the wire: on a durable store with a
/// deliberately tiny buffer pool, a dop-4 parallel join runs inside an
/// open transaction with `SET trace = on`, and `SHOW TRACE` — issued
/// while the transaction is still open — returns a single rooted tree
/// with probe-worker and build spans, buffer read spans, and (for the
/// COMMIT's own trace) CC-validation and WAL append/fsync spans. The
/// `FORMAT json` body is a complete Chrome trace for Perfetto.
#[test]
fn show_trace_round_trips_over_tcp_inside_open_txn() {
    use neurdb_wal::DurableStoreOptions;

    let _w = Watchdog::arm("show_trace_round_trips_over_tcp_inside_open_txn", 240);
    let dir = tmpdir("trace");
    let db = Arc::new(
        Database::open_with(
            &dir,
            DurableStoreOptions {
                frames: 8,
                ..DurableStoreOptions::default()
            },
        )
        .unwrap(),
    );
    let handle = Server::start(db, "127.0.0.1:0", ServerConfig::default()).unwrap();
    let mut c = Client::connect(handle.local_addr()).unwrap();

    c.affected("CREATE TABLE bf (id INT PRIMARY KEY, k INT, v INT)")
        .unwrap();
    c.affected("CREATE TABLE bd (did INT PRIMARY KEY, grp INT)")
        .unwrap();
    for base in 0..6 {
        let mut stmt = String::from("INSERT INTO bf VALUES ");
        for i in 0..1000 {
            let id = base * 1000 + i;
            if i > 0 {
                stmt.push(',');
            }
            stmt.push_str(&format!("({id}, {}, {})", id % 3000, id % 13));
        }
        c.affected(&stmt).unwrap();
    }
    let mut stmt = String::from("INSERT INTO bd VALUES ");
    for d in 0..3000 {
        if d > 0 {
            stmt.push(',');
        }
        stmt.push_str(&format!("({d}, {})", d % 11));
    }
    c.affected(&stmt).unwrap();
    c.affected("CREATE TABLE audit (id INT)").unwrap();

    c.affected("SET parallelism = 4").unwrap();
    c.affected("SET trace = on").unwrap();

    let join_sql = "SELECT d.grp, COUNT(*), SUM(f.v) FROM bf f, bd d \
                    WHERE f.k = d.did GROUP BY d.grp";
    let plan = plan_text(&mut c, &format!("EXPLAIN {join_sql}"));
    assert!(plan.contains("PartitionedHashJoin"), "{plan}");
    assert!(plan.contains("Gather(dop=4)"), "{plan}");

    c.affected("BEGIN").unwrap();
    // Gives COMMIT real write work so its trace shows the full
    // validation/WAL pipeline. It writes a table outside the join: a
    // scan of a table the open transaction wrote merges its overlay and
    // runs serially, which would turn the parallel join into a serial
    // one.
    c.affected("INSERT INTO audit VALUES (9000)").unwrap();
    assert_eq!(c.query(join_sql).unwrap().rows.len(), 11);

    // Find the join statement's trace id from inside the transaction.
    let traces = c.query("SHOW TRACES").unwrap();
    assert_eq!(traces.columns, vec!["trace_id", "wall_ms", "spans", "sql"]);
    let trace_id = |rows: &neurdb_server::protocol::RowSet, sql: &str| -> String {
        rows.rows
            .iter()
            .rev()
            .find(|r| r[3] == Value::Text(sql.into()))
            .map(|r| match &r[0] {
                Value::Text(id) => id.clone(),
                other => panic!("trace_id should be TEXT, got {other:?}"),
            })
            .unwrap_or_else(|| panic!("no trace listed for {sql}"))
    };
    let join_id = trace_id(&traces, join_sql);

    let tree = |c: &mut Client, id: &str| -> Vec<String> {
        c.query(&format!("SHOW TRACE '{id}'"))
            .unwrap()
            .rows
            .iter()
            .map(|r| match &r[0] {
                Value::Text(l) => l.clone(),
                other => panic!("{other:?}"),
            })
            .collect()
    };
    let lines = tree(&mut c, &join_id);
    assert!(
        lines[0].starts_with(&format!("trace {join_id}  wall=")),
        "{lines:?}"
    );
    // A single rooted tree: one unindented span line, everything else
    // nested beneath it.
    let roots: Vec<&String> = lines[2..].iter().filter(|l| !l.starts_with(' ')).collect();
    assert_eq!(roots.len(), 1, "{lines:?}");
    assert!(roots[0].starts_with("statement"), "{lines:?}");
    let has = |needle: &str| lines.iter().any(|l| l.trim_start().starts_with(needle));
    assert!(has("plan"), "plan span missing:\n{}", lines.join("\n"));
    assert!(has("execute"), "{}", lines.join("\n"));
    assert!(has("worker"), "worker spans missing:\n{}", lines.join("\n"));
    assert!(
        lines
            .iter()
            .any(|l| l.trim_start().starts_with("worker") && l.contains("task=probe")),
        "probe worker spans missing:\n{}",
        lines.join("\n")
    );
    assert!(
        has("build"),
        "join build span missing:\n{}",
        lines.join("\n")
    );
    assert!(
        has("buffer.read"),
        "8-frame pool must miss during the join:\n{}",
        lines.join("\n")
    );

    // COMMIT is traced as its own statement: the write pipeline's spans
    // (CC validation, overlay apply, WAL append + fsync, durability
    // wait) all appear in its tree.
    c.affected("COMMIT").unwrap();
    let traces = c.query("SHOW TRACES").unwrap();
    let commit_id = trace_id(&traces, "COMMIT");
    let lines = tree(&mut c, &commit_id);
    let has = |needle: &str| lines.iter().any(|l| l.trim_start().starts_with(needle));
    assert!(has("txn.cc_validate"), "{}", lines.join("\n"));
    assert!(has("txn.overlay_apply"), "{}", lines.join("\n"));
    assert!(has("wal.append"), "{}", lines.join("\n"));
    assert!(has("wal.fsync"), "{}", lines.join("\n"));
    assert!(has("txn.wait_durable"), "{}", lines.join("\n"));

    // FORMAT json over the wire: one cell, a complete Chrome trace.
    let json_rows = c
        .query(&format!("SHOW TRACE '{join_id}' FORMAT json"))
        .unwrap();
    assert_eq!(json_rows.rows.len(), 1);
    let Value::Text(json) = &json_rows.rows[0][0] else {
        panic!("json body should be TEXT")
    };
    assert!(json.starts_with('{') && json.ends_with('}'));
    assert!(json.contains("\"traceEvents\":["), "{json}");
    assert!(json.contains("\"ph\":\"X\""), "{json}");
    assert!(
        json.contains(&format!("\"trace_id\":\"{join_id}\"")),
        "{json}"
    );
    assert!(json.contains("\"name\":\"worker\""), "{json}");

    // An unknown id errors cleanly over the wire too.
    match c.execute("SHOW TRACE '404-404'") {
        Err(ClientError::Sql(m)) => assert!(m.contains("no trace"), "{m}"),
        other => panic!("expected Sql error, got {other:?}"),
    }

    c.close().unwrap();
    handle.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// `SHOW METRICS LIKE` over the wire: substring and glob filters reach
/// the same registry as the full listing, and the new `.max` histogram
/// rows ride along.
#[test]
fn show_metrics_like_filters_over_tcp() {
    let _w = Watchdog::arm("show_metrics_like_filters_over_tcp", 120);
    let handle = start_volatile();
    let mut c = Client::connect(handle.local_addr()).unwrap();
    c.affected("CREATE TABLE t (a INT)").unwrap();
    c.affected("INSERT INTO t VALUES (1), (2), (3)").unwrap();
    assert_eq!(c.query("SELECT * FROM t").unwrap().rows.len(), 3);

    let names = |rows: &neurdb_server::protocol::RowSet| -> Vec<String> {
        rows.rows
            .iter()
            .map(|r| match &r[0] {
                Value::Text(n) => n.clone(),
                other => panic!("{other:?}"),
            })
            .collect()
    };

    let filtered = c.query("SHOW METRICS LIKE 'srv.stmt_ns.%'").unwrap();
    let filtered = names(&filtered);
    assert!(!filtered.is_empty());
    assert!(
        filtered.iter().all(|n| n.starts_with("srv.stmt_ns.")),
        "{filtered:?}"
    );
    // The exact-max rows are part of every histogram's listing.
    assert!(
        filtered.iter().any(|n| n == "srv.stmt_ns.select.max"),
        "{filtered:?}"
    );
    let max_row = c
        .query("SHOW METRICS LIKE 'srv.stmt_ns.select.max'")
        .unwrap();
    match &max_row.rows[..] {
        [row] => match &row[1] {
            Value::Int(max) => assert!(*max > 0, "select ran, max must be set"),
            other => panic!("max should be INT, got {other:?}"),
        },
        other => panic!("exact filter should match one row, got {other:?}"),
    }

    // Substring (no wildcard) matching is case-insensitive.
    let sub = names(&c.query("SHOW METRICS LIKE 'FRAMES'").unwrap());
    assert!(sub.iter().any(|n| n == "srv.frames_in"), "{sub:?}");
    assert!(sub.iter().all(|n| n.contains("frames")), "{sub:?}");

    c.close().unwrap();
    handle.shutdown();
}
