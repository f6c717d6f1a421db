//! End-to-end tests for the observability subsystem: the slow-query
//! log (per-session `SET slow_query_ms` thresholds, plan provenance,
//! trace ids), `SHOW METRICS` at the embedded core level, and the live
//! system-condition feed from the buffer pool into the learned
//! optimizer's join-graph condition tokens.

use neurdb_core::{plan_select_with, Database, Output, PlannerConfig, SessionContext};
use neurdb_qo::SystemConditions;
use neurdb_sql::{parse, Statement};
use neurdb_storage::Value;

fn select_stmt(sql: &str) -> neurdb_sql::SelectStmt {
    match parse(sql).unwrap() {
        Statement::Select(s) => s,
        other => panic!("not a select: {other:?}"),
    }
}

fn seeded_db() -> Database {
    let db = Database::new();
    db.execute("CREATE TABLE a (x INT, y INT)").unwrap();
    db.execute("CREATE TABLE b (x INT, z INT)").unwrap();
    for i in 0..64 {
        db.execute(&format!("INSERT INTO a VALUES ({i}, {})", i % 8))
            .unwrap();
        db.execute(&format!("INSERT INTO b VALUES ({}, {i})", i % 16))
            .unwrap();
    }
    db
}

/// A threshold of 0 ms logs every statement: one entry per statement,
/// carrying the SQL text, a `<session>-<seq>` trace id, and — for
/// SELECTs — the rendered plan with per-operator timings.
#[test]
fn slow_query_log_captures_statements_at_threshold() {
    let db = seeded_db();
    let mut session = SessionContext::new();
    session.set_session_id(7);
    db.execute_in_session(&mut session, "SET slow_query_ms = 0")
        .unwrap();
    assert!(
        db.slow_queries().is_empty(),
        "SET itself predates the threshold read"
    );

    db.execute_in_session(&mut session, "SELECT * FROM a WHERE y = 3")
        .unwrap();
    let entries = db.slow_queries();
    assert_eq!(entries.len(), 1, "exactly one entry for one statement");
    let e = &entries[0];
    assert_eq!(e.session_id, 7);
    assert_eq!(e.sql, "SELECT * FROM a WHERE y = 3");
    // Trace ids are session-scoped: `<session id>-<statement seq>`; the
    // SET was statement 1, this SELECT statement 2.
    assert_eq!(e.trace_id, "7-2");
    // SELECT entries carry the plan annotated with observed operator
    // counters (the EXPLAIN ANALYZE slots).
    assert!(!e.plan.is_empty());
    let plan_text = e.plan.join("\n");
    assert!(plan_text.contains("SeqScan"), "plan: {plan_text}");
    assert!(plan_text.contains("rows="), "timings missing: {plan_text}");

    // Non-SELECT statements log too, without a plan.
    db.execute_in_session(&mut session, "INSERT INTO a VALUES (999, 9)")
        .unwrap();
    let entries = db.slow_queries();
    assert_eq!(entries.len(), 2);
    assert!(entries[1].plan.is_empty());
    assert_eq!(entries[1].trace_id, "7-3");
}

/// Statements below the threshold never reach the log, and the
/// threshold is per-session state: an aggressive threshold in one
/// session does not leak into another.
#[test]
fn slow_query_threshold_is_per_session() {
    let db = seeded_db();
    let mut eager = SessionContext::new();
    eager.set_session_id(1);
    let mut lax = SessionContext::new();
    lax.set_session_id(2);
    let mut silent = SessionContext::new();
    silent.set_session_id(3);

    db.execute_in_session(&mut eager, "SET slow_query_ms = 0")
        .unwrap();
    // Sub-millisecond statements stay below a 60s threshold.
    db.execute_in_session(&mut lax, "SET slow_query_ms = 60000")
        .unwrap();

    db.execute_in_session(&mut lax, "SELECT * FROM a").unwrap();
    db.execute_in_session(&mut silent, "SELECT * FROM a")
        .unwrap();
    assert!(
        db.slow_queries().is_empty(),
        "below-threshold and no-threshold sessions must not log"
    );

    db.execute_in_session(&mut eager, "SELECT * FROM a")
        .unwrap();
    let entries = db.slow_queries();
    assert_eq!(entries.len(), 1);
    assert_eq!(entries[0].session_id, 1);
}

/// `SHOW slow_queries` renders the log as rows; `SHOW slow_query_ms`
/// reports the session's threshold (NULL while unset).
#[test]
fn slow_query_log_is_queryable_via_show() {
    let db = seeded_db();
    let mut session = SessionContext::new();
    session.set_session_id(4);

    let unset = db
        .execute_in_session(&mut session, "SHOW slow_query_ms")
        .unwrap();
    assert_eq!(unset.rows().unwrap().rows[0].values[0], Value::Null);

    db.execute_in_session(&mut session, "SET slow_query_ms = 0")
        .unwrap();
    let set = db
        .execute_in_session(&mut session, "SHOW slow_query_ms")
        .unwrap();
    assert_eq!(set.rows().unwrap().rows[0].values[0], Value::Int(0));

    db.execute_in_session(&mut session, "SELECT * FROM b WHERE z < 10")
        .unwrap();
    let out = db
        .execute_in_session(&mut session, "SHOW slow_queries")
        .unwrap();
    let Output::Rows(qr) = out else {
        panic!("SHOW slow_queries should return rows")
    };
    assert_eq!(
        qr.columns,
        vec![
            "trace_id",
            "session_id",
            "elapsed_ms",
            "sql",
            "join_order",
            "plan"
        ]
    );
    // The SELECT and the second SHOW slow_query_ms both logged (the
    // threshold was live by then); find the SELECT row.
    let select_row = qr
        .rows
        .iter()
        .find(|r| r.values[3] == Value::Text("SELECT * FROM b WHERE z < 10".into()))
        .expect("SELECT entry in SHOW slow_queries");
    assert_eq!(select_row.values[1], Value::Int(4));
    match &select_row.values[5] {
        Value::Text(plan) => assert!(plan.contains("SeqScan"), "{plan}"),
        other => panic!("plan column should be TEXT for a SELECT, got {other:?}"),
    }
}

/// Embedded `SHOW METRICS`: executor operator-class counters and buffer
/// gauges appear with live values after a workload.
#[test]
fn show_metrics_reports_executor_and_buffer_state() {
    let db = seeded_db();
    let out = db.execute("SELECT * FROM a WHERE y = 1").unwrap();
    assert_eq!(out.rows().unwrap().rows.len(), 8);

    let metrics = db.execute("SHOW METRICS").unwrap();
    let Output::Rows(qr) = metrics else {
        panic!("SHOW METRICS should return rows")
    };
    assert_eq!(qr.columns, vec!["metric", "value"]);
    let get = |name: &str| {
        qr.rows
            .iter()
            .find(|r| r.values[0] == Value::Text(name.to_string()))
            .map(|r| r.values[1].clone())
            .unwrap_or_else(|| panic!("metric '{name}' missing"))
    };
    match get("exec.rows.seqscan") {
        Value::Int(n) => assert!(n >= 8, "exec.rows.seqscan = {n}"),
        other => panic!("counter should be INT, got {other:?}"),
    }
    match get("buffer.occupancy") {
        Value::Float(o) => assert!(o > 0.0, "buffer.occupancy = {o}"),
        other => panic!("gauge should be FLOAT, got {other:?}"),
    }
    // Names are sorted for a stable, diffable listing.
    let names: Vec<&Value> = qr.rows.iter().map(|r| &r.values[0]).collect();
    let mut sorted = names.clone();
    sorted.sort_by(|a, b| format!("{a}").cmp(&format!("{b}")));
    assert_eq!(names, sorted);
}

/// The regression guard for the live system-condition feed: the
/// planner stamps [`PlannerConfig::system`] onto the join graph, and
/// the graph's condition tokens (the learned optimizer's input) change
/// when the buffer hit-ratio changes.
#[test]
fn planner_stamps_system_conditions_onto_join_graph() {
    let db = seeded_db();
    let tables = vec![
        ("a".to_string(), db.table("a").unwrap()),
        ("b".to_string(), db.table("b").unwrap()),
    ];
    let stmt = select_stmt("SELECT a.y FROM a, b WHERE a.x = b.x");

    let cold = plan_select_with(
        &stmt,
        &tables,
        None,
        &PlannerConfig {
            system: SystemConditions {
                buffer_hit_ratio: 0.2,
                buffer_occupancy: 0.95,
            },
            ..PlannerConfig::default()
        },
    )
    .unwrap();
    let hot = plan_select_with(&stmt, &tables, None, &PlannerConfig::default()).unwrap();

    let cold_graph = cold.graph.expect("multi-table query builds a graph");
    let hot_graph = hot.graph.expect("multi-table query builds a graph");
    assert_eq!(cold_graph.system.buffer_hit_ratio, 0.2);
    assert_eq!(hot_graph.system.buffer_hit_ratio, 1.0);
    assert_ne!(
        cold_graph.condition_tokens(4),
        hot_graph.condition_tokens(4),
        "condition tokens must track buffer state"
    );
}

/// End to end at the database level: a buffer pool too small for the
/// working set reports degraded hit-ratio and non-zero occupancy
/// through [`Database::system_conditions`] — the exact values the
/// planner feeds the optimizer.
#[test]
fn system_conditions_track_live_buffer_state() {
    let db = Database::with_buffer_capacity(2);
    assert_eq!(db.system_conditions().buffer_hit_ratio, 1.0);
    db.execute("CREATE TABLE big (x INT, pad TEXT)").unwrap();
    // Many pages of rows through a 2-frame pool: scans must evict and
    // re-read, so misses accumulate.
    let filler = "x".repeat(128);
    for chunk in 0..40 {
        let mut stmt = String::from("INSERT INTO big VALUES ");
        for i in 0..50 {
            if i > 0 {
                stmt.push(',');
            }
            stmt.push_str(&format!("({}, '{filler}')", chunk * 50 + i));
        }
        db.execute(&stmt).unwrap();
    }
    db.execute("SELECT * FROM big WHERE x = 17").unwrap();
    db.execute("SELECT * FROM big WHERE x = 1999").unwrap();

    let sc = db.system_conditions();
    assert!(
        sc.buffer_hit_ratio < 1.0,
        "hit ratio = {}",
        sc.buffer_hit_ratio
    );
    assert!(
        sc.buffer_occupancy > 0.0,
        "occupancy = {}",
        sc.buffer_occupancy
    );
}

// --------------------------- structured tracing ---------------------------
//
// Per-statement span trees (`SET trace = on` / `SET trace_sample = N`),
// the bounded trace ring, `SHOW TRACES` / `SHOW TRACE <id>`, the
// Perfetto JSON export, and the traced-equals-untraced property.

use neurdb_core::CoreError;
use neurdb_obs::trace::{FinishedTrace, Span};
use proptest::prelude::*;
use std::sync::Arc as StdArc;

/// Seed a pair of tables big enough that `SET parallelism = 4` plans a
/// parallel hash join whose build side also fans out behind a Gather.
fn join_db() -> Database {
    // A deliberately tiny buffer pool: the join's scans must miss and
    // re-read pages, so `buffer.read` spans appear in traces.
    let db = Database::with_buffer_capacity(8);
    db.execute("CREATE TABLE bf (id INT PRIMARY KEY, k INT, v INT)")
        .unwrap();
    db.execute("CREATE TABLE bd (did INT PRIMARY KEY, grp INT)")
        .unwrap();
    let mut stmt = String::from("INSERT INTO bf VALUES ");
    for i in 0..6000 {
        if i > 0 {
            stmt.push(',');
        }
        stmt.push_str(&format!("({i}, {}, {})", i % 3000, i % 13));
    }
    db.execute(&stmt).unwrap();
    let mut stmt = String::from("INSERT INTO bd VALUES ");
    for d in 0..3000 {
        if d > 0 {
            stmt.push(',');
        }
        stmt.push_str(&format!("({d}, {})", d % 11));
    }
    db.execute(&stmt).unwrap();
    db
}

fn last_trace(db: &Database) -> StdArc<FinishedTrace> {
    db.tracer().recent().last().cloned().expect("a trace")
}

fn spans_named<'a>(root: &'a Span, name: &str) -> Vec<&'a Span> {
    let mut out = Vec::new();
    root.find_all(name, &mut out);
    out
}

/// The tentpole acceptance shape, embedded: a dop-4 parallel join with
/// pushed aggregation traces as a single rooted tree — probe-worker,
/// build-side Gather worker and build spans parented under `execute` (no
/// orphans at the root), buffer miss/read spans from the scans, per-span
/// attrs, and every span nested inside the statement's wall time.
#[test]
fn trace_tree_captures_dop4_parallel_join() {
    let db = join_db();
    let mut session = SessionContext::new();
    session.set_session_id(11);
    for setup in ["SET parallelism = 4", "SET trace = on"] {
        db.execute_in_session(&mut session, setup).unwrap();
    }
    let sql = "SELECT d.grp, COUNT(*), SUM(f.v) FROM bf f, bd d \
               WHERE f.k = d.did GROUP BY d.grp";
    // The plan must actually be the parallel one, or the assertions
    // below test nothing.
    let plan = db
        .execute_in_session(&mut session, &format!("EXPLAIN {sql}"))
        .unwrap();
    let plan = plan
        .rows()
        .unwrap()
        .rows
        .iter()
        .map(|r| r.get(0).as_str().unwrap().to_string())
        .collect::<Vec<_>>()
        .join("\n");
    assert!(plan.contains("PartitionedHashJoin"), "{plan}");
    assert!(plan.contains("Gather(dop=4)"), "{plan}");

    let out = db.execute_in_session(&mut session, sql).unwrap();
    assert_eq!(out.rows().unwrap().rows.len(), 11);

    let t = last_trace(&db);
    assert_eq!(t.sql, sql);
    assert_eq!(t.root.name, "statement");

    // Single rooted tree: the statement thread's phases are the only
    // direct children; nothing re-parented onto the root as an orphan.
    assert!(!t.root.children.is_empty());
    for child in &t.root.children {
        assert!(
            matches!(child.name, "plan" | "execute"),
            "unexpected span at root: {} (orphan?)",
            child.name
        );
    }
    let execute = t.root.find("execute").expect("execute span");

    // Worker spans: the build side's Gather workers and the four probe
    // workers all landed under `execute`, each on its own track.
    let workers = spans_named(execute, "worker");
    assert!(!workers.is_empty(), "no worker spans:\n{:#?}", t.root);
    assert_eq!(
        workers.len(),
        spans_named(&t.root, "worker").len(),
        "every worker span must be parented under execute"
    );
    for w in &workers {
        assert_ne!(w.tid, 0, "worker spans run off the statement track");
        assert!(w.attrs.iter().any(|(k, _)| *k == "task"));
    }
    let task_of = |w: &Span| {
        w.attrs
            .iter()
            .find(|(k, _)| *k == "task")
            .map(|(_, v)| v.clone())
    };
    let probes = workers
        .iter()
        .filter(|w| task_of(w).as_deref() == Some("probe"))
        .count();
    assert_eq!(probes, 4, "one probe span per worker:\n{:#?}", t.root);
    assert!(
        workers
            .iter()
            .any(|w| task_of(w).as_deref() == Some("forward")),
        "build-side Gather worker spans missing"
    );
    // The build drains on the statement thread, once, before any probe.
    let builds = spans_named(execute, "build");
    assert_eq!(builds.len(), 1, "{:#?}", t.root);
    assert_eq!(builds[0].tid, 0, "the build runs on the statement track");
    assert!(builds[0]
        .attrs
        .iter()
        .any(|(k, v)| *k == "rows" && v == "3000"));

    // The 8-frame pool forced misses: buffer.read spans with page ids.
    let reads = spans_named(&t.root, "buffer.read");
    assert!(
        !reads.is_empty(),
        "tiny pool must produce buffer.read spans"
    );
    assert!(reads
        .iter()
        .all(|r| r.attrs.iter().any(|(k, _)| *k == "page")));

    // Timing sanity: every span closed inside the statement's wall time,
    // and self-time never exceeds a span's own duration.
    t.root.walk(&mut |s, _| {
        assert!(
            s.start_ns + s.dur_ns <= t.wall_ns,
            "span {} [{}+{}] escapes wall {}",
            s.name,
            s.start_ns,
            s.dur_ns,
            t.wall_ns
        );
        assert!(s.self_ns() <= s.dur_ns);
    });
    // The statement thread's phases are sequential, so their total is
    // bounded by the wall clock.
    let phase_total: u64 = t.root.children.iter().map(|c| c.dur_ns).sum();
    assert!(phase_total <= t.wall_ns);
}

/// `SET trace_sample = N` traces deterministically — the 1st, N+1th,
/// 2N+1th armed statements — and re-arming resets the phase.
#[test]
fn trace_sampling_is_deterministic_one_in_n() {
    let db = seeded_db();
    let mut session = SessionContext::new();
    session.set_session_id(9);
    db.execute_in_session(&mut session, "SET trace_sample = 3")
        .unwrap();
    // The SET armed the tracer during its own dispatch, after its own
    // sampling decision — so statements 2..=10 are the armed ones.
    for _ in 0..9 {
        db.execute_in_session(&mut session, "SELECT * FROM a WHERE y = 0")
            .unwrap();
    }
    let ids: Vec<String> = db.tracer().recent().iter().map(|t| t.id.clone()).collect();
    assert_eq!(
        ids,
        vec!["9-2", "9-5", "9-8"],
        "1-in-3 must be phase-locked"
    );

    // `SHOW trace_sample` reports the live rate; 0 disarms.
    let out = db
        .execute_in_session(&mut session, "SHOW trace_sample")
        .unwrap();
    assert_eq!(out.rows().unwrap().rows[0].values[0], Value::Int(3));
    // The SHOW itself was the 10th armed statement (seen=9, 9 % 3 == 0),
    // so it sampled too — the counter keeps phase across statement kinds.
    assert_eq!(db.tracer().recent().last().unwrap().id, "9-11");
    db.execute_in_session(&mut session, "SET trace_sample = 0")
        .unwrap();
    db.execute_in_session(&mut session, "SELECT * FROM a")
        .unwrap();
    assert_eq!(db.tracer().recent().len(), 4, "disarmed: no new traces");
}

/// The trace ring is bounded at 64: old traces evict oldest-first and
/// stop resolving by id.
#[test]
fn trace_ring_evicts_oldest_beyond_capacity() {
    let db = seeded_db();
    let mut session = SessionContext::new();
    session.set_session_id(3);
    db.execute_in_session(&mut session, "SET trace = on")
        .unwrap();
    for _ in 0..70 {
        db.execute_in_session(&mut session, "SELECT x FROM a WHERE x = 1")
            .unwrap();
    }
    let recent = db.tracer().recent();
    assert_eq!(recent.len(), 64);
    // Statements 2..=71 traced; the first six fell off the ring.
    assert_eq!(recent[0].id, "3-8");
    assert!(
        db.tracer().get("3-2").is_none(),
        "evicted ids must not resolve"
    );
    assert!(db.tracer().get("3-71").is_some());
}

/// `SHOW TRACES` lists the ring, `SHOW TRACE <id>` renders the tree (or
/// Chrome JSON with `FORMAT json`), and an unknown id is a clean error.
#[test]
fn show_traces_and_show_trace_render_the_ring() {
    let db = seeded_db();
    let mut session = SessionContext::new();
    session.set_session_id(5);
    db.execute_in_session(&mut session, "SET trace = on")
        .unwrap();
    db.execute_in_session(&mut session, "SELECT * FROM a WHERE y = 2")
        .unwrap();

    let out = db.execute_in_session(&mut session, "SHOW TRACES").unwrap();
    let Output::Rows(qr) = out else {
        panic!("rows")
    };
    assert_eq!(qr.columns, vec!["trace_id", "wall_ms", "spans", "sql"]);
    let row = qr
        .rows
        .iter()
        .find(|r| r.values[0] == Value::Text("5-2".into()))
        .expect("the SELECT's trace listed");
    assert_eq!(
        row.values[3],
        Value::Text("SELECT * FROM a WHERE y = 2".into())
    );
    match row.values[2] {
        Value::Int(spans) => assert!(spans >= 3, "statement+plan+execute"),
        ref other => panic!("spans should be INT, got {other:?}"),
    }

    // Tree rendering: header, sql line, then exactly one root span at
    // zero indent — a single rooted tree.
    let out = db
        .execute_in_session(&mut session, "SHOW TRACE 5-2")
        .unwrap();
    let lines: Vec<String> = out
        .rows()
        .unwrap()
        .rows
        .iter()
        .map(|r| r.get(0).as_str().unwrap().to_string())
        .collect();
    assert!(lines[0].starts_with("trace 5-2  wall="), "{}", lines[0]);
    assert_eq!(lines[1], "sql: SELECT * FROM a WHERE y = 2");
    assert!(lines[2].starts_with("statement  total="), "{}", lines[2]);
    let roots = lines[2..].iter().filter(|l| !l.starts_with(' ')).count();
    assert_eq!(roots, 1, "exactly one unindented root span:\n{lines:?}");
    assert!(
        lines
            .iter()
            .any(|l| l.contains("execute") && l.contains("rows=")),
        "{lines:?}"
    );

    // FORMAT json: a single cell holding a complete Chrome trace.
    let out = db
        .execute_in_session(&mut session, "SHOW TRACE '5-2' FORMAT json")
        .unwrap();
    let json = out.rows().unwrap().rows[0]
        .get(0)
        .as_str()
        .unwrap()
        .to_string();
    assert!(json.starts_with('{') && json.ends_with('}'), "{json}");
    assert!(json.contains("\"traceEvents\":["), "{json}");
    assert!(json.contains("\"ph\":\"X\""), "{json}");
    assert!(json.contains("\"trace_id\":\"5-2\""), "{json}");

    // Unknown ids fail with a hint, not a panic or empty result.
    let err = db
        .execute_in_session(&mut session, "SHOW TRACE 99-99")
        .unwrap_err();
    assert!(
        matches!(&err, CoreError::Unsupported(m) if m.contains("no trace '99-99'")),
        "{err:?}"
    );
}

/// Embedded statements run on snapshots of the default session, yet each
/// gets its own trace id: five traced SELECTs through `Database::execute`
/// leave five distinct ids, and `SHOW TRACE <id>` resolves each to its
/// own statement.
#[test]
fn embedded_statements_get_distinct_trace_ids() {
    let db = seeded_db();
    db.execute("SET trace = on").unwrap();
    let sqls: Vec<String> = (0..5)
        .map(|i| format!("SELECT * FROM a WHERE y = {i}"))
        .collect();
    for sql in &sqls {
        db.execute(sql).unwrap();
    }
    let ids: Vec<(String, String)> = db
        .tracer()
        .recent()
        .into_iter()
        .filter(|t| t.sql.starts_with("SELECT"))
        .map(|t| (t.id.clone(), t.sql.clone()))
        .collect();
    assert_eq!(ids.len(), 5, "{ids:?}");
    let distinct: std::collections::HashSet<&String> = ids.iter().map(|(id, _)| id).collect();
    assert_eq!(distinct.len(), 5, "trace ids repeat: {ids:?}");
    for (id, sql) in &ids {
        let out = db.execute(&format!("SHOW TRACE '{id}'")).unwrap();
        let lines: Vec<&str> = out
            .rows()
            .unwrap()
            .rows
            .iter()
            .map(|r| r.get(0).as_str().unwrap())
            .collect();
        assert_eq!(lines[1], format!("sql: {sql}"), "trace {id}");
    }
    let traced: Vec<&String> = ids.iter().map(|(_, sql)| sql).collect();
    assert_eq!(traced, sqls.iter().collect::<Vec<_>>());
}

/// Failed statements land in the slow-query log with their error text in
/// place of a plan, and — when tracing is armed — still capture their
/// trace, retrievable through `SHOW TRACE` even independent of the ring.
#[test]
fn slow_query_log_records_failed_statements_with_traces() {
    let db = seeded_db();
    let mut session = SessionContext::new();
    session.set_session_id(6);
    db.execute_in_session(&mut session, "SET slow_query_ms = 0")
        .unwrap();
    db.execute_in_session(&mut session, "SET trace = on")
        .unwrap();

    let err = db
        .execute_in_session(&mut session, "SELECT * FROM missing")
        .unwrap_err();
    let entries = db.slow_queries();
    let entry = entries
        .iter()
        .find(|e| e.sql == "SELECT * FROM missing")
        .expect("failed statement must be logged");
    let error = entry.error.as_ref().expect("error text recorded");
    assert_eq!(error, &err.to_string());
    assert!(entry.trace.is_some(), "armed tracing captures failures too");

    // SHOW slow_queries renders the error in the plan column.
    let out = db
        .execute_in_session(&mut session, "SHOW slow_queries")
        .unwrap();
    let Output::Rows(qr) = out else {
        panic!("rows")
    };
    let row = qr
        .rows
        .iter()
        .find(|r| r.values[3] == Value::Text("SELECT * FROM missing".into()))
        .expect("failed statement in SHOW slow_queries");
    match &row.values[5] {
        Value::Text(plan) => {
            assert!(plan.starts_with("error: "), "{plan}");
            assert!(plan.contains("missing"), "{plan}");
        }
        other => panic!("plan column should carry the error, got {other:?}"),
    }
    // Successful statements still have no error.
    let ok = entries.iter().find(|e| e.sql.starts_with("SET trace"));
    assert!(ok.is_some_and(|e| e.error.is_none()));
}

/// `SHOW METRICS LIKE` filters server-side: plain substrings match
/// case-insensitively, `%`/`*`/`_` patterns glob, and `.max` rows report
/// the exact largest sample of each histogram.
#[test]
fn show_metrics_like_filters_and_reports_max() {
    let db = seeded_db();
    db.execute("SELECT * FROM a WHERE y = 1").unwrap();

    let rows_of = |sql: &str| -> Vec<(String, Value)> {
        let Output::Rows(qr) = db.execute(sql).unwrap() else {
            panic!("rows")
        };
        qr.rows
            .iter()
            .map(|r| {
                let Value::Text(name) = &r.values[0] else {
                    panic!("metric name")
                };
                (name.clone(), r.values[1].clone())
            })
            .collect()
    };

    // Substring filter, case-insensitive.
    let buf = rows_of("SHOW METRICS LIKE 'BUFFER'");
    assert!(!buf.is_empty());
    assert!(buf.iter().all(|(n, _)| n.contains("buffer")), "{buf:?}");

    // Glob filter: prefix with %.
    let exec = rows_of("SHOW METRICS LIKE 'exec.rows.%'");
    assert!(!exec.is_empty());
    assert!(exec.iter().all(|(n, _)| n.starts_with("exec.rows.")));
    // A glob that matches nothing returns an empty (not erroring) set.
    assert!(rows_of("SHOW METRICS LIKE 'no.such.%'").is_empty());

    // Histogram .max rows: exact largest sample, never below p50 and
    // never above the statement's total elapsed bound of the run.
    let all = rows_of("SHOW METRICS");
    let hist: Vec<&String> = all
        .iter()
        .map(|(n, _)| n)
        .filter(|n| n.ends_with(".count"))
        .collect();
    for count_name in hist {
        let base = count_name.trim_end_matches(".count");
        let lookup = |suffix: &str| {
            all.iter()
                .find(|(n, _)| n == &format!("{base}.{suffix}"))
                .map(|(_, v)| v.clone())
        };
        let (Some(Value::Int(count)), Some(max)) = (lookup("count"), lookup("max")) else {
            panic!("histogram {base} missing count/max rows");
        };
        match (count, max) {
            (0, Value::Null) => {}
            (_, Value::Int(max)) => {
                if let Some(Value::Int(p50)) = lookup("p50") {
                    assert!(max >= p50 / 2, "{base}: max {max} vs p50 {p50}");
                }
                assert!(max > 0);
            }
            (c, other) => panic!("{base}: count={c} but max={other:?}"),
        }
    }

    // Arguments on SHOW names that don't take one are rejected.
    let err = db.execute("SHOW TABLES LIKE 'x'").unwrap_err();
    assert!(
        matches!(&err, CoreError::Unsupported(m) if m.contains("does not take an argument")),
        "{err:?}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 8, ..ProptestConfig::default() })]

    /// Tracing is observational: for randomized data and filter
    /// constants, a dop-4 parallel join+aggregate returns the identical
    /// multiset with tracing forced on as with tracing off.
    #[test]
    fn traced_statements_return_untraced_results(
        rows in proptest::collection::vec((0i64..40, 0i64..12), 1..120),
        dims in proptest::collection::vec((0i64..40, 0i64..6), 1..40),
        cutoff in 0i64..12,
    ) {
        let db = Database::with_buffer_capacity(8);
        db.execute("CREATE TABLE f (k INT, v INT)").unwrap();
        db.execute("CREATE TABLE d (k INT, grp INT)").unwrap();
        for (k, v) in &rows {
            db.execute(&format!("INSERT INTO f VALUES ({k}, {v})")).unwrap();
        }
        for (k, grp) in &dims {
            db.execute(&format!("INSERT INTO d VALUES ({k}, {grp})")).unwrap();
        }
        let mut session = SessionContext::new();
        session.set_session_id(1);
        db.execute_in_session(&mut session, "SET parallelism = 4").unwrap();
        db.execute_in_session(&mut session, "SET parallel_min_rows = 0").unwrap();
        let sql = format!(
            "SELECT d.grp, COUNT(*), SUM(f.v) FROM f, d \
             WHERE f.k = d.k AND f.v < {cutoff} GROUP BY d.grp"
        );

        let run = |session: &mut SessionContext| -> Vec<String> {
            let out = db.execute_in_session(session, &sql).unwrap();
            let mut rendered: Vec<String> = out
                .rows()
                .unwrap()
                .rows
                .iter()
                .map(|r| format!("{:?}", r.values))
                .collect();
            rendered.sort();
            rendered
        };

        let untraced = run(&mut session);
        prop_assert!(db.tracer().recent().is_empty());
        db.execute_in_session(&mut session, "SET trace = on").unwrap();
        let traced = run(&mut session);
        prop_assert!(!db.tracer().recent().is_empty(), "trace must be captured");
        prop_assert_eq!(traced, untraced);
    }
}
