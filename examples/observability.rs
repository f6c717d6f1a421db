//! End-to-end drive of the observability surface over a live TCP
//! server: a real workload, then `SHOW METRICS` (WAL fsync latency,
//! buffer gauges, per-statement-kind server histograms, executor
//! counters), the slow-query log with trace ids and plan provenance,
//! the latency columns of `SHOW SESSIONS`, and structured tracing —
//! `SET trace = on`, `SHOW TRACE <id>` as a span tree and as Chrome
//! trace JSON for Perfetto.
//!
//! ```sh
//! cargo run --release --example observability
//! # also write the sample trace body for scripts/trace_to_perfetto.py:
//! cargo run --release --example observability -- --emit-trace trace_body.json
//! ```

use neurdb_core::Database;
use neurdb_server::{client::Client, Server, ServerConfig};
use neurdb_storage::Value;
use std::sync::Arc;

fn main() {
    let dir = std::env::temp_dir().join(format!("neurdb-obs-demo-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let db = Arc::new(Database::open(&dir).expect("open durable store"));
    let handle = Server::start(db, "127.0.0.1:0", ServerConfig::default()).expect("start server");
    println!("neurdb-server listening on {}", handle.local_addr());

    let mut c = Client::connect(handle.local_addr()).expect("connect");

    // A workload that touches WAL (durable inserts), buffer pool, the
    // executor, and several statement kinds.
    c.affected("CREATE TABLE readings (id INT PRIMARY KEY, sensor INT, v FLOAT)")
        .unwrap();
    for i in 0..200 {
        c.affected(&format!(
            "INSERT INTO readings VALUES ({i}, {}, {}.5)",
            i % 10,
            i % 40
        ))
        .unwrap();
    }
    // Log every statement from here on (threshold 0 ms) so the slow-query
    // log demonstrably captures provenance.
    c.affected("SET slow_query_ms = 0").unwrap();
    let rows = c
        .query("SELECT sensor, COUNT(*) FROM readings GROUP BY sensor")
        .unwrap();
    assert_eq!(rows.rows.len(), 10);

    println!("\nSHOW METRICS (selected):");
    let metrics = c.query("SHOW METRICS").unwrap();
    let mut shown = 0;
    for row in &metrics.rows {
        let Value::Text(name) = &row[0] else { continue };
        if name.starts_with("wal.fsync_ns")
            || name.starts_with("buffer.hit")
            || name.starts_with("srv.stmt_ns.insert")
            || name.starts_with("srv.stmt_ns.select")
            || name.starts_with("exec.rows")
            || name.starts_with("srv.bytes")
        {
            println!("  {name:<28} = {:?}", row[1]);
            shown += 1;
        }
    }
    assert!(shown >= 8, "expected a populated metrics listing");

    println!("\nSHOW slow_queries:");
    let slow = c.query("SHOW slow_queries").unwrap();
    assert!(!slow.rows.is_empty(), "threshold 0 must capture statements");
    for row in &slow.rows {
        let (Value::Text(trace), Value::Float(ms), Value::Text(sql)) = (&row[0], &row[2], &row[3])
        else {
            panic!("unexpected slow-query row shape: {row:?}")
        };
        println!("  trace={trace} {ms:.3}ms  {sql}");
        if let Value::Text(plan) = &row[5] {
            for line in plan.lines() {
                println!("      {line}");
            }
        }
    }

    println!("\nSHOW SESSIONS (with latency columns):");
    let sessions = c.query("SHOW SESSIONS").unwrap();
    assert!(sessions.columns.contains(&"total_ms".to_string()));
    assert!(sessions.columns.contains(&"last_ms".to_string()));
    for row in &sessions.rows {
        println!(
            "  id={:?} statements={:?} total_ms={:?} last_ms={:?}",
            row[0], row[2], row[4], row[5]
        );
    }

    // Structured tracing: force a trace, run a dop-4 parallel join, and
    // pull the span tree back over the wire.
    c.affected("SET parallelism = 4").unwrap();
    // The demo table is small; force the parallel plan so the trace
    // shows the worker span tracks (the probe workers and the build
    // side's Gather workers) and the join's build span.
    c.affected("SET parallel_min_rows = 0").unwrap();
    c.affected("SET trace = on").unwrap();
    let join_sql = "SELECT r.sensor, COUNT(*), SUM(s.v) FROM readings r, readings s \
                    WHERE r.id = s.id GROUP BY r.sensor";
    let _ = c.query(join_sql).unwrap();

    let traces = c.query("SHOW TRACES").unwrap();
    let trace_id = traces
        .rows
        .iter()
        .rev()
        .find(|r| r[3] == Value::Text(join_sql.into()))
        .map(|r| match &r[0] {
            Value::Text(id) => id.clone(),
            other => panic!("{other:?}"),
        })
        .expect("join trace listed");

    println!("\nSHOW TRACE {trace_id}:");
    let tree = c.query(&format!("SHOW TRACE '{trace_id}'")).unwrap();
    for row in &tree.rows {
        if let Value::Text(line) = &row[0] {
            println!("  {line}");
        }
    }

    let json = c
        .query(&format!("SHOW TRACE '{trace_id}' FORMAT json"))
        .unwrap();
    let Value::Text(body) = &json.rows[0][0] else {
        panic!("FORMAT json should return one TEXT cell")
    };
    assert!(body.contains("\"traceEvents\":["));
    let args: Vec<String> = std::env::args().collect();
    if let Some(path) = args
        .iter()
        .position(|a| a == "--emit-trace")
        .and_then(|i| args.get(i + 1))
    {
        std::fs::write(path, body).expect("write trace body");
        println!("\nwrote Chrome trace body to {path} (feed to scripts/trace_to_perfetto.py)");
    }

    c.close().unwrap();
    handle.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
    println!("\nserver shut down cleanly — observability surface verified");
}
