//! Demo of the parallel + vectorized execution engine: morsel-driven
//! parallel scans behind `SET parallelism`, two-phase parallel
//! aggregation, the parallel hash join (one shared build table probed
//! by morsel workers; a build side big enough to fan out drains through
//! its own Gather), aggregation pushed into the probe workers,
//! vectorized projections, planner-chosen B-tree index scans, and ORDER
//! BY over unprojected columns — all surfaced through
//! `EXPLAIN [ANALYZE]`. It asserts every parallel result equals the
//! serial one.
//!
//! Run with: `cargo run --release --example parallel_exec`

use neurdb_core::Database;

fn show(db: &Database, sql: &str) {
    println!("\n> {sql}");
    let out = db.execute(sql).expect("statement");
    if let Some(rows) = out.rows() {
        for row in &rows.rows {
            println!("  {}", row.get(0).as_str().unwrap_or("?"));
        }
    }
}

fn main() {
    let db = Database::new();
    db.execute("CREATE TABLE events (eid INT PRIMARY KEY, kind INT, weight FLOAT)")
        .unwrap();
    for chunk in 0..5 {
        let mut stmt = String::from("INSERT INTO events VALUES ");
        for i in (chunk * 4000)..((chunk + 1) * 4000) {
            if i > chunk * 4000 {
                stmt.push(',');
            }
            stmt.push_str(&format!("({i}, {}, {}.75)", i % 97, i % 31));
        }
        db.execute(&stmt).unwrap();
    }
    println!("loaded 20000 events");

    // Serial baseline plan.
    show(
        &db,
        "EXPLAIN SELECT kind, COUNT(*) FROM events WHERE weight > 3 GROUP BY kind",
    );

    // Fan the scan out to 4 morsel workers; the aggregate splits into
    // per-worker partials merged at the Gather's consumer.
    db.execute("SET parallelism = 4").unwrap();
    show(
        &db,
        "EXPLAIN ANALYZE SELECT kind, COUNT(*), SUM(weight) FROM events WHERE weight > 3 GROUP BY kind",
    );

    // Results are identical either way.
    let parallel = db
        .execute("SELECT COUNT(*), SUM(weight) FROM events WHERE kind < 50")
        .unwrap();
    db.execute("SET parallelism = 1").unwrap();
    let serial = db
        .execute("SELECT COUNT(*), SUM(weight) FROM events WHERE kind < 50")
        .unwrap();
    assert_eq!(
        parallel.rows().unwrap().rows,
        serial.rows().unwrap().rows,
        "parallel and serial must agree"
    );
    println!(
        "\nparallel == serial: {:?}",
        serial.rows().unwrap().rows[0].values
    );

    // A hash join probing the big table becomes a parallel join: the
    // kinds build side drains into one shared hash table and the events
    // probe side fans out across 4 workers (per-worker rows on the join
    // line).
    db.execute("CREATE TABLE kinds (kid INT PRIMARY KEY, label INT)")
        .unwrap();
    for k in 0..97 {
        db.execute(&format!("INSERT INTO kinds VALUES ({k}, {})", k % 5))
            .unwrap();
    }
    db.execute("SET parallelism = 4").unwrap();
    show(
        &db,
        "EXPLAIN ANALYZE SELECT e.eid, k.label FROM events e, kinds k \
         WHERE e.kind = k.kid AND k.label = 2 AND e.weight > 20",
    );

    // A build side big enough to clear the gate itself keeps its own
    // Gather: its workers scan in parallel while the join drains them
    // into the one shared table, then the probe workers start. The join
    // line shows per-worker joined rows and the build's row count.
    db.execute("CREATE TABLE readings (rid INT PRIMARY KEY, eref INT, val INT)")
        .unwrap();
    for chunk in 0..2 {
        let mut stmt = String::from("INSERT INTO readings VALUES ");
        for i in (chunk * 3000)..((chunk + 1) * 3000) {
            if i > chunk * 3000 {
                stmt.push(',');
            }
            stmt.push_str(&format!("({i}, {}, {})", i % 20_000, i % 13));
        }
        db.execute(&stmt).unwrap();
    }
    show(
        &db,
        "EXPLAIN ANALYZE SELECT e.kind, r.val FROM events e, readings r \
         WHERE e.eid = r.eref AND r.val < 4",
    );

    // A small probe over a big build side is a plain hash join: the
    // probe stays serial and only the build scan fans out, behind its
    // Gather.
    db.execute("CREATE TABLE watch (wid INT PRIMARY KEY, eref INT)")
        .unwrap();
    for w in 0..50 {
        db.execute(&format!("INSERT INTO watch VALUES ({w}, {})", w * 397))
            .unwrap();
    }
    show(
        &db,
        "EXPLAIN ANALYZE SELECT w.wid, e.kind FROM watch w, events e \
         WHERE w.eref = e.eid",
    );

    // GROUP BY directly over the parallel join pushes the partial
    // aggregate into the probe workers: only per-group state rows cross
    // the output channel, merged at the final HashAggregate.
    show(
        &db,
        "EXPLAIN ANALYZE SELECT r.val, COUNT(*), SUM(e.kind) FROM events e, readings r \
         WHERE e.eid = r.eref GROUP BY r.val",
    );
    let parallel = db
        .execute(
            "SELECT COUNT(*), SUM(e.kind) FROM events e, readings r \
             WHERE e.eid = r.eref",
        )
        .unwrap();
    db.execute("SET parallelism = 1").unwrap();
    let serial = db
        .execute(
            "SELECT COUNT(*), SUM(e.kind) FROM events e, readings r \
             WHERE e.eid = r.eref",
        )
        .unwrap();
    assert_eq!(
        parallel.rows().unwrap().rows,
        serial.rows().unwrap().rows,
        "parallel join + pushed aggregate must agree with serial"
    );
    println!(
        "\nparallel join+agg == serial: {:?}",
        serial.rows().unwrap().rows[0].values
    );

    // A selective predicate on an indexed column plans as an IndexScan.
    db.execute("CREATE INDEX ON events (eid)").unwrap();
    show(&db, "EXPLAIN SELECT * FROM events WHERE eid = 12345");
    let hit = db
        .execute("SELECT kind FROM events WHERE eid = 12345")
        .unwrap();
    assert_eq!(hit.rows().unwrap().len(), 1);

    // ORDER BY over an unprojected column (hidden sort key).
    let out = db
        .execute("SELECT eid FROM events WHERE eid < 10 ORDER BY weight DESC, eid LIMIT 3")
        .unwrap();
    println!("\ntop-3 by (hidden) weight: {:?}", out.rows().unwrap().rows);
}
