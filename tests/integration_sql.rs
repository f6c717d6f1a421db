//! End-to-end SQL sessions: DDL, DML, scans, joins, aggregates, ordering.

use neurdb_core::{Database, Output};
use neurdb_storage::Value;

fn db_with_users() -> Database {
    let db = Database::new();
    db.execute("CREATE TABLE users (id INT PRIMARY KEY, name TEXT NOT NULL, age INT)")
        .unwrap();
    db.execute(
        "INSERT INTO users VALUES (1, 'ada', 36), (2, 'bob', 25), (3, 'carol', 41), (4, 'dan', 25)",
    )
    .unwrap();
    db
}

#[test]
fn create_insert_select_roundtrip() {
    let db = db_with_users();
    let out = db.execute("SELECT * FROM users").unwrap();
    let rows = out.rows().unwrap();
    assert_eq!(rows.len(), 4);
    assert_eq!(rows.columns, vec!["id", "name", "age"]);
}

#[test]
fn where_filters_and_projection() {
    let db = db_with_users();
    let out = db.execute("SELECT name FROM users WHERE age = 25").unwrap();
    let rows = out.rows().unwrap();
    assert_eq!(rows.len(), 2);
    let names: Vec<&str> = rows.rows.iter().filter_map(|r| r.get(0).as_str()).collect();
    assert!(names.contains(&"bob") && names.contains(&"dan"));
}

#[test]
fn update_and_delete() {
    let db = db_with_users();
    let n = db
        .execute("UPDATE users SET age = age + 1 WHERE name = 'bob'")
        .unwrap();
    assert_eq!(n.affected(), Some(1));
    let out = db
        .execute("SELECT age FROM users WHERE name = 'bob'")
        .unwrap();
    assert_eq!(out.rows().unwrap().rows[0].get(0), &Value::Int(26));
    let n = db.execute("DELETE FROM users WHERE age > 40").unwrap();
    assert_eq!(n.affected(), Some(1));
    let out = db.execute("SELECT COUNT(*) FROM users").unwrap();
    assert_eq!(out.rows().unwrap().rows[0].get(0), &Value::Int(3));
}

#[test]
fn join_two_tables() {
    let db = db_with_users();
    db.execute("CREATE TABLE posts (pid INT PRIMARY KEY, owner INT, score INT)")
        .unwrap();
    db.execute("INSERT INTO posts VALUES (10, 1, 5), (11, 1, 8), (12, 2, 3), (13, 9, 1)")
        .unwrap();
    let out = db
        .execute(
            "SELECT u.name, p.score FROM users u, posts p WHERE u.id = p.owner AND p.score > 4",
        )
        .unwrap();
    let rows = out.rows().unwrap();
    assert_eq!(rows.len(), 2);
    assert!(rows.rows.iter().all(|r| r.get(0).as_str() == Some("ada")));
}

#[test]
fn three_way_join() {
    let db = db_with_users();
    db.execute("CREATE TABLE posts (pid INT PRIMARY KEY, owner INT)")
        .unwrap();
    db.execute("CREATE TABLE comments (cid INT PRIMARY KEY, post INT)")
        .unwrap();
    db.execute("INSERT INTO posts VALUES (10, 1), (11, 2)")
        .unwrap();
    db.execute("INSERT INTO comments VALUES (100, 10), (101, 10), (102, 11)")
        .unwrap();
    let out = db
        .execute(
            "SELECT u.name, c.cid FROM users u, posts p, comments c \
             WHERE u.id = p.owner AND p.pid = c.post",
        )
        .unwrap();
    assert_eq!(out.rows().unwrap().len(), 3);
}

#[test]
fn group_by_and_aggregates() {
    let db = db_with_users();
    let out = db
        .execute("SELECT age, COUNT(*) FROM users GROUP BY age ORDER BY age")
        .unwrap();
    let rows = out.rows().unwrap();
    assert_eq!(rows.len(), 3);
    assert_eq!(rows.rows[0].values, vec![Value::Int(25), Value::Int(2)]);
    let out = db
        .execute("SELECT MIN(age), MAX(age), AVG(age), SUM(age) FROM users")
        .unwrap();
    let r = &out.rows().unwrap().rows[0];
    assert_eq!(r.get(0), &Value::Int(25));
    assert_eq!(r.get(1), &Value::Int(41));
    assert_eq!(r.get(2), &Value::Float(31.75));
    assert_eq!(r.get(3), &Value::Float(127.0));
}

#[test]
fn order_by_and_limit() {
    let db = db_with_users();
    let out = db
        .execute("SELECT name, age FROM users ORDER BY age DESC, name ASC LIMIT 2")
        .unwrap();
    let rows = out.rows().unwrap();
    assert_eq!(rows.len(), 2);
    assert_eq!(rows.rows[0].get(0).as_str(), Some("carol"));
    assert_eq!(rows.rows[1].get(0).as_str(), Some("ada"));
}

#[test]
fn order_by_source_name_of_projected_column() {
    let db = db_with_users();
    // `u.name` is projected under the output name "u.name"; ORDER BY by
    // its source-table name still resolves through the projection map.
    let out = db
        .execute("SELECT users.age FROM users ORDER BY users.age DESC LIMIT 1")
        .unwrap();
    assert_eq!(out.rows().unwrap().rows[0].get(0), &Value::Int(41));
}

#[test]
fn order_by_unprojected_column_sorts_like_standard_sql() {
    let db = db_with_users();
    // "name" is not in the projection: the planner projects it as a
    // hidden sort key, sorts, and strips it — standard SQL semantics.
    let out = db
        .execute("SELECT age FROM users ORDER BY name DESC")
        .unwrap();
    let rows = out.rows().unwrap();
    assert_eq!(rows.columns, vec!["age"], "hidden key must be stripped");
    let ages: Vec<_> = rows.rows.iter().map(|r| r.get(0).clone()).collect();
    // names are ada(36), bob(25), carol(41), dan(25) -> DESC by name.
    assert_eq!(
        ages,
        vec![
            Value::Int(25),
            Value::Int(41),
            Value::Int(25),
            Value::Int(36)
        ]
    );
    // A key over a column that exists nowhere still errors.
    assert!(db.execute("SELECT age FROM users ORDER BY nope").is_err());
    // Aggregated queries cannot sort by keys outside the SELECT list.
    assert!(db
        .execute("SELECT COUNT(*) FROM users GROUP BY age ORDER BY name")
        .is_err());
}

#[test]
fn secondary_index_usable() {
    let db = db_with_users();
    db.execute("CREATE INDEX ON users (age)").unwrap();
    let t = db.table("users").unwrap();
    let idx = t.schema.column_index("age").unwrap();
    assert!(t.has_index(idx));
    let hits = t.lookup(idx, &Value::Int(25)).unwrap();
    assert_eq!(hits.len(), 2);
    // UPDATE/DELETE take the index too, and a predicate naming an
    // unknown column still fails although the index alone would match
    // no row.
    for sql in [
        "UPDATE users SET age = 1 WHERE nope = 1 AND age = 99",
        "DELETE FROM users WHERE nope = 1 AND age = 99",
    ] {
        assert!(db.execute(sql).is_err(), "{sql}");
    }
    assert_eq!(
        db.execute("UPDATE users SET age = 26 WHERE age = 25")
            .unwrap()
            .affected(),
        Some(2)
    );
    assert_eq!(t.lookup(idx, &Value::Int(26)).unwrap().len(), 2);
}

#[test]
fn constraint_errors_surface() {
    let db = db_with_users();
    // NULL into NOT NULL column.
    assert!(db
        .execute("INSERT INTO users VALUES (5, NULL, 10)")
        .is_err());
    // Unknown table / column.
    assert!(db.execute("SELECT * FROM missing").is_err());
    assert!(db.execute("SELECT nope FROM users").is_err());
    // Duplicate create.
    assert!(db.execute("CREATE TABLE users (x INT)").is_err());
}

/// Sorted rows of `t`, plus what an index lookup of every id returns
/// when `t (id)` is indexed.
fn table_digest(db: &Database) -> Vec<String> {
    let t = db.table("t").unwrap();
    let mut rows: Vec<String> = t
        .scan()
        .unwrap()
        .into_iter()
        .map(|(_, r)| format!("{r:?}"))
        .collect();
    if t.has_index(0) {
        for id in 0..5 {
            let hits = t.lookup(0, &Value::Int(id)).unwrap();
            rows.push(format!("idx {id} -> {}", hits.len()));
        }
    }
    rows.sort();
    rows
}

/// An autocommit statement is all-or-nothing: a multi-row INSERT whose
/// second row violates NOT NULL, and an UPDATE whose after-image turns
/// NULL on the second row it touches, each fail and leave the table
/// (and its index) exactly as it was.
#[test]
fn failed_autocommit_statements_leave_no_partial_effects() {
    for indexed in [false, true] {
        let db = Database::new();
        db.execute("CREATE TABLE t (id INT, v INT NOT NULL)")
            .unwrap();
        if indexed {
            db.execute("CREATE INDEX ON t (id)").unwrap();
        }
        let before = table_digest(&db);
        let err = db
            .execute("INSERT INTO t VALUES (1, 1), (2, NULL), (3, 3)")
            .unwrap_err();
        assert!(format!("{err}").contains("null"), "got: {err}");
        assert_eq!(table_digest(&db), before, "indexed: {indexed}");

        db.execute("INSERT INTO t VALUES (1, 1), (2, 2), (3, 3)")
            .unwrap();
        let before = table_digest(&db);
        // 10 / (id - 2) divides by zero at id 2, which evaluates to NULL.
        assert!(db.execute("UPDATE t SET v = 10 / (id - 2)").is_err());
        assert_eq!(table_digest(&db), before, "indexed: {indexed}");
        // The table still takes a statement that succeeds.
        assert_eq!(
            db.execute("UPDATE t SET v = v + 1 WHERE id >= 2")
                .unwrap()
                .affected(),
            Some(2)
        );
    }
}

#[test]
fn drop_table() {
    let db = db_with_users();
    db.execute("DROP TABLE users").unwrap();
    assert!(db.execute("SELECT * FROM users").is_err());
    assert!(matches!(
        db.execute("DROP TABLE users"),
        Err(neurdb_core::CoreError::UnknownTable(_))
    ));
}

#[test]
fn script_execution() {
    let db = Database::new();
    let out = db
        .execute_script(
            "CREATE TABLE t (a INT); \
             INSERT INTO t VALUES (1), (2), (3); \
             SELECT SUM(a) FROM t;",
        )
        .unwrap();
    match out {
        Output::Rows(r) => assert_eq!(r.rows[0].get(0), &Value::Float(6.0)),
        other => panic!("{other:?}"),
    }
}

#[test]
fn stats_schema_loads_and_queries_parse() {
    // The 8 STATS SPJ queries parse and the drift statements execute
    // against real tables.
    let db = Database::new();
    for name in neurdb_workloads::stats::TABLE_NAMES {
        db.execute(&format!(
            "CREATE TABLE {name} (id INT, ref_id INT, score INT)"
        ))
        .unwrap();
        db.execute(&format!("INSERT INTO {name} VALUES (1, 1, 50), (2, 1, 80)"))
            .unwrap();
    }
    for s in neurdb_workloads::drift_statements(30, 5) {
        db.execute(&s).unwrap();
    }
    for q in neurdb_workloads::stats_queries() {
        // All 8 SPJ queries must at least execute (counts may be zero).
        db.execute(&q.sql)
            .unwrap_or_else(|e| panic!("q{} failed: {e}", q.id));
    }
}

fn plan_text(db: &Database, sql: &str) -> String {
    let out = db.execute(sql).unwrap();
    let rows = out.rows().unwrap();
    assert_eq!(rows.columns, vec!["plan"]);
    rows.rows
        .iter()
        .map(|r| r.get(0).as_str().unwrap().to_string())
        .collect::<Vec<_>>()
        .join("\n")
}

#[test]
fn explain_shows_plan_tree() {
    let db = db_with_users();
    let plan = plan_text(&db, "EXPLAIN SELECT name FROM users WHERE age = 25");
    assert!(plan.contains("Project(name)"), "{plan}");
    assert!(plan.contains("SeqScan(users)"), "{plan}");
    assert!(plan.contains("filter=[age = 25]"), "{plan}");
    // Plain EXPLAIN carries estimates but no runtime counters.
    assert!(plan.contains("est="), "{plan}");
    assert!(!plan.contains("rows="), "{plan}");
}

#[test]
fn explain_analyze_three_way_join_reports_operator_rows() {
    let db = db_with_users();
    db.execute("CREATE TABLE posts (pid INT PRIMARY KEY, owner INT)")
        .unwrap();
    db.execute("CREATE TABLE comments (cid INT PRIMARY KEY, post INT)")
        .unwrap();
    db.execute("INSERT INTO posts VALUES (10, 1), (11, 2)")
        .unwrap();
    db.execute("INSERT INTO comments VALUES (100, 10), (101, 10), (102, 11)")
        .unwrap();
    let plan = plan_text(
        &db,
        "EXPLAIN ANALYZE SELECT u.name, c.cid FROM users u, posts p, comments c \
         WHERE u.id = p.owner AND p.pid = c.post",
    );
    // ≥2 joins: the join order came from neurdb-qo.
    assert!(plan.contains("join order: neurdb-qo/dp"), "{plan}");
    assert_eq!(plan.matches("HashJoin").count(), 2, "{plan}");
    // Per-operator runtime counters are attached to every plan line.
    assert!(plan.contains("rows=3"), "{plan}");
    assert!(plan.contains("batches="), "{plan}");
    assert!(plan.contains("time="), "{plan}");
    // The ANALYZE result matches the real execution's row count.
    let out = db
        .execute(
            "SELECT u.name, c.cid FROM users u, posts p, comments c \
             WHERE u.id = p.owner AND p.pid = c.post",
        )
        .unwrap();
    assert_eq!(out.rows().unwrap().len(), 3);
}

#[test]
fn explain_rejects_non_select() {
    let db = db_with_users();
    assert!(db
        .execute("EXPLAIN INSERT INTO users VALUES (9, 'zed', 1)")
        .is_err());
}

#[test]
fn learned_optimizer_routes_join_ordering() {
    use neurdb_qo::{NeurQo, PretrainConfig};
    let db = db_with_users();
    db.execute("CREATE TABLE posts (pid INT PRIMARY KEY, owner INT)")
        .unwrap();
    db.execute("CREATE TABLE comments (cid INT PRIMARY KEY, post INT)")
        .unwrap();
    db.execute("INSERT INTO posts VALUES (10, 1), (11, 2)")
        .unwrap();
    db.execute("INSERT INTO comments VALUES (100, 10), (101, 11)")
        .unwrap();
    let (nq, _) = NeurQo::pretrained(
        PretrainConfig {
            iters: 30,
            tables: 3,
            candidates: 4,
        },
        7,
    );
    db.set_join_optimizer(Box::new(nq));
    let sql = "SELECT u.name, c.cid FROM users u, posts p, comments c \
               WHERE u.id = p.owner AND p.pid = c.post";
    let plan = plan_text(&db, &format!("EXPLAIN {sql}"));
    assert!(plan.contains("join order: neurdb-qo/neurdb"), "{plan}");
    // The learned plan returns the same result set as the DP baseline.
    let learned: Vec<_> = db.execute(sql).unwrap().rows().unwrap().rows.clone();
    db.clear_join_optimizer();
    let baseline: Vec<_> = db.execute(sql).unwrap().rows().unwrap().rows.clone();
    let key = |r: &neurdb_storage::Tuple| format!("{:?}", r.values);
    let mut a: Vec<String> = learned.iter().map(key).collect();
    let mut b: Vec<String> = baseline.iter().map(key).collect();
    a.sort();
    b.sort();
    assert_eq!(a, b);
}

#[test]
fn buffer_stats_exposed() {
    let db = db_with_users();
    for _ in 0..20 {
        db.execute("SELECT * FROM users").unwrap();
    }
    let stats = db.buffer_stats();
    assert!(stats.hits > 0);
    assert!(stats.hit_ratio() > 0.5);
}

// ------------------- parallel + vectorized execution -------------------

fn db_with_big_table(rows: usize) -> Database {
    let db = Database::new();
    db.execute("CREATE TABLE big (id INT PRIMARY KEY, grp INT, score FLOAT)")
        .unwrap();
    let mut stmt = String::from("INSERT INTO big VALUES ");
    for i in 0..rows {
        if i > 0 {
            stmt.push(',');
        }
        stmt.push_str(&format!("({i}, {}, {}.25)", i % 7, i % 50));
    }
    db.execute(&stmt).unwrap();
    db
}

fn sorted_rows(db: &Database, sql: &str) -> Vec<String> {
    let out = db.execute(sql).unwrap();
    let mut rows: Vec<String> = out
        .rows()
        .unwrap()
        .rows
        .iter()
        .map(|r| format!("{:?}", r.values))
        .collect();
    rows.sort();
    rows
}

#[test]
fn set_parallelism_gathers_large_scans() {
    let db = db_with_big_table(4000);
    let queries = [
        "SELECT id FROM big WHERE grp = 3 AND score > 10",
        "SELECT COUNT(*), SUM(score), MIN(id), MAX(id), AVG(score) FROM big WHERE grp < 5",
        "SELECT grp, COUNT(*), SUM(id) FROM big GROUP BY grp",
        "SELECT grp, COUNT(*) FROM big WHERE score > 20 GROUP BY grp ORDER BY grp",
    ];
    let serial: Vec<_> = queries.iter().map(|q| sorted_rows(&db, q)).collect();

    db.execute("SET parallelism = 4").unwrap();
    assert_eq!(db.parallelism(), 4);
    // The plan now fans the scan out behind a Gather.
    let plan = db
        .execute("EXPLAIN SELECT id FROM big WHERE grp = 3")
        .unwrap();
    let text: Vec<String> = plan
        .rows()
        .unwrap()
        .rows
        .iter()
        .map(|r| r.get(0).as_str().unwrap().to_string())
        .collect();
    let text = text.join("\n");
    assert!(text.contains("Gather(dop="), "{text}");
    assert!(
        text.contains("dop=4") || text.contains("dop=3") || text.contains("dop=2"),
        "{text}"
    );

    // Aggregates over a parallel scan split into partial + merge phases.
    let plan = db
        .execute("EXPLAIN SELECT grp, COUNT(*) FROM big GROUP BY grp")
        .unwrap();
    let text: Vec<String> = plan
        .rows()
        .unwrap()
        .rows
        .iter()
        .map(|r| r.get(0).as_str().unwrap().to_string())
        .collect();
    let text = text.join("\n");
    assert!(text.contains("PartialHashAggregate"), "{text}");
    assert!(text.contains("HashAggregate"), "{text}");

    // Results are identical to the serial run (order-normalized).
    for (q, want) in queries.iter().zip(&serial) {
        assert_eq!(&sorted_rows(&db, q), want, "parallel mismatch for {q}");
    }

    // EXPLAIN ANALYZE reports per-worker row counts at the Gather.
    let plan = db
        .execute("EXPLAIN ANALYZE SELECT COUNT(*) FROM big")
        .unwrap();
    let text: Vec<String> = plan
        .rows()
        .unwrap()
        .rows
        .iter()
        .map(|r| r.get(0).as_str().unwrap().to_string())
        .collect();
    let text = text.join("\n");
    assert!(text.contains("workers=["), "{text}");

    // LIMIT tears the workers down early without hanging or erroring.
    let out = db.execute("SELECT id FROM big LIMIT 5").unwrap();
    assert_eq!(out.rows().unwrap().len(), 5);

    db.execute("SET parallelism = 1").unwrap();
    assert_eq!(db.parallelism(), 1);
    assert!(db.execute("SET parallelism = 0").is_err());
    assert!(db.execute("SET nonsense = 1").is_err());
}

/// Multi-join `EXPLAIN ANALYZE` at `SET parallelism 4`: hash joins over
/// a fan-out-worthy probe side run as partitioned parallel joins and
/// report per-worker joined-row counts, exactly like parallel scans.
#[test]
fn partitioned_join_reports_per_worker_metrics() {
    let db = Database::new();
    db.execute("CREATE TABLE facts (fid INT PRIMARY KEY, uid INT, tag INT)")
        .unwrap();
    db.execute("CREATE TABLE users (uid INT PRIMARY KEY, grp INT)")
        .unwrap();
    db.execute("CREATE TABLE tags (tag INT PRIMARY KEY, kind INT)")
        .unwrap();
    let mut stmt = String::from("INSERT INTO facts VALUES ");
    for i in 0..6000 {
        if i > 0 {
            stmt.push(',');
        }
        stmt.push_str(&format!("({i}, {}, {})", i % 40, i % 25));
    }
    db.execute(&stmt).unwrap();
    for u in 0..40 {
        db.execute(&format!("INSERT INTO users VALUES ({u}, {})", u % 4))
            .unwrap();
    }
    for t in 0..25 {
        db.execute(&format!("INSERT INTO tags VALUES ({t}, {})", t % 3))
            .unwrap();
    }
    let sql = "SELECT u.grp, t.kind FROM facts f, users u, tags t \
               WHERE f.uid = u.uid AND f.tag = t.tag AND u.grp = 1";

    let serial = sorted_rows(&db, sql);
    db.execute("SET parallelism = 4").unwrap();
    let plan = plan_text(&db, &format!("EXPLAIN ANALYZE {sql}"));
    assert!(plan.contains("PartitionedHashJoin"), "{plan}");
    assert!(plan.contains("dop=4"), "{plan}");
    // The partitioned join's line carries its own per-worker rows.
    let join_line = plan
        .lines()
        .find(|l| l.contains("PartitionedHashJoin"))
        .unwrap();
    assert!(join_line.contains("workers=["), "{plan}");
    // And the result multiset is identical to the serial plan's.
    assert_eq!(sorted_rows(&db, sql), serial, "{plan}");
}

/// `AVG` through the two-phase parallel aggregate must merge
/// `[count, sum]` state and recompute `sum/count` at the gather — never
/// average the per-worker averages. The filter makes the qualifying row
/// counts wildly unequal across the page-range partitions, where a
/// mean-of-means would be far off.
#[test]
fn parallel_avg_with_skewed_partitions() {
    let db = Database::new();
    db.execute("CREATE TABLE seq (id INT PRIMARY KEY, v FLOAT)")
        .unwrap();
    let mut stmt = String::from("INSERT INTO seq VALUES ");
    for i in 0..4000 {
        if i > 0 {
            stmt.push(',');
        }
        stmt.push_str(&format!("({i}, {i}.0)"));
    }
    db.execute(&stmt).unwrap();
    // Qualifying rows: v in [0, 1500) plus [3800, 4000) — roughly
    // 1000/500/0/200 rows across 4 contiguous page-range partitions.
    let sql = "SELECT AVG(v), SUM(v), COUNT(*) FROM seq WHERE v < 1500 OR v >= 3800";
    let exact_sum = (0..1500).sum::<i64>() + (3800..4000).sum::<i64>();
    let exact_avg = exact_sum as f64 / 1700.0;

    let serial = db.execute(sql).unwrap();
    db.execute("SET parallelism = 4").unwrap();
    let parallel = db.execute(sql).unwrap();
    for out in [&serial, &parallel] {
        let r = &out.rows().unwrap().rows[0];
        assert_eq!(r.get(0), &Value::Float(exact_avg));
        assert_eq!(r.get(1), &Value::Float(exact_sum as f64));
        assert_eq!(r.get(2), &Value::Int(1700));
    }
}

/// Worker partitions whose aggregate column is entirely NULL (or that
/// see no qualifying rows at all) encode `count=0` and absent min/max;
/// merging those states must not poison the group's MIN/MAX/SUM/AVG.
#[test]
fn parallel_aggregates_over_all_null_partitions() {
    let db = Database::new();
    db.execute("CREATE TABLE nh (id INT PRIMARY KEY, g INT, v INT)")
        .unwrap();
    // First ~2 of 4 page-range partitions carry only NULL v; group 9 is
    // all-NULL everywhere.
    let mut stmt = String::from("INSERT INTO nh VALUES ");
    for i in 0..3000i64 {
        if i > 0 {
            stmt.push(',');
        }
        let g = if i % 10 == 9 { 9 } else { i % 3 };
        if i < 2000 || g == 9 {
            stmt.push_str(&format!("({i}, {g}, NULL)"));
        } else {
            stmt.push_str(&format!("({i}, {g}, {i})"));
        }
    }
    db.execute(&stmt).unwrap();
    let queries = [
        "SELECT MIN(v), MAX(v), SUM(v), AVG(v), COUNT(v), COUNT(*) FROM nh",
        "SELECT g, MIN(v), MAX(v), SUM(v), COUNT(v) FROM nh GROUP BY g",
        "SELECT MIN(v), MAX(v) FROM nh WHERE g = 9", // every value NULL
    ];
    let serial: Vec<_> = queries.iter().map(|q| sorted_rows(&db, q)).collect();
    db.execute("SET parallelism = 4").unwrap();
    for (q, want) in queries.iter().zip(&serial) {
        assert_eq!(&sorted_rows(&db, q), want, "dop=4 diverged for {q}");
    }
    // The all-NULL group yields NULL aggregates, not a poisoned value.
    let out = db
        .execute("SELECT MIN(v), SUM(v) FROM nh WHERE g = 9")
        .unwrap();
    assert_eq!(
        out.rows().unwrap().rows[0].values,
        vec![Value::Null, Value::Null]
    );
}

/// `LIMIT 1` over a parallel scan at dop=4, with far more batches than
/// the bounded exchange queue holds: the early receiver drop must
/// unblock workers stuck on a full queue and join them — no deadlock,
/// no leaked threads, repeatedly.
#[test]
fn limit_tears_down_blocked_parallel_workers() {
    let db = db_with_big_table(20_000);
    db.execute("SET parallelism = 4").unwrap();
    for _ in 0..5 {
        let out = db.execute("SELECT id FROM big LIMIT 1").unwrap();
        assert_eq!(out.rows().unwrap().len(), 1);
    }
    // Same teardown with the partitioned join's probe workers.
    db.execute("CREATE TABLE dims (grp INT PRIMARY KEY, label INT)")
        .unwrap();
    for g in 0..7 {
        db.execute(&format!("INSERT INTO dims VALUES ({g}, {})", g * 10))
            .unwrap();
    }
    for _ in 0..5 {
        let out = db
            .execute("SELECT b.id, d.label FROM big b, dims d WHERE b.grp = d.grp LIMIT 1")
            .unwrap();
        assert_eq!(out.rows().unwrap().len(), 1);
    }
    // Big-build teardown: the build side fans out too, so its Gather
    // drains 5,000 rows into the join table before the probe workers
    // start. LIMIT 1 then leaves probe workers blocked on the full
    // output channel; the consumer dropping its receiver must unblock
    // and join them all, repeatedly.
    let mut stmt = String::from("INSERT INTO bigdims VALUES ");
    db.execute("CREATE TABLE bigdims (gid INT PRIMARY KEY, label INT)")
        .unwrap();
    for g in 0..5000 {
        if g > 0 {
            stmt.push(',');
        }
        stmt.push_str(&format!("({g}, {})", g * 10));
    }
    db.execute(&stmt).unwrap();
    let sql = "SELECT b.id, d.label FROM big b, bigdims d WHERE b.grp = d.gid LIMIT 1";
    let plan = plan_text(
        &db,
        &format!("EXPLAIN {}", sql.trim_end_matches(" LIMIT 1")),
    );
    assert_gathered_build(&plan);
    for _ in 0..5 {
        let out = db.execute(sql).unwrap();
        assert_eq!(out.rows().unwrap().len(), 1);
    }
}

/// Assert that a rendered plan's first parallel join has a fanned-out
/// build side: the join, its probe scan (which runs inside the probe
/// workers, so no Gather), then the build scan under its own Gather.
fn assert_gathered_build(plan: &str) {
    let lines: Vec<&str> = plan.lines().collect();
    let j = lines
        .iter()
        .position(|l| l.contains("PartitionedHashJoin"))
        .unwrap_or_else(|| panic!("no parallel join:\n{plan}"));
    assert!(lines[j + 1].contains("├─ SeqScan("), "{plan}");
    assert!(lines[j + 2].contains("└─ Gather("), "{plan}");
    assert!(lines[j + 3].contains("└─ SeqScan("), "{plan}");
}

/// The parallel join's shapes — a probe that fans out over a gathered
/// build side, a serial probe over a gathered build side, and two-phase
/// aggregation fused into the probe workers — must match the serial
/// plans row-for-row and surface per-worker and build row counts in
/// `EXPLAIN ANALYZE`.
#[test]
fn parallel_join_shapes_match_serial_and_report_metrics() {
    let db = Database::new();
    db.execute("CREATE TABLE bf (id INT PRIMARY KEY, k INT, v INT)")
        .unwrap();
    db.execute("CREATE TABLE bd (did INT PRIMARY KEY, grp INT)")
        .unwrap();
    db.execute("CREATE TABLE sp (sid INT PRIMARY KEY, k INT)")
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
    for s in 0..100 {
        db.execute(&format!("INSERT INTO sp VALUES ({s}, {})", s * 17))
            .unwrap();
    }

    let both_parallel = "SELECT f.v, d.grp FROM bf f, bd d WHERE f.k = d.did";
    let serial_probe = "SELECT s.sid, d.grp FROM sp s, bd d WHERE s.k = d.did";
    let join_agg_grouped =
        "SELECT d.grp, COUNT(*), SUM(f.v) FROM bf f, bd d WHERE f.k = d.did GROUP BY d.grp";
    let join_agg_global = "SELECT COUNT(*), SUM(f.v), MIN(f.v), MAX(d.grp), AVG(f.v) \
                           FROM bf f, bd d WHERE f.k = d.did";
    let queries = [
        both_parallel,
        serial_probe,
        join_agg_grouped,
        join_agg_global,
    ];
    let serial: Vec<_> = queries.iter().map(|q| sorted_rows(&db, q)).collect();

    db.execute("SET parallelism = 4").unwrap();

    // Both scans clear the fan-out gate: the probe scan runs inside the
    // join's workers and the build side drains through its own Gather,
    // with per-worker joined rows and the build's row count on the join
    // line.
    let plan = plan_text(&db, &format!("EXPLAIN ANALYZE {both_parallel}"));
    assert_gathered_build(&plan);
    let join_line = plan
        .lines()
        .find(|l| l.contains("PartitionedHashJoin"))
        .unwrap();
    assert!(join_line.contains("workers=["), "{plan}");
    assert!(join_line.contains("build=[3000]"), "{plan}");

    // A probe side below the gate makes a plain hash join; its build
    // side keeps the Gather its scan got.
    let plan = plan_text(&db, &format!("EXPLAIN ANALYZE {serial_probe}"));
    assert!(!plan.contains("PartitionedHashJoin"), "{plan}");
    assert!(plan.contains("HashJoin"), "{plan}");
    assert!(plan.contains("Gather(dop=4)"), "{plan}");

    // Aggregates directly above a parallel join run two-phase: the
    // partial phase is fused into the probe workers.
    let plan = plan_text(&db, &format!("EXPLAIN ANALYZE {join_agg_grouped}"));
    assert!(plan.contains("PartialHashAggregate"), "{plan}");
    assert_gathered_build(&plan);

    // Every shape matches its serial result multiset.
    for (q, want) in queries.iter().zip(&serial) {
        assert_eq!(&sorted_rows(&db, q), want, "dop=4 mismatch for {q}");
    }
}

/// The `olap_drift` join shape: a 1,000-row dimension clears the
/// fan-out gate at dop 2, yet it is only the build side of a join with a
/// 20,000-row fact table. The plan keeps the one parallel shape — fact
/// probed in workers, the dimension drained through its Gather — and
/// `EXPLAIN ANALYZE` counts the same rows as at dop 1, operator by
/// operator where the two plans share an operator.
#[test]
fn olap_shaped_join_gathers_small_build_side_at_dop2() {
    let db = Database::new();
    db.execute("CREATE TABLE dim1 (id INT, cat INT)").unwrap();
    db.execute("CREATE TABLE fact (id INT, d1 INT, v INT)")
        .unwrap();
    let dim: Vec<String> = (0..1000).map(|i| format!("({i}, {})", i % 16)).collect();
    db.execute(&format!("INSERT INTO dim1 VALUES {}", dim.join(", ")))
        .unwrap();
    for chunk in 0..20 {
        let rows: Vec<String> = (chunk * 1000..(chunk + 1) * 1000)
            .map(|i| format!("({i}, {}, {})", (i * 7) % 1000, i % 97))
            .collect();
        db.execute(&format!("INSERT INTO fact VALUES {}", rows.join(", ")))
            .unwrap();
    }
    let sql = "SELECT d1.cat, COUNT(*), SUM(f.v) FROM fact f, dim1 d1 \
               WHERE f.d1 = d1.id GROUP BY d1.cat";
    let analyze = |db: &Database| plan_text(db, &format!("EXPLAIN ANALYZE {sql}"));
    let rows_of = |line: &str| -> u64 {
        let at = line.find("[rows=").expect("an analyzed line") + "[rows=".len();
        line[at..].split(' ').next().unwrap().parse().unwrap()
    };
    let serial_plan = analyze(&db);
    let serial = sorted_rows(&db, sql);

    db.execute("SET parallelism = 2").unwrap();
    let plan = plan_text(&db, &format!("EXPLAIN {sql}"));
    assert_gathered_build(&plan);
    // The join line carries one dop and no second execution mode.
    let join_line = plan
        .lines()
        .find(|l| l.contains("PartitionedHashJoin"))
        .unwrap();
    assert!(join_line.ends_with(" rows, dop=2)"), "{plan}");

    let parallel_plan = analyze(&db);
    let line = |plan: &str, op: &str| -> String {
        plan.lines()
            .find(|l| {
                l.trim_start_matches(['├', '└', '─', '│', ' '])
                    .starts_with(op)
            })
            .unwrap_or_else(|| panic!("no {op} line:\n{plan}"))
            .to_string()
    };
    // Every fact row finds its dimension row: 20,000 joined rows, 16
    // groups, at either dop.
    let serial_join = rows_of(&line(&serial_plan, "HashJoin"));
    let parallel_join = rows_of(&line(&parallel_plan, "PartitionedHashJoin"));
    assert_eq!(serial_join, 20_000, "{serial_plan}");
    assert_eq!(parallel_join, serial_join, "{parallel_plan}");
    assert_eq!(
        rows_of(&line(&parallel_plan, "HashAggregate")),
        rows_of(&line(&serial_plan, "HashAggregate")),
        "{serial_plan}\n{parallel_plan}"
    );
    assert!(line(&parallel_plan, "PartitionedHashJoin").contains("build=[1000]"));
    assert_eq!(sorted_rows(&db, sql), serial);
}

#[test]
fn index_scan_chosen_for_selective_indexed_predicates() {
    let db = db_with_big_table(2000);
    db.execute("CREATE INDEX ON big (id)").unwrap();

    let plan_text = |sql: &str| -> String {
        db.execute(sql)
            .unwrap()
            .rows()
            .unwrap()
            .rows
            .iter()
            .map(|r| r.get(0).as_str().unwrap().to_string())
            .collect::<Vec<_>>()
            .join("\n")
    };

    // Equality probe: IndexScan even without cached statistics.
    let text = plan_text("EXPLAIN SELECT * FROM big WHERE id = 1234");
    assert!(text.contains("IndexScan(big id=1234)"), "{text}");
    let out = db.execute("SELECT * FROM big WHERE id = 1234").unwrap();
    assert_eq!(out.rows().unwrap().len(), 1);
    assert_eq!(out.rows().unwrap().rows[0].get(0), &Value::Int(1234));

    // Range probes consult live statistics; warm the cache first.
    db.table("big").unwrap().stats().unwrap();
    let text = plan_text("EXPLAIN SELECT * FROM big WHERE id > 1950 AND id <= 1980");
    assert!(text.contains("IndexScan(big id=[1950..1980])"), "{text}");
    let got = sorted_rows(&db, "SELECT id FROM big WHERE id > 1950 AND id <= 1980");
    let want: Vec<String> = (1951..=1980).map(|i| format!("[Int({i})]")).collect();
    let mut want = want;
    want.sort();
    assert_eq!(got, want);

    // An unselective range stays a sequential scan.
    let text = plan_text("EXPLAIN SELECT * FROM big WHERE id >= 0");
    assert!(text.contains("SeqScan(big)"), "{text}");

    // Unindexed predicates keep the sequential path too.
    let text = plan_text("EXPLAIN SELECT * FROM big WHERE grp = 3");
    assert!(text.contains("SeqScan(big)"), "{text}");
}

/// A range over an indexed column takes the index through SQL alone: the
/// planner builds the statistics that estimate the range, where before it
/// swept the heap until something outside SQL built them. An equality
/// probe still plans blind and builds nothing.
#[test]
fn indexed_range_uses_index_after_a_bulk_load() {
    let db = db_with_big_table(2000);
    db.execute("CREATE INDEX ON big (id)").unwrap();
    let explain = |sql: &str| -> String {
        let out = db.execute(&format!("EXPLAIN {sql}")).unwrap();
        let rows = &out.rows().unwrap().rows;
        rows.iter()
            .map(|r| r.get(0).as_str().unwrap().to_string())
            .collect::<Vec<_>>()
            .join("\n")
    };
    let big = db.table("big").unwrap();

    let text = explain("SELECT * FROM big WHERE id = 7");
    assert!(text.contains("IndexScan(big id=7)"), "{text}");
    assert!(
        big.cached_stats().is_none(),
        "an equality probe builds no stats"
    );

    let text = explain("SELECT * FROM big WHERE id >= 400 AND id <= 499");
    assert!(text.contains("IndexScan(big id=[400..499])"), "{text}");
    let got = db
        .execute("SELECT COUNT(*) FROM big WHERE id >= 400 AND id <= 499")
        .unwrap();
    assert_eq!(got.rows().unwrap().rows[0].get(0), &Value::Int(100));

    // DML collects its candidates through the same access path.
    let n = db
        .execute("UPDATE big SET grp = 99 WHERE id >= 1990 AND id < 2000")
        .unwrap();
    assert_eq!(n.affected(), Some(10));
    let got = db
        .execute("SELECT COUNT(*) FROM big WHERE grp = 99")
        .unwrap();
    assert_eq!(got.rows().unwrap().rows[0].get(0), &Value::Int(10));
}
