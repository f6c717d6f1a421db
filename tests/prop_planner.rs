//! Property test: the planner + operator pipeline (logical → physical →
//! batch operators, join order via `neurdb-qo`) returns result sets equal
//! — up to declared ordering, i.e. as multisets — to a naive reference
//! executor (cross product + filter) across randomized schemas,
//! predicates, and 2–4-way joins.

use neurdb_core::{
    eval_predicate, execute_plan, plan_select, plan_select_with, Bindings, PlannerConfig,
};
use neurdb_sql::{parse, SelectStmt, Statement};
use neurdb_storage::{BufferPool, ColumnDef, DataType, DiskManager, Schema, Table, Tuple, Value};
use proptest::prelude::*;
use std::sync::Arc;

/// Order-normalized rendering of a result set (multiset comparison).
fn normalized(rows: &[Tuple]) -> Vec<String> {
    let mut out: Vec<String> = rows.iter().map(|r| format!("{:?}", r.values)).collect();
    out.sort();
    out
}

/// Run `sql` through the pipeline at a given max parallelism (scans fan
/// out only past the default cardinality gate).
fn run_at(
    sql: &str,
    tables: &[(String, Arc<Table>)],
    parallelism: usize,
) -> neurdb_core::QueryResult {
    run_with(
        sql,
        tables,
        &PlannerConfig {
            parallelism,
            ..PlannerConfig::default()
        },
    )
    .0
}

/// Run `sql` with full planner-config control, also returning the
/// rendered plan for shape assertions.
fn run_with(
    sql: &str,
    tables: &[(String, Arc<Table>)],
    config: &PlannerConfig,
) -> (neurdb_core::QueryResult, String) {
    let Statement::Select(stmt) = parse(sql).unwrap() else {
        panic!("not a select: {sql}");
    };
    let planned = plan_select_with(&stmt, tables, None, config).unwrap();
    let rendered = planned.plan.render(None).join("\n");
    (execute_plan(&planned.plan).unwrap(), rendered)
}

/// Whether some parallel join in a rendered plan has a Gather as its
/// build side: its last child, the first line below the join that
/// branches with `└─` at the join's own column.
fn build_side_is_gather(plan: &str) -> bool {
    let lines: Vec<&str> = plan.lines().collect();
    lines.iter().enumerate().any(|(j, line)| {
        let Some(at) = line.find("PartitionedHashJoin") else {
            return false;
        };
        let col = line[..at].chars().count();
        let child = |l: &str| l.chars().skip(col).collect::<String>();
        lines[j + 1..]
            .iter()
            .map(|l| child(l))
            .find(|c| c.starts_with("└─ "))
            .is_some_and(|c| c.starts_with("└─ Gather"))
    })
}

/// Force every scan to fan out at `parallelism` regardless of size: the
/// zero min-rows gate drives the parallel operators (partitioned hash
/// joins, Gathers with empty partitions) even over tiny tables.
fn forced_parallel(parallelism: usize) -> PlannerConfig {
    PlannerConfig {
        parallelism,
        parallel_min_rows: 0.0,
        ..PlannerConfig::default()
    }
}

fn make_table(name: &str, rows: &[(i64, i64)]) -> Arc<Table> {
    let pool = Arc::new(BufferPool::new(Arc::new(DiskManager::new()), 128));
    let schema = Schema::new(vec![
        ColumnDef::new("c0", DataType::Int),
        ColumnDef::new("c1", DataType::Int),
    ]);
    let t = Arc::new(Table::new(name, schema, pool));
    for &(a, b) in rows {
        t.insert(Tuple::new(vec![Value::Int(a), Value::Int(b)]))
            .unwrap();
    }
    t
}

/// Like [`make_table`] but with nullable cells, so join keys and
/// aggregate inputs can be NULL.
fn make_table_null(name: &str, rows: &[(Option<i64>, Option<i64>)]) -> Arc<Table> {
    let pool = Arc::new(BufferPool::new(Arc::new(DiskManager::new()), 128));
    let schema = Schema::new(vec![
        ColumnDef::new("c0", DataType::Int),
        ColumnDef::new("c1", DataType::Int),
    ]);
    let t = Arc::new(Table::new(name, schema, pool));
    let cell = |v: Option<i64>| v.map(Value::Int).unwrap_or(Value::Null);
    for &(a, b) in rows {
        t.insert(Tuple::new(vec![cell(a), cell(b)])).unwrap();
    }
    t
}

/// Naive reference: cross-join all tables in FROM order, then filter
/// with the full predicate.
fn reference(stmt: &SelectStmt, tables: &[(String, Arc<Table>)]) -> Vec<Vec<Value>> {
    let mut env = Bindings::default();
    let mut rows: Vec<Vec<Value>> = vec![vec![]];
    for (binding, t) in tables {
        let names = t.schema.names();
        env = env.join(&Bindings::for_table(binding, &names));
        let trows = t.scan().unwrap();
        let mut next = Vec::with_capacity(rows.len() * trows.len());
        for r in &rows {
            for (_, tr) in &trows {
                let mut v = r.clone();
                v.extend(tr.values.iter().cloned());
                next.push(v);
            }
        }
        rows = next;
    }
    rows.retain(|r| match &stmt.predicate {
        Some(p) => eval_predicate(p, &Tuple::new(r.clone()), &env).unwrap(),
        None => true,
    });
    rows
}

/// One randomized join query: per-table rows, a join edge from every
/// table (after the first) to an earlier one, and optional extra range
/// predicates. Cells are nullable (NULL join keys never match) and the
/// value distribution is deliberately skewed onto one key, so the
/// parallel join sees empty scan partitions, all-NULL key columns, and
/// heavy skew onto one probe worker.
#[derive(Debug, Clone)]
struct QueryCase {
    tables: Vec<Vec<(Option<i64>, Option<i64>)>>,
    /// `(parent_table, parent_col, child_col)` for tables `1..n`.
    edges: Vec<(usize, usize, usize)>,
    /// Optional `t{i}.c{col} <= k` per table.
    extra: Vec<Option<(usize, i64)>>,
}

/// A nullable cell with mass concentrated on one value: NULLs exercise
/// the never-match path, the constant exercises key skew. (The
/// vendored `prop_oneof!` picks arms uniformly, so weights are spelled
/// out as repeated arms.)
fn arb_cell() -> impl Strategy<Value = Option<i64>> {
    prop_oneof![
        Just(None),
        Just(Some(0)),
        Just(Some(0)),
        (0i64..6).prop_map(Some),
        (0i64..6).prop_map(Some),
        (0i64..6).prop_map(Some),
        (0i64..6).prop_map(Some),
    ]
}

fn arb_case() -> impl Strategy<Value = QueryCase> {
    (2usize..5)
        .prop_flat_map(|n| {
            let tables = prop::collection::vec(
                prop::collection::vec((arb_cell(), arb_cell()), 0..=10),
                n..=n,
            );
            let edges = prop::collection::vec((0usize..4, 0usize..2, 0usize..2), n - 1..=n - 1);
            let extra = prop::collection::vec((any::<bool>(), 0usize..2, 0i64..6), n..=n);
            (tables, edges, extra)
        })
        .prop_map(|(tables, mut edges, extra)| {
            // Edge i connects table i+1 to a strictly earlier table.
            for (i, e) in edges.iter_mut().enumerate() {
                e.0 %= i + 1;
            }
            QueryCase {
                tables,
                edges,
                extra: extra
                    .into_iter()
                    .map(|(some, c, k)| some.then_some((c, k)))
                    .collect(),
            }
        })
}

fn case_sql(case: &QueryCase) -> String {
    let n = case.tables.len();
    let from: Vec<String> = (0..n).map(|i| format!("t{i}")).collect();
    let mut conj = Vec::new();
    for (i, &(parent, pc, cc)) in case.edges.iter().enumerate() {
        conj.push(format!("t{parent}.c{pc} = t{}.c{cc}", i + 1));
    }
    for (i, e) in case.extra.iter().enumerate() {
        if let Some((col, k)) = e {
            conj.push(format!("t{i}.c{col} <= {k}"));
        }
    }
    format!(
        "SELECT * FROM {} WHERE {}",
        from.join(", "),
        conj.join(" AND ")
    )
}

fn run_case(case: &QueryCase) {
    let tables: Vec<(String, Arc<Table>)> = case
        .tables
        .iter()
        .enumerate()
        .map(|(i, rows)| {
            let name = format!("t{i}");
            (name.clone(), make_table_null(&name, rows))
        })
        .collect();
    let sql = case_sql(case);
    let Statement::Select(stmt) = parse(&sql).unwrap() else {
        panic!("not a select: {sql}");
    };
    let expected = reference(&stmt, &tables);
    let planned = plan_select(&stmt, &tables, None).unwrap();
    let got = execute_plan(&planned.plan).unwrap();

    // Same arity and multiset of rows (SELECT * must preserve the
    // FROM-clause column layout regardless of the optimizer's join order).
    let mut want: Vec<String> = expected.iter().map(|r| format!("{r:?}")).collect();
    let have = normalized(&got.rows);
    want.sort();
    assert_eq!(want, have, "result mismatch for {sql}");

    // Parallelism must never change the result multiset: every case runs
    // again at max dop 4 and must match the serial pipeline exactly.
    let parallel = run_at(&sql, &tables, 4);
    assert_eq!(normalized(&parallel.rows), have, "dop=4 mismatch for {sql}");

    // Force the parallel operators even over these tiny tables: every
    // scan fans out and every eligible hash join runs its probe in
    // workers (empty partitions and all-NULL keys included).
    let (forced, forced_plan) = run_with(&sql, &tables, &forced_parallel(4));
    assert_eq!(
        normalized(&forced.rows),
        have,
        "forced-parallel mismatch for {sql}"
    );
    if case.tables.len() == 2 {
        // With both scans fanned out, a 2-way equi join probes in
        // workers and drains its build side through that side's Gather.
        assert!(
            build_side_is_gather(&forced_plan),
            "expected a parallel join over a gathered build side for {sql}:\n{forced_plan}"
        );
    }

    // And COUNT(*) through the aggregate operator agrees, at dop 1 and 4.
    let count_sql = sql.replacen("SELECT *", "SELECT COUNT(*)", 1);
    for dop in [1, 4] {
        let got = run_at(&count_sql, &tables, dop);
        assert_eq!(
            got.rows[0].get(0),
            &Value::Int(expected.len() as i64),
            "count mismatch for {count_sql} at dop={dop}"
        );
    }

    // Force-parallel COUNT(*): over a probe-parallel join the partial
    // aggregate is pushed into the join workers and merged at the final
    // HashAggregate — the result must still be exact.
    let (forced_count, forced_count_plan) = run_with(&count_sql, &tables, &forced_parallel(4));
    assert_eq!(
        forced_count.rows[0].get(0),
        &Value::Int(expected.len() as i64),
        "forced-parallel count mismatch for {count_sql}"
    );
    if case.tables.len() == 2 {
        assert!(
            forced_count_plan.contains("PartialHashAggregate"),
            "expected pushed partial aggregation for {count_sql}:\n{forced_count_plan}"
        );
    }
}

proptest! {
    #[test]
    fn pipeline_matches_reference(case in arb_case()) {
        run_case(&case);
    }
}

// ------------------- parallel & index-scan properties ------------------

/// A table big enough that the planner actually fans out (multi-page,
/// past the minimum-cardinality gate), deterministically derived from a
/// few proptest scalars.
fn big_table(name: &str, rows: usize, m0: i64, m1: i64, indexed: bool) -> Arc<Table> {
    let pool = Arc::new(BufferPool::new(Arc::new(DiskManager::new()), 256));
    let schema = Schema::new(vec![
        ColumnDef::new("c0", DataType::Int),
        ColumnDef::new("c1", DataType::Int),
    ]);
    let t = Arc::new(Table::new(name, schema, pool));
    if indexed {
        t.create_index(0).unwrap();
    }
    for i in 0..rows as i64 {
        t.insert(Tuple::new(vec![Value::Int(i % m0), Value::Int(i % m1)]))
            .unwrap();
    }
    // Warm the statistics cache so single-table planning sees live stats
    // (range index choices require them).
    t.stats().unwrap();
    t
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

    /// Morsel-parallel execution is result-identical to serial across
    /// filters, aggregates, grouped aggregates, and sorts over a table
    /// large enough to split into real partitions.
    #[test]
    fn parallel_matches_serial(
        rows in 700usize..1600,
        m0 in 2i64..97,
        m1 in 2i64..13,
        k in 0i64..97,
    ) {
        let t = big_table("t0", rows, m0, m1, false);
        let tables = vec![("t0".to_string(), t)];
        let queries = [
            format!("SELECT * FROM t0 WHERE c0 < {k}"),
            format!("SELECT c1, c0 FROM t0 WHERE c0 >= {k} OR c1 = 1"),
            "SELECT COUNT(*), SUM(c0), MIN(c0), MAX(c1), AVG(c1) FROM t0".to_string(),
            format!("SELECT c1, COUNT(*), SUM(c0) FROM t0 WHERE c0 <> {k} GROUP BY c1"),
            format!("SELECT c0 FROM t0 WHERE c1 < 6 ORDER BY c0 DESC LIMIT {}", (k as usize % 40) + 1),
        ];
        for sql in &queries {
            let serial = run_at(sql, &tables, 1);
            let parallel = run_at(sql, &tables, 4);
            prop_assert_eq!(&serial.columns, &parallel.columns, "{}", sql);
            prop_assert_eq!(
                normalized(&serial.rows),
                normalized(&parallel.rows),
                "dop=4 diverged for {}",
                sql
            );
        }
    }

    /// An index scan (point or range) returns exactly what the
    /// sequential scan returns, and selective indexed predicates do
    /// plan as IndexScan.
    #[test]
    fn index_scan_matches_seq_scan(
        rows in 600usize..1400,
        m0 in 50i64..400,
        lo in 0i64..400,
        width in 0i64..30,
    ) {
        let indexed = big_table("t0", rows, m0, 7, true);
        let plain = big_table("t0", rows, m0, 7, false);
        let with_index = vec![("t0".to_string(), indexed)];
        let without = vec![("t0".to_string(), plain)];
        let queries = [
            format!("SELECT * FROM t0 WHERE c0 = {lo}"),
            format!("SELECT * FROM t0 WHERE c0 > {lo} AND c0 <= {}", lo + width),
            format!("SELECT COUNT(*), SUM(c1) FROM t0 WHERE c0 >= {lo} AND c0 < {}", lo + width),
            format!("SELECT c1 FROM t0 WHERE c0 = {lo} AND c1 < 5"),
        ];
        for sql in &queries {
            let via_index = run_at(sql, &with_index, 1);
            let via_seq = run_at(sql, &without, 1);
            prop_assert_eq!(
                normalized(&via_index.rows),
                normalized(&via_seq.rows),
                "index path diverged for {}",
                sql
            );
        }
        // The equality probe really is an IndexScan on the indexed table.
        let Statement::Select(stmt) = parse(&queries[0]).unwrap() else { unreachable!() };
        let planned = plan_select(&stmt, &with_index, None).unwrap();
        let rendered = planned.plan.render(None).join("\n");
        prop_assert!(rendered.contains("IndexScan"), "{}", rendered);
    }

    /// A parallel hash join (big probe side fanned out across morsel
    /// workers, build side drained into one shared table) returns
    /// exactly the serial hash join's multiset, across probe sizes,
    /// build sizes, key distributions, and residual filters.
    #[test]
    fn partitioned_join_matches_serial(
        probe_rows in 700usize..1600,
        build_rows in 1usize..120,
        m0 in 2i64..97,
        m1 in 2i64..13,
        k in 0i64..97,
    ) {
        let probe = big_table("p", probe_rows, m0, m1, false);
        let build = make_table("b", &(0..build_rows as i64)
            .map(|i| (i % m0, i % 5))
            .collect::<Vec<_>>());
        let tables = vec![("p".to_string(), probe), ("b".to_string(), build)];
        let queries = [
            "SELECT * FROM p, b WHERE p.c0 = b.c0".to_string(),
            format!("SELECT p.c1, b.c1 FROM p, b WHERE p.c0 = b.c0 AND p.c1 < {}", m1 - 1),
            format!("SELECT * FROM p, b WHERE p.c0 = b.c0 AND b.c1 <= 2 AND p.c0 >= {k}"),
            "SELECT COUNT(*), SUM(p.c1) FROM p, b WHERE p.c0 = b.c0".to_string(),
        ];
        for sql in &queries {
            let serial = run_at(sql, &tables, 1);
            let (parallel, plan) = run_with(sql, &tables, &forced_parallel(4));
            prop_assert!(
                plan.contains("PartitionedHashJoin"),
                "expected a partitioned join for {}:\n{}", sql, plan
            );
            prop_assert_eq!(&serial.columns, &parallel.columns, "{}", sql);
            prop_assert_eq!(
                normalized(&serial.rows),
                normalized(&parallel.rows),
                "partitioned join diverged for {}",
                sql
            );
        }
    }

    /// Vectorized projection kernels are value-identical to row-at-a-time
    /// evaluation across arithmetic/comparison shapes, NULL-producing
    /// division, and int/float promotion (the pipeline compiles every
    /// projection; the reference computes the same items via `eval` over
    /// the base rows).
    #[test]
    fn vectorized_projection_matches_row_eval(
        rows in 1usize..60,
        m0 in 1i64..9,
        m1 in 2i64..7,
        k in -4i64..9,
    ) {
        let data: Vec<(i64, i64)> = (0..rows as i64).map(|i| (i % m0, i % m1)).collect();
        let t = make_table("t0", &data);
        let tables = vec![("t0".to_string(), t.clone())];
        let items = [
            format!("c0 + c1 * {k}"),
            format!("c0 - {k}, -c1"),
            format!("c0 / c1, c1 / {k}"),      // division by zero -> NULL
            format!("c0 * 2 + c1, c0 = c1, c0 < {k}"),
            format!("c0 + 0.5, c1 * 1.5 - {k}"), // float promotion
        ];
        for list in &items {
            let sql = format!("SELECT {list} FROM t0");
            let got = run_at(&sql, &tables, 1);
            // Reference: evaluate the same expressions row-at-a-time.
            let Statement::Select(stmt) = parse(&sql).unwrap() else { unreachable!() };
            let env = Bindings::for_table("t0", &t.schema.names());
            let mut want = Vec::new();
            for (_, row) in t.scan().unwrap() {
                let vals: Vec<Value> = stmt.items.iter().map(|item| {
                    let neurdb_sql::SelectItem::Expr { expr, .. } = item else { unreachable!() };
                    neurdb_core::eval(expr, &row, &env).unwrap()
                }).collect();
                want.push(Tuple::new(vals));
            }
            prop_assert_eq!(
                normalized(&got.rows),
                normalized(&want),
                "vectorized projection diverged for {}",
                sql
            );
        }
    }
}

#[test]
fn regression_four_way_chain() {
    // A deterministic 4-way chain join with selective predicates.
    let case = QueryCase {
        tables: vec![
            (0..6).map(|i| (Some(i), Some(i % 3))).collect(),
            (0..8).map(|i| (Some(i % 4), Some(i % 2))).collect(),
            (0..10).map(|i| (Some(i % 5), Some(i % 3))).collect(),
            (0..4).map(|i| (Some(i), Some(5 - i))).collect(),
        ],
        edges: vec![(0, 0, 0), (1, 1, 1), (0, 1, 0)],
        extra: vec![None, Some((0, 3)), None, Some((1, 4))],
    };
    run_case(&case);
}

#[test]
fn regression_null_keys_and_empty_partitions() {
    // One column of all-NULL join keys, one entirely NULL table, and one
    // empty table: builds must drop NULL keys, an empty build table must
    // short-circuit the probe, and the teardown must not hang when whole
    // streams produce nothing.
    let case = QueryCase {
        tables: vec![
            (0..9).map(|i| (Some(i % 3), None)).collect(),
            vec![(None, None); 7],
            vec![],
        ],
        edges: vec![(0, 0, 0), (1, 1, 1)],
        extra: vec![None, None, None],
    };
    run_case(&case);
}

#[test]
fn regression_skewed_keys_parallel_join() {
    // Every matching key is the same value: the whole build lands in one
    // hash bucket and every probe match hits it.
    let case = QueryCase {
        tables: vec![
            vec![(Some(4), Some(1)); 10],
            (0..10)
                .map(|i| (Some(if i % 2 == 0 { 4 } else { i }), Some(0)))
                .collect(),
        ],
        edges: vec![(0, 0, 0)],
        extra: vec![None, None],
    };
    run_case(&case);
}
