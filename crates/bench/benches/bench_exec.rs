//! Executor micro-benchmarks: scan, hash-join, and aggregate throughput
//! through the planner + batch-operator pipeline. CI runs this bench as a
//! smoke test so regressions in the SELECT hot path surface early.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use neurdb_core::Database;
use std::hint::black_box;
use std::time::Duration;

const USERS: usize = 2_000;
const POSTS: usize = 8_000;

fn setup() -> Database {
    let db = Database::new();
    db.execute("CREATE TABLE users (id INT PRIMARY KEY, age INT, score FLOAT)")
        .unwrap();
    db.execute("CREATE TABLE posts (pid INT PRIMARY KEY, owner INT, likes INT)")
        .unwrap();
    db.execute("CREATE TABLE tags (tid INT PRIMARY KEY, post INT)")
        .unwrap();
    let mut stmt = String::from("INSERT INTO users VALUES ");
    for i in 0..USERS {
        if i > 0 {
            stmt.push(',');
        }
        stmt.push_str(&format!("({i}, {}, {}.5)", i % 60, i % 10));
    }
    db.execute(&stmt).unwrap();
    let mut stmt = String::from("INSERT INTO posts VALUES ");
    for i in 0..POSTS {
        if i > 0 {
            stmt.push(',');
        }
        stmt.push_str(&format!("({i}, {}, {})", i % USERS, i % 100));
    }
    db.execute(&stmt).unwrap();
    let mut stmt = String::from("INSERT INTO tags VALUES ");
    for i in 0..POSTS {
        if i > 0 {
            stmt.push(',');
        }
        stmt.push_str(&format!("({i}, {})", i % POSTS));
    }
    db.execute(&stmt).unwrap();
    db
}

fn bench_exec(c: &mut Criterion) {
    let db = setup();
    let mut g = c.benchmark_group("exec");
    g.sample_size(10)
        .measurement_time(Duration::from_millis(300));

    g.throughput(Throughput::Elements(USERS as u64));
    g.bench_function("seq_scan_filter", |b| {
        b.iter(|| {
            black_box(
                db.execute("SELECT id FROM users WHERE age < 30 AND score > 2")
                    .unwrap(),
            )
        })
    });

    g.throughput(Throughput::Elements(POSTS as u64));
    g.bench_function("hash_join_2way", |b| {
        b.iter(|| {
            black_box(
                db.execute(
                    "SELECT u.id, p.likes FROM users u, posts p \
                     WHERE u.id = p.owner AND p.likes > 90",
                )
                .unwrap(),
            )
        })
    });

    g.throughput(Throughput::Elements(POSTS as u64));
    g.bench_function("qo_join_3way", |b| {
        b.iter(|| {
            black_box(
                db.execute(
                    "SELECT COUNT(*) FROM users u, posts p, tags t \
                     WHERE u.id = p.owner AND p.pid = t.post AND u.age < 10",
                )
                .unwrap(),
            )
        })
    });

    g.throughput(Throughput::Elements(USERS as u64));
    g.bench_function("hash_aggregate", |b| {
        b.iter(|| {
            black_box(
                db.execute("SELECT age, COUNT(*), AVG(score) FROM users GROUP BY age")
                    .unwrap(),
            )
        })
    });

    g.finish();
}

/// Morsel-driven parallel execution: the same scan+filter+aggregate
/// workload at dop=1 vs dop=4 (`SET parallelism`). On a multi-core box
/// the dop=4 numbers demonstrate the fan-out speedup; on any box they
/// guard the parallel path (partitioned scans, Gather, partial-aggregate
/// merge) against regressions.
fn bench_parallel(c: &mut Criterion) {
    const EVENTS: usize = 40_000;
    let db = Database::new();
    db.execute("CREATE TABLE events (eid INT PRIMARY KEY, kind INT, weight FLOAT)")
        .unwrap();
    // Chunked inserts keep single-statement parse time bounded.
    for chunk in 0..(EVENTS / 4000) {
        let mut stmt = String::from("INSERT INTO events VALUES ");
        for i in (chunk * 4000)..((chunk + 1) * 4000) {
            if i > chunk * 4000 {
                stmt.push(',');
            }
            stmt.push_str(&format!("({i}, {}, {}.75)", i % 97, i % 31));
        }
        db.execute(&stmt).unwrap();
    }

    let mut g = c.benchmark_group("exec_parallel");
    g.sample_size(10)
        .measurement_time(Duration::from_millis(500));
    g.throughput(Throughput::Elements(EVENTS as u64));

    for dop in [1usize, 4] {
        db.execute(&format!("SET parallelism = {dop}")).unwrap();
        g.bench_function(format!("scan_filter_agg_dop{dop}"), |b| {
            b.iter(|| {
                black_box(
                    db.execute(
                        "SELECT kind, COUNT(*), SUM(weight), MAX(eid) FROM events \
                         WHERE weight > 3 AND kind < 80 GROUP BY kind",
                    )
                    .unwrap(),
                )
            })
        });
        g.bench_function(format!("scan_filter_dop{dop}"), |b| {
            b.iter(|| {
                black_box(
                    db.execute("SELECT eid FROM events WHERE kind = 13 AND weight > 10")
                        .unwrap(),
                )
            })
        });
    }
    g.finish();
}

/// Parallel hash join: a fan-out-worthy probe side joined to a small
/// build side at dop=1 vs dop=4 (`SET parallelism`). dop=1 runs the
/// classic serial hash join; dop=4 drains the build side into one shared
/// table and probes it from 4 morsel workers, so the delta is the probe
/// fan-out itself.
fn bench_join_parallel(c: &mut Criterion) {
    const FACTS: usize = 40_000;
    const DIMS: usize = 200;
    let db = Database::new();
    db.execute("CREATE TABLE facts (fid INT PRIMARY KEY, dim INT, val INT)")
        .unwrap();
    db.execute("CREATE TABLE dims (did INT PRIMARY KEY, label INT)")
        .unwrap();
    for chunk in 0..(FACTS / 4000) {
        let mut stmt = String::from("INSERT INTO facts VALUES ");
        for i in (chunk * 4000)..((chunk + 1) * 4000) {
            if i > chunk * 4000 {
                stmt.push(',');
            }
            stmt.push_str(&format!("({i}, {}, {})", i % DIMS, i % 1000));
        }
        db.execute(&stmt).unwrap();
    }
    let mut stmt = String::from("INSERT INTO dims VALUES ");
    for d in 0..DIMS {
        if d > 0 {
            stmt.push(',');
        }
        stmt.push_str(&format!("({d}, {})", d % 10));
    }
    db.execute(&stmt).unwrap();

    let mut g = c.benchmark_group("exec_join_parallel");
    g.sample_size(10)
        .measurement_time(Duration::from_millis(500));
    g.throughput(Throughput::Elements(FACTS as u64));

    for dop in [1usize, 4] {
        db.execute(&format!("SET parallelism = {dop}")).unwrap();
        g.bench_function(format!("hash_join_probe_dop{dop}"), |b| {
            b.iter(|| {
                black_box(
                    db.execute(
                        "SELECT f.fid, d.label FROM facts f, dims d \
                         WHERE f.dim = d.did AND d.label = 3 AND f.val < 500",
                    )
                    .unwrap(),
                )
            })
        });
        g.bench_function(format!("join_agg_dop{dop}"), |b| {
            b.iter(|| {
                black_box(
                    db.execute(
                        "SELECT COUNT(*), SUM(f.val) FROM facts f, dims d \
                         WHERE f.dim = d.did AND d.label < 5",
                    )
                    .unwrap(),
                )
            })
        });
    }
    g.finish();
}

/// Joins whose build side is big enough to fan out, at dop=1 vs dop=4:
/// a small serial probe over a build side drained through its Gather, a
/// parallel probe over such a build side, and aggregation pushed into
/// the probe workers (only partial-aggregate state rows cross the output
/// channel). dop=1 runs the serial hash join, so the delta is what the
/// build side's Gather and the probe workers buy.
fn bench_parallel_join(c: &mut Criterion) {
    const RFACTS: usize = 30_000;
    const RDIMS: usize = 6_000;
    const SPROBE: usize = 300;
    let db = Database::new();
    db.execute("CREATE TABLE rfacts (fid INT PRIMARY KEY, dim INT, val INT)")
        .unwrap();
    db.execute("CREATE TABLE rdims (did INT PRIMARY KEY, grp INT)")
        .unwrap();
    db.execute("CREATE TABLE sprobe (sid INT PRIMARY KEY, k INT)")
        .unwrap();
    for chunk in 0..(RFACTS / 3000) {
        let mut stmt = String::from("INSERT INTO rfacts VALUES ");
        for i in (chunk * 3000)..((chunk + 1) * 3000) {
            if i > chunk * 3000 {
                stmt.push(',');
            }
            stmt.push_str(&format!("({i}, {}, {})", i % RDIMS, i % 1000));
        }
        db.execute(&stmt).unwrap();
    }
    for chunk in 0..(RDIMS / 3000) {
        let mut stmt = String::from("INSERT INTO rdims VALUES ");
        for d in (chunk * 3000)..((chunk + 1) * 3000) {
            if d > chunk * 3000 {
                stmt.push(',');
            }
            stmt.push_str(&format!("({d}, {})", d % 16));
        }
        db.execute(&stmt).unwrap();
    }
    let mut stmt = String::from("INSERT INTO sprobe VALUES ");
    for s in 0..SPROBE {
        if s > 0 {
            stmt.push(',');
        }
        stmt.push_str(&format!("({s}, {})", (s * 17) % RDIMS));
    }
    db.execute(&stmt).unwrap();

    let mut g = c.benchmark_group("exec_parallel_join");
    g.sample_size(10)
        .measurement_time(Duration::from_millis(500));
    g.throughput(Throughput::Elements(RFACTS as u64));

    for dop in [1usize, 4] {
        db.execute(&format!("SET parallelism = {dop}")).unwrap();
        g.bench_function(format!("serial_probe_join_dop{dop}"), |b| {
            b.iter(|| {
                black_box(
                    db.execute(
                        "SELECT s.sid, d.grp FROM sprobe s, rdims d \
                         WHERE s.k = d.did",
                    )
                    .unwrap(),
                )
            })
        });
        g.bench_function(format!("parallel_probe_join_dop{dop}"), |b| {
            b.iter(|| {
                black_box(
                    db.execute(
                        "SELECT f.fid, d.grp FROM rfacts f, rdims d \
                         WHERE f.dim = d.did AND d.grp < 4",
                    )
                    .unwrap(),
                )
            })
        });
        g.bench_function(format!("join_agg_pushdown_dop{dop}"), |b| {
            b.iter(|| {
                black_box(
                    db.execute(
                        "SELECT d.grp, COUNT(*), SUM(f.val) FROM rfacts f, rdims d \
                         WHERE f.dim = d.did GROUP BY d.grp",
                    )
                    .unwrap(),
                )
            })
        });
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_exec,
    bench_parallel,
    bench_join_parallel,
    bench_parallel_join
);
criterion_main!(benches);
