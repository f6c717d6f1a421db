//! Tracked benchmark trajectory: a fixed set of end-to-end workload
//! groups, each timed per-iteration with the median nanoseconds written
//! to a `BENCH_10.json` artifact. CI runs this on every push (in `--quick`
//! mode), uploads the file, and diffs it against the committed previous
//! trajectory via `scripts/compare_bench.py`, so the series of artifacts
//! across commits forms the performance trajectory of the repo — with a
//! hard gate on median regressions. Buffer-pool groups additionally
//! carry hit-ratio facts (`point_hit_ratio` et al.) that the comparator
//! reports alongside the timing deltas.
//!
//! ```sh
//! cargo run --release -p neurdb-bench --bin trajectory            # full
//! cargo run --release -p neurdb-bench --bin trajectory -- --quick # CI
//! cargo run --release -p neurdb-bench --bin trajectory -- --out /tmp/b.json
//! ```
//!
//! The JSON is hand-rendered (the workspace is dependency-free) and
//! deliberately flat: `{"groups": {"<name>": {"median_ns": N, ...}}}`.

use neurdb_core::{Database, SessionContext};
use neurdb_storage::{AccessHint, BufferPool, DiskManager};
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Instant;

struct GroupResult {
    name: &'static str,
    iters: usize,
    median_ns: u128,
    min_ns: u128,
    max_ns: u128,
    /// Extra per-group scalar facts (e.g. hit ratios) rendered as
    /// additional JSON keys alongside the timing summary.
    extras: Vec<(&'static str, f64)>,
}

/// Time `op` for `iters` iterations (after `warmup` discarded ones) and
/// summarise the per-iteration distribution.
fn measure(
    name: &'static str,
    warmup: usize,
    iters: usize,
    mut op: impl FnMut(usize),
) -> GroupResult {
    for i in 0..warmup {
        op(i);
    }
    let mut samples: Vec<u128> = Vec::with_capacity(iters);
    for i in 0..iters {
        let start = Instant::now();
        op(warmup + i);
        samples.push(start.elapsed().as_nanos());
    }
    samples.sort_unstable();
    GroupResult {
        name,
        iters,
        median_ns: samples[samples.len() / 2],
        min_ns: samples[0],
        max_ns: samples[samples.len() - 1],
        extras: Vec::new(),
    }
}

/// Seed `rows` rows into `table (id INT PRIMARY KEY, grp INT, v INT)`
/// with multi-row INSERT statements (fast enough to keep setup cheap).
fn seed(db: &Database, table: &str, rows: usize) {
    db.execute(&format!(
        "CREATE TABLE {table} (id INT PRIMARY KEY, grp INT, v INT)"
    ))
    .unwrap();
    let mut next = 0usize;
    while next < rows {
        let mut stmt = format!("INSERT INTO {table} VALUES ");
        let chunk = (rows - next).min(500);
        for i in 0..chunk {
            if i > 0 {
                stmt.push(',');
            }
            let id = next + i;
            write!(stmt, "({id}, {}, {})", id % 32, id % 1000).unwrap();
        }
        next += chunk;
        db.execute(&stmt).unwrap();
    }
}

/// Single-row INSERT latency against the in-memory engine.
fn bench_insert(quick: bool) -> GroupResult {
    let db = Database::new();
    db.execute("CREATE TABLE ins (id INT PRIMARY KEY, grp INT, v INT)")
        .unwrap();
    let iters = if quick { 200 } else { 2000 };
    measure("insert", iters / 10, iters, |i| {
        db.execute(&format!(
            "INSERT INTO ins VALUES ({i}, {}, {})",
            i % 32,
            i % 1000
        ))
        .unwrap();
    })
}

/// Full sequential scan with a non-indexed filter.
fn bench_seqscan(quick: bool) -> GroupResult {
    let db = Database::new();
    seed(&db, "scan", if quick { 5_000 } else { 50_000 });
    let iters = if quick { 30 } else { 200 };
    measure("seqscan_filter", 3, iters, |i| {
        let out = db
            .execute(&format!("SELECT * FROM scan WHERE v = {}", i % 1000))
            .unwrap();
        assert!(!out.rows().unwrap().rows.is_empty());
    })
}

/// Point lookup through a B-tree index (explicitly created, with table
/// statistics warmed so the planner's selectivity estimate picks the
/// indexed path rather than a blind sequential sweep).
fn bench_indexed_point(quick: bool) -> GroupResult {
    let db = Database::new();
    let rows = if quick { 5_000 } else { 50_000 };
    seed(&db, "pk", rows);
    db.execute("CREATE INDEX ON pk (id)").unwrap();
    db.table("pk").unwrap().stats().unwrap();
    let iters = if quick { 300 } else { 3000 };
    measure("indexed_point", iters / 10, iters, |i| {
        let out = db
            .execute(&format!(
                "SELECT * FROM pk WHERE id = {}",
                (i * 7919) % rows
            ))
            .unwrap();
        assert_eq!(out.rows().unwrap().rows.len(), 1);
    })
}

/// Grouped aggregate over every row, with the session parallelism knob
/// opened so the morsel-driven parallel pipeline engages.
fn bench_parallel_agg(quick: bool) -> GroupResult {
    let db = Database::new();
    seed(&db, "agg", if quick { 10_000 } else { 100_000 });
    let mut session = SessionContext::new();
    db.execute_in_session(&mut session, "SET parallelism = 4")
        .unwrap();
    let iters = if quick { 20 } else { 100 };
    measure("parallel_agg", 3, iters, |_| {
        let out = db
            .execute_in_session(
                &mut session,
                "SELECT grp, COUNT(*), SUM(v) FROM agg GROUP BY grp",
            )
            .unwrap();
        assert_eq!(out.rows().unwrap().rows.len(), 32);
    })
}

/// Grouped aggregate over a parallel hash join at dop 4: the dimension
/// side drains through its own Gather into one shared hash table, four
/// morsel workers probe it with the fact scan, and the partial aggregate
/// runs inside the probe workers so only aggregate state rows cross the
/// output channel.
fn bench_join_agg_parallel(quick: bool) -> GroupResult {
    let db = Database::new();
    seed(&db, "jfact", if quick { 10_000 } else { 60_000 });
    seed(&db, "jdim", if quick { 3_000 } else { 6_000 });
    let mut session = SessionContext::new();
    db.execute_in_session(&mut session, "SET parallelism = 4")
        .unwrap();
    let iters = if quick { 20 } else { 100 };
    measure("join_agg_parallel", 3, iters, |_| {
        let out = db
            .execute_in_session(
                &mut session,
                "SELECT d.grp, COUNT(*), SUM(f.v) FROM jfact f, jdim d \
                 WHERE f.grp = d.id GROUP BY d.grp",
            )
            .unwrap();
        assert_eq!(out.rows().unwrap().rows.len(), 32);
    })
}

/// Durable single-row INSERT: WAL append + group-commit fsync on the
/// latency path.
fn bench_wal_insert(quick: bool) -> GroupResult {
    let dir = std::env::temp_dir().join(format!("neurdb-trajectory-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let result = {
        let db = Database::open(&dir).unwrap();
        db.execute("CREATE TABLE dur (id INT PRIMARY KEY, grp INT, v INT)")
            .unwrap();
        let iters = if quick { 100 } else { 1000 };
        measure("wal_insert_fsync", iters / 10, iters, |i| {
            db.execute(&format!(
                "INSERT INTO dur VALUES ({i}, {}, {})",
                i % 32,
                i % 1000
            ))
            .unwrap();
        })
    };
    let _ = std::fs::remove_dir_all(&dir);
    result
}

/// Latch-contention microbench: 4 threads hammering resident pages of a
/// fully-cached pool. `shards = 1` reproduces the old single-mutex pool;
/// `shards = 8` is the default sharded geometry.
fn bench_buffer_latch(name: &'static str, shards: usize, quick: bool) -> GroupResult {
    const PAGES: usize = 256;
    const THREADS: usize = 4;
    let touches = if quick { 20_000 } else { 100_000 };
    let pool = Arc::new(BufferPool::with_shards(
        Arc::new(DiskManager::new()),
        PAGES,
        shards,
    ));
    let ids: Vec<u64> = (0..PAGES).map(|_| pool.allocate_page().unwrap()).collect();
    for &id in &ids {
        pool.with_page(id, |_| ()).unwrap();
    }
    let iters = if quick { 10 } else { 30 };
    measure(name, 2, iters, |_| {
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let pool = pool.clone();
                let ids = ids.clone();
                std::thread::spawn(move || {
                    let mut acc = 0usize;
                    for i in 0..touches as usize {
                        // Knuth-style stride so threads collide across
                        // shards rather than marching in lockstep.
                        let id = ids[(i.wrapping_mul(2654435761) + t * 97) % ids.len()];
                        acc += pool.with_page(id, |p| p.live_count()).unwrap();
                    }
                    acc
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
    })
}

/// Hot-set size for the out-of-core workload.
const OOC_HOT: usize = 24;

/// A fresh pool of `capacity` frames over `table_pages` flushed pages.
fn ooc_pool(capacity: usize, table_pages: usize) -> (Arc<BufferPool>, Vec<u64>) {
    let pool = Arc::new(BufferPool::new(Arc::new(DiskManager::new()), capacity));
    let ids: Vec<u64> = (0..table_pages)
        .map(|_| pool.allocate_page().unwrap())
        .collect();
    pool.flush_all().unwrap();
    (pool, ids)
}

/// Deterministic scan-vs-point interleave: four full sweeps of the
/// table with `sweep` as their hint, with two hot-set point lookups
/// after every eight sweep touches (the access pattern a dop-4 scan
/// racing a point client produces, minus the scheduler nondeterminism —
/// so the hit ratio is reproducible on any machine and core count).
/// Returns the hot lookups' hit ratio over the trace; a lookup hit when
/// it left the pool's miss count unchanged.
fn ooc_point_hit_ratio(pool: &BufferPool, ids: &[u64], sweep: AccessHint) -> f64 {
    for &id in &ids[..OOC_HOT] {
        pool.with_page(id, |_| ()).unwrap();
    }
    let (mut hits, mut total) = (0usize, 0usize);
    for _sweep in 0..4 {
        for chunk in ids.chunks(8) {
            for &id in chunk {
                pool.with_page_hint(id, sweep, |_| ()).unwrap();
            }
            for _ in 0..2 {
                let misses = pool.stats().misses;
                pool.with_page(ids[total % OOC_HOT], |p| p.live_count())
                    .unwrap();
                hits += usize::from(pool.stats().misses == misses);
                total += 1;
            }
        }
    }
    hits as f64 / total as f64
}

/// Out-of-core mixed workload at a given `capacity / table pages` ratio.
/// The timed number is a dop-4 concurrent run (four sequential-sweep
/// threads racing the point-lookup client); the `point_hit_ratio` /
/// `point_hit_ratio_unhinted` extras come from the deterministic
/// interleave above with `Sequential`- and `Point`-hinted sweeps,
/// exposing the hit-ratio gap the hints buy.
fn bench_buffer_out_of_core(name: &'static str, ratio: f64, quick: bool) -> GroupResult {
    const THREADS: usize = 4;
    let table_pages = if quick { 256 } else { 1024 };
    let lookups = if quick { 2_000 } else { 8_000 };
    let capacity = ((table_pages as f64 * ratio) as usize).max(OOC_HOT + 8);

    // Hit-ratio facts, deterministic.
    let (pool, ids) = ooc_pool(capacity, table_pages);
    let hinted_ratio = ooc_point_hit_ratio(&pool, &ids, AccessHint::Sequential);
    let (unhinted_pool, unhinted_ids) = ooc_pool(capacity, table_pages);
    let unhinted_ratio = ooc_point_hit_ratio(&unhinted_pool, &unhinted_ids, AccessHint::Point);

    // Timed concurrent run on the hinted pool.
    let iters = if quick { 5 } else { 15 };
    let mut result = measure(name, 1, iters, |_| {
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let scanners: Vec<_> = (0..THREADS)
            .map(|_| {
                let pool = pool.clone();
                let ids = ids.clone();
                let stop = stop.clone();
                std::thread::spawn(move || {
                    while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                        for &id in &ids {
                            pool.with_page_hint(id, AccessHint::Sequential, |_| ())
                                .unwrap();
                            if stop.load(std::sync::atomic::Ordering::Relaxed) {
                                return;
                            }
                        }
                    }
                })
            })
            .collect();
        for i in 0..lookups as usize {
            let id = ids[(i.wrapping_mul(31)) % OOC_HOT];
            pool.with_page(id, |p| p.live_count()).unwrap();
        }
        stop.store(true, std::sync::atomic::Ordering::Relaxed);
        for s in scanners {
            s.join().unwrap();
        }
    });
    result.extras.push(("capacity_ratio", ratio));
    result.extras.push(("point_hit_ratio", hinted_ratio));
    result
        .extras
        .push(("point_hit_ratio_unhinted", unhinted_ratio));
    result
}

/// Tracing-overhead gate: the timed (and regression-gated) metric is a
/// point select with tracing fully disabled — the near-free path every
/// statement pays one branch for. The extras report the same statement
/// and a dop-4 join-aggregate with `SET trace = on`, plus the
/// traced/untraced ratios, informationally: trace capture is allowed to
/// cost something, the disabled path is not.
fn bench_trace_overhead(quick: bool) -> GroupResult {
    let db = Database::new();
    let rows = if quick { 5_000 } else { 50_000 };
    seed(&db, "tr", rows);
    db.execute("CREATE INDEX ON tr (id)").unwrap();
    db.table("tr").unwrap().stats().unwrap();
    seed(&db, "trd", if quick { 2_000 } else { 6_000 });

    let mut session = SessionContext::new();
    db.execute_in_session(&mut session, "SET parallelism = 4")
        .unwrap();

    let point = |db: &Database, session: &mut SessionContext, i: usize| {
        let out = db
            .execute_in_session(
                session,
                &format!("SELECT * FROM tr WHERE id = {}", (i * 7919) % rows),
            )
            .unwrap();
        assert_eq!(out.rows().unwrap().rows.len(), 1);
    };
    let join = |db: &Database, session: &mut SessionContext| {
        let out = db
            .execute_in_session(
                session,
                "SELECT d.grp, COUNT(*), SUM(f.v) FROM tr f, trd d \
                 WHERE f.grp = d.id GROUP BY d.grp",
            )
            .unwrap();
        assert_eq!(out.rows().unwrap().rows.len(), 32);
    };

    // Median ns per op for one phase, same warmup/iteration discipline
    // as `measure` but inlined so all four phases share the seeded db.
    let phase = |name: &'static str, iters: usize, op: &mut dyn FnMut(usize)| {
        let mut r = measure(name, iters / 10, iters, op);
        r.extras.clear();
        r
    };
    let point_iters = if quick { 300 } else { 3000 };
    let join_iters = if quick { 15 } else { 60 };

    let untraced = phase("trace_overhead", point_iters, &mut |i| {
        point(&db, &mut session, i)
    });
    let join_untraced = phase("_", join_iters, &mut |_| join(&db, &mut session));
    db.execute_in_session(&mut session, "SET trace = on")
        .unwrap();
    let traced = phase("_", point_iters, &mut |i| point(&db, &mut session, i));
    let join_traced = phase("_", join_iters, &mut |_| join(&db, &mut session));
    assert!(
        !db.tracer().recent().is_empty(),
        "traced phases must actually capture traces"
    );

    let ratio = |t: &GroupResult, u: &GroupResult| t.median_ns as f64 / u.median_ns.max(1) as f64;
    let mut result = untraced;
    result
        .extras
        .push(("point_untraced_ns", result.median_ns as f64));
    result
        .extras
        .push(("point_traced_ns", traced.median_ns as f64));
    result
        .extras
        .push(("point_traced_ratio", ratio(&traced, &result)));
    result
        .extras
        .push(("join_untraced_ns", join_untraced.median_ns as f64));
    result
        .extras
        .push(("join_traced_ns", join_traced.median_ns as f64));
    result
        .extras
        .push(("join_traced_ratio", ratio(&join_traced, &join_untraced)));
    result
}

/// Multi-statement transaction commit cycle on the embedded engine:
/// BEGIN → one UPDATE + one INSERT staged in the deferred-apply write
/// set → COMMIT (validation, overlay apply, WAL commit record). Single
/// session, so the cost is the transaction machinery itself.
fn bench_txn_commit(quick: bool) -> GroupResult {
    let db = Database::new();
    seed(&db, "txn", 500);
    let mut session = SessionContext::new();
    let iters = if quick { 100 } else { 1000 };
    measure("txn_commit", iters / 10, iters, |i| {
        db.execute_in_session(&mut session, "BEGIN").unwrap();
        db.execute_in_session(
            &mut session,
            &format!("UPDATE txn SET v = v + 1 WHERE id = {}", i % 500),
        )
        .unwrap();
        db.execute_in_session(
            &mut session,
            &format!("INSERT INTO txn VALUES ({}, 0, 0)", 10_000 + i),
        )
        .unwrap();
        db.execute_in_session(&mut session, "COMMIT").unwrap();
    })
}

/// YCSB-style zipf-skewed read-modify-write transactions from 4
/// concurrent wire clients against a real server: the serving path the
/// learned CC policy adapts on. Each iteration is one full round of
/// transactions across all clients; conflict aborts retry with backoff.
/// The `abort_ratio` extra reports how much work the policy discarded.
fn bench_ycsb_zipf_concurrent(quick: bool) -> GroupResult {
    use neurdb_server::{client::Client, ClientError, Server, ServerConfig};
    use neurdb_workloads::Zipf;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::sync::atomic::{AtomicU64, Ordering};

    const CLIENTS: usize = 4;
    const KEYS: u64 = 64;
    let txns = if quick { 8 } else { 25 };

    let db = Arc::new(Database::new());
    db.execute("CREATE TABLE ycsb (id INT PRIMARY KEY, val INT)")
        .unwrap();
    let mut stmt = String::from("INSERT INTO ycsb VALUES ");
    for k in 0..KEYS {
        if k > 0 {
            stmt.push(',');
        }
        let _ = write!(stmt, "({k}, 0)");
    }
    db.execute(&stmt).unwrap();
    let handle = Server::start(db, "127.0.0.1:0", ServerConfig::default()).unwrap();
    let addr = handle.local_addr();

    let aborts = Arc::new(AtomicU64::new(0));
    let commits = Arc::new(AtomicU64::new(0));
    let iters = if quick { 5 } else { 15 };
    let mut result = measure("ycsb_zipf_concurrent", 2, iters, |round| {
        let workers: Vec<_> = (0..CLIENTS)
            .map(|t| {
                let aborts = aborts.clone();
                let commits = commits.clone();
                std::thread::spawn(move || {
                    let mut c = Client::connect(addr).unwrap();
                    let zipf = Zipf::new(KEYS, 0.9);
                    let mut rng = StdRng::seed_from_u64((round * CLIENTS + t) as u64);
                    for _ in 0..txns {
                        let k1 = zipf.sample(&mut rng);
                        let k2 = zipf.sample(&mut rng);
                        let mut attempts = 0u32;
                        'retry: loop {
                            attempts += 1;
                            if attempts > 1 {
                                std::thread::sleep(std::time::Duration::from_micros(
                                    200 * u64::from(attempts.min(20)),
                                ));
                            }
                            c.affected("BEGIN").unwrap();
                            for k in [k1, k2] {
                                match c.affected(&format!(
                                    "UPDATE ycsb SET val = val + 1 WHERE id = {k}"
                                )) {
                                    Ok(_) => {}
                                    Err(ClientError::TxnAborted(_)) => {
                                        aborts.fetch_add(1, Ordering::Relaxed);
                                        let _ = c.affected("ROLLBACK");
                                        continue 'retry;
                                    }
                                    Err(e) => panic!("unexpected error: {e}"),
                                }
                            }
                            match c.affected("COMMIT") {
                                Ok(_) => {
                                    commits.fetch_add(1, Ordering::Relaxed);
                                    break;
                                }
                                Err(ClientError::TxnAborted(_)) => {
                                    aborts.fetch_add(1, Ordering::Relaxed);
                                    let _ = c.affected("ROLLBACK");
                                }
                                Err(e) => panic!("unexpected COMMIT error: {e}"),
                            }
                        }
                    }
                    c.close().unwrap();
                })
            })
            .collect();
        for w in workers {
            w.join().unwrap();
        }
    });
    handle.shutdown();
    let a = aborts.load(Ordering::Relaxed) as f64;
    let c = commits.load(Ordering::Relaxed) as f64;
    result
        .extras
        .push(("abort_ratio", if a + c == 0.0 { 0.0 } else { a / (a + c) }));
    result
}

fn render_json(results: &[GroupResult], quick: bool) -> String {
    let mut out = String::from("{\n");
    let _ = writeln!(out, "  \"schema\": \"neurdb-bench-trajectory/v1\",");
    let _ = writeln!(out, "  \"pr\": 10,");
    let _ = writeln!(
        out,
        "  \"mode\": \"{}\",",
        if quick { "quick" } else { "full" }
    );
    out.push_str("  \"groups\": {\n");
    for (i, r) in results.iter().enumerate() {
        let _ = write!(
            out,
            "    \"{}\": {{ \"median_ns\": {}, \"min_ns\": {}, \"max_ns\": {}, \"iters\": {}",
            r.name, r.median_ns, r.min_ns, r.max_ns, r.iters
        );
        for (k, v) in &r.extras {
            let _ = write!(out, ", \"{k}\": {v:.6}");
        }
        out.push_str(" }");
        out.push_str(if i + 1 < results.len() { ",\n" } else { "\n" });
    }
    out.push_str("  }\n}\n");
    out
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| "BENCH_10.json".to_string());

    let results = vec![
        bench_insert(quick),
        bench_seqscan(quick),
        bench_indexed_point(quick),
        bench_parallel_agg(quick),
        bench_join_agg_parallel(quick),
        bench_wal_insert(quick),
        bench_trace_overhead(quick),
        bench_txn_commit(quick),
        bench_ycsb_zipf_concurrent(quick),
        bench_buffer_latch("buffer_latch_global_t4", 1, quick),
        bench_buffer_latch("buffer_latch_sharded_t4", 8, quick),
        bench_buffer_out_of_core("buffer_out_of_core_0.1x", 0.1, quick),
        bench_buffer_out_of_core("buffer_out_of_core_0.5x", 0.5, quick),
        bench_buffer_out_of_core("buffer_out_of_core_2x", 2.0, quick),
    ];
    for r in &results {
        println!(
            "{:<24} median {:>12} ns  (min {}, max {}, n={})",
            r.name, r.median_ns, r.min_ns, r.max_ns, r.iters
        );
        for (k, v) in &r.extras {
            println!("{:<24}   {k} = {v:.4}", "");
        }
    }
    let json = render_json(&results, quick);
    std::fs::write(&out_path, &json).unwrap();
    println!("wrote {out_path}");
}
