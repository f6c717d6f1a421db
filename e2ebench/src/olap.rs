//! `olap_drift`: analytics larger than the buffer pool. One embedded
//! session at `parallelism = 2` runs a fixed cycle of joins and a scan
//! aggregate while bulk loads drift the join-key distribution.

use crate::layers::{self, SelectProbe};
use crate::rng::Rng;
use crate::spans::Tracer;
use crate::stats::{self, Samples};
use crate::{Args, Outcome};
use neurdb_core::{Database, PlannerConfig};
use neurdb_storage::Value;
use std::time::Instant;

/// Cycles per second of `--seconds`, calibrated so a run measures about
/// `--seconds` on a 2-vCPU VM.
const CYCLES_PER_S: f64 = 2.4;

const DIM1_ROWS: i64 = 1000;
const DIM2_ROWS: i64 = 100;
const CATS: usize = 16;
const REGIONS: usize = 8;
/// The join3 filter keeps categories below this.
const CAT_LIMIT: i64 = 4;
/// The scan aggregate keeps values below this.
const V_LIMIT: i64 = 500;

const JOIN2: &str = "SELECT d1.cat, COUNT(*), SUM(f.v) FROM fact f, dim1 d1 \
                     WHERE f.d1 = d1.id GROUP BY d1.cat";
const JOIN3: &str = "SELECT d2.region, COUNT(*), SUM(f.v) FROM fact f, dim1 d1, dim2 d2 \
                     WHERE f.d1 = d1.id AND f.d2 = d2.id AND d1.cat < 4 GROUP BY d2.region";
const SCAN: &str = "SELECT COUNT(*), SUM(v), MIN(v), MAX(v) FROM fact WHERE v < 500";

#[derive(Debug, Clone)]
pub struct Config {
    pub fact_rows: usize,
    pub load_rows: usize,
    pub pool_frames: usize,
    pub dop: usize,
    pub cycles: usize,
    pub setups: usize,
}

impl Config {
    pub fn for_args(args: &Args) -> Config {
        Config {
            fact_rows: 200_000,
            load_rows: 200,
            pool_frames: 256,
            dop: 2,
            cycles: (args.seconds as f64 * CYCLES_PER_S).ceil() as usize,
            setups: 3,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Template {
    Join2,
    Join3,
    Scan,
}

impl Template {
    fn sql(self) -> &'static str {
        match self {
            Template::Join2 => JOIN2,
            Template::Join3 => JOIN3,
            Template::Scan => SCAN,
        }
    }
}

#[derive(Debug, Clone, Copy)]
enum Op {
    /// Bulk-insert load number `n`.
    Load(usize),
    /// The first query after a load: it pays the statistics rebuild and
    /// re-plans the join order.
    AfterWrite(Template),
    Read(Template),
}

/// One cycle. The after-write query is always the 3-way join, so that
/// class has one mode. The read class is one third scans and two thirds
/// joins, which puts its p50 and p90 inside the join mode rather than on
/// the scan/join boundary at the 33rd percentile.
fn cycle(n: usize) -> [Op; 5] {
    [
        Op::Load(n),
        Op::AfterWrite(Template::Join3),
        Op::Read(Template::Scan),
        Op::Read(Template::Join2),
        Op::Read(Template::Join3),
    ]
}

type FactRow = (i64, i64, i64);

struct Plan {
    fact: Vec<FactRow>,
    loads: Vec<Vec<FactRow>>,
}

fn generate(seed: u64, cfg: &Config) -> Plan {
    let mut r = Rng::stream(seed, 10);
    let fact = (0..cfg.fact_rows)
        .map(|_| {
            (
                r.below(DIM1_ROWS as u64) as i64,
                r.below(DIM2_ROWS as u64) as i64,
                r.below(1000) as i64,
            )
        })
        .collect();
    let mut r = Rng::stream(seed, 11);
    // Each load concentrates its join keys in a 100-id window of dim1
    // that moves 50 ids per load: the key distribution drifts.
    let loads = (0..cfg.cycles)
        .map(|n| {
            (0..cfg.load_rows)
                .map(|_| {
                    (
                        (n as i64 * 50 + r.below(100) as i64) % DIM1_ROWS,
                        r.below(DIM2_ROWS as u64) as i64,
                        r.below(1000) as i64,
                    )
                })
                .collect()
        })
        .collect();
    Plan { fact, loads }
}

/// The generator's own answers to the three templates, updated as rows
/// are loaded.
struct Truth {
    by_cat: [(i64, i64); CATS],
    by_region: [(i64, i64); REGIONS],
    scan: (i64, i64, i64, i64),
}

impl Truth {
    fn new() -> Truth {
        Truth {
            by_cat: [(0, 0); CATS],
            by_region: [(0, 0); REGIONS],
            scan: (0, 0, i64::MAX, i64::MIN),
        }
    }

    fn add(&mut self, &(d1, d2, v): &FactRow) {
        let cat = d1 % CATS as i64;
        self.by_cat[cat as usize].0 += 1;
        self.by_cat[cat as usize].1 += v;
        if cat < CAT_LIMIT {
            let reg = (d2 % REGIONS as i64) as usize;
            self.by_region[reg].0 += 1;
            self.by_region[reg].1 += v;
        }
        if v < V_LIMIT {
            let s = &mut self.scan;
            s.0 += 1;
            s.1 += v;
            s.2 = s.2.min(v);
            s.3 = s.3.max(v);
        }
    }

    /// Expected rows of `t`, sorted.
    fn expect(&self, t: Template) -> Vec<Vec<i64>> {
        let grouped = |groups: &[(i64, i64)]| -> Vec<Vec<i64>> {
            groups
                .iter()
                .enumerate()
                .filter(|(_, (n, _))| *n > 0)
                .map(|(k, (n, s))| vec![k as i64, *n, *s])
                .collect()
        };
        match t {
            Template::Join2 => grouped(&self.by_cat),
            Template::Join3 => grouped(&self.by_region),
            Template::Scan => vec![vec![self.scan.0, self.scan.1, self.scan.2, self.scan.3]],
        }
    }
}

fn as_int(v: &Value) -> Option<i64> {
    match v {
        Value::Int(i) => Some(*i),
        Value::Float(f) if f.fract() == 0.0 => Some(*f as i64),
        _ => None,
    }
}

fn check_result(out: &neurdb_core::Output, t: Template, truth: &Truth) -> Result<(), String> {
    let rows = out.rows().ok_or("query returned no rows")?;
    let mut got: Vec<Vec<i64>> = rows
        .rows
        .iter()
        .map(|r| {
            r.values
                .iter()
                .map(|v| as_int(v).unwrap_or(i64::MIN))
                .collect()
        })
        .collect();
    got.sort();
    let want = truth.expect(t);
    if got != want {
        return Err(format!("{t:?}: got {got:?}, expected {want:?}"));
    }
    Ok(())
}

fn insert_sql(table: &str, first_id: usize, rows: &[FactRow]) -> String {
    let mut sql = format!("INSERT INTO {table} VALUES ");
    for (i, (d1, d2, v)) in rows.iter().enumerate() {
        if i > 0 {
            sql.push_str(", ");
        }
        sql.push_str(&format!("({}, {d1}, {d2}, {v})", first_id + i));
    }
    sql
}

fn setup(plan: &Plan, cfg: &Config) -> Result<Database, String> {
    let db = Database::with_buffer_capacity(cfg.pool_frames);
    db.set_parallelism(cfg.dop);
    let exec = |sql: &str| db.execute(sql).map_err(|e| format!("setup: {e}"));
    exec("CREATE TABLE dim1 (id INT, cat INT)")?;
    exec("CREATE TABLE dim2 (id INT, region INT)")?;
    exec("CREATE TABLE fact (id INT, d1 INT, d2 INT, v INT)")?;
    let dim1: Vec<String> = (0..DIM1_ROWS)
        .map(|i| format!("({i}, {})", i % CATS as i64))
        .collect();
    exec(&format!("INSERT INTO dim1 VALUES {}", dim1.join(", ")))?;
    let dim2: Vec<String> = (0..DIM2_ROWS)
        .map(|i| format!("({i}, {})", i % REGIONS as i64))
        .collect();
    exec(&format!("INSERT INTO dim2 VALUES {}", dim2.join(", ")))?;
    for (c, chunk) in plan.fact.chunks(1000).enumerate() {
        exec(&insert_sql("fact", c * 1000, chunk))?;
    }
    Ok(db)
}

/// What one replay of the sequence observed.
#[derive(Default)]
struct RunLog {
    read: Samples,
    after_write: Samples,
    load: Samples,
    /// Read latency per template, for the report.
    by_template: [Samples; 3],
    completed: u64,
    failed: u64,
    queries: u64,
    rebuild_ms: Samples,
    wall: f64,
}

fn replay(db: &Database, plan: &Plan, cfg: &Config, tr: &mut Tracer, out: &mut Outcome) -> RunLog {
    let mut log = RunLog::default();
    let mut truth = Truth::new();
    plan.fact.iter().for_each(|r| truth.add(r));
    let mut next_id = plan.fact.len();
    let start = Instant::now();
    for (i, op) in (0..cfg.cycles).flat_map(cycle).enumerate() {
        let op_id = i as u64;
        match op {
            Op::Load(n) => {
                let rows = &plan.loads[n];
                let sql = insert_sql("fact", next_id, rows);
                tr.begin("op.load", op_id);
                let t = Instant::now();
                let r = db.execute(&sql);
                let ms = t.elapsed().as_secs_f64() * 1e3;
                tr.end();
                match r {
                    Ok(o) if o.affected() == Some(rows.len()) => {
                        log.load.push(ms);
                        next_id += rows.len();
                        rows.iter().for_each(|r| truth.add(r));
                    }
                    Ok(o) => {
                        log.failed += 1;
                        out.fail(format!("load {n}: affected {:?}", o.affected()));
                    }
                    Err(e) => {
                        log.failed += 1;
                        out.fail(format!("load {n}: {e}"));
                    }
                }
                if tr.enabled() {
                    // Attribute the rebuild the next join would pay.
                    tr.begin("storage.stats.rebuild", op_id);
                    let t = Instant::now();
                    let rebuilt = db.table("fact").map(|t| t.stats());
                    log.rebuild_ms.push(t.elapsed().as_secs_f64() * 1e3);
                    tr.end();
                    if let Err(e) = rebuilt {
                        out.fail(format!("stats rebuild: {e}"));
                    }
                }
            }
            Op::AfterWrite(t) | Op::Read(t) => {
                let after_write = matches!(op, Op::AfterWrite(_));
                tr.begin(
                    if after_write {
                        "op.after_write"
                    } else {
                        "op.read"
                    },
                    op_id,
                );
                let t0 = Instant::now();
                let r = db.execute(t.sql());
                let ms = t0.elapsed().as_secs_f64() * 1e3;
                tr.end();
                log.queries += 1;
                match r
                    .map_err(|e| e.to_string())
                    .and_then(|o| check_result(&o, t, &truth))
                {
                    Ok(()) if after_write => log.after_write.push(ms),
                    Ok(()) => {
                        log.read.push(ms);
                        log.by_template[t as usize].push(ms);
                    }
                    Err(e) => {
                        log.failed += 1;
                        out.fail(format!("query {i}: {e}"));
                    }
                }
            }
        }
        log.completed += 1;
    }
    log.wall = start.elapsed().as_secs_f64();
    log
}

/// Buffer-pool misses and evictions over one replay. Deterministic at
/// `dop = 1`.
#[cfg(test)]
pub fn buffer_counts(seed: u64, cfg: &Config) -> Result<(u64, u64), String> {
    let plan = generate(seed, cfg);
    let db = setup(&plan, cfg)?;
    let mut out = Outcome::default();
    let before = db.buffer_stats();
    let mut tr = Tracer::new(false, Instant::now(), 0);
    replay(&db, &plan, cfg, &mut tr, &mut out);
    if let Some(f) = out.failures.first() {
        return Err(f.clone());
    }
    let after = db.buffer_stats();
    Ok((
        after.misses - before.misses,
        after.evictions - before.evictions,
    ))
}

fn note_classes(log: &RunLog, out: &mut Outcome) {
    out.note_class("query", &log.read);
    out.note_class("load", &log.load);
    out.note_class("q_after_ld", &log.after_write);
    for (t, name) in [(0, "  join2"), (1, "  join3"), (2, "  scan")] {
        out.note(format!(
            "  {name:<10} n={:<6} median={:.3}ms",
            log.by_template[t].len(),
            log.by_template[t].median()
        ));
    }
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let cfg = Config::for_args(args);
    let plan = generate(args.seed, &cfg);
    if args.trace {
        return run_traced(args, &cfg, &plan);
    }
    let mut out = Outcome::default();
    let mut setup_s = Vec::new();
    let mut db = None;
    for _ in 0..cfg.setups {
        drop(db.take());
        let t = Instant::now();
        db = Some(setup(&plan, &cfg)?);
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let db = db.expect("at least one setup");
    let mut tr = Tracer::new(false, Instant::now(), 0);
    let log = replay(&db, &plan, &cfg, &mut tr, &mut out);
    out.attempted = log.completed;
    out.failed = log.failed;
    out.set("setup_s", stats::median_of(&setup_s));
    out.set("peak_rss_mb", stats::peak_rss_mb());
    out.set("ops_per_s", log.completed as f64 / log.wall);
    out.set("read_p50_ms", log.read.reported(50.0, "query")?);
    out.set("read_tail_ms", log.read.reported(90.0, "query")?);
    out.set("write_p50_ms", log.load.reported(50.0, "load")?);
    out.set(
        "after_write_p50_ms",
        log.after_write.reported(50.0, "query after load")?,
    );
    out.note(format!(
        "classes (read = query p50/p90, write = load p50, after_write = first query after a load p50); dop {}, {} cycles, wall {:.2}s",
        cfg.dop, cfg.cycles, log.wall
    ));
    note_classes(&log, &mut out);
    out.note(format!("  setup runs: {setup_s:.3?}"));
    Ok(out)
}

fn run_traced(args: &Args, cfg: &Config, plan: &Plan) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let untraced = {
        let db = setup(plan, cfg)?;
        let mut tr = Tracer::new(false, Instant::now(), 0);
        replay(&db, plan, cfg, &mut tr, &mut out)
    };

    let db = setup(plan, cfg)?;
    let mut tr = Tracer::new(true, Instant::now(), 0);
    let before = db.buffer_stats();
    let log = replay(&db, plan, cfg, &mut tr, &mut out);
    let after = db.buffer_stats();
    out.attempted = untraced.completed + log.completed;
    out.failed = untraced.failed + log.failed;
    let ops_s = |l: &RunLog| l.completed as f64 / l.wall;
    out.set("trace.overhead_ratio", ops_s(&log) / ops_s(&untraced));
    layers::set_buffer_metrics(&before, &after, log.queries, &mut out);
    out.set("storage.stats.rebuild_ms", log.rebuild_ms.median());

    // Layer probes per template on the final state.
    let config = PlannerConfig {
        parallelism: cfg.dop,
        ..PlannerConfig::default()
    };
    let mut all = SelectProbe::default();
    for (k, (t, metric)) in [
        (Template::Join2, "core.planner.plan_ms.join2"),
        (Template::Join3, "core.planner.plan_ms.join3"),
        (Template::Scan, "core.planner.plan_ms.scan"),
    ]
    .into_iter()
    .enumerate()
    {
        let mut probe = SelectProbe::default();
        for rep in 0..3 {
            probe.probe(
                &db,
                t.sql(),
                &config,
                &mut tr,
                (1 << 48) + (k * 8 + rep) as u64,
            )?;
        }
        out.set(metric, probe.plan_us.median() / 1e3);
        all.absorb(probe);
    }
    out.set("sql.parse_us", all.parse_us.median());
    out.set("core.planner.plan_us", all.plan_us.median());
    out.set("core.exec.execute_us", all.exec_us.median());
    out.set(
        "core.database.unattributed_us",
        all.unattributed_us.median(),
    );
    layers::set_operator_metrics(&all, &mut out);
    out.set(
        "storage.table.scan_ms",
        layers::table_scan_ms(&db, "fact", 5)?,
    );

    let spans = tr.into_spans();
    layers::write_trace_files(
        args,
        &spans,
        &[
            ("query", &log.read),
            ("load", &log.load),
            ("after_write", &log.after_write),
        ],
        &mut out,
    )?;
    out.note(format!(
        "traced replay {:.2}s, untraced {:.2}s",
        log.wall, untraced.wall
    ));
    note_classes(&log, &mut out);
    Ok(out)
}
