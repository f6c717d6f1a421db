//! `ai_predict`: in-database inference under drift, from two client
//! sessions. Each client owns a feature table and its model: its first
//! PREDICT trains the model; then PREDICTs over random 500-row id
//! ranges, and every 25 of them a drift step inserts rows with a shifted
//! target and fine-tunes the model (`Database::finetune`).

use crate::layers;
use crate::rng::Rng;
use crate::spans::{Span, Tracer};
use crate::stats::{self, Samples};
use crate::{Args, Outcome};
use neurdb_core::analytics::encode_inference;
use neurdb_core::{value_to_field, Database, Output};
use neurdb_engine::{Mid, TrainOutcome};
use neurdb_nn::ArmNetConfig;
use neurdb_storage::Value;
use std::sync::Barrier;
use std::time::Instant;

/// Client sessions, each in a closed loop on its own table and model.
/// Two keep both vCPUs busy with the workload's own work: a PREDICT
/// takes about 6.5 ms while the other vCPU is idle and about 10 ms while
/// anything runs there, so a single client's latency followed whatever
/// else the host ran beside it.
const CLIENTS: usize = 2;
/// Drift steps per client in one replay. Each replay starts on a fresh
/// set-up, so every replay does the same work on tables that grow by
/// only `STEPS * load_rows` rows.
const STEPS: usize = 5;
const PREDICTS_PER_STEP: usize = 25;
/// Target shift of the rows a drift step inserts.
const DRIFT: f64 = 3.0;
/// Replays per second of `--seconds` in an untraced run; one replay
/// takes about 3 s on a 2-vCPU VM.
const REPLAYS_PER_S: f64 = 0.5;
/// Untraced and traced replays in a traced run.
const TRACED_PAIRS: usize = 3;

/// The model shape `Database` trains for a 4-feature PREDICT; the
/// inference probe encodes its batch the same way.
const MODEL: ArmNetConfig = ArmNetConfig {
    nfields: 4,
    vocab: 2048,
    embed_dim: 8,
    hidden: 64,
    outputs: 1,
};

#[derive(Debug, Clone)]
pub struct Config {
    pub rows: usize,
    pub range: usize,
    pub load_rows: usize,
    /// Drift steps per client in one replay.
    pub steps: usize,
    /// Replays in an untraced run, each on a fresh set-up.
    pub replays: usize,
}

impl Config {
    pub fn for_args(args: &Args) -> Config {
        Config {
            rows: 20_000,
            range: 500,
            load_rows: 200,
            steps: STEPS,
            replays: (args.seconds as f64 * REPLAYS_PER_S).ceil() as usize,
        }
    }
}

type Row = ([i64; 4], f64);

/// One client's table and operation sequence.
struct ClientPlan {
    table: String,
    rows: Vec<Row>,
    /// Lower id of each PREDICT's range; the first one trains.
    ranges: Vec<usize>,
    loads: Vec<Vec<Row>>,
}

fn target(f: &[i64; 4], rng: &mut Rng) -> f64 {
    0.5 * f[0] as f64 + 0.3 * f[1] as f64 - 0.2 * f[2] as f64
        + 0.1 * f[3] as f64
        + (rng.unit() - 0.5) * 0.2
}

fn features(rng: &mut Rng) -> [i64; 4] {
    [
        rng.below(10) as i64,
        rng.below(10) as i64,
        rng.below(5) as i64,
        rng.below(7) as i64,
    ]
}

fn generate(seed: u64, cfg: &Config) -> Vec<ClientPlan> {
    (0..CLIENTS as u64)
        .map(|c| {
            let mut r = Rng::stream(seed, 20 + 10 * c);
            let rows = (0..cfg.rows)
                .map(|_| {
                    let f = features(&mut r);
                    (f, target(&f, &mut r))
                })
                .collect();
            let mut r = Rng::stream(seed, 21 + 10 * c);
            // Ranges stay inside the initial rows so each PREDICT
            // returns exactly `range` rows.
            let ranges = (0..1 + cfg.steps * PREDICTS_PER_STEP)
                .map(|_| r.below((cfg.rows - cfg.range) as u64) as usize)
                .collect();
            let mut r = Rng::stream(seed, 22 + 10 * c);
            let loads = (0..cfg.steps)
                .map(|step| {
                    (0..cfg.load_rows)
                        .map(|_| {
                            let f = features(&mut r);
                            (f, target(&f, &mut r) + DRIFT * (step + 1) as f64)
                        })
                        .collect()
                })
                .collect();
            ClientPlan {
                table: format!("feat{c}"),
                rows,
                ranges,
                loads,
            }
        })
        .collect()
}

fn insert_sql(table: &str, first_id: usize, rows: &[Row]) -> String {
    let mut sql = format!("INSERT INTO {table} VALUES ");
    for (i, (f, y)) in rows.iter().enumerate() {
        if i > 0 {
            sql.push_str(", ");
        }
        sql.push_str(&format!(
            "({}, {}, {}, {}, {}, {y:.6})",
            first_id + i,
            f[0],
            f[1],
            f[2],
            f[3]
        ));
    }
    sql
}

fn predict_sql(table: &str, lo: usize, cfg: &Config) -> String {
    format!(
        "PREDICT VALUE OF y FROM {table} WHERE id >= {lo} AND id < {} TRAIN ON a, b, c, d",
        lo + cfg.range
    )
}

fn setup(plan: &[ClientPlan]) -> Result<Database, String> {
    let db = Database::new();
    let exec = |sql: &str| db.execute(sql).map_err(|e| format!("setup: {e}"));
    for p in plan {
        exec(&format!(
            "CREATE TABLE {} (id INT PRIMARY KEY, a INT, b INT, c INT, d INT, y FLOAT)",
            p.table
        ))?;
        for (c, chunk) in p.rows.chunks(1000).enumerate() {
            exec(&insert_sql(&p.table, c * 1000, chunk))?;
        }
    }
    Ok(db)
}

/// A PREDICT must return one row per id in its range, each with a
/// finite prediction in its last column.
fn check_prediction(out: &Output, cfg: &Config) -> Result<(Mid, Option<TrainOutcome>), String> {
    let Output::Prediction(p) = out else {
        return Err("PREDICT did not return a prediction".into());
    };
    let rows = &p.result.rows;
    if rows.len() != cfg.range {
        return Err(format!("{} rows, expected {}", rows.len(), cfg.range));
    }
    let finite = rows.iter().all(|r| match r.values.last() {
        Some(Value::Float(v)) => v.is_finite(),
        _ => false,
    });
    if !finite {
        return Err("non-finite or missing prediction".into());
    }
    Ok((p.mid, p.train_outcome.clone()))
}

/// What one client did in one replay, or several clients' and
/// replays' logs pooled.
#[derive(Default)]
struct RunLog {
    /// Training PREDICTs: latency and outcome.
    trains: Vec<(f64, TrainOutcome)>,
    predict: Samples,
    insert: Samples,
    finetune: Samples,
    finetunes: Vec<TrainOutcome>,
    /// Model of the client (unset in a pooled log).
    mid: Option<Mid>,
    completed: u64,
    failed: u64,
    failures: Vec<String>,
    /// Wall time of the replay, summed over pooled replays (unset on
    /// one client's log).
    wall: f64,
}

impl RunLog {
    /// Pool another log's samples and counts into this one.
    fn absorb(&mut self, other: RunLog) {
        self.trains.extend(other.trains);
        self.predict.extend(&other.predict);
        self.insert.extend(&other.insert);
        self.finetune.extend(&other.finetune);
        self.finetunes.extend(other.finetunes);
        self.completed += other.completed;
        self.failed += other.failed;
        self.failures.extend(other.failures);
        self.wall += other.wall;
    }

    fn fail(&mut self, why: String) {
        self.failed += 1;
        self.failures.push(why);
    }
}

/// One client's sequence: the training PREDICT, then per drift step
/// 25 PREDICTs, the insert and the fine-tune.
fn run_client(
    db: &Database,
    client: usize,
    p: &ClientPlan,
    cfg: &Config,
    tr: &mut Tracer,
) -> RunLog {
    let mut log = RunLog::default();
    let mut op_id = (client as u64) << 32;
    let mut ranges = p.ranges.iter();

    tr.begin("op.train", op_id);
    let t = Instant::now();
    let r = db.execute(&predict_sql(
        &p.table,
        *ranges.next().expect("training range"),
        cfg,
    ));
    let train_ms = t.elapsed().as_secs_f64() * 1e3;
    tr.end();
    match r
        .map_err(|e| e.to_string())
        .and_then(|o| check_prediction(&o, cfg))
    {
        Ok((mid, Some(outcome))) => {
            log.mid = Some(mid);
            log.trains.push((train_ms, outcome));
        }
        Ok(_) => log.fail(format!("{}: first PREDICT did not train a model", p.table)),
        Err(e) => log.fail(format!("{}: training PREDICT: {e}", p.table)),
    }
    log.completed += 1;
    let Some(mid) = log.mid else {
        return log;
    };

    let mut next_id = p.rows.len();
    for (step, load) in p.loads.iter().enumerate() {
        for lo in ranges.by_ref().take(PREDICTS_PER_STEP) {
            op_id += 1;
            tr.begin("op.predict", op_id);
            let t = Instant::now();
            let r = db.execute(&predict_sql(&p.table, *lo, cfg));
            let ms = t.elapsed().as_secs_f64() * 1e3;
            tr.end();
            match r
                .map_err(|e| e.to_string())
                .and_then(|o| check_prediction(&o, cfg))
            {
                Ok(_) => log.predict.push(ms),
                Err(e) => log.fail(format!(
                    "{}: predict [{lo}, {}): {e}",
                    p.table,
                    lo + cfg.range
                )),
            }
            log.completed += 1;
        }

        op_id += 1;
        tr.begin("op.insert", op_id);
        let t = Instant::now();
        let r = db.execute(&insert_sql(&p.table, next_id, load));
        let ms = t.elapsed().as_secs_f64() * 1e3;
        tr.end();
        match r {
            Ok(o) if o.affected() == Some(load.len()) => {
                log.insert.push(ms);
                next_id += load.len();
            }
            other => log.fail(format!("{}: drift insert {step}: {other:?}", p.table)),
        }
        log.completed += 1;

        op_id += 1;
        let versions_before = db.ai.models.versions(mid).map_or(0, |v| v.len());
        let latest_before = db.ai.models.latest_version(mid).unwrap_or(0);
        tr.begin("op.finetune", op_id);
        let t = Instant::now();
        let r = db.finetune(&p.table, "y");
        let ms = t.elapsed().as_secs_f64() * 1e3;
        tr.end();
        let versions_after = db.ai.models.versions(mid).map_or(0, |v| v.len());
        match r {
            Ok(o) if versions_after == versions_before + 1 && o.version > latest_before => {
                log.finetune.push(ms);
                log.finetunes.push(o);
            }
            Ok(o) => log.fail(format!(
                "{}: finetune {step}: versions {versions_before} -> {versions_after}, version {} after {latest_before}",
                p.table, o.version
            )),
            Err(e) => log.fail(format!("{}: finetune {step}: {e}", p.table)),
        }
        log.completed += 1;
    }
    log
}

/// Run every client's sequence at once on `db`. Returns the pooled log
/// (wall time from the common start to the last client's end), each
/// client's model, and the spans of a traced replay.
fn replay(
    db: &Database,
    plan: &[ClientPlan],
    cfg: &Config,
    trace: bool,
) -> (RunLog, Vec<Option<Mid>>, Vec<Span>) {
    let epoch = Instant::now();
    let barrier = Barrier::new(plan.len() + 1);
    let (logs, wall) = std::thread::scope(|s| {
        let handles: Vec<_> = plan
            .iter()
            .enumerate()
            .map(|(c, p)| {
                let barrier = &barrier;
                s.spawn(move || {
                    let mut tr = Tracer::new(trace, epoch, c as u32);
                    barrier.wait();
                    let log = run_client(db, c, p, cfg, &mut tr);
                    (log, tr.into_spans())
                })
            })
            .collect();
        barrier.wait();
        let start = Instant::now();
        let logs: Vec<_> = handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect();
        (logs, start.elapsed().as_secs_f64())
    });
    let mut pooled = RunLog {
        wall,
        ..RunLog::default()
    };
    let mut mids = Vec::new();
    let mut spans = Vec::new();
    for (log, s) in logs {
        mids.push(log.mid);
        spans.extend(s);
        pooled.absorb(log);
    }
    (pooled, mids, spans)
}

fn note_classes(log: &RunLog, out: &mut Outcome) {
    out.note_class("predict", &log.predict);
    out.note_class("insert", &log.insert);
    out.note_class("finetune", &log.finetune);
}

/// An untraced run replays the sequence `cfg.replays` times, each on a
/// fresh set-up, and pools every replay's samples.
pub fn run(args: &Args) -> Result<Outcome, String> {
    let cfg = Config::for_args(args);
    let plan = generate(args.seed, &cfg);
    if args.trace {
        return run_traced(args, &cfg, &plan);
    }
    let mut out = Outcome::default();
    let mut setup_s = Vec::new();
    let mut walls = Vec::new();
    let mut log = RunLog::default();
    for _ in 0..cfg.replays {
        let t = Instant::now();
        let db = setup(&plan)?;
        setup_s.push(t.elapsed().as_secs_f64());
        let one = replay(&db, &plan, &cfg, false).0;
        walls.push(one.wall);
        log.absorb(one);
    }
    out.attempted = log.completed;
    out.failed = log.failed;
    out.failures = std::mem::take(&mut log.failures);
    out.set("setup_s", stats::median_of(&setup_s));
    out.set("peak_rss_mb", stats::peak_rss_mb());
    out.set("ops_per_s", log.completed as f64 / log.wall);
    out.set("read_p50_ms", log.predict.reported(50.0, "predict")?);
    out.set("read_tail_ms", log.predict.reported(90.0, "predict")?);
    out.set("write_p50_ms", log.insert.reported(50.0, "drift insert")?);
    out.set(
        "after_write_p50_ms",
        log.finetune.reported(50.0, "finetune")?,
    );
    out.note(format!(
        "classes (read = predict p50/p90, write = drift insert p50, after_write = finetune p50); \
         {CLIENTS} clients, {} replays of {} steps each, wall {:.2}s",
        cfg.replays, cfg.steps, log.wall
    ));
    note_classes(&log, &mut out);
    let train_ms: Vec<f64> = log.trains.iter().map(|t| t.0).collect();
    out.note(format!("  replay walls (s): {walls:.3?}"));
    out.note(format!("  training PREDICTs (ms): {train_ms:.1?}"));
    out.note(format!("  setup runs (s): {setup_s:.3?}"));
    Ok(out)
}

/// A traced run alternates untraced and traced replays, each on a fresh
/// set-up, so both sides see the same warm-up; the layer figures come
/// from the traced replays, and the spans, buffer counts and probes
/// from the last one.
fn run_traced(args: &Args, cfg: &Config, plan: &[ClientPlan]) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut untraced = RunLog::default();
    let mut log = RunLog::default();
    let mut last = None;
    for _ in 0..TRACED_PAIRS {
        let db = setup(plan)?;
        untraced.absorb(replay(&db, plan, cfg, false).0);
        let db = setup(plan)?;
        let before = db.buffer_stats();
        let (one, mids, spans) = replay(&db, plan, cfg, true);
        let after = db.buffer_stats();
        let ops = one.completed;
        log.absorb(one);
        last = Some((db, mids, spans, before, after, ops));
    }
    let (db, mids, mut spans, before, after, ops) = last.ok_or("no traced replay")?;
    out.attempted = untraced.completed + log.completed;
    out.failed = untraced.failed + log.failed;
    out.failures.append(&mut untraced.failures);
    out.failures.append(&mut log.failures);
    let ops_s = |l: &RunLog| l.completed as f64 / l.wall;
    out.set("trace.overhead_ratio", ops_s(&log) / ops_s(&untraced));
    layers::set_buffer_metrics(&before, &after, ops, &mut out);

    let med = |f: &dyn Fn(&TrainOutcome) -> f64, outcomes: &[&TrainOutcome]| {
        stats::median_of(&outcomes.iter().map(|o| f(o)).collect::<Vec<_>>())
    };
    let trains: Vec<&TrainOutcome> = log.trains.iter().map(|t| &t.1).collect();
    out.set(
        "engine.train_s",
        stats::median_of(&log.trains.iter().map(|t| t.0 / 1e3).collect::<Vec<_>>()),
    );
    out.set(
        "engine.train_compute_s",
        med(&|o| o.compute_seconds, &trains),
    );
    out.set("engine.train_wait_s", med(&|o| o.wait_seconds, &trains));
    out.set(
        "engine.train_samples_per_s",
        med(&|o| o.throughput(), &trains),
    );
    let finetunes: Vec<&TrainOutcome> = log.finetunes.iter().collect();
    out.set(
        "engine.finetune_compute_ms",
        med(&|o| o.compute_seconds * 1e3, &finetunes),
    );
    out.set(
        "engine.finetune_wait_ms",
        med(&|o| o.wait_seconds * 1e3, &finetunes),
    );
    out.set(
        "engine.finetune_samples_per_s",
        med(&|o| o.throughput(), &finetunes),
    );
    out.set(
        "engine.storage_savings",
        db.ai.models.storage_report().savings(),
    );

    let mid = mids[0].ok_or("no model was trained")?;
    let mut tr = Tracer::new(true, Instant::now(), CLIENTS as u32);
    probe_layers(&db, &plan[0], cfg, mid, &mut tr, &mut out)?;
    spans.extend(tr.into_spans());

    layers::write_trace_files(
        args,
        &spans,
        &[
            ("predict", &log.predict),
            ("insert", &log.insert),
            ("finetune", &log.finetune),
        ],
        &mut out,
    )?;
    out.note(format!(
        "{TRACED_PAIRS} traced replays {:.2}s, {TRACED_PAIRS} untraced {:.2}s ({CLIENTS} clients)",
        log.wall, untraced.wall
    ));
    note_classes(&log, &mut out);
    Ok(out)
}

/// PREDICT split into the calls it makes: a heap scan, model
/// materialization, and inference on a 500-row batch. Run on client 0's
/// table after the replay, with nothing else running.
fn probe_layers(
    db: &Database,
    plan: &ClientPlan,
    cfg: &Config,
    mid: Mid,
    tr: &mut Tracer,
    out: &mut Outcome,
) -> Result<(), String> {
    let lo = plan.ranges[1];
    let sql = predict_sql(&plan.table, lo, cfg);
    let mut parse_us = Samples::default();
    let mut predict_ms = Samples::default();
    for rep in 0..20u64 {
        let op = (1 << 48) + rep;
        tr.begin("sql.parse", op);
        let t = Instant::now();
        neurdb_sql::parse(&sql).map_err(|e| e.to_string())?;
        parse_us.push(t.elapsed().as_secs_f64() * 1e6);
        tr.end();
        tr.begin("core.database.predict", op);
        let t = Instant::now();
        db.execute(&sql).map_err(|e| e.to_string())?;
        predict_ms.push(t.elapsed().as_secs_f64() * 1e3);
        tr.end();
    }
    out.set("sql.parse_us", parse_us.median());

    tr.begin("storage.table.scan", 2 << 48);
    let scan_ms = layers::table_scan_ms(db, &plan.table, 10)?;
    tr.end();
    tr.begin("engine.materialize", 2 << 48);
    let materialize_ms = layers::median_ms(10, || db.ai.models.materialize_latest(mid));
    tr.end();

    let batch = db
        .execute(&format!(
            "SELECT a, b, c, d FROM {} WHERE id >= {lo} AND id < {}",
            plan.table,
            lo + cfg.range
        ))
        .map_err(|e| e.to_string())?;
    let xs: Vec<Vec<u64>> = batch
        .rows()
        .ok_or("feature batch returned no rows")?
        .rows
        .iter()
        .map(|r| r.values.iter().map(value_to_field).collect())
        .collect();
    let encoded = encode_inference(&xs, &MODEL);
    tr.begin("engine.infer", 2 << 48);
    let infer_ms = layers::median_ms(10, || db.ai.infer(mid, &encoded));
    tr.end();

    out.set("storage.table.scan_ms", scan_ms);
    out.set("engine.materialize_ms", materialize_ms);
    out.set("engine.infer_ms", infer_ms);
    out.set(
        "core.database.predict_unattributed_ms",
        predict_ms.median() - scan_ms - materialize_ms - infer_ms,
    );
    Ok(())
}
