//! `oltp_wire`: the serving path. Two closed-loop client connections
//! drive point reads, autocommit updates, and transfer transactions over
//! TCP against a durable database (WAL at `FsyncPolicy::Never`).

use crate::layers::{self, SelectProbe};
use crate::rng::{Rng, Zipf};
use crate::spans::{Span, Tracer};
use crate::stats::{self, Samples};
use crate::{Args, Outcome};
use neurdb_core::{Database, PlannerConfig, SessionContext};
use neurdb_server::{Client, ClientError, Server, ServerConfig, ServerHandle};
use neurdb_storage::Value;
use neurdb_wal::{DurableStoreOptions, FsyncPolicy, WalOptions};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

/// Operations each client issues per second of `--seconds`, calibrated
/// so a run measures about `--seconds` on a 2-vCPU VM.
const OPS_PER_CLIENT_PER_S: usize = 130;
/// A transfer that keeps losing concurrency-control conflicts is given
/// up (and counted failed) after retrying for this long. Hot keys can
/// send the learned policy into long abort streaks (over a thousand
/// attempts) that do end.
const RETRY_FOR: Duration = Duration::from_secs(30);
/// Accounts the hot-key transfer probe moves money between: the most
/// requested zipf ranks.
const HOT_KEYS: usize = 8;
/// Transfers each client attempts in the hot-key probe, and the time
/// the probe may take before it stops retrying.
const HOT_TRANSFERS: usize = 40;
const HOT_PROBE_FOR: Duration = Duration::from_secs(10);
/// Logical bytes of one `acct` row (three INT columns).
const ROW_BYTES: f64 = 24.0;

#[derive(Debug, Clone)]
pub struct Config {
    pub rows: usize,
    pub clients: usize,
    pub ops_per_client: usize,
    pub theta: f64,
    pub setups: usize,
}

impl Config {
    pub fn for_args(args: &Args) -> Config {
        Config {
            rows: 50_000,
            clients: 2,
            ops_per_client: args.seconds as usize * OPS_PER_CLIENT_PER_S,
            theta: 0.9,
            setups: 5,
        }
    }
}

#[derive(Debug, Clone, Copy)]
enum Op {
    Point(i64),
    Update(i64),
    Transfer { from: i64, to: i64, amount: i64 },
}

/// The seed-generated inputs: initial balances, each client's
/// operation sequence, and each client's hot-key transfers for the
/// concurrency-control probe of a traced run.
struct Plan {
    initial: Vec<i64>,
    clients: Vec<Vec<Op>>,
    hot: Vec<Vec<Op>>,
}

fn generate(seed: u64, cfg: &Config) -> Plan {
    let mut r = Rng::stream(seed, 0);
    let initial = (0..cfg.rows).map(|_| 1000 + r.below(9000) as i64).collect();
    let zipf = Zipf::new(cfg.rows, cfg.theta);
    // Hot ranks land on scattered ids, not on the first heap pages.
    let ids = Rng::stream(seed, 1).permutation(cfg.rows);
    let clients = (0..cfg.clients)
        .map(|c| {
            let mut r = Rng::stream(seed, 100 + c as u64);
            let mut block = Vec::new();
            // Every block of 20 operations holds exactly 16 points, 3
            // updates, and 1 transfer in seeded order, so every client
            // and every seed carries the same amount of work.
            (0..cfg.ops_per_client)
                .map(|i| {
                    if i % 20 == 0 {
                        block = r.permutation(20);
                    }
                    let key = |r: &mut Rng| ids[zipf.sample(r)] as i64;
                    match block[i % 20] {
                        0..=15 => Op::Point(key(&mut r)),
                        16..=18 => Op::Update(key(&mut r)),
                        // Payments between uniformly chosen accounts:
                        // zipf-hot accounts send the learned CC into
                        // abort streaks, which the hot-key probe of a
                        // traced run measures instead.
                        _ => transfer(&mut r, |r| r.below(cfg.rows as u64) as i64),
                    }
                })
                .collect()
        })
        .collect();
    let hot = (0..cfg.clients)
        .map(|c| {
            let mut r = Rng::stream(seed, 200 + c as u64);
            (0..HOT_TRANSFERS)
                .map(|_| transfer(&mut r, |r| ids[r.below(HOT_KEYS as u64) as usize] as i64))
                .collect()
        })
        .collect();
    Plan {
        initial,
        clients,
        hot,
    }
}

fn transfer(r: &mut Rng, key: impl Fn(&mut Rng) -> i64) -> Op {
    let from = key(r);
    let mut to = key(r);
    while to == from {
        to = key(r);
    }
    // At least 10, so a debit is always visible even past a concurrent
    // +1 update.
    let amount = 10 + r.below(90) as i64;
    Op::Transfer { from, to, amount }
}

/// A loaded durable database served over TCP.
struct Served {
    db: Arc<Database>,
    server: ServerHandle,
    dir: PathBuf,
}

impl Served {
    /// Shut the server down and close the database (releasing its
    /// directory lock); returns the directory.
    fn close(self) -> PathBuf {
        self.server.shutdown();
        drop(self.db);
        self.dir
    }
}

fn open_durable(dir: &Path) -> Result<Database, String> {
    let opts = DurableStoreOptions {
        wal: WalOptions {
            fsync: FsyncPolicy::Never,
            ..WalOptions::default()
        },
        ..DurableStoreOptions::default()
    };
    Database::open_with(dir, opts).map_err(|e| format!("open {}: {e}", dir.display()))
}

fn setup(dir: PathBuf, plan: &Plan) -> Result<Served, String> {
    let _ = std::fs::remove_dir_all(&dir);
    let db = open_durable(&dir)?;
    let exec = |sql: &str| db.execute(sql).map_err(|e| format!("setup: {e}"));
    exec("CREATE TABLE acct (id INT PRIMARY KEY, grp INT, bal INT)")?;
    for (c, bals) in plan.initial.chunks(1000).enumerate() {
        let mut sql = String::from("INSERT INTO acct VALUES ");
        for (i, bal) in bals.iter().enumerate() {
            let id = c * 1000 + i;
            if i > 0 {
                sql.push_str(", ");
            }
            sql.push_str(&format!("({id}, {}, {bal})", id % 64));
        }
        exec(&sql)?;
    }
    exec("CREATE INDEX ON acct (id)")?;
    db.checkpoint().map_err(|e| format!("checkpoint: {e}"))?;
    let db = Arc::new(db);
    let server = Server::start(db.clone(), "127.0.0.1:0", ServerConfig::default())
        .map_err(|e| format!("server start: {e}"))?;
    Ok(Served { db, server, dir })
}

/// What one client connection observed.
#[derive(Default)]
struct ClientLog {
    point: Samples,
    update: Samples,
    transfer: Samples,
    completed: u64,
    failed: u64,
    /// Acknowledged balance changes `(id, delta)`.
    deltas: Vec<(i64, i64)>,
    transfer_attempts: u64,
    aborts: u64,
    committed_updates: u64,
    committed_transfers: u64,
    /// Transfers still aborting when their retry time ran out.
    gave_up: u64,
    max_attempts: u32,
    /// Transfers whose first read was overwritten by a concurrent
    /// update before the transfer's own debit (read skew).
    read_skew: u64,
    /// Committed transfers whose read-back was not below their first
    /// read: the debit was invisible, or concurrent credits outweighed
    /// it (possible only where transfers share accounts).
    unseen_debits: u64,
    errors: Vec<String>,
    spans: Vec<Span>,
}

fn single_int(rows: &neurdb_server::RowSet) -> Option<i64> {
    match rows.rows.as_slice() {
        [row] => match row.first() {
            Some(Value::Int(v)) => Some(*v),
            Some(Value::Float(v)) => Some(*v as i64),
            _ => None,
        },
        _ => None,
    }
}

/// One statement over the wire, inside a `wire.statement` span.
fn stmt(
    c: &mut Client,
    tr: &mut Tracer,
    op: u64,
    sql: &str,
) -> Result<neurdb_server::Response, ClientError> {
    tr.begin("wire.statement", op);
    let r = c.execute(sql);
    tr.end();
    r
}

/// One transfer attempt: BEGIN; read a; debit a; credit b; read a back;
/// COMMIT. Returns the first read and the read-back.
fn transfer_once(
    c: &mut Client,
    tr: &mut Tracer,
    op: u64,
    from: i64,
    to: i64,
    amount: i64,
) -> Result<(i64, i64), ClientError> {
    let read = |c: &mut Client, tr: &mut Tracer| -> Result<i64, ClientError> {
        match stmt(
            c,
            tr,
            op,
            &format!("SELECT bal FROM acct WHERE id = {from}"),
        )? {
            neurdb_server::Response::Rows(rs) => single_int(&rs)
                .ok_or_else(|| ClientError::Protocol(format!("account {from}: bad read"))),
            other => Err(ClientError::Protocol(format!("unexpected {other:?}"))),
        }
    };
    stmt(c, tr, op, "BEGIN")?;
    let before = read(c, tr)?;
    stmt(
        c,
        tr,
        op,
        &format!("UPDATE acct SET bal = bal - {amount} WHERE id = {from}"),
    )?;
    stmt(
        c,
        tr,
        op,
        &format!("UPDATE acct SET bal = bal + {amount} WHERE id = {to}"),
    )?;
    let after = read(c, tr)?;
    stmt(c, tr, op, "COMMIT")?;
    Ok((before, after))
}

/// Replay `ops` on one connection. After `deadline` no new operation
/// starts and aborted transfers stop retrying.
fn run_client(
    c: &mut Client,
    ops: &[Op],
    track: u32,
    trace: bool,
    epoch: Instant,
    deadline: Option<Instant>,
) -> ClientLog {
    let mut log = ClientLog::default();
    let mut tr = Tracer::new(trace, epoch, track);
    let op_base = (track as u64) << 32;
    let in_time = || deadline.is_none_or(|d| Instant::now() < d);
    for (i, op) in ops.iter().enumerate() {
        if !in_time() {
            break;
        }
        let op_id = op_base + i as u64;
        let t = Instant::now();
        match *op {
            Op::Point(k) => {
                tr.begin("op.point", op_id);
                let r = c.query(&format!("SELECT bal FROM acct WHERE id = {k}"));
                tr.end();
                match r {
                    Ok(rs) if single_int(&rs).is_some() => {
                        log.point.push(t.elapsed().as_secs_f64() * 1e3)
                    }
                    Ok(rs) => {
                        log.failed += 1;
                        log.errors
                            .push(format!("point {k}: {} rows", rs.rows.len()));
                    }
                    Err(e) => {
                        log.failed += 1;
                        log.errors.push(format!("point {k}: {e}"));
                    }
                }
            }
            Op::Update(k) => {
                tr.begin("op.update", op_id);
                let r = c.affected(&format!("UPDATE acct SET bal = bal + 1 WHERE id = {k}"));
                tr.end();
                match r {
                    Ok(1) => {
                        log.update.push(t.elapsed().as_secs_f64() * 1e3);
                        log.deltas.push((k, 1));
                        log.committed_updates += 1;
                    }
                    Ok(n) => {
                        log.failed += 1;
                        log.errors.push(format!("update {k}: {n} rows"));
                    }
                    Err(e) => {
                        log.failed += 1;
                        log.errors.push(format!("update {k}: {e}"));
                    }
                }
            }
            Op::Transfer { from, to, amount } => {
                tr.begin("op.transfer", op_id);
                let mut attempts = 0;
                let result = loop {
                    attempts += 1;
                    log.transfer_attempts += 1;
                    tr.begin("txn.attempt", op_id);
                    let r = transfer_once(c, &mut tr, op_id, from, to, amount);
                    tr.end();
                    match r {
                        Err(ClientError::TxnAborted(_)) if t.elapsed() < RETRY_FOR && in_time() => {
                            log.aborts += 1;
                            // Clears the aborted transaction; an error
                            // here means it was already cleared.
                            let _ = stmt(c, &mut tr, op_id, "ROLLBACK");
                        }
                        other => break other,
                    }
                };
                tr.end();
                log.max_attempts = log.max_attempts.max(attempts);
                match result {
                    Ok((before, after)) => {
                        log.transfer.push(t.elapsed().as_secs_f64() * 1e3);
                        log.deltas.push((from, -amount));
                        log.deltas.push((to, amount));
                        log.committed_transfers += 1;
                        if after >= before {
                            log.unseen_debits += 1;
                        } else if after != before - amount {
                            log.read_skew += 1;
                        }
                    }
                    Err(ClientError::TxnAborted(_)) => {
                        log.failed += 1;
                        log.gave_up += 1;
                        let _ = c.execute("ROLLBACK");
                    }
                    Err(e) => {
                        log.failed += 1;
                        log.errors.push(format!("transfer {from}->{to}: {e}"));
                        let _ = c.execute("ROLLBACK");
                    }
                }
            }
        }
        log.completed += 1;
    }
    log.spans = tr.into_spans();
    log
}

/// Run one sequence per client concurrently; returns the logs and the
/// wall time from the common start to the last reply. Client `i`
/// records on track `first_track + i`; span times count from `epoch`.
fn run_clients(
    served: &Served,
    sequences: &[Vec<Op>],
    trace: bool,
    epoch: Instant,
    first_track: u32,
    deadline: Option<Duration>,
) -> Result<(Vec<ClientLog>, f64), String> {
    let addr = served.server.local_addr();
    let mut clients = Vec::with_capacity(sequences.len());
    for _ in sequences {
        clients.push(Client::connect(addr).map_err(|e| format!("connect: {e}"))?);
    }
    let barrier = Barrier::new(sequences.len() + 1);
    let deadline = deadline.map(|d| Instant::now() + d);
    let (logs, wall) = std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .iter_mut()
            .zip(sequences)
            .enumerate()
            .map(|(i, (c, ops))| {
                let barrier = &barrier;
                let track = first_track + i as u32;
                s.spawn(move || {
                    barrier.wait();
                    run_client(c, ops, track, trace, epoch, deadline)
                })
            })
            .collect();
        barrier.wait();
        let start = Instant::now();
        let logs: Vec<ClientLog> = handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect();
        (logs, start.elapsed().as_secs_f64())
    });
    for c in clients {
        let _ = c.close();
    }
    Ok((logs, wall))
}

/// Expected balances: initial plus every acknowledged change.
fn expected_balances(plan: &Plan, logs: &[ClientLog], extra: &[(i64, i64)]) -> Vec<i64> {
    let mut bal = plan.initial.clone();
    for (id, d) in logs.iter().flat_map(|l| l.deltas.iter()).chain(extra) {
        bal[*id as usize] += d;
    }
    bal
}

/// Compare every account's balance in `db` with `expected`.
fn check_balances(db: &Database, expected: &[i64], what: &str, out: &mut Outcome) {
    let want_sum: i64 = expected.iter().sum();
    match db.execute("SELECT SUM(bal) FROM acct") {
        Ok(o) => {
            let got = o
                .rows()
                .and_then(|r| r.rows.first())
                .map(|t| match t.get(0) {
                    Value::Int(v) => *v,
                    Value::Float(v) => *v as i64,
                    _ => i64::MIN,
                });
            if got != Some(want_sum) {
                out.fail(format!("{what}: sum(bal) = {got:?}, expected {want_sum}"));
            }
        }
        Err(e) => out.fail(format!("{what}: sum(bal): {e}")),
    }
    match db.execute("SELECT id, bal FROM acct") {
        Ok(o) => {
            let rows = o.rows().map(|r| r.rows.as_slice()).unwrap_or(&[]);
            let mut seen: HashMap<i64, i64> = HashMap::with_capacity(rows.len());
            for t in rows {
                if let (Value::Int(id), Value::Int(bal)) = (t.get(0), t.get(1)) {
                    seen.insert(*id, *bal);
                }
            }
            let wrong = (0..expected.len())
                .filter(|&id| seen.get(&(id as i64)) != Some(&expected[id]))
                .count();
            if rows.len() != expected.len() || wrong > 0 {
                out.fail(format!(
                    "{what}: {} rows, {wrong} balances differ from the acknowledged ones",
                    rows.len()
                ));
            }
        }
        Err(e) => out.fail(format!("{what}: scan balances: {e}")),
    }
}

/// Close the served database, reopen its directory with
/// `Database::open` (crash recovery), and require the acknowledged
/// balances. Removes the directory afterwards.
fn check_recovery(served: Served, expected: &[i64], out: &mut Outcome) -> Result<(), String> {
    let dir = served.close();
    {
        let db = Database::open(&dir).map_err(|e| format!("reopen: {e}"))?;
        check_balances(&db, expected, "after reopen", out);
    }
    let _ = std::fs::remove_dir_all(&dir);
    Ok(())
}

fn merge(logs: &[ClientLog]) -> (Samples, Samples, Samples) {
    let (mut p, mut u, mut t) = (Samples::default(), Samples::default(), Samples::default());
    for l in logs {
        p.extend(&l.point);
        u.extend(&l.update);
        t.extend(&l.transfer);
    }
    (p, u, t)
}

fn account(logs: &[ClientLog], out: &mut Outcome) {
    for l in logs {
        out.attempted += l.completed;
        out.failed += l.failed;
        for e in l.errors.iter().take(5) {
            out.fail(e.clone());
        }
        if l.unseen_debits > 0 {
            // Accounts are uniform and updates add 1 while a debit is at
            // least 10, so only an invisible debit explains this.
            out.failed += l.unseen_debits;
            out.fail(format!(
                "{} transfers did not read back their own debit",
                l.unseen_debits
            ));
        }
        if l.gave_up > 0 {
            out.fail(format!(
                "{} transfers still aborted after retrying for {RETRY_FOR:?}",
                l.gave_up
            ));
        }
    }
}

fn db_dir(args: &Args, tag: &str) -> PathBuf {
    args.out_dir
        .join(format!("oltp-{}-{tag}", std::process::id()))
}

/// WAL records and bytes appended over one untraced replay, and the
/// commits they carried. Deterministic with one client.
#[cfg(test)]
pub fn wal_counts(seed: u64, cfg: &Config, dir: PathBuf) -> Result<(u64, u64, u64), String> {
    let plan = generate(seed, cfg);
    let served = setup(dir, &plan)?;
    let before = served.db.wal_stats().unwrap_or_default();
    let (logs, _) = run_clients(&served, &plan.clients, false, Instant::now(), 0, None)?;
    let after = served.db.wal_stats().unwrap_or_default();
    let dir = served.close();
    let _ = std::fs::remove_dir_all(dir);
    if let Some(e) = logs.iter().flat_map(|l| l.errors.iter()).next() {
        return Err(e.clone());
    }
    let commits = logs
        .iter()
        .map(|l| l.committed_updates + l.committed_transfers)
        .sum();
    Ok((
        after.appended_records - before.appended_records,
        after.appended_bytes - before.appended_bytes,
        commits,
    ))
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let cfg = Config::for_args(args);
    let plan = generate(args.seed, &cfg);
    if args.trace {
        return run_traced(args, &cfg, &plan);
    }
    let mut out = Outcome::default();
    let mut setup_s = Vec::new();
    let mut served = None;
    for rep in 0..cfg.setups {
        let t = Instant::now();
        let s = setup(db_dir(args, &format!("setup{rep}")), &plan)?;
        setup_s.push(t.elapsed().as_secs_f64());
        if let Some(prev) = served.replace(s) {
            let dir = Served::close(prev);
            let _ = std::fs::remove_dir_all(dir);
        }
    }
    let served = served.expect("at least one setup");
    let (logs, wall) = run_clients(&served, &plan.clients, false, Instant::now(), 0, None)?;
    let peak = stats::peak_rss_mb();
    let (point, update, transfer) = merge(&logs);
    account(&logs, &mut out);
    let expected = expected_balances(&plan, &logs, &[]);
    check_balances(&served.db, &expected, "after run", &mut out);
    check_recovery(served, &expected, &mut out)?;

    out.set("setup_s", stats::median_of(&setup_s));
    out.set("peak_rss_mb", peak);
    out.set("ops_per_s", out.attempted as f64 / wall);
    out.set("read_p50_ms", point.reported(50.0, "point")?);
    out.set("read_tail_ms", point.reported(90.0, "point")?);
    out.set("write_p50_ms", update.reported(50.0, "update")?);
    out.set("after_write_p50_ms", transfer.reported(50.0, "transfer")?);
    out.note(format!(
        "classes (read = point p50/p90, write = update p50, after_write = transfer p50); {} clients, wall {wall:.2}s",
        cfg.clients
    ));
    out.note_class("point", &point);
    out.note_class("update", &update);
    out.note_class("transfer", &transfer);
    let aborts: u64 = logs.iter().map(|l| l.aborts).sum();
    let skew: u64 = logs.iter().map(|l| l.read_skew).sum();
    let most = logs.iter().map(|l| l.max_attempts).max().unwrap_or(0);
    out.note(format!("  most attempts of one transfer: {most}"));
    out.note(format!(
        "  cc aborts retried: {aborts}; transfers with read skew: {skew}; setup runs: {setup_s:.3?}"
    ));
    Ok(out)
}

/// Untraced then traced replay of the same sequence on fresh set-ups,
/// followed by the embedded layer probes.
fn run_traced(args: &Args, cfg: &Config, plan: &Plan) -> Result<Outcome, String> {
    let mut out = Outcome::default();

    let served = setup(db_dir(args, "untraced"), plan)?;
    let (logs, wall) = run_clients(&served, &plan.clients, false, Instant::now(), 0, None)?;
    let untraced_ops_s = logs.iter().map(|l| l.completed).sum::<u64>() as f64 / wall;
    account(&logs, &mut out);
    let expected = expected_balances(plan, &logs, &[]);
    check_balances(&served.db, &expected, "untraced run", &mut out);
    let dir = served.close();
    let _ = std::fs::remove_dir_all(dir);

    let served = setup(db_dir(args, "traced"), plan)?;
    let wal0 = served.db.wal_stats().unwrap_or_default();
    let buf0 = served.db.buffer_stats();
    let epoch = Instant::now();
    let (mut logs, wall) = run_clients(&served, &plan.clients, true, epoch, 0, None)?;
    let wal1 = served.db.wal_stats().unwrap_or_default();
    let buf1 = served.db.buffer_stats();
    let ops: u64 = logs.iter().map(|l| l.completed).sum();
    account(&logs, &mut out);
    out.set("trace.overhead_ratio", (ops as f64 / wall) / untraced_ops_s);

    let commits: u64 = logs
        .iter()
        .map(|l| l.committed_updates + l.committed_transfers)
        .sum();
    let rows_changed: u64 = logs
        .iter()
        .map(|l| l.committed_updates + 2 * l.committed_transfers)
        .sum();
    let wal_records = wal1.appended_records - wal0.appended_records;
    let wal_bytes = wal1.appended_bytes - wal0.appended_bytes;
    out.set(
        "wal.records_per_commit",
        wal_records as f64 / commits.max(1) as f64,
    );
    out.set(
        "wal.bytes_per_user_byte",
        wal_bytes as f64 / (rows_changed.max(1) as f64 * ROW_BYTES),
    );
    out.set(
        "wal.flushes_per_commit",
        (wal1.flushes - wal0.flushes) as f64 / commits.max(1) as f64,
    );
    layers::set_buffer_metrics(&buf0, &buf1, ops, &mut out);
    let expected = expected_balances(plan, &logs, &[]);
    check_balances(&served.db, &expected, "traced run", &mut out);

    // Layer probes on the traced run's final state.
    let mut tr = Tracer::new(true, epoch, cfg.clients as u32);
    let mut extra = Vec::new();
    probe_layers(&served, plan, &mut tr, &mut extra, &mut out)?;

    // Concurrency control under contention: both clients transfer
    // between the hottest accounts until the probe's time is up.
    let (mut hot, _) = run_clients(
        &served,
        &plan.hot,
        true,
        epoch,
        cfg.clients as u32 + 1,
        Some(HOT_PROBE_FOR),
    )?;
    let attempts: u64 = hot.iter().map(|l| l.transfer_attempts).sum();
    let aborts: u64 = hot.iter().map(|l| l.aborts).sum();
    let started: u64 = hot.iter().map(|l| l.committed_transfers + l.gave_up).sum();
    out.set("cc.abort_ratio", aborts as f64 / attempts.max(1) as f64);
    out.set(
        "cc.retries_per_transfer",
        aborts as f64 / started.max(1) as f64,
    );
    for l in &hot {
        for e in l.errors.iter().take(5) {
            out.fail(format!("hot-key probe: {e}"));
        }
    }
    out.note(format!(
        "hot-key probe ({HOT_KEYS} accounts, {HOT_PROBE_FOR:?}): {} transfers committed, {} still aborting at the end, {aborts} aborts in {attempts} attempts, most attempts of one transfer {}, read skew in {} and read-back at or above the first read in {}",
        hot.iter().map(|l| l.committed_transfers).sum::<u64>(),
        hot.iter().map(|l| l.gave_up).sum::<u64>(),
        hot.iter().map(|l| l.max_attempts).max().unwrap_or(0),
        hot.iter().map(|l| l.read_skew).sum::<u64>(),
        hot.iter().map(|l| l.unseen_debits).sum::<u64>(),
    ));
    extra.extend(hot.iter().flat_map(|l| l.deltas.iter().copied()));
    let expected = expected_balances(plan, &logs, &extra);
    check_recovery(served, &expected, &mut out)?;

    let mut all: Vec<Span> = logs
        .iter_mut()
        .chain(hot.iter_mut())
        .flat_map(|l| std::mem::take(&mut l.spans))
        .collect();
    all.extend(tr.into_spans());
    let (point, update, transfer) = merge(&logs);
    layers::write_trace_files(
        args,
        &all,
        &[
            ("point", &point),
            ("update", &update),
            ("transfer", &transfer),
        ],
        &mut out,
    )?;
    out.note(format!(
        "traced replay: {ops} ops in {wall:.2}s; untraced {untraced_ops_s:.1} ops/s"
    ));
    out.note_class("point", &point);
    out.note_class("update", &update);
    out.note_class("transfer", &transfer);
    Ok(out)
}

/// Point-read decomposition, embedded write and transaction costs, and
/// a table scan, each timed around a public call.
fn probe_layers(
    served: &Served,
    plan: &Plan,
    tr: &mut Tracer,
    extra: &mut Vec<(i64, i64)>,
    out: &mut Outcome,
) -> Result<(), String> {
    let db = &served.db;
    let points: Vec<i64> = plan.clients[0]
        .iter()
        .filter_map(|op| match op {
            Op::Point(k) => Some(*k),
            _ => None,
        })
        .take(300)
        .collect();
    let writes: Vec<i64> = plan.clients[0]
        .iter()
        .filter_map(|op| match op {
            Op::Update(k) => Some(*k),
            _ => None,
        })
        .take(20)
        .collect();
    let transfers: Vec<(i64, i64)> = plan.clients[0]
        .iter()
        .filter_map(|op| match op {
            Op::Transfer { from, to, .. } => Some((*from, *to)),
            _ => None,
        })
        .take(10)
        .collect();

    // Wire vs embedded point read, interleaved so drift hits both alike.
    let mut client = Client::connect(served.server.local_addr()).map_err(|e| e.to_string())?;
    let mut wire_us = Samples::default();
    let mut probe = SelectProbe::default();
    let config = PlannerConfig::default();
    for (i, k) in points.iter().enumerate() {
        let sql = format!("SELECT bal FROM acct WHERE id = {k}");
        let op = (1 << 48) + i as u64;
        tr.begin("probe.wire_point", op);
        let t = Instant::now();
        client.query(&sql).map_err(|e| e.to_string())?;
        wire_us.push(t.elapsed().as_secs_f64() * 1e6);
        tr.end();
        probe.probe(db, &sql, &config, tr, op)?;
    }
    let _ = client.close();
    out.set(
        "server.roundtrip_overhead_us",
        wire_us.median() - probe.execute_us.median(),
    );
    out.set("sql.parse_us", probe.parse_us.median());
    out.set("core.planner.plan_us", probe.plan_us.median());
    out.set("core.exec.execute_us", probe.exec_us.median());
    out.set(
        "core.database.unattributed_us",
        probe.unattributed_us.median(),
    );
    layers::set_operator_metrics(&probe, out);

    out.set(
        "storage.table.scan_ms",
        layers::table_scan_ms(db, "acct", 5)?,
    );

    let mut update_ms = Samples::default();
    for (i, k) in writes.iter().enumerate() {
        tr.begin("core.database.update", (2 << 48) + i as u64);
        let t = Instant::now();
        db.execute(&format!("UPDATE acct SET bal = bal + 1 WHERE id = {k}"))
            .map_err(|e| e.to_string())?;
        update_ms.push(t.elapsed().as_secs_f64() * 1e3);
        tr.end();
        extra.push((*k, 1));
    }
    out.set("core.database.update_ms", update_ms.median());

    // Embedded transaction: the read after a write and the commit.
    let mut raw_ms = Samples::default();
    let mut commit_ms = Samples::default();
    let mut session = SessionContext::new();
    for (i, &(a, b)) in transfers.iter().enumerate() {
        let op = (3 << 48) + i as u64;
        let mut exec = |sql: &str| {
            db.execute_in_session(&mut session, sql)
                .map_err(|e| format!("{sql}: {e}"))
        };
        exec("BEGIN")?;
        exec(&format!("UPDATE acct SET bal = bal - 1 WHERE id = {a}"))?;
        exec(&format!("UPDATE acct SET bal = bal + 1 WHERE id = {b}"))?;
        tr.begin("core.transactions.read_after_write", op);
        let t = Instant::now();
        exec(&format!("SELECT bal FROM acct WHERE id = {a}"))?;
        raw_ms.push(t.elapsed().as_secs_f64() * 1e3);
        tr.end();
        tr.begin("core.transactions.commit", op);
        let t = Instant::now();
        exec("COMMIT")?;
        commit_ms.push(t.elapsed().as_secs_f64() * 1e3);
        tr.end();
        extra.push((a, -1));
        extra.push((b, 1));
    }
    out.set("core.transactions.read_after_write_ms", raw_ms.median());
    out.set("core.transactions.commit_ms", commit_ms.median());
    Ok(())
}
