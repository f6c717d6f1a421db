//! End-to-end NeurDB benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path e2ebench/Cargo.toml -- \
//!     --workload <oltp_wire|olap_drift|ai_predict> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` replays the workload's seed-generated operation sequence
//! untraced and prints the end-to-end metrics; `--trace 1` replays it
//! untraced and then traced, probes each layer's public functions from
//! outside, and prints the per-layer metrics. The last line of standard
//! output is one JSON object; the lines above it are a readable report.
//! Spans and latency histograms of a traced run go to `.bench_out/`.
//! See `e2ebench/README.md` for the workloads and the metric map.

mod ai;
mod layers;
mod olap;
mod oltp;
mod rng;
mod spans;
mod stats;
#[cfg(test)]
mod tests;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;

/// End-to-end metrics every workload reports with `--trace 0`.
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("ops_per_s", "1/s"),
    ("read_p50_ms", "ms"),
    ("read_tail_ms", "ms"),
    ("write_p50_ms", "ms"),
    ("after_write_p50_ms", "ms"),
];

/// Per-layer metrics every workload reports with `--trace 1`. A layer
/// the workload does not pass through reports 0.
pub const PER_LAYER: [(&str, &str); 45] = [
    ("server.roundtrip_overhead_us", "us"),
    ("sql.parse_us", "us"),
    ("core.planner.plan_us", "us"),
    ("core.exec.execute_us", "us"),
    ("core.database.unattributed_us", "us"),
    ("storage.table.scan_ms", "ms"),
    ("core.database.update_ms", "ms"),
    ("core.transactions.read_after_write_ms", "ms"),
    ("core.transactions.commit_ms", "ms"),
    ("cc.abort_ratio", "ratio"),
    ("cc.retries_per_transfer", "count"),
    ("wal.records_per_commit", "count"),
    ("wal.bytes_per_user_byte", "ratio"),
    ("wal.flushes_per_commit", "count"),
    ("core.planner.plan_ms.join2", "ms"),
    ("core.planner.plan_ms.join3", "ms"),
    ("core.planner.plan_ms.scan", "ms"),
    ("storage.stats.rebuild_ms", "ms"),
    ("core.exec.seq_scan_self_ms", "ms"),
    ("core.exec.index_scan_self_ms", "ms"),
    ("core.exec.exchange_self_ms", "ms"),
    ("core.exec.partial_agg_self_ms", "ms"),
    ("core.exec.hash_join_self_ms", "ms"),
    ("core.exec.partitioned_join_self_ms", "ms"),
    ("core.exec.hash_agg_self_ms", "ms"),
    ("core.exec.project_self_ms", "ms"),
    ("core.exec.other_self_ms", "ms"),
    ("core.exec.worker_busy_ms", "ms"),
    ("core.exec.worker_wait_ms", "ms"),
    ("storage.buffer.hit_ratio", "ratio"),
    ("storage.buffer.misses_per_query", "count"),
    ("storage.buffer.evictions_per_query", "count"),
    ("engine.materialize_ms", "ms"),
    ("engine.infer_ms", "ms"),
    ("core.database.predict_unattributed_ms", "ms"),
    ("engine.train_s", "s"),
    ("engine.train_compute_s", "s"),
    ("engine.train_wait_s", "s"),
    ("engine.train_samples_per_s", "1/s"),
    ("engine.finetune_compute_ms", "ms"),
    ("engine.finetune_wait_ms", "ms"),
    ("engine.finetune_samples_per_s", "1/s"),
    ("engine.storage_savings", "ratio"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.spans", "count"),
];

/// What one workload run produced.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Metric values by name (end-to-end or per-layer, per the mode).
    pub metrics: BTreeMap<String, f64>,
    /// Readable report lines printed above the JSON result.
    pub report: Vec<String>,
    /// Why a check failed, when one did.
    pub failures: Vec<String>,
}

impl Outcome {
    pub fn set(&mut self, name: &str, value: f64) {
        self.metrics.insert(name.to_string(), value);
    }

    /// Record a failed result check.
    pub fn fail(&mut self, why: String) {
        self.failures.push(why);
    }

    pub fn note(&mut self, line: String) {
        self.report.push(line);
    }

    /// Report a latency class: its sample count and the percentiles
    /// the sample supports, under its workload-specific name.
    pub fn note_class(&mut self, alias: &str, s: &stats::Samples) {
        let mut line = format!("  {alias:<10} n={:<6}", s.len());
        for q in [50.0, 90.0, 99.0] {
            match s.percentile(q) {
                Some(v) => {
                    let _ = write!(line, " p{q:.0}={v:.3}ms");
                }
                None => {
                    let _ = write!(line, " p{q:.0}=(<{} beyond)", stats::MIN_BEYOND);
                }
            }
        }
        self.report.push(line);
    }
}

/// Command-line arguments shared by every workload.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    /// Where spans, histograms, and scratch databases go.
    pub out_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| "--seed takes an integer")?),
            "--seconds" => seconds = Some(value.parse().map_err(|_| "--seconds takes an integer")?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let seconds: u64 = seconds.unwrap_or(20);
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds,
        trace: trace.unwrap_or(false),
        out_dir: PathBuf::from(".bench_out"),
    })
}

fn run(args: &Args) -> Result<Outcome, String> {
    std::fs::create_dir_all(&args.out_dir).map_err(|e| format!("create .bench_out: {e}"))?;
    match args.workload.as_str() {
        "oltp_wire" => oltp::run(args),
        "olap_drift" => olap::run(args),
        "ai_predict" => ai::run(args),
        other => Err(format!(
            "unknown workload {other} (oltp_wire, olap_drift, ai_predict)"
        )),
    }
}

/// The result line: exactly `correct` (no result check failed),
/// `attempted`, `failed`, and the metrics of the mode, each with its
/// unit.
fn result_json(out: &Outcome, catalog: &[(&str, &str)]) -> String {
    let mut s = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        out.failures.is_empty(),
        out.attempted,
        out.failed
    );
    for (i, (name, unit)) in catalog.iter().enumerate() {
        let v = out.metrics.get(*name).copied().unwrap_or(0.0);
        let v = if v.is_finite() { v } else { 0.0 };
        if i > 0 {
            s.push_str(", ");
        }
        let _ = write!(s, "\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}");
    }
    s.push_str("}}");
    s
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            return ExitCode::from(2);
        }
    };
    let out = match run(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("e2ebench: {} failed: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    let catalog: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    if !args.trace {
        for (name, _) in catalog {
            if !out.metrics.contains_key(*name) {
                eprintln!("e2ebench: {} did not measure {name}", args.workload);
                return ExitCode::FAILURE;
            }
        }
    }
    println!(
        "e2ebench workload={} seed={} seconds={} trace={}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    for line in &out.report {
        println!("{line}");
    }
    for f in &out.failures {
        println!("CHECK FAILED: {f}");
    }
    for (name, unit) in catalog {
        match out.metrics.get(*name) {
            Some(v) => println!("  {name:<40} {v:>14.4} {unit}"),
            None => println!(
                "  {name:<40} {:>14} {unit}  (not on this workload's path)",
                0
            ),
        }
    }
    println!("{}", result_json(&out, catalog));
    ExitCode::SUCCESS
}
