//! Whole-workload tests. They load full-size tables, so run them in
//! release mode: `cargo test --release`.

use crate::{ai, olap, oltp, Args, END_TO_END};
use std::path::PathBuf;

fn out_dir() -> PathBuf {
    let d = PathBuf::from(".bench_out");
    std::fs::create_dir_all(&d).expect("create .bench_out");
    d
}

/// Buffer-pool misses and evictions of `olap_drift` at `dop = 1`
/// repeat exactly across two replays at one seed.
#[test]
fn olap_buffer_counts_repeat_at_dop_1() {
    let args = Args {
        workload: "olap_drift".into(),
        seed: 7,
        seconds: 20,
        trace: false,
        out_dir: out_dir(),
    };
    let cfg = olap::Config {
        dop: 1,
        cycles: 3,
        setups: 1,
        ..olap::Config::for_args(&args)
    };
    let a = olap::buffer_counts(7, &cfg).expect("first replay");
    let b = olap::buffer_counts(7, &cfg).expect("second replay");
    assert!(
        a.0 > 0 && a.1 > 0,
        "the workload must miss and evict: {a:?}"
    );
    assert_eq!(a, b, "(misses, evictions) differ between replays");
    println!(
        "olap_drift seed 7, 3 cycles, dop 1: {} misses, {} evictions",
        a.0, a.1
    );
}

/// WAL records and bytes per commit of `oltp_wire` with one client
/// repeat exactly across two replays at one seed.
#[test]
fn oltp_wal_counts_repeat_with_one_client() {
    let args = Args {
        workload: "oltp_wire".into(),
        seed: 7,
        seconds: 20,
        trace: false,
        out_dir: out_dir(),
    };
    let cfg = oltp::Config {
        clients: 1,
        ops_per_client: 400,
        setups: 1,
        ..oltp::Config::for_args(&args)
    };
    let dir = |tag: &str| out_dir().join(format!("test-wal-{}-{tag}", std::process::id()));
    let a = oltp::wal_counts(7, &cfg, dir("a")).expect("first replay");
    let b = oltp::wal_counts(7, &cfg, dir("b")).expect("second replay");
    assert!(a.2 > 0 && a.0 >= a.2, "commits must append records: {a:?}");
    assert_eq!(a, b, "(records, bytes, commits) differ between replays");
    println!(
        "oltp_wire seed 7, 400 ops, 1 client: {} records, {} bytes, {} commits",
        a.0, a.1, a.2
    );
}

/// Every workload passes its checks at a second seed and reports the
/// same metric set. Takes about two minutes.
#[test]
#[ignore = "runs all three workloads at full length; use --include-ignored"]
fn second_seed_passes_checks_with_same_metrics() {
    for (workload, run) in [
        (
            "oltp_wire",
            oltp::run as fn(&Args) -> Result<crate::Outcome, String>,
        ),
        ("olap_drift", olap::run),
        ("ai_predict", ai::run),
    ] {
        let args = Args {
            workload: workload.into(),
            seed: 2,
            seconds: 20,
            trace: false,
            out_dir: out_dir(),
        };
        let out = run(&args).unwrap_or_else(|e| panic!("{workload}: {e}"));
        assert!(out.failures.is_empty(), "{workload}: {:?}", out.failures);
        assert_eq!(out.failed, 0, "{workload}");
        let names: Vec<&str> = out.metrics.keys().map(String::as_str).collect();
        let mut want: Vec<&str> = END_TO_END.iter().map(|(n, _)| *n).collect();
        want.sort();
        assert_eq!(names, want, "{workload}");
        assert!(
            out.metrics.values().all(|v| v.is_finite() && *v > 0.0),
            "{workload}"
        );
    }
}
