//! Write-maintained statistics against a fresh rebuild.
//!
//! Seeded random insert/update/delete streams run over int, float and
//! nullable columns, with `Table::stats` warmed at random points. While
//! the rows changed since the last build stay under the rebuild threshold
//! (50 + 10% of the rows that build saw), the cached stats must match a
//! fresh `TableStats::build` over the same rows: row, null and histogram
//! counts exactly, and range/equality selectivities within a fixed
//! q-error. Past the threshold the cache must be gone.

use neurdb_storage::{
    BufferPool, ColumnDef, DataType, DiskManager, RecordId, Schema, StorageError, Table,
    TableStats, Tuple, Value,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// Largest q-error a maintained range selectivity may show against a
/// fresh rebuild's, on estimates floored at one row. The worst case is the
/// drifting column: inserts past the built max stretch the outer bucket,
/// which then spreads its built rows over the whole stretch. Over 200
/// seeds of these streams the worst was 8.4.
const MAX_RANGE_Q_ERROR: f64 = 10.0;

/// The same for equality selectivities, where the MCV set and the
/// distinct count age (worst over 200 seeds: 3.3).
const MAX_EQ_Q_ERROR: f64 = 4.0;

const SEEDS: u64 = 24;

fn schema() -> Schema {
    Schema::new(vec![
        ColumnDef::new("id", DataType::Int).not_null(),
        ColumnDef::new("a", DataType::Int).not_null(),
        ColumnDef::new("b", DataType::Float),
        ColumnDef::new("c", DataType::Int),
    ])
}

/// A row: a unique id, a skewed small-domain int, a uniform float with
/// 15% NULLs, and an int whose values drift with `window` (10% NULLs).
fn gen_row(r: &mut StdRng, id: i64, window: i64) -> Tuple {
    let u: f64 = r.gen();
    let b = if r.gen_bool(0.15) {
        Value::Null
    } else {
        Value::Float(r.gen_range(0.0..1000.0))
    };
    let c = if r.gen_bool(0.1) {
        Value::Null
    } else {
        Value::Int(window + r.gen_range(0..100i64))
    };
    Tuple::new(vec![
        Value::Int(id),
        Value::Int((u * u * 50.0) as i64),
        b,
        c,
    ])
}

/// The table's values, column-major.
fn columns(t: &Table) -> Vec<Vec<Value>> {
    let mut cols = vec![Vec::new(); t.schema.arity()];
    for (_, row) in t.scan().unwrap() {
        for (col, v) in cols.iter_mut().zip(row.values) {
            col.push(v);
        }
    }
    cols
}

/// q-error of two selectivities over `rows` rows, each floored at one row.
fn q_error(a: f64, b: f64, rows: u64) -> f64 {
    let (a, b) = ((a * rows as f64).max(1.0), (b * rows as f64).max(1.0));
    a.max(b) / a.min(b)
}

#[derive(Default)]
struct Worst {
    range: f64,
    eq: f64,
    checks: usize,
}

/// Compare the maintained stats with a fresh rebuild over the same rows.
fn check(t: &Table, kept: &TableStats, r: &mut StdRng, worst: &mut Worst) {
    let cols = columns(t);
    let fresh = TableStats::build(&cols);
    assert_eq!(kept.row_count, fresh.row_count);
    let rows = fresh.row_count;
    for (i, (k, f)) in kept.columns.iter().zip(&fresh.columns).enumerate() {
        assert_eq!(k.row_count, f.row_count, "column {i} row_count");
        assert_eq!(k.null_count, f.null_count, "column {i} null_count");
        let total = |c: &neurdb_storage::ColumnStats| c.histogram.as_ref().map_or(0, |h| h.total);
        assert_eq!(total(k), total(f), "column {i} histogram total");
        let Some(fh) = &f.histogram else {
            continue;
        };
        let (lo, hi) = (fh.min, fh.max);
        for _ in 0..8 {
            let x = r.gen_range(lo..=hi);
            let y = r.gen_range(lo..=hi);
            let (x, y) = (x.min(y), x.max(y));
            for (a, b) in [(Some(x), Some(y)), (None, Some(x)), (Some(x), None)] {
                let q = q_error(k.range_selectivity(a, b), f.range_selectivity(a, b), rows);
                worst.range = worst.range.max(q);
            }
        }
        for _ in 0..8 {
            let v = &cols[i][r.gen_range(0..cols[i].len())];
            if v.is_null() {
                continue;
            }
            let q = q_error(k.eq_selectivity(v), f.eq_selectivity(v), rows);
            worst.eq = worst.eq.max(q);
        }
    }
    worst.checks += 1;
}

fn run_stream(seed: u64, worst: &mut Worst) {
    let mut r = StdRng::seed_from_u64(seed);
    let pool = Arc::new(BufferPool::new(Arc::new(DiskManager::new()), 256));
    let t = Table::new("t", schema(), pool);
    let n0 = r.gen_range(200..2000i64);
    let mut next_id = 0i64;
    let mut live: Vec<RecordId> = Vec::new();
    for _ in 0..n0 {
        live.push(t.insert(gen_row(&mut r, next_id, 0)).unwrap());
        next_id += 1;
    }
    // (rows changed since the last build, rows allowed to change)
    let mut since_build: Option<(u64, u64)> = None;
    let ops = r.gen_range(50..(n0 / 4 + 100)) as usize;
    for op in 0..ops {
        if r.gen_bool(0.04) || (op == 0 && r.gen_bool(0.5)) {
            let cold = t.cached_stats().is_none();
            let s = t.stats().unwrap();
            if cold {
                since_build = Some((0, 50 + s.row_count / 10));
            }
        }
        let window = (op as i64 / 20) * 10;
        // Rows written by this op.
        let writes = match r.gen_range(0..10u32) {
            0..=4 => {
                live.push(t.insert(gen_row(&mut r, next_id, window)).unwrap());
                next_id += 1;
                1
            }
            5..=7 if !live.is_empty() => {
                let at = r.gen_range(0..live.len());
                let mut row = gen_row(&mut r, 0, window);
                row.values[0] = t.get(live[at]).unwrap().values[0].clone();
                match t.update(live[at], row.clone()) {
                    Ok(()) => 1,
                    // The new row no longer fits its page: move it.
                    Err(StorageError::PageOverflow { .. }) => {
                        t.delete(live[at]).unwrap();
                        live[at] = t.insert(row).unwrap();
                        2
                    }
                    Err(e) => panic!("update: {e}"),
                }
            }
            _ if !live.is_empty() => {
                let rid = live.swap_remove(r.gen_range(0..live.len()));
                t.delete(rid).unwrap();
                1
            }
            _ => 0,
        };
        if let Some((changed, limit)) = &mut since_build {
            *changed += writes;
            if *changed > *limit {
                assert!(
                    t.cached_stats().is_none(),
                    "seed {seed}: past the threshold"
                );
                since_build = None;
                continue;
            }
            let kept = t
                .cached_stats()
                .unwrap_or_else(|| panic!("seed {seed} op {op}: a delta gave up"));
            if op % 8 == 0 || op + 1 == ops {
                check(&t, &kept, &mut r, worst);
            }
        }
    }
}

#[test]
fn maintained_stats_track_a_fresh_rebuild_under_the_threshold() {
    let mut worst = Worst::default();
    for seed in 0..SEEDS {
        run_stream(seed, &mut worst);
    }
    assert!(worst.checks > 100, "only {} comparisons ran", worst.checks);
    assert!(
        worst.range <= MAX_RANGE_Q_ERROR,
        "range q-error {:.2} > {MAX_RANGE_Q_ERROR}",
        worst.range
    );
    assert!(
        worst.eq <= MAX_EQ_Q_ERROR,
        "equality q-error {:.2} > {MAX_EQ_Q_ERROR}",
        worst.eq
    );
    eprintln!(
        "{} comparisons; worst q-error: range {:.3}, equality {:.3}",
        worst.checks, worst.range, worst.eq
    );
}
