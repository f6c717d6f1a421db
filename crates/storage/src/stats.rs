//! Per-column statistics: equi-depth histograms, distinct counts,
//! selectivity estimation, and distribution-drift measurement.
//!
//! These feed two consumers in the paper's architecture:
//! 1. the classic cost-based optimizer (cardinality estimates), and
//! 2. the learned query optimizer's *system condition* vector ("data
//!    statistics representing each attribute's distribution", Fig. 5), plus
//!    the monitor's data-drift detector (histogram divergence).
//!
//! Statistics are built once from a full scan ([`TableStats::build`]) and
//! then kept current by per-row deltas ([`TableStats::note_insert`] /
//! [`TableStats::note_delete`]): row, null and histogram counts stay
//! exact, while bucket boundaries, distinct counts and the MCV set age
//! until the owner rebuilds (see `Table::stats`).

use crate::tuple::Tuple;
use crate::value::Value;
use std::cmp::Ordering;
use std::collections::HashMap;

/// Number of buckets used by default histograms.
pub const DEFAULT_BUCKETS: usize = 16;

/// Most-common values kept per column.
const MCV_SLOTS: usize = 8;

/// An equi-depth histogram over the numeric view of a column.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    /// Bucket boundaries, length `buckets + 1`, non-decreasing.
    pub bounds: Vec<f64>,
    /// Rows per bucket (equi-depth: roughly equal).
    pub counts: Vec<u64>,
    /// Total rows summarized (excludes NULL / non-numeric).
    pub total: u64,
    pub min: f64,
    pub max: f64,
}

impl Histogram {
    /// Build an equi-depth histogram from numeric samples.
    pub fn build(mut samples: Vec<f64>, buckets: usize) -> Option<Histogram> {
        samples.retain(|x| x.is_finite());
        if samples.is_empty() || buckets == 0 {
            return None;
        }
        samples.sort_by(|a, b| a.total_cmp(b));
        let n = samples.len();
        let min = samples[0];
        let max = samples[n - 1];
        let mut bounds = Vec::with_capacity(buckets + 1);
        let mut counts = Vec::with_capacity(buckets);
        bounds.push(min);
        let mut prev_idx = 0usize;
        for b in 1..=buckets {
            let idx = (b * n) / buckets;
            let idx = idx.min(n);
            let bound = if idx == n {
                max
            } else {
                samples[idx.saturating_sub(1)]
            };
            bounds.push(bound.max(*bounds.last().unwrap()));
            counts.push((idx - prev_idx) as u64);
            prev_idx = idx;
        }
        Some(Histogram {
            bounds,
            counts,
            total: n as u64,
            min,
            max,
        })
    }

    pub fn num_buckets(&self) -> usize {
        self.counts.len()
    }

    /// Count one more value `x` (finite) in the bucket that holds it; a
    /// value outside `[min, max]` widens the range and its outer bucket.
    fn add(&mut self, x: f64) {
        let last = self.counts.len() - 1;
        let i = if x < self.min {
            self.min = x;
            self.bounds[0] = x;
            0
        } else if x > self.max {
            self.max = x;
            self.bounds[last + 1] = x;
            last
        } else {
            self.bounds[1..].partition_point(|b| *b < x)
        };
        self.counts[i] += 1;
        self.total += 1;
    }

    /// Count one value `x` fewer. `false` when no bucket that can hold
    /// `x` has a row left to give up (the counts no longer describe the
    /// data).
    fn remove(&mut self, x: f64) -> bool {
        if !(self.min..=self.max).contains(&x) {
            return false;
        }
        let first = self.bounds[1..].partition_point(|b| *b < x);
        let Some(i) = (first..self.counts.len())
            .take_while(|&i| self.bounds[i] <= x)
            .find(|&i| self.counts[i] > 0)
        else {
            return false;
        };
        self.counts[i] -= 1;
        self.total -= 1;
        true
    }

    /// Estimated fraction of rows with value <= `x` (CDF), assuming uniform
    /// spread inside each bucket.
    pub fn cdf(&self, x: f64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        if x < self.min {
            return 0.0;
        }
        if x >= self.max {
            return 1.0;
        }
        let mut acc = 0u64;
        for i in 0..self.counts.len() {
            let lo = self.bounds[i];
            let hi = self.bounds[i + 1];
            if x >= hi {
                acc += self.counts[i];
                continue;
            }
            let frac = if hi > lo { (x - lo) / (hi - lo) } else { 1.0 };
            return (acc as f64 + self.counts[i] as f64 * frac.clamp(0.0, 1.0)) / self.total as f64;
        }
        1.0
    }

    /// Estimated selectivity of `lo <= col <= hi`.
    pub fn range_selectivity(&self, lo: Option<f64>, hi: Option<f64>) -> f64 {
        let lo_cdf = lo.map_or(0.0, |v| self.cdf(v - f64::EPSILON));
        let hi_cdf = hi.map_or(1.0, |v| self.cdf(v));
        (hi_cdf - lo_cdf).clamp(0.0, 1.0)
    }

    /// Normalized per-bucket frequency vector (sums to 1); the learned QO
    /// embeds this directly.
    pub fn frequencies(&self) -> Vec<f64> {
        if self.total == 0 {
            return vec![0.0; self.counts.len()];
        }
        self.counts
            .iter()
            .map(|c| *c as f64 / self.total as f64)
            .collect()
    }

    /// Symmetric Kullback–Leibler-style divergence between two histograms
    /// *rebinned onto a common grid*; the drift monitor thresholds this.
    pub fn divergence(&self, other: &Histogram) -> f64 {
        let lo = self.min.min(other.min);
        let hi = self.max.max(other.max);
        if hi <= lo {
            return 0.0;
        }
        let grid = 32usize;
        let step = (hi - lo) / grid as f64;
        let mut d = 0.0;
        let eps = 1e-9;
        for g in 0..grid {
            let a0 = lo + g as f64 * step;
            let a1 = a0 + step;
            let p = (self.cdf(a1) - self.cdf(a0)).max(0.0) + eps;
            let q = (other.cdf(a1) - other.cdf(a0)).max(0.0) + eps;
            d += p * (p / q).ln() + q * (q / p).ln();
        }
        d / 2.0
    }
}

/// Statistics for one column.
#[derive(Debug, Clone, Default)]
pub struct ColumnStats {
    pub histogram: Option<Histogram>,
    pub distinct: u64,
    pub null_count: u64,
    pub row_count: u64,
    /// Most common values with frequencies (top `MCV_SLOTS` = 8), for
    /// equality estimates on skewed/categorical columns.
    pub mcv: Vec<(Value, u64)>,
    /// Every non-null value was distinct at build time (a key column).
    /// Deltas keep such a column all-distinct: each inserted value adds
    /// one to `distinct`, each deleted one takes one away.
    pub unique: bool,
}

/// The histogram's view of a value: finite numerics only.
fn numeric(v: &Value) -> Option<f64> {
    v.as_f64().filter(|x| x.is_finite())
}

/// MCV order: higher count first, then the smaller value.
fn mcv_order(a: &(Value, u64), b: &(Value, u64)) -> Ordering {
    b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0))
}

impl ColumnStats {
    /// Build stats from the column's values.
    pub fn build(values: &[Value], buckets: usize) -> ColumnStats {
        let row_count = values.len() as u64;
        let null_count = values.iter().filter(|v| v.is_null()).count() as u64;
        let mut freq: HashMap<Value, u64> = HashMap::new();
        for v in values.iter().filter(|v| !v.is_null()) {
            *freq.entry(v.clone()).or_insert(0) += 1;
        }
        let distinct = freq.len() as u64;
        // Bounded top-k: the MCV list never holds more than its slots, so
        // a key column does not keep one entry per row alive.
        let mut mcv: Vec<(Value, u64)> = Vec::with_capacity(MCV_SLOTS);
        for entry in freq {
            let at = mcv.partition_point(|e| mcv_order(e, &entry) == Ordering::Less);
            if at < MCV_SLOTS {
                mcv.truncate(MCV_SLOTS - 1);
                mcv.insert(at, entry);
            }
        }
        let numeric: Vec<f64> = values.iter().filter_map(numeric).collect();
        let histogram = Histogram::build(numeric, buckets);
        ColumnStats {
            histogram,
            distinct,
            null_count,
            row_count,
            mcv,
            unique: distinct == row_count - null_count,
        }
    }

    /// Apply one inserted value. `false` when the delta cannot express it
    /// (a numeric value in a column built without a histogram); the
    /// caller then discards these stats.
    #[must_use]
    pub fn note_insert(&mut self, v: &Value) -> bool {
        self.row_count += 1;
        if v.is_null() {
            self.null_count += 1;
            return true;
        }
        if let Some(slot) = self.mcv.iter_mut().find(|(m, _)| m == v) {
            slot.1 += 1;
        }
        let outside = match (numeric(v), &mut self.histogram) {
            (Some(x), Some(h)) => {
                let outside = x < h.min || x > h.max;
                h.add(x);
                outside
            }
            (Some(_), None) => return false,
            (None, _) => false,
        };
        if self.unique || outside {
            self.distinct += 1;
        }
        true
    }

    /// Apply one deleted value (which these stats counted). `false` when
    /// the delta cannot express it; the caller then discards these stats.
    #[must_use]
    pub fn note_delete(&mut self, v: &Value) -> bool {
        let Some(rows) = self.row_count.checked_sub(1) else {
            return false;
        };
        self.row_count = rows;
        if v.is_null() {
            return match self.null_count.checked_sub(1) {
                Some(n) => {
                    self.null_count = n;
                    true
                }
                None => false,
            };
        }
        if let Some(slot) = self.mcv.iter_mut().find(|(m, _)| m == v) {
            slot.1 = slot.1.saturating_sub(1);
        }
        if self.unique {
            self.distinct = self.distinct.saturating_sub(1);
        }
        match (numeric(v), &mut self.histogram) {
            (Some(x), Some(h)) => h.remove(x),
            (Some(_), None) => false,
            (None, _) => true,
        }
    }

    /// Estimated selectivity of `col = v`.
    pub fn eq_selectivity(&self, v: &Value) -> f64 {
        if self.row_count == 0 {
            return 0.0;
        }
        if let Some((_, c)) = self.mcv.iter().find(|(mv, _)| mv == v) {
            return *c as f64 / self.row_count as f64;
        }
        if self.distinct == 0 {
            return 0.0;
        }
        // Uniformity over the non-MCV remainder.
        let mcv_rows: u64 = self.mcv.iter().map(|(_, c)| *c).sum();
        let rest_rows = self.row_count.saturating_sub(mcv_rows + self.null_count);
        let rest_distinct = self.distinct.saturating_sub(self.mcv.len() as u64);
        if rest_distinct == 0 {
            return 1.0 / self.distinct.max(1) as f64;
        }
        (rest_rows as f64 / rest_distinct as f64) / self.row_count as f64
    }

    /// Estimated selectivity of a numeric range predicate.
    pub fn range_selectivity(&self, lo: Option<f64>, hi: Option<f64>) -> f64 {
        match &self.histogram {
            Some(h) => h.range_selectivity(lo, hi),
            None => 0.33, // classic guess when no numeric stats exist
        }
    }
}

/// Statistics for a whole table.
#[derive(Debug, Clone, Default)]
pub struct TableStats {
    pub row_count: u64,
    pub columns: Vec<ColumnStats>,
}

impl TableStats {
    /// Build from column-major values: `columns[i]` holds column i's values.
    pub fn build(columns: &[Vec<Value>]) -> TableStats {
        let row_count = columns.first().map_or(0, |c| c.len() as u64);
        TableStats {
            row_count,
            columns: columns
                .iter()
                .map(|c| ColumnStats::build(c, DEFAULT_BUCKETS))
                .collect(),
        }
    }

    /// Apply an inserted row (an update is a delete of the old row then
    /// an insert of the new one). `false` when some column's delta
    /// cannot express it; the caller then discards these stats.
    #[must_use]
    pub fn note_insert(&mut self, row: &Tuple) -> bool {
        self.row_count += 1;
        self.columns
            .iter_mut()
            .zip(&row.values)
            .all(|(c, v)| c.note_insert(v))
    }

    /// Apply a deleted row; see [`TableStats::note_insert`].
    #[must_use]
    pub fn note_delete(&mut self, row: &Tuple) -> bool {
        let Some(rows) = self.row_count.checked_sub(1) else {
            return false;
        };
        self.row_count = rows;
        self.columns
            .iter_mut()
            .zip(&row.values)
            .all(|(c, v)| c.note_delete(v))
    }

    /// Flattened feature vector describing the data distribution, consumed
    /// by the learned QO (fixed length: per column, `[ndv_frac, null_frac,
    /// 16 bucket freqs]`, truncated/padded to `max_cols` columns).
    pub fn condition_vector(&self, max_cols: usize) -> Vec<f64> {
        let per_col = 2 + DEFAULT_BUCKETS;
        let mut v = vec![0.0; max_cols * per_col];
        for (i, c) in self.columns.iter().take(max_cols).enumerate() {
            let base = i * per_col;
            let rows = c.row_count.max(1) as f64;
            v[base] = c.distinct as f64 / rows;
            v[base + 1] = c.null_count as f64 / rows;
            if let Some(h) = &c.histogram {
                for (j, f) in h.frequencies().iter().take(DEFAULT_BUCKETS).enumerate() {
                    v[base + 2 + j] = *f;
                }
            }
        }
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equi_depth_buckets_balanced() {
        let samples: Vec<f64> = (0..1000).map(|i| i as f64).collect();
        let h = Histogram::build(samples, 10).unwrap();
        assert_eq!(h.num_buckets(), 10);
        for c in &h.counts {
            assert_eq!(*c, 100);
        }
        assert_eq!(h.total, 1000);
    }

    #[test]
    fn cdf_monotone_and_bounded() {
        let samples: Vec<f64> = (0..500).map(|i| (i as f64).sqrt()).collect();
        let h = Histogram::build(samples, 8).unwrap();
        let mut prev = 0.0;
        for i in 0..100 {
            let x = h.min + (h.max - h.min) * i as f64 / 99.0;
            let c = h.cdf(x);
            assert!((0.0..=1.0).contains(&c));
            assert!(c + 1e-12 >= prev, "CDF must be monotone");
            prev = c;
        }
        assert_eq!(h.cdf(h.max + 1.0), 1.0);
        assert_eq!(h.cdf(h.min - 1.0), 0.0);
    }

    #[test]
    fn range_selectivity_uniform() {
        let samples: Vec<f64> = (0..10000).map(|i| i as f64 / 100.0).collect();
        let h = Histogram::build(samples, 16).unwrap();
        let sel = h.range_selectivity(Some(25.0), Some(75.0));
        assert!((sel - 0.5).abs() < 0.03, "got {sel}");
    }

    #[test]
    fn divergence_detects_shift() {
        let a = Histogram::build((0..1000).map(|i| i as f64 / 10.0).collect(), 16).unwrap();
        let b = Histogram::build((0..1000).map(|i| i as f64 / 10.0).collect(), 16).unwrap();
        let c = Histogram::build((0..1000).map(|i| 50.0 + i as f64 / 10.0).collect(), 16).unwrap();
        assert!(a.divergence(&b) < 0.05, "identical distributions");
        assert!(a.divergence(&c) > 1.0, "shifted distribution must diverge");
    }

    #[test]
    fn eq_selectivity_uses_mcv() {
        let mut vals = vec![Value::Int(1); 90];
        vals.extend((0..10).map(|i| Value::Int(100 + i)));
        let s = ColumnStats::build(&vals, 8);
        let hot = s.eq_selectivity(&Value::Int(1));
        assert!((hot - 0.9).abs() < 1e-9);
        let cold = s.eq_selectivity(&Value::Int(105));
        assert!(cold < 0.05);
    }

    #[test]
    fn null_and_distinct_counts() {
        let vals = vec![
            Value::Int(1),
            Value::Null,
            Value::Int(1),
            Value::Int(2),
            Value::Null,
        ];
        let s = ColumnStats::build(&vals, 4);
        assert_eq!(s.null_count, 2);
        assert_eq!(s.distinct, 2);
        assert_eq!(s.row_count, 5);
    }

    #[test]
    fn condition_vector_fixed_len() {
        let cols = vec![
            (0..100).map(Value::Int).collect::<Vec<_>>(),
            (0..100).map(|i| Value::Float(i as f64)).collect(),
        ];
        let st = TableStats::build(&cols);
        let v = st.condition_vector(4);
        assert_eq!(v.len(), 4 * (2 + DEFAULT_BUCKETS));
        // First column ndv fraction = 1.0 (all distinct).
        assert!((v[0] - 1.0).abs() < 1e-9);
        // Padding for absent columns is zero.
        assert!(v[2 * (2 + DEFAULT_BUCKETS)..].iter().all(|x| *x == 0.0));
    }

    #[test]
    fn empty_histogram_is_none() {
        assert!(Histogram::build(vec![], 8).is_none());
        assert!(Histogram::build(vec![f64::NAN], 8).is_none());
    }

    #[test]
    fn mcv_keeps_only_its_slots() {
        let keys: Vec<Value> = (0..10_000).map(Value::Int).collect();
        let s = ColumnStats::build(&keys, 8);
        assert!(s.mcv.capacity() <= MCV_SLOTS, "{}", s.mcv.capacity());
        assert_eq!(
            s.mcv,
            (0..8).map(|i| (Value::Int(i), 1)).collect::<Vec<_>>()
        );
        // Skewed: value i appears i times; the top slots are 29, 28, ...
        let skewed: Vec<Value> = (0..30)
            .flat_map(|i| std::iter::repeat_n(Value::Int(i), i as usize))
            .collect();
        let s = ColumnStats::build(&skewed, 8);
        let want: Vec<(Value, u64)> = (22..30).rev().map(|i| (Value::Int(i), i as u64)).collect();
        assert_eq!(s.mcv, want);
    }

    #[test]
    fn deltas_keep_counts_exact() {
        let mut vals: Vec<Value> = (0..200).map(|i| Value::Int(i % 20)).collect();
        vals.extend(std::iter::repeat_n(Value::Null, 10));
        let mut s = ColumnStats::build(&vals, 8);
        for v in [Value::Int(3), Value::Null, Value::Int(3), Value::Int(7)] {
            assert!(s.note_insert(&v));
            vals.push(v);
        }
        for v in [Value::Int(5), Value::Null] {
            assert!(s.note_delete(&v));
            let at = vals.iter().position(|x| *x == v).unwrap();
            vals.swap_remove(at);
        }
        let fresh = ColumnStats::build(&vals, 8);
        assert_eq!(s.row_count, fresh.row_count);
        assert_eq!(s.null_count, fresh.null_count);
        assert_eq!(s.distinct, fresh.distinct);
        let (h, fh) = (s.histogram.unwrap(), fresh.histogram.unwrap());
        assert_eq!(h.total, fh.total);
        assert_eq!(h.counts.iter().sum::<u64>(), h.total);
        let count =
            |m: &[(Value, u64)], v: i64| m.iter().find(|e| e.0 == Value::Int(v)).map(|e| e.1);
        assert_eq!(count(&s.mcv, 3), Some(12));
        assert_eq!(count(&fresh.mcv, 3), Some(12));
    }

    #[test]
    fn insert_outside_range_widens_and_counts_distinct() {
        let vals: Vec<Value> = (0..100).map(|i| Value::Int(i % 10)).collect();
        let mut s = ColumnStats::build(&vals, 4);
        assert!(!s.unique);
        assert!(s.note_insert(&Value::Int(4)));
        assert_eq!(s.distinct, 10, "an in-range value keeps the built count");
        assert!(s.note_insert(&Value::Int(-5)));
        assert!(s.note_insert(&Value::Int(50)));
        assert_eq!(s.distinct, 12);
        let h = s.histogram.as_ref().unwrap();
        assert_eq!((h.min, h.max), (-5.0, 50.0));
        assert_eq!((h.bounds[0], *h.bounds.last().unwrap()), (-5.0, 50.0));
        assert_eq!(h.total, 103);
        assert!(s.range_selectivity(Some(45.0), None) > 0.0);
    }

    #[test]
    fn key_column_stays_all_distinct() {
        let keys: Vec<Value> = (0..100).map(Value::Int).collect();
        let mut s = ColumnStats::build(&keys, 4);
        assert!(s.unique);
        assert!(s.note_insert(&Value::Int(50)));
        assert!(s.note_delete(&Value::Int(7)));
        assert!(s.note_delete(&Value::Int(8)));
        assert_eq!(s.distinct, 99);
        assert_eq!(s.row_count, 99);
    }

    #[test]
    fn deltas_give_up_where_they_cannot_express_the_write() {
        // A numeric value in a column built without a histogram.
        let mut s = ColumnStats::build(&[Value::Null, Value::Null], 4);
        assert!(s.histogram.is_none());
        assert!(!s.note_insert(&Value::Int(1)));
        // Deleting a value the stats never counted.
        let mut s = ColumnStats::build(&[Value::Int(1), Value::Int(2)], 4);
        assert!(!s.note_delete(&Value::Int(9)));
        let mut s = ColumnStats::build(&[Value::Int(1)], 4);
        assert!(!s.note_delete(&Value::Null));
        // A whole row: the failing column decides.
        let mut t = TableStats::build(&[vec![Value::Int(1)], vec![Value::Null]]);
        assert!(!t.note_insert(&Tuple::new(vec![Value::Int(2), Value::Float(1.0)])));
        let mut t = TableStats::build(&[vec![Value::Int(1)], vec![Value::Null]]);
        assert!(t.note_insert(&Tuple::new(vec![Value::Int(2), Value::Null])));
        assert!(t.note_delete(&Tuple::new(vec![Value::Int(1), Value::Null])));
        assert_eq!(t.row_count, 1);
    }

    #[test]
    fn single_value_histogram() {
        let h = Histogram::build(vec![5.0; 100], 8).unwrap();
        assert_eq!(h.min, 5.0);
        assert_eq!(h.max, 5.0);
        assert_eq!(h.cdf(5.0), 1.0);
        assert_eq!(h.cdf(4.9), 0.0);
    }
}
