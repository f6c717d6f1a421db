//! Bridging relational rows and the AI engine: feature extraction,
//! and batching into the training batches the AI engine consumes.

use neurdb_engine::streaming::DataBatch;
use neurdb_nn::{encode_batch, ArmNetConfig, Matrix};
use neurdb_storage::{Tuple, Value};

/// Map a cell value onto the categorical id space ArmNet consumes.
/// Integers map directly, floats are bucketized, text is hashed — the
/// usual feature hashing for structured-data models.
pub fn value_to_field(v: &Value) -> u64 {
    match v {
        Value::Null => 0,
        Value::Bool(b) => 1 + *b as u64,
        Value::Int(i) => i.unsigned_abs(),
        Value::Float(f) => (f.abs() * 10.0) as u64,
        Value::Text(s) => {
            let mut h: u64 = 0xcbf29ce484222325;
            for b in s.as_bytes() {
                h ^= *b as u64;
                h = h.wrapping_mul(0x100000001b3);
            }
            h
        }
    }
}

/// Extract `(fields, target)` pairs from rows: `features` are column
/// indexes, `target` the label column.
pub fn extract_examples<'a>(
    rows: impl IntoIterator<Item = &'a Tuple>,
    features: &[usize],
    target: usize,
) -> (Vec<Vec<u64>>, Vec<f32>) {
    let rows = rows.into_iter();
    let mut xs = Vec::with_capacity(rows.size_hint().0);
    let mut ys = Vec::with_capacity(rows.size_hint().0);
    for row in rows {
        let label = row.get(target);
        if label.is_null() {
            continue; // unlabeled rows cannot train
        }
        xs.push(
            features
                .iter()
                .map(|&i| value_to_field(row.get(i)))
                .collect(),
        );
        ys.push(label.as_f64().unwrap_or(0.0) as f32);
    }
    (xs, ys)
}

/// Standardization parameters for regression targets.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Standardizer {
    pub mean: f32,
    pub std: f32,
}

impl Standardizer {
    pub fn fit(ys: &[f32]) -> Standardizer {
        if ys.is_empty() {
            return Standardizer {
                mean: 0.0,
                std: 1.0,
            };
        }
        let mean = ys.iter().sum::<f32>() / ys.len() as f32;
        let var = ys.iter().map(|y| (y - mean).powi(2)).sum::<f32>() / ys.len() as f32;
        Standardizer {
            mean,
            std: var.sqrt().max(1e-6),
        }
    }

    pub fn identity() -> Standardizer {
        Standardizer {
            mean: 0.0,
            std: 1.0,
        }
    }

    pub fn transform(&self, y: f32) -> f32 {
        (y - self.mean) / self.std
    }

    pub fn inverse(&self, z: f32) -> f32 {
        z * self.std + self.mean
    }
}

/// Chop examples into training batches of `batch_size` rows.
pub fn make_batches(
    xs: &[Vec<u64>],
    ys: &[f32],
    cfg: &ArmNetConfig,
    batch_size: usize,
    standardizer: &Standardizer,
) -> Vec<DataBatch> {
    assert_eq!(xs.len(), ys.len());
    let mut out = Vec::with_capacity(xs.len().div_ceil(batch_size.max(1)));
    let mut i = 0;
    while i < xs.len() {
        let end = (i + batch_size).min(xs.len());
        let features = encode_batch(&xs[i..end], cfg);
        let targets = Matrix::from_vec(
            end - i,
            1,
            ys[i..end]
                .iter()
                .map(|y| standardizer.transform(*y))
                .collect(),
        );
        out.push(DataBatch { features, targets });
        i = end;
    }
    out
}

/// Encode raw inference rows.
pub fn encode_inference(xs: &[Vec<u64>], cfg: &ArmNetConfig) -> Matrix {
    encode_batch(xs, cfg)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn field_mapping_covers_all_types() {
        assert_eq!(value_to_field(&Value::Null), 0);
        assert_eq!(value_to_field(&Value::Bool(true)), 2);
        assert_eq!(value_to_field(&Value::Int(-7)), 7);
        assert_eq!(value_to_field(&Value::Float(1.25)), 12);
        let a = value_to_field(&Value::Text("abc".into()));
        let b = value_to_field(&Value::Text("abd".into()));
        assert_ne!(a, b);
        assert_eq!(a, value_to_field(&Value::Text("abc".into())));
    }

    #[test]
    fn extract_skips_null_labels() {
        let rows = vec![
            Tuple::new(vec![Value::Int(1), Value::Float(0.5)]),
            Tuple::new(vec![Value::Int(2), Value::Null]),
            Tuple::new(vec![Value::Int(3), Value::Float(1.5)]),
        ];
        let (xs, ys) = extract_examples(&rows, &[0], 1);
        assert_eq!(xs.len(), 2);
        assert_eq!(ys, vec![0.5, 1.5]);
    }

    #[test]
    fn standardizer_roundtrip() {
        let ys = vec![10.0, 20.0, 30.0];
        let s = Standardizer::fit(&ys);
        assert!((s.mean - 20.0).abs() < 1e-5);
        for y in ys {
            assert!((s.inverse(s.transform(y)) - y).abs() < 1e-4);
        }
    }

    #[test]
    fn batching_shapes() {
        let cfg = ArmNetConfig {
            nfields: 2,
            vocab: 64,
            embed_dim: 4,
            hidden: 8,
            outputs: 1,
        };
        let xs: Vec<Vec<u64>> = (0..10).map(|i| vec![i, i + 1]).collect();
        let ys: Vec<f32> = (0..10).map(|i| i as f32).collect();
        let batches = make_batches(&xs, &ys, &cfg, 4, &Standardizer::identity());
        assert_eq!(batches.len(), 3);
        assert_eq!(batches[0].rows(), 4);
        assert_eq!(batches[2].rows(), 2);
        assert_eq!(batches[0].features.cols, 2);
    }
}
