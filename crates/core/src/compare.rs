//! The NeurDB vs PostgreSQL+P analytics comparison harness (paper
//! Section 5.2, Figs. 6(a) and 6(b)).
//!
//! Both systems process the *same* row stream (identical generator seeds);
//! they differ only in the execution path, mirroring the paper's setup:
//!
//! * **NeurDB** — the in-database streaming path: a producer thread
//!   generates rows and extracts features batch by batch while the AI
//!   runtime trains on the batches it hands over, so data preparation
//!   overlaps computation and no client protocol is crossed;
//! * **PostgreSQL+P** — the out-of-database baseline: every batch is
//!   exported through a client protocol (row-wise *text* serialization,
//!   driver-side parsing — the psycopg path the paper's baseline uses),
//!   then copied into tensors; training starts only after the full export
//!   finishes, with the whole dataset staged in memory.

use neurdb_engine::{stream_from_source, AiEngine, DataBatch, TrainOutcome};
use neurdb_nn::{
    armnet_spec, encode_batch, ArmNetConfig, LossKind, Matrix, Model, OptimConfig, Trainer,
};
use neurdb_workloads::{AvazuGen, DiabetesGen};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

/// Which analytics workload of Table 1 to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AnalyticsWorkload {
    /// E-commerce: `PREDICT VALUE OF click_rate FROM avazu TRAIN ON *`.
    Ecommerce,
    /// Healthcare: `PREDICT CLASS OF outcome FROM diabetes TRAIN ON *`.
    Healthcare,
}

impl AnalyticsWorkload {
    pub fn label(self) -> &'static str {
        match self {
            AnalyticsWorkload::Ecommerce => "E",
            AnalyticsWorkload::Healthcare => "H",
        }
    }

    pub fn loss(self) -> LossKind {
        match self {
            // E predicts click_rate with VALUE OF -> MSE; H is CLASS OF.
            AnalyticsWorkload::Ecommerce => LossKind::Mse,
            AnalyticsWorkload::Healthcare => LossKind::Bce,
        }
    }

    pub fn config(self) -> ArmNetConfig {
        match self {
            AnalyticsWorkload::Ecommerce => ArmNetConfig {
                nfields: neurdb_workloads::AVAZU_FIELDS,
                vocab: 2048,
                embed_dim: 8,
                hidden: 32,
                outputs: 1,
            },
            AnalyticsWorkload::Healthcare => ArmNetConfig {
                nfields: neurdb_workloads::DIABETES_FIELDS,
                vocab: 2048,
                embed_dim: 8,
                hidden: 32,
                outputs: 1,
            },
        }
    }
}

/// A lazy per-batch row source. The generator identity (segment modes,
/// label rules) is fixed per workload; `seed` only varies the sampling, so
/// two sources with different seeds draw from the same distribution.
#[derive(Clone)]
pub struct RowSource {
    pub workload: AnalyticsWorkload,
    pub cluster: usize,
    pub n_batches: usize,
    pub batch_size: usize,
    pub seed: u64,
}

impl RowSource {
    /// Generate the raw rows of batch `i`: `(fields, labels)`.
    pub fn generate(&self, i: usize) -> (Vec<Vec<u64>>, Vec<f32>) {
        let mut rng =
            StdRng::seed_from_u64(self.seed ^ (i as u64).wrapping_mul(0x9E3779B97F4A7C15));
        match self.workload {
            AnalyticsWorkload::Ecommerce => {
                let gen = AvazuGen::new(0xE);
                let rows = gen.batch(self.cluster, self.batch_size, &mut rng);
                (
                    rows.iter().map(|r| r.fields.clone()).collect(),
                    rows.iter().map(|r| r.click as i32 as f32).collect(),
                )
            }
            AnalyticsWorkload::Healthcare => {
                let gen = DiabetesGen::new(0xD1AB);
                let rows = gen.batch(self.batch_size, &mut rng);
                (
                    rows.iter().map(|r| r.fields.clone()).collect(),
                    rows.iter().map(|r| r.outcome as i32 as f32).collect(),
                )
            }
        }
    }

    /// Materialize batch `i` as a training batch (row generation + feature
    /// extraction — the in-database path's per-batch work).
    pub fn batch(&self, i: usize, cfg: &ArmNetConfig) -> DataBatch {
        let (xs, ys) = self.generate(i);
        DataBatch {
            features: encode_batch(&xs, cfg),
            targets: Matrix::from_vec(ys.len(), 1, ys),
        }
    }
}

/// Eagerly build all training batches (used by the drift experiments where
/// both compared variants consume identical pre-built streams).
pub fn build_batches(
    workload: AnalyticsWorkload,
    cluster: usize,
    n_batches: usize,
    batch_size: usize,
    seed: u64,
) -> Vec<DataBatch> {
    let src = RowSource {
        workload,
        cluster,
        n_batches,
        batch_size,
        seed,
    };
    let cfg = workload.config();
    (0..n_batches).map(|i| src.batch(i, &cfg)).collect()
}

// ----------------- the client protocol (PostgreSQL+P) ------------------

/// Serialize a batch of rows to the text wire format a client protocol
/// ships (one CSV-ish line per row, label last).
pub fn to_text_protocol(xs: &[Vec<u64>], ys: &[f32]) -> String {
    let mut out = String::with_capacity(xs.len() * (xs.first().map_or(1, |r| r.len()) * 6 + 8));
    for (row, y) in xs.iter().zip(ys.iter()) {
        for v in row {
            out.push_str(&v.to_string());
            out.push(',');
        }
        out.push_str(&y.to_string());
        out.push('\n');
    }
    out
}

/// Parse the text wire format back into typed rows (the driver-side work).
/// Client drivers materialize one value object per field before any typed
/// conversion happens; the owned-`String` row tuples model that
/// allocation-per-field behaviour.
pub fn from_text_protocol(text: &str) -> (Vec<Vec<u64>>, Vec<f32>) {
    let mut xs = Vec::new();
    let mut ys = Vec::new();
    for line in text.lines() {
        // Step 1: row tuple of owned field objects (driver materialization).
        let mut fields: Vec<String> = line.split(',').map(|f| f.to_string()).collect();
        // Step 2: typed conversion.
        let y = fields
            .pop()
            .unwrap_or_default()
            .parse::<f32>()
            .unwrap_or(0.0);
        xs.push(
            fields
                .iter()
                .map(|f| f.parse::<u64>().unwrap_or(0))
                .collect(),
        );
        ys.push(y);
    }
    (xs, ys)
}

/// Run the workload on the **NeurDB** path: the producer thread does the
/// per-batch data work (generate → extract) while the AI runtime trains —
/// the streaming protocol's pipelining, with at most `window` batches in
/// flight.
pub fn run_neurdb(
    engine: &AiEngine,
    workload: AnalyticsWorkload,
    src: RowSource,
    window: usize,
    lr: f32,
) -> TrainOutcome {
    let cfg = workload.config();
    let n = src.n_batches;
    let (rx, producer) = stream_from_source(window, (0..n).map(move |i| src.batch(i, &cfg)));
    let outcome = engine.train(armnet_spec(&cfg), workload.loss(), lr, rx.iter());
    producer.join().expect("producer thread");
    outcome
}

/// How many times the driver-parse pass runs per exported batch.
///
/// **Calibrated simulation knob (see DESIGN.md §2).** The paper's
/// PostgreSQL+P baseline parses the export in a Python DB-API driver,
/// which processes roughly 0.5–2M values/s; the compiled parse in
/// [`from_text_protocol`] runs 10–40× faster. Repeating the parse pass 6×
/// charges the export path a conservative fraction of that measured gap so
/// the *relative* data-vs-compute balance of the paper's testbed is
/// preserved. Set to 1 to model a hypothetical compiled driver.
pub const DRIVER_OVERHEAD_FACTOR: usize = 6;

/// Run the workload on the **PostgreSQL+P** path: full export through the
/// text client protocol first (serialize → parse → tensor copy, batch by
/// batch, serially), then train on the staged tensors.
pub fn run_pgp(
    engine: &AiEngine,
    workload: AnalyticsWorkload,
    src: RowSource,
    lr: f32,
) -> TrainOutcome {
    let cfg = workload.config();
    let start = Instant::now();
    // Phase 1: export. Every batch crosses the client protocol as text and
    // is re-parsed by the driver, then copied into tensors.
    let t0 = Instant::now();
    let staged: Vec<DataBatch> = (0..src.n_batches)
        .map(|i| {
            let (xs, ys) = src.generate(i);
            let wire = to_text_protocol(&xs, &ys);
            // Driver parse, charged at the interpreter-overhead rate.
            for _ in 0..DRIVER_OVERHEAD_FACTOR - 1 {
                let _ = from_text_protocol(&wire);
            }
            let (xs2, ys2) = from_text_protocol(&wire);
            let b = DataBatch {
                features: encode_batch(&xs2, &cfg),
                targets: Matrix::from_vec(ys2.len(), 1, ys2),
            };
            // Driver -> tensor boundary: one more copy (fetchall rows are
            // not tensor-layout; frameworks copy on ingest).
            b.clone()
        })
        .collect();
    let wait = t0.elapsed().as_secs_f64();
    // Phase 2: train on the staged dataset.
    let mut rng = StdRng::seed_from_u64(0xBA5E);
    let model = Model::from_spec(armnet_spec(&cfg), &mut rng);
    let mut trainer = Trainer::new(
        model,
        workload.loss(),
        OptimConfig {
            lr,
            ..Default::default()
        },
    );
    let mut losses = Vec::with_capacity(staged.len());
    let mut samples = 0;
    let t1 = Instant::now();
    for b in &staged {
        losses.push(trainer.train_batch(&b.features, &b.targets));
        samples += b.rows();
    }
    let compute = t1.elapsed().as_secs_f64();
    let (mid, version) = engine
        .models
        .register(armnet_spec(&cfg), trainer.model.layer_states());
    TrainOutcome {
        mid,
        version,
        losses,
        samples,
        compute_seconds: compute,
        wait_seconds: wait,
        total_seconds: start.elapsed().as_secs_f64(),
    }
}

/// One Fig. 6(a) comparison row.
#[derive(Debug, Clone)]
pub struct ComparisonRow {
    pub workload: &'static str,
    pub neurdb_latency: f64,
    pub pgp_latency: f64,
    pub neurdb_throughput: f64,
    pub pgp_throughput: f64,
}

impl ComparisonRow {
    pub fn latency_reduction(&self) -> f64 {
        1.0 - self.neurdb_latency / self.pgp_latency.max(1e-12)
    }

    pub fn throughput_gain(&self) -> f64 {
        self.neurdb_throughput / self.pgp_throughput.max(1e-12)
    }
}

/// Run both systems on one workload and report.
pub fn compare(
    workload: AnalyticsWorkload,
    n_batches: usize,
    batch_size: usize,
    window: usize,
    seed: u64,
) -> ComparisonRow {
    let engine = AiEngine::new();
    let src = RowSource {
        workload,
        cluster: 0,
        n_batches,
        batch_size,
        seed,
    };
    let neurdb = run_neurdb(&engine, workload, src.clone(), window, 5e-3);
    let pgp = run_pgp(&engine, workload, src, 5e-3);
    ComparisonRow {
        workload: workload.label(),
        neurdb_latency: neurdb.total_seconds,
        pgp_latency: pgp.total_seconds,
        neurdb_throughput: neurdb.throughput(),
        pgp_throughput: pgp.throughput(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sources_are_deterministic() {
        let src = RowSource {
            workload: AnalyticsWorkload::Ecommerce,
            cluster: 0,
            n_batches: 3,
            batch_size: 16,
            seed: 9,
        };
        let (a1, y1) = src.generate(0);
        let (a2, y2) = src.generate(0);
        assert_eq!(a1, a2);
        assert_eq!(y1, y2);
        let (b1, _) = src.generate(1);
        assert_ne!(a1, b1, "different batches differ");
    }

    #[test]
    fn text_protocol_roundtrip() {
        let xs = vec![vec![1u64, 2, 3], vec![40, 50, 60]];
        let ys = vec![0.5f32, 1.0];
        let (xs2, ys2) = from_text_protocol(&to_text_protocol(&xs, &ys));
        assert_eq!(xs, xs2);
        assert_eq!(ys, ys2);
    }

    #[test]
    fn neurdb_path_trains() {
        let engine = AiEngine::new();
        let src = RowSource {
            workload: AnalyticsWorkload::Healthcare,
            cluster: 0,
            n_batches: 6,
            batch_size: 32,
            seed: 10,
        };
        let out = run_neurdb(&engine, AnalyticsWorkload::Healthcare, src, 4, 5e-3);
        assert_eq!(out.samples, 6 * 32);
        assert!(out.losses.iter().all(|l| l.is_finite()));
    }

    #[test]
    fn pgp_path_pays_export() {
        let engine = AiEngine::new();
        let src = RowSource {
            workload: AnalyticsWorkload::Ecommerce,
            cluster: 0,
            n_batches: 4,
            batch_size: 32,
            seed: 11,
        };
        let out = run_pgp(&engine, AnalyticsWorkload::Ecommerce, src, 5e-3);
        assert_eq!(out.samples, 4 * 32);
        assert!(out.wait_seconds > 0.0, "export must be accounted");
    }

    #[test]
    fn comparison_produces_sane_numbers() {
        let row = compare(AnalyticsWorkload::Ecommerce, 4, 32, 4, 11);
        assert!(row.neurdb_latency > 0.0 && row.pgp_latency > 0.0);
        assert!(row.neurdb_throughput > 0.0 && row.pgp_throughput > 0.0);
    }
}
