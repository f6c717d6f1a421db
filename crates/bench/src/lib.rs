//! # neurdb-bench
//!
//! Benchmark harness for NeurDB-RS. The `figures` binary regenerates every
//! table and figure of the paper's evaluation (ROADMAP.md, "The paper's
//! claims", records the paper-vs-measured comparison); the Criterion
//! benches under `benches/` provide micro-level measurements.
//!
//! This library holds what those share: the analytics workloads of
//! Table 1 with their seeded row generation, and the Fig. 6 harness,
//! which runs both of the paper's systems on one loaded table:
//!
//! * **NeurDB** ([`run_neurdb`]): the in-database path, one `PREDICT …
//!   TRAIN ON * VALUES (…)` statement that reads the table through the
//!   planner, trains and infers;
//! * **PostgreSQL+P** ([`run_pgp`]): the out-of-database path, a client on
//!   the wire protocol that exports the table in keyset pages, turns the
//!   rows into examples and trains the same model with the same settings
//!   outside the database.
//!
//! The two sides differ only in the data path, so their losses and
//! trained bytes are the same (`tests/fig6.rs`).

use neurdb_core::{make_batches, value_to_field, Database, Output, Standardizer};
use neurdb_engine::{AiEngine, DataBatch};
use neurdb_nn::{armnet_spec, encode_batch, ArmNetConfig, LossKind, Matrix};
use neurdb_server::Client;
use neurdb_workloads::{AvazuGen, DiabetesGen};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::net::SocketAddr;
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

    fn nfields(self) -> usize {
        match self {
            AnalyticsWorkload::Ecommerce => neurdb_workloads::AVAZU_FIELDS,
            AnalyticsWorkload::Healthcare => neurdb_workloads::DIABETES_FIELDS,
        }
    }

    /// The ArmNet the engine-level experiments (Fig. 6(c), drift) train.
    pub fn config(self) -> ArmNetConfig {
        ArmNetConfig {
            nfields: self.nfields(),
            vocab: 2048,
            embed_dim: 8,
            hidden: 32,
            outputs: 1,
        }
    }

    /// The table Table 1's statement reads.
    pub fn table(self) -> &'static str {
        match self {
            AnalyticsWorkload::Ecommerce => "avazu",
            AnalyticsWorkload::Healthcare => "diabetes",
        }
    }

    /// The label column.
    pub fn target(self) -> &'static str {
        match self {
            AnalyticsWorkload::Ecommerce => "click_rate",
            AnalyticsWorkload::Healthcare => "outcome",
        }
    }

    /// `CREATE TABLE`: `id INT PRIMARY KEY`, one INT column per field
    /// (`f0`, `f1`, …) and the label (`click_rate FLOAT` or `outcome INT`).
    pub fn create_table_sql(self) -> String {
        let fields: String = (0..self.nfields()).map(|i| format!(", f{i} INT")).collect();
        let label = match self {
            AnalyticsWorkload::Ecommerce => "FLOAT",
            AnalyticsWorkload::Healthcare => "INT",
        };
        format!(
            "CREATE TABLE {} (id INT PRIMARY KEY{fields}, {} {label})",
            self.table(),
            self.target()
        )
    }

    /// Table 1's statement, inferring the one row of `fields`.
    pub fn predict_sql(self, fields: &[u64]) -> String {
        let task = match self {
            AnalyticsWorkload::Ecommerce => "VALUE",
            AnalyticsWorkload::Healthcare => "CLASS",
        };
        let values: Vec<String> = fields.iter().map(u64::to_string).collect();
        format!(
            "PREDICT {task} OF {} FROM {} TRAIN ON * VALUES ({})",
            self.target(),
            self.table(),
            values.join(", ")
        )
    }

    /// The raw rows of batch `i`, `(fields, labels)`: `batch_size` rows of
    /// `cluster`, seeded per batch from `seed`. The generator identity
    /// (segment modes, label rules) is fixed per workload; `seed` only
    /// varies the sampling, so two seeds draw from the same distribution.
    pub fn generate(
        self,
        cluster: usize,
        batch_size: usize,
        seed: u64,
        i: usize,
    ) -> (Vec<Vec<u64>>, Vec<f32>) {
        let mut rng = StdRng::seed_from_u64(seed ^ (i as u64).wrapping_mul(0x9E3779B97F4A7C15));
        match self {
            AnalyticsWorkload::Ecommerce => {
                let rows = AvazuGen::new(0xE).batch(cluster, batch_size, &mut rng);
                (
                    rows.iter().map(|r| r.fields.clone()).collect(),
                    rows.iter().map(|r| r.click as i32 as f32).collect(),
                )
            }
            AnalyticsWorkload::Healthcare => {
                let rows = DiabetesGen::new(0xD1AB).batch(batch_size, &mut rng);
                (
                    rows.iter().map(|r| r.fields.clone()).collect(),
                    rows.iter().map(|r| r.outcome as i32 as f32).collect(),
                )
            }
        }
    }
}

/// `n_batches` training batches of generated rows (features extracted
/// with [`AnalyticsWorkload::config`], labels as generated).
pub fn build_batches(
    workload: AnalyticsWorkload,
    cluster: usize,
    n_batches: usize,
    batch_size: usize,
    seed: u64,
) -> Vec<DataBatch> {
    let cfg = workload.config();
    (0..n_batches)
        .map(|i| {
            let (xs, ys) = workload.generate(cluster, batch_size, seed, i);
            DataBatch {
                features: encode_batch(&xs, &cfg),
                targets: Matrix::from_vec(ys.len(), 1, ys),
            }
        })
        .collect()
}

// ------------------------------ Fig. 6 -------------------------------

/// Rows per INSERT statement while loading.
const LOAD_ROWS_PER_INSERT: usize = 256;

/// Create `workload`'s table in `db`, index `id`, and insert
/// `n_batches × batch_size` generated rows of cluster 0 through SQL,
/// `id` counting from 0, then build the table's statistics. Returns the
/// first row's fields, the row the Fig. 6 statements infer.
pub fn load_table(
    db: &Database,
    workload: AnalyticsWorkload,
    n_batches: usize,
    batch_size: usize,
    seed: u64,
) -> Vec<u64> {
    db.execute(&workload.create_table_sql())
        .expect("create table");
    db.execute(&format!("CREATE INDEX ON {} (id)", workload.table()))
        .expect("create index");
    let mut first = None;
    for i in 0..n_batches {
        let (xs, ys) = workload.generate(0, batch_size, seed, i);
        first.get_or_insert_with(|| xs[0].clone());
        let rows: Vec<String> = xs
            .iter()
            .zip(&ys)
            .enumerate()
            .map(|(j, (x, y))| {
                let fields: String = x.iter().map(|v| format!(", {v}")).collect();
                let label = match workload {
                    AnalyticsWorkload::Ecommerce => format!("{y:?}"),
                    AnalyticsWorkload::Healthcare => format!("{}", *y as i64),
                };
                format!("({}{fields}, {label})", i * batch_size + j)
            })
            .collect();
        for chunk in rows.chunks(LOAD_ROWS_PER_INSERT) {
            let sql = format!(
                "INSERT INTO {} VALUES {}",
                workload.table(),
                chunk.join(", ")
            );
            db.execute(&sql).expect("insert");
        }
    }
    // Build the statistics as PostgreSQL's ANALYZE after a bulk load
    // would. Otherwise the first keyset page plans the build (a full
    // scan, ~1 s at 327,680 E rows) inside the timed export.
    db.table(workload.table())
        .expect("loaded table")
        .stats()
        .expect("table stats");
    first.expect("at least one row")
}

/// One side of a Fig. 6 run.
#[derive(Debug, Clone)]
pub struct Fig6Run {
    /// End-to-end seconds: the PREDICT statement, or the client's export,
    /// training and inference.
    pub seconds: f64,
    /// Training samples consumed (all epochs).
    pub samples: usize,
    /// Per-batch training losses.
    pub losses: Vec<f32>,
    /// The trained model's layer bytes.
    pub layers: Vec<Vec<u8>>,
    /// The inferred row's predicted value (VALUE OF) or probability
    /// (CLASS OF).
    pub prediction: f64,
}

impl Fig6Run {
    /// Training throughput over the whole run, samples per second.
    pub fn throughput(&self) -> f64 {
        self.samples as f64 / self.seconds.max(1e-9)
    }
}

/// The **NeurDB** side: run Table 1's statement on `db`, where
/// [`load_table`] loaded `workload` and no model is bound yet, so the
/// statement trains one and infers `row`.
pub fn run_neurdb(db: &Database, workload: AnalyticsWorkload, row: &[u64]) -> Fig6Run {
    let sql = workload.predict_sql(row);
    let start = Instant::now();
    let out = db.execute(&sql).expect("PREDICT");
    let seconds = start.elapsed().as_secs_f64();
    let Output::Prediction(report) = out else {
        panic!("PREDICT returned {out:?}")
    };
    let trained = report.train_outcome.expect("the first PREDICT trains");
    let prediction = report.result.rows[0]
        .values
        .last()
        .and_then(|v| v.as_f64())
        .expect("prediction column");
    Fig6Run {
        seconds,
        samples: trained.samples,
        losses: trained.losses,
        layers: db
            .ai
            .models
            .layer_states_at(trained.mid, trained.version)
            .expect("trained model"),
        prediction,
    }
}

/// The **PostgreSQL+P** side: a client connects to the server at `addr`
/// (serving `db`'s loaded `workload` table) and exports the table with
/// one `SELECT * … WHERE id >= a AND id <= b` per training batch of
/// [`Database::TRAIN_BATCH_ROWS`] rows, until a page comes back short
/// (one `SELECT *` of a large table would pass the wire's frame cap).
/// It turns the rows into examples as the database does
/// (`value_to_field`; every column but `id` and the label is a
/// feature), then standardizes, batches and trains a fresh ArmNet with
/// `db`'s model config, learning rate, batch size and epoch rule, and
/// infers `row`.
pub fn run_pgp(
    addr: SocketAddr,
    db: &Database,
    workload: AnalyticsWorkload,
    row: &[u64],
) -> Fig6Run {
    let page_rows = Database::TRAIN_BATCH_ROWS;
    let start = Instant::now();
    let mut client = Client::connect(addr).expect("connect");
    let (mut xs, mut ys): (Vec<Vec<u64>>, Vec<f32>) = (Vec::new(), Vec::new());
    let mut lo = 0;
    loop {
        let page = client
            .query(&format!(
                "SELECT * FROM {} WHERE id >= {lo} AND id <= {}",
                workload.table(),
                lo + page_rows - 1
            ))
            .expect("export page");
        let label = page
            .columns
            .iter()
            .position(|c| c == workload.target())
            .expect("label column");
        let features: Vec<usize> = (0..page.columns.len())
            .filter(|&i| i != label && page.columns[i] != "id")
            .collect();
        for r in &page.rows {
            xs.push(features.iter().map(|&i| value_to_field(&r[i])).collect());
            ys.push(r[label].as_f64().expect("label") as f32);
        }
        if page.rows.len() < page_rows {
            break;
        }
        lo += page_rows;
    }
    client.close().expect("close");

    let cfg = Database::predict_model_config(row.len());
    let std = match workload {
        AnalyticsWorkload::Ecommerce => Standardizer::fit(&ys),
        AnalyticsWorkload::Healthcare => Standardizer::identity(),
    };
    let epochs = db.train_epochs(xs.len());
    let one_epoch = make_batches(&xs, &ys, &cfg, Database::TRAIN_BATCH_ROWS, &std);
    // As in the database, the examples live only until they are batched.
    drop((xs, ys));
    let engine = AiEngine::new();
    let trained = engine.train(
        armnet_spec(&cfg),
        workload.loss(),
        db.learning_rate,
        std::iter::repeat_n(&one_epoch, epochs).flatten(),
    );
    let out = engine
        .infer(trained.mid, &encode_batch(&[row.to_vec()], &cfg))
        .expect("infer")
        .get(0, 0);
    let prediction = match workload {
        AnalyticsWorkload::Ecommerce => std.inverse(out) as f64,
        AnalyticsWorkload::Healthcare => (1.0 / (1.0 + (-out).exp())) as f64,
    };
    let seconds = start.elapsed().as_secs_f64();
    Fig6Run {
        seconds,
        samples: trained.samples,
        losses: trained.losses,
        layers: engine
            .models
            .layer_states_at(trained.mid, trained.version)
            .expect("trained model"),
        prediction,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sources_are_deterministic() {
        let w = AnalyticsWorkload::Ecommerce;
        let (a1, y1) = w.generate(0, 16, 9, 0);
        let (a2, y2) = w.generate(0, 16, 9, 0);
        assert_eq!(a1, a2);
        assert_eq!(y1, y2);
        let (b1, _) = w.generate(0, 16, 9, 1);
        assert_ne!(a1, b1, "different batches differ");
    }
}
