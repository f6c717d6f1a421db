//! The AI engine: the AI runtime that runs training, fine-tuning and
//! inference tasks (paper Section 4.1, Fig. 2).
//!
//! The runtime runs inside the database process: a training or
//! fine-tuning task consumes any iterator of [`DataBatch`]es, owned or
//! borrowed, so the database trains on the batches it already holds and
//! a producer thread ([`stream_from_source`](crate::streaming::stream_from_source))
//! is needed only where preparing a batch is work worth overlapping.
//! Fine-tuning runs with a frozen layer prefix and persists only the
//! updated trailing layers through the [model manager](crate::model_manager)
//! — the incremental update of Fig. 3.

use crate::model_manager::{Mid, ModelManager, VersionTs};
use crate::streaming::DataBatch;
use neurdb_nn::{LayerSpec, LossKind, Matrix, Model, OptimConfig, Trainer};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::borrow::Borrow;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Outcome of a training or fine-tuning task.
#[derive(Debug, Clone)]
pub struct TrainOutcome {
    pub mid: Mid,
    pub version: VersionTs,
    /// Per-batch training losses, in arrival order.
    pub losses: Vec<f32>,
    /// Total samples consumed.
    pub samples: usize,
    /// Wall-clock seconds spent inside `train_batch` (compute).
    pub compute_seconds: f64,
    /// Wall-clock seconds spent in the batch iterator's `next()`: the
    /// producer's stalls when the batches come from a stream, about zero
    /// when they are already in memory.
    pub wait_seconds: f64,
    /// End-to-end seconds for the task.
    pub total_seconds: f64,
}

impl TrainOutcome {
    /// Training throughput in samples/second over the whole task.
    pub fn throughput(&self) -> f64 {
        self.samples as f64 / self.total_seconds.max(1e-9)
    }
}

/// The AI engine. Shares a [`ModelManager`]; spawns runtimes on demand.
pub struct AiEngine {
    pub models: Arc<ModelManager>,
    rng_seed: AtomicU64,
}

impl Default for AiEngine {
    fn default() -> Self {
        Self::new()
    }
}

impl AiEngine {
    pub fn new() -> Self {
        AiEngine {
            models: Arc::new(ModelManager::new()),
            rng_seed: AtomicU64::new(0xA1EC05),
        }
    }

    fn rng(&self) -> StdRng {
        StdRng::seed_from_u64(self.rng_seed.fetch_add(1, Ordering::Relaxed))
    }

    /// **Training task**: train a fresh model on `batches` in order.
    /// Registers the final model and returns the outcome.
    pub fn train(
        &self,
        spec: Vec<LayerSpec>,
        loss: LossKind,
        lr: f32,
        batches: impl IntoIterator<Item = impl Borrow<DataBatch>>,
    ) -> TrainOutcome {
        let start = Instant::now();
        let mut rng = self.rng();
        let model = Model::from_spec(spec.clone(), &mut rng);
        let mut trainer = Trainer::new(
            model,
            loss,
            OptimConfig {
                lr,
                ..Default::default()
            },
        );
        let (losses, samples, compute, wait) = Self::consume(&mut trainer, batches);
        let (mid, version) = self.models.register(spec, trainer.model.layer_states());
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

    /// **Fine-tuning task**: materialize the latest version, freeze the
    /// first `frozen_prefix` layers, train on `batches`, persist only the
    /// updated trailing layers (incremental version).
    pub fn finetune(
        &self,
        mid: Mid,
        loss: LossKind,
        lr: f32,
        frozen_prefix: usize,
        batches: impl IntoIterator<Item = impl Borrow<DataBatch>>,
    ) -> Result<TrainOutcome, crate::model_manager::ModelError> {
        let start = Instant::now();
        let model = self.models.materialize_latest(mid)?;
        let n_layers = model.num_layers();
        let mut trainer = Trainer::new(
            model,
            loss,
            OptimConfig {
                lr,
                ..Default::default()
            },
        );
        trainer.set_frozen_prefix(frozen_prefix.min(n_layers));
        let (losses, samples, compute, wait) = Self::consume(&mut trainer, batches);
        let states = trainer.model.layer_states();
        let changed: Vec<(u32, Vec<u8>)> = (frozen_prefix..n_layers)
            .map(|lid| (lid as u32, states[lid].clone()))
            .collect();
        let version = self.models.save_incremental(mid, changed)?;
        Ok(TrainOutcome {
            mid,
            version,
            losses,
            samples,
            compute_seconds: compute,
            wait_seconds: wait,
            total_seconds: start.elapsed().as_secs_f64(),
        })
    }

    /// **Inference task**: run the latest model version on `features`.
    pub fn infer(
        &self,
        mid: Mid,
        features: &Matrix,
    ) -> Result<Matrix, crate::model_manager::ModelError> {
        let mut model = self.models.materialize_latest(mid)?;
        Ok(model.forward(features))
    }

    /// **Inference at a version** (time travel over model views).
    pub fn infer_at(
        &self,
        mid: Mid,
        version: VersionTs,
        features: &Matrix,
    ) -> Result<Matrix, crate::model_manager::ModelError> {
        let mut model = self.models.materialize(mid, version)?;
        Ok(model.forward(features))
    }

    /// Shared training loop: pulls batches, measuring the time spent in
    /// `next()` (wait) vs in `train_batch` (compute).
    fn consume(
        trainer: &mut Trainer,
        batches: impl IntoIterator<Item = impl Borrow<DataBatch>>,
    ) -> (Vec<f32>, usize, f64, f64) {
        let mut batches = batches.into_iter();
        let mut losses = Vec::new();
        let mut samples = 0usize;
        let mut compute = 0.0;
        let mut wait = 0.0;
        loop {
            let t0 = Instant::now();
            let Some(batch) = batches.next() else { break };
            wait += t0.elapsed().as_secs_f64();
            let batch = batch.borrow();
            let t1 = Instant::now();
            let l = trainer.train_batch(&batch.features, &batch.targets);
            compute += t1.elapsed().as_secs_f64();
            samples += batch.rows();
            losses.push(l);
        }
        (losses, samples, compute, wait)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::streaming::stream_from_source;
    use neurdb_nn::mlp_spec;

    fn toy_batches(n: usize, rows: usize) -> Vec<DataBatch> {
        // y = x0 - x1
        (0..n)
            .map(|b| {
                let mut f = Matrix::zeros(rows, 2);
                let mut t = Matrix::zeros(rows, 1);
                for r in 0..rows {
                    let a = ((b * rows + r) % 17) as f32 / 17.0 - 0.5;
                    let c = ((b * rows + r) % 13) as f32 / 13.0 - 0.5;
                    f.set(r, 0, a);
                    f.set(r, 1, c);
                    t.set(r, 0, a - c);
                }
                DataBatch {
                    features: f,
                    targets: t,
                }
            })
            .collect()
    }

    #[test]
    fn streaming_training_learns_and_registers() {
        let engine = AiEngine::new();
        let (rx, h) = stream_from_source(8, toy_batches(60, 32).into_iter());
        let out = engine.train(mlp_spec(&[2, 16, 1]), LossKind::Mse, 0.01, rx.iter());
        h.join().unwrap();
        assert_eq!(out.samples, 60 * 32);
        assert!(out.losses.last().unwrap() < &(out.losses[0] * 0.5));
        assert_eq!(engine.models.num_models(), 1);
    }

    #[test]
    fn finetune_creates_incremental_version() {
        let engine = AiEngine::new();
        let out = engine.train(
            mlp_spec(&[2, 8, 1]),
            LossKind::Mse,
            0.01,
            toy_batches(30, 32),
        );
        let ft = engine
            .finetune(out.mid, LossKind::Mse, 0.01, 2, toy_batches(10, 32))
            .unwrap();
        assert!(ft.version > out.version);
        // Frozen layer 0 shared between versions.
        let s1 = engine.models.layer_states_at(out.mid, out.version).unwrap();
        let s2 = engine.models.layer_states_at(out.mid, ft.version).unwrap();
        assert_eq!(s1[0], s2[0]);
        assert_ne!(s1[2], s2[2]);
    }

    #[test]
    fn inference_and_time_travel() {
        let engine = AiEngine::new();
        let out = engine.train(
            mlp_spec(&[2, 8, 1]),
            LossKind::Mse,
            0.01,
            toy_batches(40, 32),
        );
        let x = Matrix::from_vec(1, 2, vec![0.4, -0.1]);
        let y = engine.infer(out.mid, &x).unwrap();
        assert!(
            (y.get(0, 0) - 0.5).abs() < 0.25,
            "prediction {}",
            y.get(0, 0)
        );
        // Old version still servable.
        let y_old = engine.infer_at(out.mid, out.version, &x).unwrap();
        assert_eq!(y.data, y_old.data);
    }
}
