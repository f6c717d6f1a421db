//! # neurdb-engine
//!
//! The in-database AI ecosystem of NeurDB-RS (paper Section 4.1): the AI
//! engine that runs training, fine-tuning and inference inside the
//! database process on batches passed by value or by reference, a
//! producer-thread stream for sources whose batch preparation is worth
//! overlapping with training, the model manager with layered model
//! storage / versioning / incremental updates (Fig. 3), and the monitor
//! that detects drift and triggers adaptation.
//!
//! ```
//! use neurdb_engine::{stream_from_source, AiEngine, DataBatch};
//! use neurdb_nn::{mlp_spec, LossKind, Matrix};
//!
//! let engine = AiEngine::new();
//! let batch = DataBatch {
//!     features: Matrix::from_vec(8, 2, vec![0.1; 16]),
//!     targets: Matrix::from_vec(8, 1, vec![0.2; 8]),
//! };
//! // Batches the caller already holds train by reference...
//! let held = vec![batch.clone(); 4];
//! let out = engine.train(mlp_spec(&[2, 4, 1]), LossKind::Mse, 0.01, &held);
//! assert_eq!(out.samples, 32);
//! // ...and a producer thread prepares them while the model trains.
//! let (rx, producer) = stream_from_source(2, (0..4).map(move |_| batch.clone()));
//! let ft = engine.finetune(out.mid, LossKind::Mse, 0.01, 2, rx.iter()).unwrap();
//! assert_eq!((ft.samples, producer.join().unwrap()), (32, 4));
//! ```

pub mod engine;
pub mod model_manager;
pub mod monitor;
pub mod mselection;
pub mod streaming;

pub use engine::{AiEngine, TrainOutcome};
pub use model_manager::{
    EventSink, Lid, Mid, ModelError, ModelEvent, ModelManager, StorageReport, VersionTs,
};
pub use monitor::{Adaptation, DriftMonitor, MonitorConfig, ThroughputMonitor};
pub use mselection::{mselection, ModelScore, SelectionConstraints};
pub use streaming::{stream_from_source, DataBatch};
