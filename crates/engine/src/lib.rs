//! # neurdb-engine
//!
//! The in-database AI ecosystem of NeurDB-RS (paper Section 4.1): the AI
//! engine that runs training, fine-tuning and inference inside the
//! database process on batches passed by value or by reference, the
//! model manager with layered model storage / versioning / incremental
//! updates (Fig. 3), and the monitor that detects drift and triggers
//! adaptation.
//!
//! ```
//! use neurdb_engine::{AiEngine, DataBatch};
//! use neurdb_nn::{mlp_spec, LossKind, Matrix};
//!
//! let engine = AiEngine::new();
//! let batch = DataBatch {
//!     features: Matrix::from_vec(8, 2, vec![0.1; 16]),
//!     targets: Matrix::from_vec(8, 1, vec![0.2; 8]),
//! };
//! // Batches the caller holds train by reference...
//! let held = vec![batch.clone(); 4];
//! let out = engine.train(mlp_spec(&[2, 4, 1]), LossKind::Mse, 0.01, &held);
//! assert_eq!(out.samples, 32);
//! // ...or by value, from any iterator; the fine-tune keeps the first
//! // two layers and stores only the trailing ones as a new version.
//! let ft = engine
//!     .finetune(out.mid, LossKind::Mse, 0.01, 2, std::iter::repeat_n(batch, 4))
//!     .unwrap();
//! assert_eq!(ft.samples, 32);
//! assert!(ft.version > out.version);
//! ```

pub mod engine;
pub mod model_manager;
pub mod monitor;
pub mod mselection;

pub use engine::{AiEngine, DataBatch, TrainOutcome};
pub use model_manager::{
    EventSink, Lid, Mid, ModelError, ModelEvent, ModelManager, StorageReport, VersionTs,
};
pub use monitor::{Adaptation, DriftMonitor, MonitorConfig, ThroughputMonitor};
pub use mselection::{mselection, ModelScore, SelectionConstraints};
