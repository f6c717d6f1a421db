//! # neurdb-engine
//!
//! The in-database AI ecosystem of NeurDB-RS (paper Section 4.1): the AI
//! engine that runs training, fine-tuning and inference, the data streaming
//! protocol between database and AI runtimes, the model manager with
//! layered model storage / versioning / incremental updates (Fig. 3), and
//! the monitor that detects drift and triggers adaptation.
//!
//! ```
//! use neurdb_engine::{AiEngine, streaming::{stream_from_source, Handshake, StreamParams, DataBatch}};
//! use neurdb_nn::{mlp_spec, LossKind, Matrix};
//!
//! let engine = AiEngine::new();
//! let batches = (0..4).map(|_| DataBatch {
//!     features: Matrix::from_vec(8, 2, vec![0.1; 16]),
//!     targets: Matrix::from_vec(8, 1, vec![0.2; 8]),
//! });
//! let hs = Handshake { model_descriptor: "mlp".into(), params: StreamParams { batch_size: 8, window: 2 } };
//! let (rx, h) = stream_from_source(&hs, batches);
//! let out = engine.train_streaming(mlp_spec(&[2, 4, 1]), LossKind::Mse, 0.01, rx);
//! h.join().unwrap();
//! assert_eq!(out.samples, 32);
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
pub use streaming::{
    open_stream, stream_from_source, DataBatch, Handshake, StreamParams, StreamReceiver,
    StreamSender,
};
