//! # neurdb-txn
//!
//! Transaction substrate for NeurDB-RS: a multi-version key-value
//! transaction engine with *pluggable* concurrency control. The paper's
//! learned concurrency control assigns each operation a CC action based on
//! the contention state (Section 4.2); this crate supplies the action
//! vocabulary ([`ReadMode`]/[`WriteMode`]/abort), the engine that executes
//! whatever a [`CcPolicy`] decides, the classic baselines (strict 2PL, OCC,
//! and PostgreSQL-style SSI with first-committer-wins + rw-antidependency
//! detection), and the contention tracker that feeds the learned policy its
//! feature vector.
//!
//! ```
//! use neurdb_txn::{TxnEngine, EngineConfig, policy::Ssi};
//! use std::sync::Arc;
//!
//! let engine = TxnEngine::new(Arc::new(Ssi), EngineConfig::default());
//! engine.load(1, 100);
//! let mut txn = engine.begin();
//! let v = engine.read(&mut txn, 1).unwrap();
//! engine.write(&mut txn, 1, v + 1).unwrap();
//! engine.commit(txn).unwrap();
//! assert_eq!(engine.peek(1), Some(101));
//! ```

pub mod engine;
pub mod metrics;
pub mod policy;
pub mod workload;

pub use engine::{AbortReason, EngineConfig, Ts, Txn, TxnEngine, TxnError, TxnId};
pub use metrics::ContentionTracker;
pub use policy::{
    CcPolicy, KeyContention, Occ, OpCtx, ReadDecision, ReadMode, Ssi, TwoPhaseLocking,
    WriteDecision, WriteMode,
};
pub use workload::{execute_spec, run_workload, Op, TxnSpec, WorkloadStats};
