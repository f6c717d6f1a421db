//! # neurdb-core
//!
//! The NeurDB-RS facade: a SQL database with the paper's in-database AI
//! ecosystem wired in. Sessions parse standard DML/DDL plus the `PREDICT`
//! extension; PREDICT statements read training data through the planner,
//! hand its batches to the in-process AI engine, train/serve ArmNet models
//! managed by the layered model storage, and return predictions as rows —
//! the running example of paper Section 3.
//!
//! ```
//! use neurdb_core::Database;
//!
//! let db = Database::new();
//! db.execute("CREATE TABLE review (id INT PRIMARY KEY, brand_name TEXT, stars INT, score FLOAT)").unwrap();
//! for i in 0..200 {
//!     db.execute(&format!(
//!         "INSERT INTO review VALUES ({i}, 'brand{}', {}, {})",
//!         i % 4, i % 5, (i % 5) as f64 * 1.0,
//!     )).unwrap();
//! }
//! let out = db.execute(
//!     "PREDICT VALUE OF score FROM review WHERE brand_name = 'brand0' TRAIN ON * WITH brand_name <> 'brand0'",
//! ).unwrap();
//! assert!(!out.rows().unwrap().is_empty());
//! ```

pub mod analytics;
pub mod compare;
pub mod database;
pub mod durability;
pub mod error;
pub mod exec;
pub mod expr;
pub mod planner;
pub mod session;
pub mod transactions;
pub mod vector;

pub use analytics::{extract_examples, make_batches, value_to_field, Standardizer};
pub use compare::{
    build_batches, compare, from_text_protocol, run_neurdb, run_pgp, to_text_protocol,
    AnalyticsWorkload, ComparisonRow, RowSource,
};
pub use database::{Database, Output, PredictionReport, SlowQueryEntry};
pub use durability::{BindingMeta, SnapshotBinding};
pub use error::{CoreError, CoreResult};
pub use exec::{
    execute_plan, execute_plan_instrumented, execute_select, OpMetrics, QueryResult, BATCH_ROWS,
};
pub use expr::{eval, eval_predicate, Bindings, EvalError};
pub use planner::{plan_select, plan_select_with, PhysicalPlan, PlannedSelect, PlannerConfig};
pub use session::SessionContext;
pub use transactions::SessionTxn;
pub use vector::{ExprKernel, PredicateSet, ProjectionSet};
