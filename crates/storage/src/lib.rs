//! # neurdb-storage
//!
//! Storage substrate for NeurDB-RS, the Rust reproduction of *NeurDB: On the
//! Design and Implementation of an AI-powered Autonomous Database* (CIDR
//! 2025). This crate provides what PostgreSQL provided the paper's
//! prototype: slotted pages, heap files, a sharded clock buffer pool
//! (scan-resistant admission hints) over a simulated disk, a catalog with
//! unique-constraint tracking (used by `TRAIN ON *`), B-tree secondary
//! indexes, and per-column statistics whose histograms double as the
//! learned query optimizer's data-distribution input and the drift
//! monitor's divergence signal.
//!
//! ```
//! use neurdb_storage::{BufferPool, DiskManager, Table, Schema, ColumnDef, DataType, Tuple, Value};
//! use std::sync::Arc;
//!
//! let pool = Arc::new(BufferPool::new(Arc::new(DiskManager::new()), 64));
//! let schema = Schema::new(vec![
//!     ColumnDef::new("id", DataType::Int).not_null().unique(),
//!     ColumnDef::new("score", DataType::Float),
//! ]);
//! let table = Table::new("review", schema, pool);
//! table.insert(Tuple::new(vec![Value::Int(1), Value::Float(4.5)])).unwrap();
//! assert_eq!(table.len().unwrap(), 1);
//! ```

pub mod btree;
pub mod buffer;
pub mod catalog;
pub mod error;
pub mod heap;
pub mod page;
pub mod stats;
pub mod table;
pub mod tuple;
pub mod value;

pub use btree::{BTreeIndex, BTreeIndexScan};
pub use buffer::{AccessHint, BufferPool, BufferStats, DiskBackend, DiskManager};
pub use catalog::{Catalog, ColumnDef, Schema, TableId, TableMeta};
pub use error::{StorageError, StorageResult};
pub use heap::{HeapBatchScan, HeapFile};
pub use page::{Page, PageId, RecordId, PAGE_SIZE};
pub use stats::{ColumnStats, Histogram, TableStats, DEFAULT_BUCKETS};
pub use table::{Table, TableIndexScan};
pub use tuple::Tuple;
pub use value::{DataType, Value};
