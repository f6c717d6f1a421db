//! # neurdb
//!
//! Workspace facade crate: re-exports the public API of every NeurDB-RS
//! subsystem under one name.

pub use neurdb_cc as cc;
pub use neurdb_core as core;
pub use neurdb_engine as engine;
pub use neurdb_nn as nn;
pub use neurdb_qo as qo;
pub use neurdb_server as server;
pub use neurdb_sql as sql;
pub use neurdb_storage as storage;
pub use neurdb_txn as txn;
pub use neurdb_wal as wal;
pub use neurdb_workloads as workloads;
