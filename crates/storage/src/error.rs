//! Error types for the storage substrate.

use std::fmt;

/// Errors produced by the storage layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StorageError {
    /// A page id referenced a page that does not exist on "disk".
    PageNotFound(u64),
    /// A tuple did not fit in a page, or a slot id was invalid.
    PageOverflow {
        /// Bytes requested by the caller.
        needed: usize,
        /// Bytes actually available in the page.
        available: usize,
    },
    /// A slot id referenced a missing or deleted tuple.
    SlotNotFound { page: u64, slot: u16 },
    /// Tuple encode/decode failure (corrupt bytes or schema mismatch).
    Codec(String),
    /// Catalog-level failure: unknown table/column, duplicate names, etc.
    Catalog(String),
    /// A value violated a column constraint (type mismatch, null in
    /// non-nullable column, duplicate in unique column).
    Constraint(String),
}

impl fmt::Display for StorageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StorageError::PageNotFound(id) => write!(f, "page {id} not found"),
            StorageError::PageOverflow { needed, available } => {
                write!(
                    f,
                    "page overflow: needed {needed} bytes, {available} available"
                )
            }
            StorageError::SlotNotFound { page, slot } => {
                write!(f, "slot {slot} not found in page {page}")
            }
            StorageError::Codec(msg) => write!(f, "codec error: {msg}"),
            StorageError::Catalog(msg) => write!(f, "catalog error: {msg}"),
            StorageError::Constraint(msg) => write!(f, "constraint violation: {msg}"),
        }
    }
}

impl std::error::Error for StorageError {}

/// Convenience alias used across the storage crate.
pub type StorageResult<T> = Result<T, StorageError>;
