//! `Table`: schema + heap file + secondary indexes + cached statistics.

use crate::btree::BTreeIndex;
use crate::buffer::{AccessHint, BufferPool};
use crate::catalog::Schema;
use crate::error::{StorageError, StorageResult};
use crate::heap::HeapFile;
use crate::page::RecordId;
use crate::stats::TableStats;
use crate::tuple::Tuple;
use crate::value::Value;
use parking_lot::RwLock;
use std::collections::HashMap;
use std::sync::Arc;

/// A table: heap storage plus optional per-column B-tree indexes.
pub struct Table {
    pub name: String,
    pub schema: Schema,
    heap: HeapFile,
    indexes: RwLock<HashMap<usize, BTreeIndex>>,
    stats: RwLock<Option<Arc<TableStats>>>,
}

impl Table {
    pub fn new(name: impl Into<String>, schema: Schema, pool: Arc<BufferPool>) -> Self {
        let types = schema.types();
        Table {
            name: name.into(),
            schema,
            heap: HeapFile::new(pool, types),
            indexes: RwLock::new(HashMap::new()),
            stats: RwLock::new(None),
        }
    }

    /// Rebuild a table over heap pages that already exist on disk (crash
    /// recovery from a checkpoint manifest). Indexes are not restored
    /// here; the recoverer re-creates them via [`Table::create_index`].
    pub fn with_heap_pages(
        name: impl Into<String>,
        schema: Schema,
        pool: Arc<BufferPool>,
        pages: Vec<crate::page::PageId>,
    ) -> Self {
        let types = schema.types();
        Table {
            name: name.into(),
            schema,
            heap: HeapFile::with_pages(pool, types, pages),
            indexes: RwLock::new(HashMap::new()),
            stats: RwLock::new(None),
        }
    }

    /// The ordered heap page ids (checkpoint manifest input).
    pub fn heap_page_ids(&self) -> Vec<crate::page::PageId> {
        self.heap.page_ids()
    }

    /// Columns that currently carry a B-tree index, ascending.
    pub fn indexed_columns(&self) -> Vec<usize> {
        let mut cols: Vec<usize> = self.indexes.read().keys().copied().collect();
        cols.sort_unstable();
        cols
    }

    /// Create a B-tree index on column `col` and backfill it.
    pub fn create_index(&self, col: usize) -> StorageResult<()> {
        if col >= self.schema.arity() {
            return Err(StorageError::Catalog(format!(
                "column index {col} out of range for '{}'",
                self.name
            )));
        }
        let mut idx = BTreeIndex::new();
        for (rid, tuple) in self.heap.scan()? {
            idx.insert(tuple.get(col).clone(), rid);
        }
        self.indexes.write().insert(col, idx);
        Ok(())
    }

    pub fn has_index(&self, col: usize) -> bool {
        self.indexes.read().contains_key(&col)
    }

    /// Validate a tuple against the schema (arity, types, nullability).
    /// [`Table::insert`] and [`Table::update`] run it at the storage
    /// boundary; the SQL layer also runs it while staging a statement,
    /// so a violation fails the statement before anything is applied.
    pub fn validate(&self, tuple: &Tuple) -> StorageResult<()> {
        if tuple.arity() != self.schema.arity() {
            return Err(StorageError::Constraint(format!(
                "tuple arity {} != schema arity {}",
                tuple.arity(),
                self.schema.arity()
            )));
        }
        for (i, (v, c)) in tuple
            .values
            .iter()
            .zip(self.schema.columns.iter())
            .enumerate()
        {
            if v.is_null() && !c.nullable {
                return Err(StorageError::Constraint(format!(
                    "null in non-nullable column {i} ('{}')",
                    c.name
                )));
            }
            if !v.compatible_with(c.ty) {
                return Err(StorageError::Constraint(format!(
                    "value {v} incompatible with column '{}' of type {}",
                    c.name, c.ty
                )));
            }
        }
        Ok(())
    }

    pub fn insert(&self, tuple: Tuple) -> StorageResult<RecordId> {
        self.validate(&tuple)?;
        let rid = self.heap.insert(&tuple)?;
        let mut indexes = self.indexes.write();
        for (col, idx) in indexes.iter_mut() {
            idx.insert(tuple.get(*col).clone(), rid);
        }
        self.invalidate_stats();
        Ok(rid)
    }

    pub fn get(&self, rid: RecordId) -> StorageResult<Tuple> {
        self.heap.get(rid)
    }

    pub fn update(&self, rid: RecordId, tuple: Tuple) -> StorageResult<()> {
        self.validate(&tuple)?;
        let old = self.heap.get(rid)?;
        self.heap.update(rid, &tuple)?;
        let mut indexes = self.indexes.write();
        for (col, idx) in indexes.iter_mut() {
            let (ov, nv) = (old.get(*col), tuple.get(*col));
            if ov != nv {
                idx.remove(ov, rid);
                idx.insert(nv.clone(), rid);
            }
        }
        self.invalidate_stats();
        Ok(())
    }

    pub fn delete(&self, rid: RecordId) -> StorageResult<()> {
        let old = self.heap.get(rid)?;
        self.heap.delete(rid)?;
        let mut indexes = self.indexes.write();
        for (col, idx) in indexes.iter_mut() {
            idx.remove(old.get(*col), rid);
        }
        self.invalidate_stats();
        Ok(())
    }

    pub fn scan(&self) -> StorageResult<Vec<(RecordId, Tuple)>> {
        self.heap.scan()
    }

    /// Batched scan: a pull cursor yielding `Vec<(RecordId, Tuple)>`
    /// batches of roughly `target_rows` live tuples. The executor's
    /// SeqScan operator pulls from this instead of materializing the
    /// whole table up front.
    pub fn scan_batches(&self, target_rows: usize) -> crate::heap::HeapBatchScan {
        self.heap.scan_batches(target_rows)
    }

    /// Partition the heap into `n` independent batched cursors over
    /// disjoint page ranges (one morsel stream per parallel scan worker);
    /// see [`crate::heap::HeapFile::scan_partitions`].
    pub fn scan_partitions(&self, n: usize, target_rows: usize) -> Vec<crate::heap::HeapBatchScan> {
        self.heap.scan_partitions(n, target_rows)
    }

    /// Open an index-scan cursor over `[lo, hi]` (inclusive; `None` =
    /// unbounded; `lo == hi` is a point lookup) on column `col`. Returns
    /// `None` when the column carries no index. Pull batches with
    /// [`Table::index_scan_next`]; the index lock is held per-chunk, not
    /// across the whole scan.
    pub fn index_scan(
        &self,
        col: usize,
        lo: Option<&Value>,
        hi: Option<&Value>,
    ) -> Option<TableIndexScan> {
        let indexes = self.indexes.read();
        let idx = indexes.get(&col)?;
        Some(TableIndexScan {
            col,
            cursor: idx.scan(lo, hi),
        })
    }

    /// The next batch of `(rid, tuple)` pairs of an index scan, in key
    /// order, or `None` once exhausted (or if the index was dropped). A
    /// row deleted after its index entry was read is skipped: it is no
    /// longer live.
    pub fn index_scan_next(
        &self,
        scan: &mut TableIndexScan,
        max_rows: usize,
    ) -> StorageResult<Option<Vec<(RecordId, Tuple)>>> {
        let chunk = {
            let indexes = self.indexes.read();
            let Some(idx) = indexes.get(&scan.col) else {
                return Ok(None);
            };
            scan.cursor.next_chunk(idx, max_rows.max(1))
        };
        let Some(chunk) = chunk else {
            return Ok(None);
        };
        let mut out = Vec::with_capacity(chunk.len());
        for (_, rid) in chunk {
            // Heap fetches on behalf of an index descent pin warm: an
            // index scan's targets are part of the working set, not a
            // sweep the pool should recycle.
            match self.heap.get_with_hint(rid, AccessHint::Index) {
                Ok(tuple) => out.push((rid, tuple)),
                Err(StorageError::SlotNotFound { .. }) => {}
                Err(e) => return Err(e),
            }
        }
        Ok(Some(out))
    }

    /// Point lookup via a column index (falls back to a scan when absent).
    pub fn lookup(&self, col: usize, key: &Value) -> StorageResult<Vec<(RecordId, Tuple)>> {
        let rids = {
            let indexes = self.indexes.read();
            indexes.get(&col).map(|idx| idx.get(key))
        };
        match rids {
            Some(rids) => rids
                .into_iter()
                .map(|rid| Ok((rid, self.heap.get_with_hint(rid, AccessHint::Index)?)))
                .collect(),
            None => Ok(self
                .scan()?
                .into_iter()
                .filter(|(_, t)| t.get(col).sql_eq(key))
                .collect()),
        }
    }

    pub fn len(&self) -> StorageResult<usize> {
        self.heap.len()
    }

    pub fn is_empty(&self) -> StorageResult<bool> {
        self.heap.is_empty()
    }

    pub fn num_pages(&self) -> usize {
        self.heap.num_pages()
    }

    fn invalidate_stats(&self) {
        *self.stats.write() = None;
    }

    /// The cached statistics, if still valid (no rebuild). Planners use
    /// this on paths where an estimate is cosmetic and a post-write
    /// rebuild (a full scan) would not pay for itself.
    pub fn cached_stats(&self) -> Option<Arc<TableStats>> {
        self.stats.read().clone()
    }

    /// Table statistics, recomputed lazily after mutations.
    pub fn stats(&self) -> StorageResult<Arc<TableStats>> {
        if let Some(s) = self.stats.read().clone() {
            return Ok(s);
        }
        let rows = self.scan()?;
        let arity = self.schema.arity();
        let mut cols: Vec<Vec<Value>> = vec![Vec::with_capacity(rows.len()); arity];
        for (_, t) in &rows {
            for (i, v) in t.values.iter().enumerate() {
                cols[i].push(v.clone());
            }
        }
        let stats = Arc::new(TableStats::build(&cols));
        *self.stats.write() = Some(stats.clone());
        Ok(stats)
    }
}

/// Cursor state of a table index scan (see [`Table::index_scan`]): the
/// B-tree cursor plus the column it ranges over. Owns no locks — each
/// [`Table::index_scan_next`] call re-acquires the index briefly.
pub struct TableIndexScan {
    col: usize,
    cursor: crate::btree::BTreeIndexScan,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::buffer::DiskManager;
    use crate::catalog::ColumnDef;
    use crate::value::DataType;

    fn make_table() -> Table {
        let pool = Arc::new(BufferPool::new(Arc::new(DiskManager::new()), 64));
        let schema = Schema::new(vec![
            ColumnDef::new("id", DataType::Int).not_null().unique(),
            ColumnDef::new("name", DataType::Text),
            ColumnDef::new("score", DataType::Float),
        ]);
        Table::new("t", schema, pool)
    }

    fn row(id: i64, name: &str, score: f64) -> Tuple {
        Tuple::new(vec![
            Value::Int(id),
            Value::Text(name.into()),
            Value::Float(score),
        ])
    }

    #[test]
    fn crud_with_index_maintenance() {
        let t = make_table();
        t.create_index(0).unwrap();
        let rid = t.insert(row(1, "a", 0.5)).unwrap();
        assert_eq!(t.lookup(0, &Value::Int(1)).unwrap().len(), 1);
        t.update(rid, row(2, "a", 0.6)).unwrap();
        assert!(t.lookup(0, &Value::Int(1)).unwrap().is_empty());
        assert_eq!(t.lookup(0, &Value::Int(2)).unwrap().len(), 1);
        t.delete(rid).unwrap();
        assert!(t.lookup(0, &Value::Int(2)).unwrap().is_empty());
    }

    #[test]
    fn lookup_without_index_scans() {
        let t = make_table();
        for i in 0..50 {
            t.insert(row(i, "x", i as f64)).unwrap();
        }
        let hits = t.lookup(2, &Value::Float(7.0)).unwrap();
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].1.get(0), &Value::Int(7));
    }

    #[test]
    fn constraint_violations() {
        let t = make_table();
        // Wrong arity.
        assert!(t.insert(Tuple::new(vec![Value::Int(1)])).is_err());
        // Null in non-nullable.
        assert!(t
            .insert(Tuple::new(vec![Value::Null, Value::Null, Value::Null]))
            .is_err());
        // Type mismatch.
        assert!(t
            .insert(Tuple::new(vec![
                Value::Text("no".into()),
                Value::Null,
                Value::Null
            ]))
            .is_err());
    }

    #[test]
    fn stats_cached_and_invalidated() {
        let t = make_table();
        for i in 0..100 {
            t.insert(row(i, "x", i as f64)).unwrap();
        }
        let s1 = t.stats().unwrap();
        assert_eq!(s1.row_count, 100);
        let s2 = t.stats().unwrap();
        assert!(Arc::ptr_eq(&s1, &s2), "stats should be cached");
        t.insert(row(100, "y", 1.0)).unwrap();
        let s3 = t.stats().unwrap();
        assert_eq!(s3.row_count, 101);
    }

    #[test]
    fn index_scan_cursor_ranges_and_points() {
        let t = make_table();
        t.create_index(0).unwrap();
        for i in 0..200 {
            t.insert(row(i, "x", i as f64)).unwrap();
        }
        // No index on column 1.
        assert!(t.index_scan(1, None, None).is_none());
        // Range [50, 59].
        let mut cur = t
            .index_scan(0, Some(&Value::Int(50)), Some(&Value::Int(59)))
            .unwrap();
        let mut got = Vec::new();
        while let Some(b) = t.index_scan_next(&mut cur, 4).unwrap() {
            got.extend(b.into_iter().map(|(_, tup)| tup.get(0).clone()));
        }
        assert_eq!(got, (50..60).map(Value::Int).collect::<Vec<_>>());
        // Point lookup lo == hi.
        let mut cur = t
            .index_scan(0, Some(&Value::Int(7)), Some(&Value::Int(7)))
            .unwrap();
        let b = t.index_scan_next(&mut cur, 64).unwrap().unwrap();
        assert_eq!(b.len(), 1);
        assert_eq!(b[0].1.get(0), &Value::Int(7));
        assert!(t.index_scan_next(&mut cur, 64).unwrap().is_none());
    }

    #[test]
    fn backfilled_index() {
        let t = make_table();
        for i in 0..20 {
            t.insert(row(i, "x", 0.0)).unwrap();
        }
        t.create_index(0).unwrap();
        assert!(t.has_index(0));
        assert_eq!(t.lookup(0, &Value::Int(13)).unwrap().len(), 1);
    }
}
