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

/// Scan batch size of a statistics build.
const STATS_BUILD_BATCH: usize = 4096;

/// A table: heap storage plus optional per-column B-tree indexes.
pub struct Table {
    pub name: String,
    pub schema: Schema,
    heap: HeapFile,
    indexes: RwLock<HashMap<usize, BTreeIndex>>,
    stats: RwLock<StatsCache>,
}

/// The cached statistics and the write accounting that decides when they
/// are rebuilt. Writes apply a delta to the cached stats; a full build
/// runs on first use and again once the rows changed since the last
/// build exceed PostgreSQL's auto-analyze rule (50 + 10% of the rows the
/// build saw).
#[derive(Default)]
struct StatsCache {
    stats: Option<Arc<TableStats>>,
    /// Rows written since `stats` was built.
    changed: u64,
    /// Rows that may change before `stats` is dropped for a rebuild.
    limit: u64,
    /// Bumped when a row write starts and again when it ends. A build
    /// installs its result only if this did not move while it scanned
    /// and no write is in flight: its scan may have missed a write, or
    /// seen a row whose delta is still to come.
    generation: u64,
    /// Row writes between `start_write` and `finish_write`.
    writing: u64,
}

impl StatsCache {
    /// A row write is about to change the heap.
    fn start_write(&mut self) {
        self.generation += 1;
        self.writing += 1;
    }

    /// The row write changed the heap from `old` to `new` (both `None`
    /// when it failed): apply its delta to the cached stats (if any), or
    /// drop them once the changed rows pass the limit or the delta
    /// cannot express the write.
    fn finish_write(&mut self, old: Option<&Tuple>, new: Option<&Tuple>) {
        self.generation += 1;
        self.writing -= 1;
        if old.is_none() && new.is_none() {
            return;
        }
        let Some(stats) = self.stats.as_mut() else {
            return;
        };
        self.changed += 1;
        let kept = self.changed <= self.limit && {
            let stats = Arc::make_mut(stats);
            old.is_none_or(|t| stats.note_delete(t)) && new.is_none_or(|t| stats.note_insert(t))
        };
        if !kept {
            self.stats = None;
        }
    }
}

impl Table {
    pub fn new(name: impl Into<String>, schema: Schema, pool: Arc<BufferPool>) -> Self {
        let types = schema.types();
        Table {
            name: name.into(),
            schema,
            heap: HeapFile::new(pool, types),
            indexes: RwLock::new(HashMap::new()),
            stats: RwLock::new(StatsCache::default()),
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
            stats: RwLock::new(StatsCache::default()),
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
        self.write_row(None, Some(&tuple), || {
            let rid = self.heap.insert(&tuple)?;
            for (col, idx) in self.indexes.write().iter_mut() {
                idx.insert(tuple.get(*col).clone(), rid);
            }
            Ok(rid)
        })
    }

    pub fn get(&self, rid: RecordId) -> StorageResult<Tuple> {
        self.heap.get(rid)
    }

    pub fn update(&self, rid: RecordId, tuple: Tuple) -> StorageResult<()> {
        self.validate(&tuple)?;
        let old = self.heap.get(rid)?;
        self.write_row(Some(&old), Some(&tuple), || {
            self.heap.update(rid, &tuple)?;
            for (col, idx) in self.indexes.write().iter_mut() {
                let (ov, nv) = (old.get(*col), tuple.get(*col));
                if ov != nv {
                    idx.remove(ov, rid);
                    idx.insert(nv.clone(), rid);
                }
            }
            Ok(())
        })
    }

    pub fn delete(&self, rid: RecordId) -> StorageResult<()> {
        let old = self.heap.get(rid)?;
        self.write_row(Some(&old), None, || {
            self.heap.delete(rid)?;
            for (col, idx) in self.indexes.write().iter_mut() {
                idx.remove(old.get(*col), rid);
            }
            Ok(())
        })
    }

    /// Run one row write (`old` → `new`) on the heap and indexes,
    /// bracketed for the statistics cache: no build installs while it
    /// runs, and the cached stats take its delta once it succeeded.
    fn write_row<T>(
        &self,
        old: Option<&Tuple>,
        new: Option<&Tuple>,
        write: impl FnOnce() -> StorageResult<T>,
    ) -> StorageResult<T> {
        self.stats.write().start_write();
        let result = write();
        let done = result.is_ok();
        self.stats
            .write()
            .finish_write(old.filter(|_| done), new.filter(|_| done));
        result
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

    /// The cached statistics, if any (never builds). Writes keep them
    /// current, so they are missing only before the first build and
    /// after a write that passed the rebuild threshold or that the delta
    /// could not express. Planners use this on paths where an estimate
    /// is cosmetic and a build (a full scan) would not pay for itself.
    pub fn cached_stats(&self) -> Option<Arc<TableStats>> {
        self.stats.read().stats.clone()
    }

    /// Table statistics: the cached ones (kept current by each write's
    /// delta), or a full build from a scan when none are cached. A
    /// build that raced a write returns its result without caching it.
    pub fn stats(&self) -> StorageResult<Arc<TableStats>> {
        let generation = {
            let cache = self.stats.read();
            if let Some(s) = &cache.stats {
                return Ok(s.clone());
            }
            cache.generation
        };
        let stats = Arc::new(TableStats::build(&self.column_values()?));
        let mut cache = self.stats.write();
        if cache.generation == generation && cache.writing == 0 {
            cache.stats = Some(stats.clone());
            cache.changed = 0;
            cache.limit = 50 + stats.row_count / 10;
        }
        Ok(stats)
    }

    /// Every live row's values, column-major, moved out of the scanned
    /// tuples batch by batch (the statistics build's input).
    fn column_values(&self) -> StorageResult<Vec<Vec<Value>>> {
        let mut cols: Vec<Vec<Value>> = vec![Vec::new(); self.schema.arity()];
        let mut scan = self.scan_batches(STATS_BUILD_BATCH);
        while let Some(batch) = scan.next_batch()? {
            for (_, t) in batch {
                for (col, v) in cols.iter_mut().zip(t.values) {
                    col.push(v);
                }
            }
        }
        Ok(cols)
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
    fn writes_keep_stats_warm_until_the_threshold() {
        let t = make_table();
        for i in 0..100 {
            t.insert(row(i, "x", i as f64)).unwrap();
        }
        t.stats().unwrap();
        // 50 + 10% of 100 rows may change before a rebuild.
        let rid = t.insert(row(100, "y", 500.0)).unwrap();
        t.update(rid, row(101, "y", 5.0)).unwrap();
        t.delete(rid).unwrap();
        for i in 0..57 {
            t.insert(row(200 + i, "z", -1.0)).unwrap();
        }
        let s = t
            .cached_stats()
            .expect("60 changed rows stay under the threshold");
        assert_eq!(s.row_count, 157);
        assert_eq!(s.columns[2].histogram.as_ref().unwrap().min, -1.0);
        t.insert(row(300, "z", 0.0)).unwrap();
        assert!(t.cached_stats().is_none(), "61 changed rows rebuild");
        assert_eq!(t.stats().unwrap().row_count, 158);
    }

    #[test]
    fn stats_build_racing_writes_is_not_cached() {
        let t = Arc::new(make_table());
        for i in 0..2000 {
            t.insert(row(i, "x", i as f64)).unwrap();
        }
        let done = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let writer = {
            let (t, done) = (t.clone(), done.clone());
            std::thread::spawn(move || {
                for i in 2000..3000 {
                    t.insert(row(i, "y", i as f64)).unwrap();
                }
                done.store(true, std::sync::atomic::Ordering::Release);
            })
        };
        while !done.load(std::sync::atomic::Ordering::Acquire) {
            t.stats().unwrap();
        }
        writer.join().unwrap();
        assert_eq!(t.stats().unwrap().row_count as usize, t.len().unwrap());
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
