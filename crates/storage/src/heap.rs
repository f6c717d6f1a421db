//! Heap files: unordered collections of tuples over buffer-pool pages.

use crate::buffer::{AccessHint, BufferPool};
use crate::error::StorageResult;
use crate::page::{PageId, RecordId};
use crate::tuple::Tuple;
use crate::value::DataType;
use parking_lot::RwLock;
use std::sync::Arc;

/// A heap file: an append-friendly list of pages owned by one table.
///
/// Insertion appends to the last page, else to a freshly allocated one.
/// Earlier pages are not searched for room: a delete frees its slot but
/// not its payload bytes, so a walk over them would dirty every page it
/// touched and find none.
pub struct HeapFile {
    pool: Arc<BufferPool>,
    pages: RwLock<Vec<PageId>>,
    types: Vec<DataType>,
}

impl HeapFile {
    pub fn new(pool: Arc<BufferPool>, types: Vec<DataType>) -> Self {
        HeapFile {
            pool,
            pages: RwLock::new(Vec::new()),
            types,
        }
    }

    /// Re-attach a heap to pages that already exist on disk — used by
    /// crash recovery to rebuild a table from a checkpoint manifest.
    pub fn with_pages(pool: Arc<BufferPool>, types: Vec<DataType>, pages: Vec<PageId>) -> Self {
        HeapFile {
            pool,
            pages: RwLock::new(pages),
            types,
        }
    }

    /// The ordered page ids backing this heap (checkpoint manifest input).
    pub fn page_ids(&self) -> Vec<PageId> {
        self.pages.read().clone()
    }

    pub fn types(&self) -> &[DataType] {
        &self.types
    }

    pub fn num_pages(&self) -> usize {
        self.pages.read().len()
    }

    /// Insert a tuple, returning its record id.
    pub fn insert(&self, tuple: &Tuple) -> StorageResult<RecordId> {
        let payload = tuple.encode(&self.types)?;
        let last = self.pages.read().last().copied();
        if let Some(pid) = last {
            if let Ok(slot) = self.pool.with_page_mut(pid, |p| p.insert(&payload))? {
                return Ok(RecordId::new(pid, slot));
            }
        }
        let pid = self.pool.allocate_page()?;
        self.pages.write().push(pid);
        let slot = self.pool.with_page_mut(pid, |p| p.insert(&payload))??;
        Ok(RecordId::new(pid, slot))
    }

    /// Fetch the tuple at `rid` (point-access hint).
    pub fn get(&self, rid: RecordId) -> StorageResult<Tuple> {
        self.get_with_hint(rid, AccessHint::Point)
    }

    /// Fetch the tuple at `rid`, telling the buffer pool how this access
    /// participates in the workload (e.g. `Index` for fetches performed
    /// on behalf of an index scan).
    pub fn get_with_hint(&self, rid: RecordId, hint: AccessHint) -> StorageResult<Tuple> {
        let bytes = self
            .pool
            .with_page_hint(rid.page, hint, |p| p.get(rid.slot).map(|b| b.to_vec()))??;
        Tuple::decode(&bytes, &self.types)
    }

    /// Overwrite the tuple at `rid`.
    pub fn update(&self, rid: RecordId, tuple: &Tuple) -> StorageResult<()> {
        let payload = tuple.encode(&self.types)?;
        self.pool
            .with_page_mut(rid.page, |p| p.update(rid.slot, &payload))?
    }

    /// Delete the tuple at `rid`.
    pub fn delete(&self, rid: RecordId) -> StorageResult<()> {
        self.pool.with_page_mut(rid.page, |p| p.delete(rid.slot))?
    }

    /// Materialize all live `(rid, tuple)` pairs. Used by sequential scans;
    /// decodes page-by-page so only one page is borrowed at a time.
    /// Admitted cold (`Sequential` hint): a full materialize must not
    /// flush the pool's hot set.
    pub fn scan(&self) -> StorageResult<Vec<(RecordId, Tuple)>> {
        let pages = self.pages.read().clone();
        let mut out = Vec::new();
        for pid in pages {
            let raw: Vec<(u16, Vec<u8>)> =
                self.pool.with_page_hint(pid, AccessHint::Sequential, |p| {
                    p.iter().map(|(s, d)| (s, d.to_vec())).collect()
                })?;
            for (slot, bytes) in raw {
                out.push((
                    RecordId::new(pid, slot),
                    Tuple::decode(&bytes, &self.types)?,
                ));
            }
        }
        Ok(out)
    }

    /// Pull-based batched scan: yields batches of roughly `target_rows`
    /// live tuples, decoding one page at a time. The page list is
    /// snapshotted at creation (like [`HeapFile::scan`]); concurrent
    /// inserts into new pages are not observed. Pages are admitted cold
    /// (`Sequential` hint), so a sweep never flushes the pool's hot set.
    pub fn scan_batches(&self, target_rows: usize) -> HeapBatchScan {
        HeapBatchScan {
            pool: self.pool.clone(),
            types: self.types.clone(),
            pages: self.pages.read().clone(),
            next_page: 0,
            target_rows: target_rows.max(1),
        }
    }

    /// Partition the heap into `n` independent batched cursors over
    /// disjoint contiguous page ranges (morsel-driven parallel scan: each
    /// worker drains one partition). The page list is snapshotted once,
    /// so the union of the partitions equals exactly one
    /// [`HeapFile::scan_batches`] snapshot. Partitions may be empty when
    /// the heap has fewer pages than `n`.
    pub fn scan_partitions(&self, n: usize, target_rows: usize) -> Vec<HeapBatchScan> {
        let pages = self.pages.read().clone();
        let n = n.max(1);
        let chunk = pages.len().div_ceil(n).max(1);
        let mut parts = Vec::with_capacity(n);
        for i in 0..n {
            let lo = (i * chunk).min(pages.len());
            let hi = ((i + 1) * chunk).min(pages.len());
            parts.push(HeapBatchScan {
                pool: self.pool.clone(),
                types: self.types.clone(),
                pages: pages[lo..hi].to_vec(),
                next_page: 0,
                target_rows: target_rows.max(1),
            });
        }
        parts
    }

    /// Count live tuples (scans pages; O(pages)).
    pub fn len(&self) -> StorageResult<usize> {
        let pages = self.pages.read().clone();
        let mut n = 0;
        for pid in pages {
            n += self
                .pool
                .with_page_hint(pid, AccessHint::Sequential, |p| p.live_count())?;
        }
        Ok(n)
    }

    pub fn is_empty(&self) -> StorageResult<bool> {
        Ok(self.len()? == 0)
    }
}

/// Cursor state of a batched heap scan (see [`HeapFile::scan_batches`]).
/// Each [`HeapBatchScan::next_batch`] call borrows pages one at a time,
/// so a long-running scan never pins more than one buffer-pool frame.
pub struct HeapBatchScan {
    pool: Arc<BufferPool>,
    types: Vec<DataType>,
    pages: Vec<PageId>,
    next_page: usize,
    target_rows: usize,
}

impl HeapBatchScan {
    /// The next batch of live `(rid, tuple)` pairs (page-aligned: batches
    /// hold whole pages until `target_rows` is reached), or `None` once
    /// the heap is exhausted.
    pub fn next_batch(&mut self) -> StorageResult<Option<Vec<(RecordId, Tuple)>>> {
        let mut out = Vec::new();
        while self.next_page < self.pages.len() && out.len() < self.target_rows {
            let pid = self.pages[self.next_page];
            self.next_page += 1;
            let raw: Vec<(u16, Vec<u8>)> =
                self.pool.with_page_hint(pid, AccessHint::Sequential, |p| {
                    p.iter().map(|(s, d)| (s, d.to_vec())).collect()
                })?;
            out.reserve(raw.len());
            for (slot, bytes) in raw {
                out.push((
                    RecordId::new(pid, slot),
                    Tuple::decode(&bytes, &self.types)?,
                ));
            }
        }
        if out.is_empty() {
            Ok(None)
        } else {
            Ok(Some(out))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::buffer::DiskManager;
    use crate::value::Value;

    fn heap() -> HeapFile {
        let pool = Arc::new(BufferPool::new(Arc::new(DiskManager::new()), 16));
        HeapFile::new(pool, vec![DataType::Int, DataType::Text])
    }

    fn row(i: i64) -> Tuple {
        Tuple::new(vec![Value::Int(i), Value::Text(format!("row-{i}"))])
    }

    #[test]
    fn insert_get() {
        let h = heap();
        let rid = h.insert(&row(1)).unwrap();
        assert_eq!(h.get(rid).unwrap(), row(1));
    }

    #[test]
    fn spans_multiple_pages() {
        let h = heap();
        let mut rids = Vec::new();
        for i in 0..2000 {
            rids.push(h.insert(&row(i)).unwrap());
        }
        assert!(h.num_pages() > 1, "2000 rows should not fit in one page");
        for (i, rid) in rids.iter().enumerate() {
            assert_eq!(h.get(*rid).unwrap().get(0), &Value::Int(i as i64));
        }
        assert_eq!(h.len().unwrap(), 2000);
    }

    #[test]
    fn update_and_delete() {
        let h = heap();
        let rid = h.insert(&row(1)).unwrap();
        h.update(rid, &row(99)).unwrap();
        assert_eq!(h.get(rid).unwrap().get(0), &Value::Int(99));
        h.delete(rid).unwrap();
        assert!(h.get(rid).is_err());
    }

    #[test]
    fn scan_returns_live_rows_only() {
        let h = heap();
        let r0 = h.insert(&row(0)).unwrap();
        h.insert(&row(1)).unwrap();
        h.insert(&row(2)).unwrap();
        h.delete(r0).unwrap();
        let rows = h.scan().unwrap();
        assert_eq!(rows.len(), 2);
        assert!(rows.iter().all(|(_, t)| t.get(0) != &Value::Int(0)));
    }

    #[test]
    fn batched_scan_matches_full_scan() {
        let h = heap();
        for i in 0..2000 {
            h.insert(&row(i)).unwrap();
        }
        let full = h.scan().unwrap();
        let mut cursor = h.scan_batches(128);
        let mut got = Vec::new();
        let mut batches = 0;
        while let Some(b) = cursor.next_batch().unwrap() {
            assert!(!b.is_empty());
            batches += 1;
            got.extend(b);
        }
        assert!(batches > 1, "2000 rows at 128/batch must span batches");
        assert_eq!(got, full);
        // Empty heap yields None immediately.
        assert!(heap().scan_batches(64).next_batch().unwrap().is_none());
    }

    #[test]
    fn partitioned_scan_covers_heap_exactly_once() {
        let h = heap();
        for i in 0..2000 {
            h.insert(&row(i)).unwrap();
        }
        let full = h.scan().unwrap();
        for n in [1, 2, 3, 7, 64] {
            let parts = h.scan_partitions(n, 100);
            assert_eq!(parts.len(), n);
            let mut got = Vec::new();
            for mut p in parts {
                while let Some(b) = p.next_batch().unwrap() {
                    got.extend(b);
                }
            }
            // Contiguous page ranges: concatenation preserves heap order.
            assert_eq!(got, full, "n={n}");
        }
        // More partitions than pages: the extras are empty, not panics.
        let extras = h.scan_partitions(1000, 100);
        let non_empty = extras.into_iter().filter(|p| !p.pages.is_empty()).count();
        assert_eq!(non_empty, h.num_pages());
    }

    #[test]
    fn insert_touches_only_the_last_and_new_page() {
        // Filling the last page must not dirty the rest of the heap: a
        // clean heap of 50+ pages, then inserts up to the next page
        // allocation, leaves at most the old and new last page dirty.
        let h = heap();
        let mut i = 0;
        while h.num_pages() < 51 {
            h.insert(&row(i)).unwrap();
            i += 1;
        }
        h.pool.flush_all().unwrap();
        assert_eq!(h.pool.dirty_count(), 0);
        let pages = h.num_pages();
        while h.num_pages() == pages {
            h.insert(&row(i)).unwrap();
            i += 1;
        }
        assert!(h.pool.dirty_count() <= 2, "dirty: {}", h.pool.dirty_count());
    }

    #[test]
    fn reuses_space_after_delete() {
        let h = heap();
        let mut rids = Vec::new();
        for i in 0..500 {
            rids.push(h.insert(&row(i)).unwrap());
        }
        let pages_before = h.num_pages();
        for rid in &rids {
            h.delete(*rid).unwrap();
        }
        for i in 0..500 {
            h.insert(&row(i + 1000)).unwrap();
        }
        // Tombstone reuse means little or no page growth.
        assert!(h.num_pages() <= pages_before + 1);
    }
}
