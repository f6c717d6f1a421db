//! Sharded, scan-resistant clock buffer pool over a pluggable disk.
//!
//! [`DiskBackend`] is the trait surface page storage hides behind: the
//! in-memory [`DiskManager`] (the seed's simulated disk, still the default
//! for volatile databases and benchmarks) and `neurdb-wal`'s file-backed
//! disk both implement it. Every read and write is charged through atomic
//! counters, so benchmarks can report "I/O" volume and the buffer-usage
//! statistics the learned query optimizer consumes as part of its *system
//! condition* input (Section 4.2 of the paper).
//!
//! # Sharding
//!
//! Pages hash to one of N independent shards (`page_id % shards`), each
//! with its own latch, frame table, and replacement state, so the dop-N
//! morsel workers of the parallel executor stop serializing on a single
//! pool mutex. Page access runs the caller's closure under the owning
//! shard's latch only; a scan worker touching shard 3 never blocks a
//! point lookup hitting shard 5.
//!
//! # Replacement and scan resistance
//!
//! Every shard runs one second-chance clock. Callers pass an
//! [`AccessHint`] describing how they will use the page: `Sequential`
//! admissions enter *cold* — the victim search drains cold frames before
//! the clock hand considers any warm resident, and further sequential
//! touches never promote them (a single-reference cap) — so a large scan
//! recycles its own frames instead of flushing the hot pages point
//! lookups and index probes depend on. `Point` and `Index` accesses admit
//! and promote warm.

use crate::error::{StorageError, StorageResult};
use crate::page::{Page, PageId, PAGE_SIZE};
use neurdb_obs::trace;
use neurdb_obs::Histogram;
use parking_lot::{Mutex, RwLock};
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Page-granular storage behind the buffer pool.
///
/// Implementations must be safe for concurrent use; the buffer pool calls
/// them while holding a shard latch, with whole-page reads and writes.
pub trait DiskBackend: Send + Sync {
    /// Allocate a fresh zeroed page; returns its id. Fails when the
    /// backing store cannot grow (e.g. disk full).
    fn allocate(&self) -> StorageResult<PageId>;

    /// Read a whole page image.
    fn read(&self, id: PageId) -> StorageResult<Box<[u8]>>;

    /// Overwrite a whole page image.
    fn write(&self, id: PageId, data: &[u8]) -> StorageResult<()>;

    /// Force written pages to stable storage (no-op for volatile disks).
    fn sync(&self) -> StorageResult<()>;

    /// Number of allocated pages.
    fn num_pages(&self) -> usize;

    /// Total page reads served.
    fn read_count(&self) -> u64;

    /// Total page writes accepted.
    fn write_count(&self) -> u64;
}

/// Simulated disk: a growable array of page images plus I/O counters.
pub struct DiskManager {
    pages: RwLock<Vec<Option<Box<[u8]>>>>,
    reads: AtomicU64,
    writes: AtomicU64,
}

impl Default for DiskManager {
    fn default() -> Self {
        Self::new()
    }
}

impl DiskManager {
    pub fn new() -> Self {
        DiskManager {
            pages: RwLock::new(Vec::new()),
            reads: AtomicU64::new(0),
            writes: AtomicU64::new(0),
        }
    }
}

impl DiskBackend for DiskManager {
    fn allocate(&self) -> StorageResult<PageId> {
        let mut pages = self.pages.write();
        pages.push(Some(vec![0u8; PAGE_SIZE].into_boxed_slice()));
        Ok((pages.len() - 1) as PageId)
    }

    fn read(&self, id: PageId) -> StorageResult<Box<[u8]>> {
        self.reads.fetch_add(1, Ordering::Relaxed);
        let pages = self.pages.read();
        pages
            .get(id as usize)
            .and_then(|p| p.clone())
            .ok_or(StorageError::PageNotFound(id))
    }

    fn write(&self, id: PageId, data: &[u8]) -> StorageResult<()> {
        self.writes.fetch_add(1, Ordering::Relaxed);
        let mut pages = self.pages.write();
        match pages.get_mut(id as usize) {
            Some(slot) => {
                *slot = Some(data.to_vec().into_boxed_slice());
                Ok(())
            }
            None => Err(StorageError::PageNotFound(id)),
        }
    }

    fn sync(&self) -> StorageResult<()> {
        Ok(())
    }

    fn num_pages(&self) -> usize {
        self.pages.read().len()
    }

    fn read_count(&self) -> u64 {
        self.reads.load(Ordering::Relaxed)
    }

    fn write_count(&self) -> u64 {
        self.writes.load(Ordering::Relaxed)
    }
}

// ----------------------------- access hints -----------------------------

/// How the caller is about to use a page — the executor's admission hint.
///
/// The hint decides whether the page is admitted (and re-referenced)
/// *warm* — protected from the next eviction sweep — or *cold*, placed at
/// the eviction-preferred position with a single-reference cap so one
/// pass of a large scan cannot flush the working set.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AccessHint {
    /// Point access: single-row fetch, DML. Admits warm. The default for
    /// the un-hinted `with_page`/`with_page_mut` entry points.
    #[default]
    Point,
    /// One touch of a large sequential sweep (morsel scans). Admits
    /// cold; repeated sequential touches never promote.
    Sequential,
    /// A fetch on behalf of an index descent or index-driven lookup.
    /// Admits warm, like `Point`.
    Index,
}

impl AccessHint {
    /// Whether this access should protect the page from the next sweep.
    fn warm(self) -> bool {
        !matches!(self, AccessHint::Sequential)
    }

    /// Whether this access belongs to the point-lookup class tracked by
    /// [`BufferStats::point_hit_ratio`] (`Point` and `Index`).
    fn is_point_class(self) -> bool {
        !matches!(self, AccessHint::Sequential)
    }
}

// ------------------------------ statistics ------------------------------

/// Buffer-pool usage statistics; feeds the QO's system-condition vector.
/// Aggregated across shards by [`BufferPool::stats`]; per-shard via
/// [`BufferPool::shard_stats`].
#[derive(Debug, Clone, Copy, Default)]
pub struct BufferStats {
    pub hits: u64,
    pub misses: u64,
    pub evictions: u64,
    /// Hits/misses of the point-lookup class (`Point` and `Index` hints)
    /// only — the signal the scan-resistance benchmarks gate on.
    pub point_hits: u64,
    pub point_misses: u64,
    pub capacity: usize,
    pub resident: usize,
}

impl BufferStats {
    /// Hit ratio in `[0,1]`; 1.0 when the pool has never been probed.
    pub fn hit_ratio(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            1.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Hit ratio of point-class accesses only (1.0 when none happened).
    pub fn point_hit_ratio(&self) -> f64 {
        let total = self.point_hits + self.point_misses;
        if total == 0 {
            1.0
        } else {
            self.point_hits as f64 / total as f64
        }
    }

    /// Fraction of the pool holding pages.
    pub fn occupancy(&self) -> f64 {
        if self.capacity == 0 {
            0.0
        } else {
            self.resident as f64 / self.capacity as f64
        }
    }

    fn accumulate(&mut self, other: &BufferStats) {
        self.hits += other.hits;
        self.misses += other.misses;
        self.evictions += other.evictions;
        self.point_hits += other.point_hits;
        self.point_misses += other.point_misses;
        self.capacity += other.capacity;
        self.resident += other.resident;
    }
}

// -------------------------------- frames --------------------------------

struct Frame {
    page_id: PageId,
    page: Page,
    dirty: bool,
    /// Bumped on every mutation; `flush_all` re-verifies it before
    /// clearing the dirty bit, so a write that lands while the flusher
    /// is off the latch is never lost.
    version: u64,
    /// Set while `flush_all` holds a copy of this frame it may not have
    /// written yet; evicting the frame then orders its write-back after
    /// that copy (see [`ShardInner::superseded`]).
    flushing: bool,
}

struct ShardInner {
    frames: Vec<Option<Frame>>,
    map: HashMap<PageId, usize>,
    /// Clock state, indexed by slot: the second-chance bit, set by warm
    /// accesses.
    referenced: Vec<bool>,
    /// Admitted by a sequential sweep and not touched warm since: such
    /// frames are evicted before the hand considers any warm resident.
    cold: Vec<bool>,
    hand: usize,
    /// Hit/miss/eviction counters; `capacity` and `resident` stay zero
    /// here and are filled in by [`BufferPool::shard_stats`].
    counters: BufferStats,
    /// Pages evicted while `flush_all` held an older copy of them: the
    /// eviction wrote newer bytes, so the flusher skips its copy. The
    /// flusher reads this off the latch; its lock is held across each
    /// write of such a page, so the two writes cannot reorder.
    superseded: Arc<Mutex<HashSet<PageId>>>,
}

impl ShardInner {
    /// A page was installed into `slot`: warm admissions start
    /// referenced, cold ones unreferenced and flagged cold.
    fn admit(&mut self, slot: usize, warm: bool) {
        self.referenced[slot] = warm;
        self.cold[slot] = !warm;
    }

    /// The resident page in `slot` was accessed again; only a warm
    /// access promotes it (and un-colds it).
    fn touch(&mut self, slot: usize, warm: bool) {
        if warm {
            self.referenced[slot] = true;
            self.cold[slot] = false;
        }
    }

    /// The slot to evict from a full shard: the first cold frame from
    /// the hand on, else the second-chance sweep's pick. The sweep clears
    /// every reference bit within one revolution, so it always returns
    /// within two.
    fn victim(&mut self) -> usize {
        let n = self.frames.len();
        if let Some(slot) = (0..n).map(|i| (self.hand + i) % n).find(|&s| self.cold[s]) {
            return slot;
        }
        loop {
            let slot = self.hand;
            self.hand = (self.hand + 1) % n;
            if !std::mem::take(&mut self.referenced[slot]) {
                return slot;
            }
        }
    }
}

/// Latency sinks for physical page I/O, attached by the durability layer
/// (`buffer.read_ns` / `buffer.write_ns` in the metrics registry).
struct PoolMetrics {
    read_ns: Arc<Histogram>,
    write_ns: Arc<Histogram>,
}

// --------------------------------- pool ---------------------------------

/// A sharded buffer pool over a [`DiskBackend`].
///
/// Each page maps to exactly one shard; `with_page*` callers copy tuple
/// bytes out while holding that shard's latch via the closure, so two
/// threads touching different shards proceed fully in parallel. See the
/// module docs for the replacement and scan-resistance model.
pub struct BufferPool {
    disk: Arc<dyn DiskBackend>,
    shards: Vec<Mutex<ShardInner>>,
    capacity: usize,
    metrics: RwLock<Option<PoolMetrics>>,
    /// Serializes `flush_all` calls, so each frame's `flushing` mark has
    /// one owner.
    flush_lock: Mutex<()>,
}

impl BufferPool {
    /// A pool of `capacity` frames over `min(8, capacity)` shards.
    pub fn new(disk: Arc<dyn DiskBackend>, capacity: usize) -> Self {
        Self::with_shards(disk, capacity, capacity.min(8))
    }

    /// A pool of `capacity` frames over exactly `shards` shards (clamped
    /// to `1..=capacity`).
    pub fn with_shards(disk: Arc<dyn DiskBackend>, capacity: usize, shards: usize) -> Self {
        assert!(capacity > 0, "buffer pool needs at least one frame");
        let shards = shards.clamp(1, capacity);
        // Distribute frames as evenly as possible; every shard gets at
        // least one, and the totals sum to exactly `capacity`.
        let base = capacity / shards;
        let extra = capacity % shards;
        let shard_vec = (0..shards)
            .map(|i| {
                let slots = base + usize::from(i < extra);
                Mutex::new(ShardInner {
                    frames: (0..slots).map(|_| None).collect(),
                    map: HashMap::with_capacity(slots),
                    referenced: vec![false; slots],
                    cold: vec![false; slots],
                    hand: 0,
                    counters: BufferStats::default(),
                    superseded: Arc::default(),
                })
            })
            .collect();
        BufferPool {
            disk,
            shards: shard_vec,
            capacity,
            metrics: RwLock::new(None),
            flush_lock: Mutex::new(()),
        }
    }

    pub fn disk(&self) -> &Arc<dyn DiskBackend> {
        &self.disk
    }

    /// Number of shards pages hash across.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Total frame capacity across all shards.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Attach physical-I/O latency sinks (`buffer.read_ns` and
    /// `buffer.write_ns`); every disk read/write the pool performs is
    /// timed into them from then on.
    pub fn attach_metrics(&self, read_ns: Arc<Histogram>, write_ns: Arc<Histogram>) {
        *self.metrics.write() = Some(PoolMetrics { read_ns, write_ns });
    }

    fn shard_of(&self, id: PageId) -> &Mutex<ShardInner> {
        &self.shards[(id as usize) % self.shards.len()]
    }

    fn timed_read(&self, id: PageId) -> StorageResult<Box<[u8]>> {
        let metrics = self.metrics.read();
        match &*metrics {
            Some(m) => {
                let start = Instant::now();
                let out = self.disk.read(id);
                m.read_ns.record_duration(start.elapsed());
                out
            }
            None => self.disk.read(id),
        }
    }

    fn timed_write(&self, id: PageId, data: &[u8]) -> StorageResult<()> {
        let metrics = self.metrics.read();
        match &*metrics {
            Some(m) => {
                let start = Instant::now();
                let out = self.disk.write(id, data);
                m.write_ns.record_duration(start.elapsed());
                out
            }
            None => self.disk.write(id, data),
        }
    }

    /// Allocate a brand-new page on disk and cache it (warm: freshly
    /// allocated pages are about to be written).
    pub fn allocate_page(&self) -> StorageResult<PageId> {
        let id = self.disk.allocate()?;
        let shard = self.shard_of(id);
        let mut inner = shard.lock();
        let idx = self.free_or_evict(&mut inner)?;
        inner.map.insert(id, idx);
        inner.frames[idx] = Some(Frame {
            page_id: id,
            page: Page::new(),
            dirty: true,
            version: 1,
            flushing: false,
        });
        inner.admit(idx, true);
        Ok(id)
    }

    /// Run `f` with shared access to the page (point-access hint).
    pub fn with_page<R>(&self, id: PageId, f: impl FnOnce(&Page) -> R) -> StorageResult<R> {
        self.with_page_hint(id, AccessHint::Point, f)
    }

    /// Run `f` with shared access to the page, using `hint` for
    /// admission/promotion.
    pub fn with_page_hint<R>(
        &self,
        id: PageId,
        hint: AccessHint,
        f: impl FnOnce(&Page) -> R,
    ) -> StorageResult<R> {
        let shard = self.shard_of(id);
        let mut inner = shard.lock();
        let idx = self.load(&mut inner, id, hint)?;
        let frame = inner.frames[idx].as_ref().expect("frame just loaded");
        Ok(f(&frame.page))
    }

    /// Run `f` with mutable access to the page; marks it dirty
    /// (point-access hint).
    pub fn with_page_mut<R>(&self, id: PageId, f: impl FnOnce(&mut Page) -> R) -> StorageResult<R> {
        let shard = self.shard_of(id);
        let mut inner = shard.lock();
        let idx = self.load(&mut inner, id, AccessHint::Point)?;
        let frame = inner.frames[idx].as_mut().expect("frame just loaded");
        frame.dirty = true;
        frame.version += 1;
        Ok(f(&mut frame.page))
    }

    /// Write all dirty pages back to disk.
    ///
    /// Disk writes happen *off* the shard latches: each shard's dirty
    /// pages are copied out under the latch, written outside it, and the
    /// dirty bits cleared only after re-verifying (by frame version) that
    /// no concurrent mutation landed in between — so a checkpoint never
    /// stalls readers for the duration of its I/O, and never loses a
    /// racing write. A copied page that is evicted before its copy is
    /// written has newer bytes on disk already; its copy is dropped.
    pub fn flush_all(&self) -> StorageResult<()> {
        let _one_flusher = self.flush_lock.lock();
        for shard in &self.shards {
            // Phase 1: snapshot dirty frames under the latch, marking
            // each as in flight.
            let (dirty, superseded) = {
                let mut inner = shard.lock();
                let dirty: Vec<(usize, PageId, u64, Vec<u8>)> = inner
                    .frames
                    .iter_mut()
                    .enumerate()
                    .filter_map(|(slot, f)| {
                        let f = f.as_mut().filter(|f| f.dirty)?;
                        f.flushing = true;
                        Some((slot, f.page_id, f.version, f.page.as_bytes().to_vec()))
                    })
                    .collect();
                (dirty, inner.superseded.clone())
            };
            if dirty.is_empty() {
                continue;
            }
            // Phase 2: write outside the latch, skipping copies an
            // eviction has superseded.
            let mut written = 0;
            let mut result = Ok(());
            for (_, id, _, bytes) in &dirty {
                let superseded = superseded.lock();
                if !superseded.contains(id) {
                    result = self.timed_write(*id, bytes);
                    if result.is_err() {
                        break;
                    }
                }
                written += 1;
            }
            // Phase 3: unmark, and clear dirty bits only where the
            // snapshot was written and is still current (same frame —
            // not a reload of the page — and no mutation since).
            let mut inner = shard.lock();
            for (i, (slot, id, version, _)) in dirty.into_iter().enumerate() {
                if let Some(frame) = inner.frames[slot].as_mut() {
                    if frame.page_id == id && frame.flushing {
                        frame.flushing = false;
                        if i < written && frame.version == version {
                            frame.dirty = false;
                        }
                    }
                }
            }
            superseded.lock().clear();
            result?;
        }
        Ok(())
    }

    /// Number of resident pages currently dirty (the checkpointer's
    /// flush frontier).
    pub fn dirty_count(&self) -> usize {
        self.shards
            .iter()
            .map(|s| {
                s.lock()
                    .frames
                    .iter()
                    .filter(|f| f.as_ref().is_some_and(|f| f.dirty))
                    .count()
            })
            .sum()
    }

    /// Write all dirty pages back and force them to stable storage — the
    /// page-flush half of a checkpoint.
    pub fn flush_all_and_sync(&self) -> StorageResult<()> {
        self.flush_all()?;
        self.disk.sync()
    }

    /// Aggregate statistics across all shards.
    pub fn stats(&self) -> BufferStats {
        let mut total = BufferStats::default();
        for s in self.shard_stats() {
            total.accumulate(&s);
        }
        total
    }

    /// Per-shard statistics.
    pub fn shard_stats(&self) -> Vec<BufferStats> {
        self.shards
            .iter()
            .map(|shard| {
                let inner = shard.lock();
                BufferStats {
                    capacity: inner.frames.len(),
                    resident: inner.map.len(),
                    ..inner.counters
                }
            })
            .collect()
    }

    fn load(&self, inner: &mut ShardInner, id: PageId, hint: AccessHint) -> StorageResult<usize> {
        let warm = hint.warm();
        let point = hint.is_point_class();
        if let Some(&idx) = inner.map.get(&id) {
            let c = &mut inner.counters;
            c.hits += 1;
            if point {
                c.point_hits += 1;
            }
            inner.touch(idx, warm);
            return Ok(idx);
        }
        let c = &mut inner.counters;
        c.misses += 1;
        if point {
            c.point_misses += 1;
        }
        // A miss is the interesting (slow) case: the disk read gets its
        // own span, tagged with the page and the executor's access hint.
        let mut span = trace::span("buffer.read");
        span.attr("page", id);
        span.attr(
            "hint",
            match hint {
                AccessHint::Point => "point",
                AccessHint::Sequential => "sequential",
                AccessHint::Index => "index",
            },
        );
        let bytes = self.timed_read(id)?;
        drop(span);
        let idx = self.free_or_evict(inner)?;
        inner.map.insert(id, idx);
        inner.frames[idx] = Some(Frame {
            page_id: id,
            page: Page::from_bytes(&bytes)?,
            dirty: false,
            version: 0,
            flushing: false,
        });
        inner.admit(idx, warm);
        Ok(idx)
    }

    /// A free slot, or the clock's victim (written back if dirty).
    fn free_or_evict(&self, inner: &mut ShardInner) -> StorageResult<usize> {
        if let Some(idx) = inner.frames.iter().position(|f| f.is_none()) {
            return Ok(idx);
        }
        let idx = inner.victim();
        let frame = inner.frames[idx].as_ref().expect("victim frame occupied");
        let id = frame.page_id;
        if frame.flushing {
            // A flush holds an older copy of this page: write under the
            // lock it checks, and mark its copy stale.
            let mut superseded = inner.superseded.lock();
            self.timed_write(id, frame.page.as_bytes())?;
            superseded.insert(id);
        } else if frame.dirty {
            self.timed_write(id, frame.page.as_bytes())?;
        }
        inner.map.remove(&id);
        inner.frames[idx] = None;
        inner.counters.evictions += 1;
        Ok(idx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pool(cap: usize) -> BufferPool {
        BufferPool::new(Arc::new(DiskManager::new()), cap)
    }

    fn pool_with(cap: usize, shards: usize) -> BufferPool {
        BufferPool::with_shards(Arc::new(DiskManager::new()), cap, shards)
    }

    #[test]
    fn allocate_and_readback() {
        let p = pool(4);
        let id = p.allocate_page().unwrap();
        p.with_page_mut(id, |pg| pg.insert(b"data").unwrap())
            .unwrap();
        let bytes = p.with_page(id, |pg| pg.get(0).unwrap().to_vec()).unwrap();
        assert_eq!(bytes, b"data");
    }

    #[test]
    fn eviction_persists_dirty_pages() {
        let p = pool_with(2, 2);
        let ids: Vec<_> = (0..6).map(|_| p.allocate_page().unwrap()).collect();
        for (i, id) in ids.iter().enumerate() {
            p.with_page_mut(*id, |pg| pg.insert(format!("v{i}").as_bytes()).unwrap())
                .unwrap();
        }
        // Every page is still readable after evictions.
        for (i, id) in ids.iter().enumerate() {
            let got = p.with_page(*id, |pg| pg.get(0).unwrap().to_vec()).unwrap();
            assert_eq!(got, format!("v{i}").as_bytes());
        }
        assert!(p.stats().evictions >= 4);
    }

    #[test]
    fn hit_ratio_reflects_access_pattern() {
        let p = pool(8);
        let id = p.allocate_page().unwrap();
        for _ in 0..100 {
            p.with_page(id, |_| ()).unwrap();
        }
        assert!(p.stats().hit_ratio() > 0.95);
    }

    #[test]
    fn flush_all_writes_dirty_frames() {
        let disk = Arc::new(DiskManager::new());
        let p = BufferPool::new(disk.clone(), 4);
        let id = p.allocate_page().unwrap();
        p.with_page_mut(id, |pg| pg.insert(b"flushed").unwrap())
            .unwrap();
        p.flush_all().unwrap();
        assert_eq!(p.dirty_count(), 0);
        let raw = disk.read(id).unwrap();
        let page = Page::from_bytes(&raw).unwrap();
        assert_eq!(page.get(0).unwrap(), b"flushed");
    }

    #[test]
    fn disk_counts_io() {
        let disk = Arc::new(DiskManager::new());
        let p = BufferPool::new(disk.clone(), 1);
        let a = p.allocate_page().unwrap();
        let b = p.allocate_page().unwrap();
        // Ping-pong between two pages with a single frame: every access
        // after the first is a miss -> disk read.
        for _ in 0..5 {
            p.with_page(a, |_| ()).unwrap();
            p.with_page(b, |_| ()).unwrap();
        }
        assert!(disk.read_count() >= 9);
    }

    #[test]
    fn missing_page_is_error() {
        let p = pool(2);
        assert!(matches!(
            p.with_page(99, |_| ()),
            Err(StorageError::PageNotFound(99))
        ));
    }

    #[test]
    fn shards_split_capacity_exactly() {
        let p = pool_with(10, 4);
        assert_eq!(p.shard_count(), 4);
        assert_eq!(p.capacity(), 10);
        let per_shard: usize = p.shard_stats().iter().map(|s| s.capacity).sum();
        assert_eq!(per_shard, 10);
        // Auto sharding caps at the capacity (tiny pools stay valid).
        assert_eq!(pool(2).shard_count(), 2);
        assert_eq!(pool(100).shard_count(), 8);
    }

    #[test]
    fn sequential_admissions_do_not_flush_hot_pages() {
        // One shard: a hot page re-referenced between scan sweeps
        // must survive a scan 4x the pool size; the scan's own pages
        // (admitted cold) are recycled instead.
        let p = pool_with(4, 1);
        let hot = p.allocate_page().unwrap();
        let scanned: Vec<_> = (0..16).map(|_| p.allocate_page().unwrap()).collect();
        // Drain allocation warmth so the scan loop starts from a steady
        // state, then make the hot page resident.
        for id in &scanned {
            p.with_page_hint(*id, AccessHint::Sequential, |_| ())
                .unwrap();
        }
        p.with_page(hot, |_| ()).unwrap();
        let before = p.stats();
        for _ in 0..10 {
            p.with_page(hot, |_| ()).unwrap(); // point access, promotes
            for id in &scanned {
                p.with_page_hint(*id, AccessHint::Sequential, |_| ())
                    .unwrap();
            }
        }
        let after = p.stats();
        // The hot page was touched 10 times after warmup; all were hits.
        assert_eq!(
            after.point_hits - before.point_hits,
            10,
            "hot page must never be evicted by the sequential sweep"
        );
    }

    #[test]
    fn unhinted_pool_lets_scans_evict_hot_pages() {
        // The same workload as above with the sweep `Point`-hinted (no
        // scan resistance) turns at least one hot-page access into a
        // miss: the sweep flushes it.
        let p = pool_with(4, 1);
        let hot = p.allocate_page().unwrap();
        let scanned: Vec<_> = (0..16).map(|_| p.allocate_page().unwrap()).collect();
        for id in &scanned {
            p.with_page(*id, |_| ()).unwrap();
        }
        p.with_page(hot, |_| ()).unwrap();
        let mut hot_misses = 0;
        for _ in 0..10 {
            let before = p.stats().misses;
            p.with_page(hot, |_| ()).unwrap();
            hot_misses += p.stats().misses - before;
            for id in &scanned {
                p.with_page(*id, |_| ()).unwrap();
            }
        }
        assert!(
            hot_misses > 0,
            "without scan resistance the sweep must flush the hot page"
        );
    }

    #[test]
    fn flush_reverifies_dirty_bits() {
        // A mutation that lands between the flusher's copy-out and its
        // re-latch must leave the frame dirty (version mismatch).
        let disk = Arc::new(DiskManager::new());
        let p = BufferPool::new(disk.clone(), 4);
        let id = p.allocate_page().unwrap();
        p.with_page_mut(id, |pg| pg.insert(b"one").unwrap())
            .unwrap();
        p.flush_all().unwrap();
        assert_eq!(p.dirty_count(), 0);
        p.with_page_mut(id, |pg| pg.update(0, b"two").unwrap())
            .unwrap();
        assert_eq!(p.dirty_count(), 1);
        p.flush_all().unwrap();
        assert_eq!(p.dirty_count(), 0);
        let page = Page::from_bytes(&disk.read(id).unwrap()).unwrap();
        assert_eq!(page.get(0).unwrap(), b"two");
    }

    #[test]
    fn io_latency_histograms_record_when_attached() {
        let registry = neurdb_obs::MetricsRegistry::new();
        let p = pool(2);
        p.attach_metrics(
            registry.histogram("buffer.read_ns"),
            registry.histogram("buffer.write_ns"),
        );
        let ids: Vec<_> = (0..8).map(|_| p.allocate_page().unwrap()).collect();
        for id in &ids {
            p.with_page_mut(*id, |pg| pg.insert(b"x").unwrap()).unwrap();
        }
        for id in &ids {
            p.with_page(*id, |_| ()).unwrap();
        }
        p.flush_all().unwrap();
        let snap = registry.snapshot();
        assert!(snap.histograms["buffer.read_ns"].count > 0);
        assert!(snap.histograms["buffer.write_ns"].count > 0);
    }
}
