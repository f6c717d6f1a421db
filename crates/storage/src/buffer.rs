//! Sharded buffer pool with pluggable replacement over a pluggable disk.
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
//! Replacement is pluggable behind [`ReplacementPolicy`]: clock
//! (second-chance, the default), SIEVE, and strict LRU, selected by
//! [`BufferConfig::policy`] or switched at runtime with
//! [`BufferPool::set_policy`] (surfaced as `SET buffer_policy` /
//! `SHOW buffer` in SQL). Callers pass an [`AccessHint`] describing how
//! they will use the page: `Sequential` admissions enter *cold* (at the
//! eviction-preferred position, and further sequential touches never
//! promote them — a single-reference cap), so a large scan recycles its
//! own frames instead of flushing the hot pages point lookups and index
//! probes depend on. `Point` and `Index` accesses admit and promote warm.

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
    /// One touch of a large sequential sweep (morsel scans, repartition
    /// producers). Admits cold; repeated sequential touches never promote.
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

// --------------------------- replacement policy --------------------------

/// Replacement policy selector (see [`ReplacementPolicy`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PolicyKind {
    /// Second-chance clock (the default).
    #[default]
    Clock,
    /// SIEVE: FIFO queue with a lazily-moving visited hand.
    Sieve,
    /// Strict least-recently-used.
    Lru,
}

impl PolicyKind {
    pub const ALL: [PolicyKind; 3] = [PolicyKind::Clock, PolicyKind::Sieve, PolicyKind::Lru];

    pub fn name(self) -> &'static str {
        match self {
            PolicyKind::Clock => "clock",
            PolicyKind::Sieve => "sieve",
            PolicyKind::Lru => "lru",
        }
    }

    /// Parse a policy name (case-insensitive), as accepted by
    /// `SET buffer_policy`.
    pub fn parse(s: &str) -> Option<PolicyKind> {
        match s.to_ascii_lowercase().as_str() {
            "clock" => Some(PolicyKind::Clock),
            "sieve" => Some(PolicyKind::Sieve),
            "lru" => Some(PolicyKind::Lru),
            _ => None,
        }
    }

    fn index(self) -> usize {
        match self {
            PolicyKind::Clock => 0,
            PolicyKind::Sieve => 1,
            PolicyKind::Lru => 2,
        }
    }
}

impl std::str::FromStr for PolicyKind {
    type Err = String;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        PolicyKind::parse(s).ok_or_else(|| format!("unknown buffer policy '{s}'"))
    }
}

/// Buffer-pool geometry and replacement configuration.
#[derive(Debug, Clone, Copy)]
pub struct BufferConfig {
    /// Shard count; `0` picks `min(8, capacity)`.
    pub shards: usize,
    /// Total frames across all shards.
    pub capacity: usize,
    /// Replacement policy every shard starts with.
    pub policy: PolicyKind,
    /// When `false`, `Sequential` hints are treated as `Point` (scan
    /// resistance off — the unhinted baseline benchmarks compare against).
    pub scan_resistant: bool,
}

impl Default for BufferConfig {
    fn default() -> Self {
        BufferConfig {
            shards: 0,
            capacity: 4096,
            policy: PolicyKind::Clock,
            scan_resistant: true,
        }
    }
}

impl BufferConfig {
    pub fn with_capacity(capacity: usize) -> BufferConfig {
        BufferConfig {
            capacity,
            ..BufferConfig::default()
        }
    }
}

/// Per-shard replacement state. One instance per shard, always called
/// under that shard's latch; `slot` indexes the shard's frame table.
///
/// The pool keeps the frame table and the page map; the policy only
/// orders occupied slots for eviction. Admissions and touches carry the
/// `warm` bit derived from the caller's [`AccessHint`]: cold admissions
/// go to the eviction-preferred position and cold touches never promote.
trait ReplacementPolicy: Send {
    fn kind(&self) -> PolicyKind;

    /// A page was installed into `slot`.
    fn admit(&mut self, slot: usize, warm: bool);

    /// The resident page in `slot` was accessed again.
    fn touch(&mut self, slot: usize, warm: bool);

    /// Choose the next victim among occupied slots, skipping any for
    /// which `pinned` returns true. `None` when nothing is evictable.
    fn victim(&mut self, pinned: &dyn Fn(usize) -> bool) -> Option<usize>;

    /// `slot` was evicted (or the shard is being rebuilt).
    fn remove(&mut self, slot: usize);
}

fn new_policy(kind: PolicyKind, slots: usize) -> Box<dyn ReplacementPolicy> {
    match kind {
        PolicyKind::Clock => Box::new(ClockPolicy::new(slots)),
        PolicyKind::Sieve => Box::new(SievePolicy::new(slots)),
        PolicyKind::Lru => Box::new(LruPolicy::new(slots)),
    }
}

/// Second-chance clock. Warm accesses set the reference bit; cold
/// admissions start unreferenced *and flagged cold*: the victim search
/// drains cold frames (a scan's own recent pages) before the clock hand
/// ever considers warm residents, so one sequential sweep recycles its
/// own frames instead of the working set. A warm touch un-colds a frame.
struct ClockPolicy {
    occupied: Vec<bool>,
    referenced: Vec<bool>,
    cold: Vec<bool>,
    hand: usize,
}

impl ClockPolicy {
    fn new(slots: usize) -> ClockPolicy {
        ClockPolicy {
            occupied: vec![false; slots],
            referenced: vec![false; slots],
            cold: vec![false; slots],
            hand: 0,
        }
    }
}

impl ReplacementPolicy for ClockPolicy {
    fn kind(&self) -> PolicyKind {
        PolicyKind::Clock
    }

    fn admit(&mut self, slot: usize, warm: bool) {
        self.occupied[slot] = true;
        self.referenced[slot] = warm;
        self.cold[slot] = !warm;
    }

    fn touch(&mut self, slot: usize, warm: bool) {
        if warm {
            self.referenced[slot] = true;
            self.cold[slot] = false;
        }
    }

    fn victim(&mut self, pinned: &dyn Fn(usize) -> bool) -> Option<usize> {
        let n = self.occupied.len();
        // Pass A: any cold frame goes first (hand-relative for fairness).
        for i in 0..n {
            let slot = (self.hand + i) % n;
            if self.occupied[slot] && self.cold[slot] && !pinned(slot) {
                return Some(slot);
            }
        }
        // Pass B: standard second-chance sweep over the warm residents.
        for _ in 0..2 * n {
            let slot = self.hand;
            self.hand = (self.hand + 1) % n;
            if !self.occupied[slot] || pinned(slot) {
                continue;
            }
            if self.referenced[slot] {
                self.referenced[slot] = false;
                continue;
            }
            return Some(slot);
        }
        None
    }

    fn remove(&mut self, slot: usize) {
        self.occupied[slot] = false;
        self.referenced[slot] = false;
        self.cold[slot] = false;
    }
}

/// SIEVE (Zhang et al., NSDI'24): a FIFO order with a hand that sweeps
/// from old to new clearing visited bits; unvisited pages are evicted
/// where the hand stands, and — unlike clock — survivors are never moved.
/// Warm admissions enter at the queue head (newest); cold admissions are
/// inserted *at the hand*, i.e. first in line for eviction.
struct SievePolicy {
    /// Occupied slots, oldest first.
    order: Vec<usize>,
    visited: Vec<bool>,
    cold: Vec<bool>,
    /// Index into `order` where the next sweep resumes.
    hand: usize,
}

impl SievePolicy {
    fn new(slots: usize) -> SievePolicy {
        SievePolicy {
            order: Vec::with_capacity(slots),
            visited: vec![false; slots],
            cold: vec![false; slots],
            hand: 0,
        }
    }

    fn unlink(&mut self, pos: usize) -> usize {
        let slot = self.order.remove(pos);
        if pos < self.hand {
            self.hand -= 1;
        }
        slot
    }
}

impl ReplacementPolicy for SievePolicy {
    fn kind(&self) -> PolicyKind {
        PolicyKind::Sieve
    }

    fn admit(&mut self, slot: usize, warm: bool) {
        self.visited[slot] = false;
        self.cold[slot] = !warm;
        if warm {
            self.order.push(slot);
        } else {
            // Eviction-preferred position: where the hand stands.
            let at = self.hand.min(self.order.len());
            self.order.insert(at, slot);
        }
    }

    fn touch(&mut self, slot: usize, warm: bool) {
        if warm {
            self.visited[slot] = true;
            self.cold[slot] = false;
        }
    }

    fn victim(&mut self, pinned: &dyn Fn(usize) -> bool) -> Option<usize> {
        if self.order.is_empty() {
            return None;
        }
        // Pass A: drain cold entries (oldest-first from the hand) before
        // the sieve ever considers warm residents.
        let n = self.order.len();
        for i in 0..n {
            let pos = (self.hand + i) % n;
            let slot = self.order[pos];
            if self.cold[slot] && !pinned(slot) {
                return Some(self.unlink(pos));
            }
        }
        // Pass B: the SIEVE sweep — clear visited bits moving old-to-new,
        // evict the first unvisited entry, hand stays where it evicted.
        for _ in 0..2 * n {
            if self.hand >= self.order.len() {
                self.hand = 0;
            }
            let slot = self.order[self.hand];
            if pinned(slot) {
                self.hand += 1;
                continue;
            }
            if self.visited[slot] {
                self.visited[slot] = false;
                self.hand += 1;
                continue;
            }
            self.order.remove(self.hand);
            return Some(slot);
        }
        None
    }

    fn remove(&mut self, slot: usize) {
        if let Some(pos) = self.order.iter().position(|&s| s == slot) {
            self.unlink(pos);
        }
        self.visited[slot] = false;
        self.cold[slot] = false;
    }
}

/// Strict LRU via logical timestamps. Warm accesses stamp the slot with
/// the current tick; cold admissions stamp zero (oldest possible) and
/// cold touches never refresh, so scanned-once pages are evicted first.
struct LruPolicy {
    occupied: Vec<bool>,
    stamp: Vec<u64>,
    tick: u64,
}

impl LruPolicy {
    fn new(slots: usize) -> LruPolicy {
        LruPolicy {
            occupied: vec![false; slots],
            stamp: vec![0; slots],
            tick: 0,
        }
    }

    fn next_tick(&mut self) -> u64 {
        self.tick += 1;
        self.tick
    }
}

impl ReplacementPolicy for LruPolicy {
    fn kind(&self) -> PolicyKind {
        PolicyKind::Lru
    }

    fn admit(&mut self, slot: usize, warm: bool) {
        self.occupied[slot] = true;
        self.stamp[slot] = if warm { self.next_tick() } else { 0 };
    }

    fn touch(&mut self, slot: usize, warm: bool) {
        if warm {
            self.stamp[slot] = self.next_tick();
        }
    }

    fn victim(&mut self, pinned: &dyn Fn(usize) -> bool) -> Option<usize> {
        self.occupied
            .iter()
            .enumerate()
            .filter(|&(slot, &occ)| occ && !pinned(slot))
            .min_by_key(|&(slot, _)| self.stamp[slot])
            .map(|(slot, _)| slot)
    }

    fn remove(&mut self, slot: usize) {
        self.occupied[slot] = false;
        self.stamp[slot] = 0;
    }
}

// ------------------------------ statistics ------------------------------

/// Buffer-pool usage statistics; feeds the QO's system-condition vector.
/// Aggregated across shards by [`BufferPool::stats`]; per-shard via
/// [`BufferPool::shard_stats`] and per-policy via
/// [`BufferPool::policy_stats`].
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

#[derive(Debug, Clone, Copy, Default)]
struct ShardCounters {
    hits: u64,
    misses: u64,
    evictions: u64,
    point_hits: u64,
    point_misses: u64,
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
    pin_count: u32,
}

struct ShardInner {
    frames: Vec<Option<Frame>>,
    map: HashMap<PageId, usize>,
    policy: Box<dyn ReplacementPolicy>,
    /// Hit/miss/eviction counters, split by the policy that was active
    /// when they accrued (indexed by [`PolicyKind::index`]).
    counters: [ShardCounters; 3],
    /// Pages evicted while `flush_all` held an older copy of them: the
    /// eviction wrote newer bytes, so the flusher skips its copy. The
    /// flusher reads this off the latch; its lock is held across each
    /// write of such a page, so the two writes cannot reorder.
    superseded: Arc<Mutex<HashSet<PageId>>>,
}

impl ShardInner {
    fn counters_mut(&mut self) -> &mut ShardCounters {
        let idx = self.policy.kind().index();
        &mut self.counters[idx]
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
    scan_resistant: bool,
    policy: RwLock<PolicyKind>,
    metrics: RwLock<Option<PoolMetrics>>,
    /// Serializes `flush_all` calls, so each frame's `flushing` mark has
    /// one owner.
    flush_lock: Mutex<()>,
}

impl BufferPool {
    /// A pool with default geometry (`min(8, capacity)` shards, clock
    /// replacement, scan resistance on).
    pub fn new(disk: Arc<dyn DiskBackend>, capacity: usize) -> Self {
        Self::with_config(disk, BufferConfig::with_capacity(capacity))
    }

    pub fn with_config(disk: Arc<dyn DiskBackend>, config: BufferConfig) -> Self {
        assert!(config.capacity > 0, "buffer pool needs at least one frame");
        let shards = if config.shards == 0 {
            config.capacity.min(8)
        } else {
            config.shards.clamp(1, config.capacity)
        };
        // Distribute frames as evenly as possible; every shard gets at
        // least one, and the totals sum to exactly `capacity`.
        let base = config.capacity / shards;
        let extra = config.capacity % shards;
        let shard_vec = (0..shards)
            .map(|i| {
                let slots = base + usize::from(i < extra);
                Mutex::new(ShardInner {
                    frames: (0..slots).map(|_| None).collect(),
                    map: HashMap::with_capacity(slots),
                    policy: new_policy(config.policy, slots),
                    counters: [ShardCounters::default(); 3],
                    superseded: Arc::default(),
                })
            })
            .collect();
        BufferPool {
            disk,
            shards: shard_vec,
            capacity: config.capacity,
            scan_resistant: config.scan_resistant,
            policy: RwLock::new(config.policy),
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

    /// The replacement policy currently active in every shard.
    pub fn policy(&self) -> PolicyKind {
        *self.policy.read()
    }

    /// Whether `Sequential` hints are honored (cold admission).
    pub fn scan_resistant(&self) -> bool {
        self.scan_resistant
    }

    /// Attach physical-I/O latency sinks (`buffer.read_ns` and
    /// `buffer.write_ns`); every disk read/write the pool performs is
    /// timed into them from then on.
    pub fn attach_metrics(&self, read_ns: Arc<Histogram>, write_ns: Arc<Histogram>) {
        *self.metrics.write() = Some(PoolMetrics { read_ns, write_ns });
    }

    /// Switch every shard to `kind` at runtime. Resident pages are
    /// re-admitted warm in slot order (their recency history does not
    /// transfer); counters keep accruing under the new policy's bucket.
    pub fn set_policy(&self, kind: PolicyKind) {
        // Take the kind lock first so concurrent switches serialize and
        // `policy()` never disagrees with the shards for long.
        let mut current = self.policy.write();
        for shard in &self.shards {
            let mut inner = shard.lock();
            let slots = inner.frames.len();
            let mut policy = new_policy(kind, slots);
            for (slot, frame) in inner.frames.iter().enumerate() {
                if frame.is_some() {
                    policy.admit(slot, true);
                }
            }
            inner.policy = policy;
        }
        *current = kind;
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
            pin_count: 0,
        });
        inner.policy.admit(idx, true);
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
        self.with_page_mut_hint(id, AccessHint::Point, f)
    }

    /// Run `f` with mutable access to the page, using `hint` for
    /// admission/promotion; marks it dirty.
    pub fn with_page_mut_hint<R>(
        &self,
        id: PageId,
        hint: AccessHint,
        f: impl FnOnce(&mut Page) -> R,
    ) -> StorageResult<R> {
        let shard = self.shard_of(id);
        let mut inner = shard.lock();
        let idx = self.load(&mut inner, id, hint)?;
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

    /// Aggregate statistics across all shards and policies.
    pub fn stats(&self) -> BufferStats {
        let mut total = BufferStats::default();
        for s in self.shard_stats() {
            total.accumulate(&s);
        }
        total
    }

    /// Per-shard statistics (each entry sums that shard's counters over
    /// every policy it has run under).
    pub fn shard_stats(&self) -> Vec<BufferStats> {
        self.shards
            .iter()
            .map(|shard| {
                let inner = shard.lock();
                let mut s = BufferStats {
                    capacity: inner.frames.len(),
                    resident: inner.map.len(),
                    ..BufferStats::default()
                };
                for c in &inner.counters {
                    s.hits += c.hits;
                    s.misses += c.misses;
                    s.evictions += c.evictions;
                    s.point_hits += c.point_hits;
                    s.point_misses += c.point_misses;
                }
                s
            })
            .collect()
    }

    /// Counters split by the policy under which they accrued, summed
    /// across shards. Capacity/resident are not attributed to a policy
    /// and read zero here; policies this pool never ran report all-zero.
    pub fn policy_stats(&self) -> Vec<(PolicyKind, BufferStats)> {
        let mut per: [BufferStats; 3] = Default::default();
        for shard in &self.shards {
            let inner = shard.lock();
            for (i, c) in inner.counters.iter().enumerate() {
                per[i].hits += c.hits;
                per[i].misses += c.misses;
                per[i].evictions += c.evictions;
                per[i].point_hits += c.point_hits;
                per[i].point_misses += c.point_misses;
            }
        }
        PolicyKind::ALL.into_iter().zip(per).collect()
    }

    fn load(&self, inner: &mut ShardInner, id: PageId, hint: AccessHint) -> StorageResult<usize> {
        let warm = !self.scan_resistant || hint.warm();
        let point = hint.is_point_class();
        if let Some(&idx) = inner.map.get(&id) {
            let c = inner.counters_mut();
            c.hits += 1;
            if point {
                c.point_hits += 1;
            }
            inner.policy.touch(idx, warm);
            return Ok(idx);
        }
        let c = inner.counters_mut();
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
            pin_count: 0,
        });
        inner.policy.admit(idx, warm);
        Ok(idx)
    }

    /// A free slot, or the policy's victim (written back if dirty).
    fn free_or_evict(&self, inner: &mut ShardInner) -> StorageResult<usize> {
        if let Some(idx) = inner.frames.iter().position(|f| f.is_none()) {
            return Ok(idx);
        }
        let ShardInner { frames, policy, .. } = inner;
        let victim =
            policy.victim(&|slot: usize| frames[slot].as_ref().is_none_or(|f| f.pin_count > 0));
        let Some(idx) = victim else {
            return Err(StorageError::BufferPoolFull);
        };
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
        inner.policy.remove(idx);
        inner.counters_mut().evictions += 1;
        Ok(idx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pool(cap: usize) -> BufferPool {
        BufferPool::new(Arc::new(DiskManager::new()), cap)
    }

    fn pool_with(cap: usize, shards: usize, policy: PolicyKind) -> BufferPool {
        BufferPool::with_config(
            Arc::new(DiskManager::new()),
            BufferConfig {
                shards,
                capacity: cap,
                policy,
                scan_resistant: true,
            },
        )
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
        for policy in PolicyKind::ALL {
            let p = pool_with(2, 2, policy);
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
            assert!(p.stats().evictions >= 4, "policy {policy:?}");
        }
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
        let p = pool_with(10, 4, PolicyKind::Clock);
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
        // One shard, clock: a hot page re-referenced between scan sweeps
        // must survive a scan 4x the pool size; the scan's own pages
        // (admitted cold) are recycled instead.
        let p = pool_with(4, 1, PolicyKind::Clock);
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
        // Scan resistance off: the same workload as above turns at least
        // one hot-page access into a miss (the scan flushes it).
        let p = BufferPool::with_config(
            Arc::new(DiskManager::new()),
            BufferConfig {
                shards: 1,
                capacity: 4,
                policy: PolicyKind::Clock,
                scan_resistant: false,
            },
        );
        let hot = p.allocate_page().unwrap();
        let scanned: Vec<_> = (0..16).map(|_| p.allocate_page().unwrap()).collect();
        for id in &scanned {
            p.with_page_hint(*id, AccessHint::Sequential, |_| ())
                .unwrap();
        }
        p.with_page(hot, |_| ()).unwrap();
        let before = p.stats();
        for _ in 0..10 {
            p.with_page(hot, |_| ()).unwrap();
            for id in &scanned {
                p.with_page_hint(*id, AccessHint::Sequential, |_| ())
                    .unwrap();
            }
        }
        let after = p.stats();
        assert!(
            after.point_misses > before.point_misses,
            "without scan resistance the sweep must flush the hot page"
        );
    }

    #[test]
    fn policy_equivalence_identical_contents_under_trace() {
        // All three policies must serve identical page contents for an
        // identical access trace — replacement changes performance, never
        // correctness.
        let trace: Vec<(u64, bool)> = (0..400)
            .map(|i| {
                let id = (i * 7 + i * i * 3) % 24;
                (id as u64, i % 3 == 0)
            })
            .collect();
        let mut outputs: Vec<Vec<Vec<u8>>> = Vec::new();
        for policy in PolicyKind::ALL {
            let p = pool_with(6, 2, policy);
            let ids: Vec<_> = (0..24).map(|_| p.allocate_page().unwrap()).collect();
            for (i, id) in ids.iter().enumerate() {
                p.with_page_mut(*id, |pg| pg.insert(format!("init-{i}").as_bytes()).unwrap())
                    .unwrap();
            }
            let mut seen = Vec::new();
            for &(id, write) in &trace {
                let pid = ids[id as usize];
                if write {
                    p.with_page_mut_hint(pid, AccessHint::Point, |pg| {
                        pg.update(0, format!("w-{id}").as_bytes()).unwrap()
                    })
                    .unwrap();
                }
                let got = p
                    .with_page_hint(pid, AccessHint::Sequential, |pg| {
                        pg.get(0).unwrap().to_vec()
                    })
                    .unwrap();
                seen.push(got);
            }
            outputs.push(seen);
        }
        assert_eq!(outputs[0], outputs[1], "clock vs sieve");
        assert_eq!(outputs[0], outputs[2], "clock vs lru");
    }

    #[test]
    fn runtime_policy_switch_preserves_contents() {
        let p = pool_with(4, 2, PolicyKind::Clock);
        let ids: Vec<_> = (0..12).map(|_| p.allocate_page().unwrap()).collect();
        for (i, id) in ids.iter().enumerate() {
            p.with_page_mut(*id, |pg| pg.insert(format!("v{i}").as_bytes()).unwrap())
                .unwrap();
        }
        for kind in [PolicyKind::Sieve, PolicyKind::Lru, PolicyKind::Clock] {
            p.set_policy(kind);
            assert_eq!(p.policy(), kind);
            for (i, id) in ids.iter().enumerate() {
                let got = p.with_page(*id, |pg| pg.get(0).unwrap().to_vec()).unwrap();
                assert_eq!(got, format!("v{i}").as_bytes(), "after switch to {kind:?}");
            }
        }
        // Counters were attributed to every policy that served traffic.
        let by_policy = p.policy_stats();
        assert!(by_policy.iter().all(|(_, s)| s.hits + s.misses > 0));
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
    fn policy_names_round_trip() {
        for kind in PolicyKind::ALL {
            assert_eq!(PolicyKind::parse(kind.name()), Some(kind));
        }
        assert_eq!(PolicyKind::parse("SIEVE"), Some(PolicyKind::Sieve));
        assert_eq!(PolicyKind::parse("2q"), None);
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
