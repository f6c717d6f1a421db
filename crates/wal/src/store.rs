//! Logged tables: the durable store `neurdb-core` builds its SQL facade
//! on, usable on its own for storage-level crash testing.
//!
//! Every mutation is applied to the in-memory/buffered table first and
//! logged on success (redo-only; see the crate docs for why the data
//! file never needs undo). [`DurableStore::checkpoint`] publishes an
//! atomic snapshot (page-file copy + manifest) and truncates the log;
//! [`DurableStore::open`] restores the latest snapshot and replays
//! committed records after it.
//!
//! Layout of a database directory:
//!
//! ```text
//! <dir>/data.ndb         page file (scratch between checkpoints)
//! <dir>/checkpoint.ndb   page file as of the last checkpoint (atomic)
//! <dir>/checkpoint.meta  manifest: ckpt LSN, catalog, app snapshot
//! <dir>/wal/wal-*.seg    log segments
//! ```

use crate::codec::{Reader, Writer};
use crate::crc32::crc32;
use crate::disk::FileDisk;
use crate::log::{Lsn, Wal, WalMetrics, WalOptions, WalStats};
use crate::record::{read_schema, write_schema, WalRecord, SYSTEM_TXN};
use neurdb_obs::MetricsRegistry;
use neurdb_storage::{
    BufferPool, BufferStats, DiskManager, PageId, RecordId, Schema, StorageError, StorageResult,
    Table, Tuple,
};
use parking_lot::RwLock;
use std::collections::{HashMap, HashSet};
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

const MANIFEST_MAGIC: &[u8; 8] = b"NDBCKPT1";

/// Options for opening a durable store.
#[derive(Debug, Clone, Default)]
pub struct DurableStoreOptions {
    /// Buffer pool frames (`0` → 4096).
    pub frames: usize,
    pub wal: WalOptions,
    /// Registry the store's WAL and buffer metrics resolve from;
    /// defaults to a fresh private registry, so embedded and test
    /// instances stay isolated.
    pub registry: Arc<MetricsRegistry>,
}

struct StorePaths {
    dir: PathBuf,
    data: PathBuf,
    ckpt_meta: PathBuf,
    wal_dir: PathBuf,
    lock: PathBuf,
}

impl StorePaths {
    fn new(dir: &Path) -> StorePaths {
        StorePaths {
            dir: dir.to_path_buf(),
            data: dir.join("data.ndb"),
            ckpt_meta: dir.join("checkpoint.meta"),
            wal_dir: dir.join("wal"),
            lock: dir.join("LOCK"),
        }
    }
}

/// Acquire the exclusive database-directory lock. Without it, a second
/// process opening the same directory would run recovery against (and
/// truncate the page file of) a live instance.
fn acquire_dir_lock(path: &Path) -> StorageResult<fs::File> {
    let file = fs::OpenOptions::new()
        .create(true)
        .truncate(false)
        .write(true)
        .open(path)
        .map_err(|e| StorageError::Codec(format!("lock file {}: {e}", path.display())))?;
    match file.try_lock() {
        Ok(()) => Ok(file),
        Err(std::fs::TryLockError::WouldBlock) => Err(StorageError::Catalog(format!(
            "database directory is locked by another process ({})",
            path.display()
        ))),
        Err(std::fs::TryLockError::Error(e)) => Err(StorageError::Codec(format!(
            "lock file {}: {e}",
            path.display()
        ))),
    }
}

/// Application-level state recovered from the checkpoint + log, returned
/// to the layer above (the SQL/AI facade) for it to re-apply.
#[derive(Debug, Default)]
pub struct RecoveredApp {
    /// Opaque app snapshot from the manifest (model store + bindings).
    pub snapshot: Option<Vec<u8>>,
    /// Committed non-storage records after the checkpoint, in log order
    /// (model events, bindings, KV commits).
    pub records: Vec<WalRecord>,
}

/// Tables + WAL + checkpointing. Thread-safe; share via `Arc`.
pub struct DurableStore {
    pool: Arc<BufferPool>,
    registry: Arc<MetricsRegistry>,
    tables: RwLock<HashMap<String, Arc<Table>>>,
    wal: Option<Arc<Wal>>,
    disk: Option<Arc<FileDisk>>,
    paths: Option<StorePaths>,
    /// Exclusive directory lock, held for the store's lifetime.
    _dir_lock: Option<fs::File>,
    next_txn: AtomicU64,
    /// Mutations hold `read`; checkpoint holds `write` (quiesce).
    latch: RwLock<()>,
    /// Serializes apply+log per operation so replay order always equals
    /// apply order for conflicting DML (the per-op `latch` read guard is
    /// shared and cannot order concurrent writers).
    op_order: parking_lot::Mutex<()>,
    /// Open statement-level transactions; checkpoint waits for zero so a
    /// snapshot never captures a transaction's uncommitted prefix (which
    /// redo-only recovery could not undo).
    active_txns: std::sync::Mutex<u64>,
    quiesced: std::sync::Condvar,
}

impl DurableStore {
    /// An in-memory store with no durability (the seed's behavior).
    pub fn volatile(frames: usize) -> DurableStore {
        let registry = Arc::new(MetricsRegistry::new());
        let pool = Arc::new(BufferPool::new(Arc::new(DiskManager::new()), frames));
        pool.attach_metrics(
            registry.histogram("buffer.read_ns"),
            registry.histogram("buffer.write_ns"),
        );
        DurableStore {
            pool,
            registry,
            tables: RwLock::new(HashMap::new()),
            wal: None,
            disk: None,
            paths: None,
            _dir_lock: None,
            next_txn: AtomicU64::new(1),
            latch: RwLock::new(()),
            op_order: parking_lot::Mutex::new(()),
            active_txns: std::sync::Mutex::new(0),
            quiesced: std::sync::Condvar::new(),
        }
    }

    /// Open (or create) a durable store in `dir`, running crash recovery:
    /// restore the latest checkpoint snapshot, then redo committed log
    /// records. Returns the store plus the app-level recovered state.
    pub fn open(
        dir: impl Into<PathBuf>,
        opts: DurableStoreOptions,
    ) -> StorageResult<(DurableStore, RecoveredApp)> {
        let recovery_start = std::time::Instant::now();
        let dir = dir.into();
        fs::create_dir_all(&dir).map_err(|e| StorageError::Codec(format!("store dir: {e}")))?;
        let paths = StorePaths::new(&dir);
        let dir_lock = acquire_dir_lock(&paths.lock)?;

        // 1. Restore the checkpoint image (or start fresh).
        let manifest = read_manifest(&paths.ckpt_meta);
        let (ckpt_lsn, next_txn_floor, app_snapshot, table_manifests) = match &manifest {
            Some(m) => {
                fs::copy(paths.dir.join(&m.image), &paths.data)
                    .map_err(|e| StorageError::Codec(format!("restore checkpoint: {e}")))?;
                (
                    m.ckpt_lsn,
                    m.next_txn,
                    Some(m.app_snapshot.clone()),
                    m.tables.clone(),
                )
            }
            None => {
                // No checkpoint: the entire state replays from LSN 0, so
                // whatever the old data file holds is dead weight.
                let _ = fs::remove_file(&paths.data);
                (0, 1, None, Vec::new())
            }
        };

        // 2. Page file + buffer pool + manifest tables.
        let disk = Arc::new(FileDisk::open(&paths.data)?);
        let frames = if opts.frames == 0 { 4096 } else { opts.frames };
        let pool = Arc::new(BufferPool::new(disk.clone(), frames));
        pool.attach_metrics(
            opts.registry.histogram("buffer.read_ns"),
            opts.registry.histogram("buffer.write_ns"),
        );
        let mut tables: HashMap<String, Arc<Table>> = HashMap::new();
        for tm in &table_manifests {
            let t = Arc::new(Table::with_heap_pages(
                tm.name.clone(),
                tm.schema.clone(),
                pool.clone(),
                tm.pages.clone(),
            ));
            for &col in &tm.indexed_cols {
                t.create_index(col as usize)?;
            }
            tables.insert(tm.name.clone(), t);
        }

        // 3. Open the log and redo committed records after the checkpoint.
        //    One walk over the segment files both finds the valid end of
        //    the log (truncating any torn tail so appends continue there)
        //    and collects the replay records — recovery no longer re-scans.
        let wal_opts = WalOptions {
            metrics: WalMetrics {
                fsync_ns: opts.registry.histogram("wal.fsync_ns"),
                group_batch_records: opts.registry.histogram("wal.group_batch_records"),
                segment_rotations: opts.registry.counter("wal.segment_rotations"),
            },
            ..opts.wal
        };
        let (wal, log) = Wal::open_with_records(&paths.wal_dir, wal_opts, ckpt_lsn)?;
        let mut committed: HashSet<u64> = HashSet::new();
        committed.insert(SYSTEM_TXN);
        let mut max_txn = 0;
        for (_, rec) in &log {
            max_txn = max_txn.max(rec.txn());
            if let WalRecord::TxnCommit { txn } = rec {
                committed.insert(*txn);
            }
        }
        let mut app = RecoveredApp {
            snapshot: app_snapshot,
            records: Vec::new(),
        };
        // Original rid -> replayed rid, for post-checkpoint inserts that
        // land in different slots than they originally did.
        let mut rid_map: HashMap<(String, RecordId), RecordId> = HashMap::new();
        for (_, rec) in log {
            if !committed.contains(&rec.txn()) {
                continue;
            }
            match rec {
                WalRecord::TxnBegin { .. }
                | WalRecord::TxnCommit { .. }
                | WalRecord::CheckpointEnd { .. } => {}
                WalRecord::CreateTable { table, schema, .. } => {
                    tables.insert(
                        table.clone(),
                        Arc::new(Table::new(table, schema, pool.clone())),
                    );
                }
                WalRecord::DropTable { table, .. } => {
                    tables.remove(&table);
                    // A recreated table with the same name starts a fresh
                    // rid space; stale translations must not redirect its
                    // records.
                    rid_map.retain(|(t, _), _| t != &table);
                }
                WalRecord::CreateIndex { table, col, .. } => {
                    let t = tables.get(&table).ok_or_else(|| replay_err(&table))?;
                    t.create_index(col as usize)?;
                }
                WalRecord::HeapInsert {
                    table, rid, tuple, ..
                } => {
                    let t = tables.get(&table).ok_or_else(|| replay_err(&table))?;
                    let decoded = Tuple::decode(&tuple, &t.schema.types())?;
                    let new_rid = t.insert(decoded)?;
                    if new_rid != rid {
                        rid_map.insert((table, rid), new_rid);
                    }
                }
                WalRecord::HeapUpdate {
                    table, rid, tuple, ..
                } => {
                    let t = tables.get(&table).ok_or_else(|| replay_err(&table))?;
                    let decoded = Tuple::decode(&tuple, &t.schema.types())?;
                    let rid = rid_map.get(&(table, rid)).copied().unwrap_or(rid);
                    t.update(rid, decoded)?;
                }
                WalRecord::HeapDelete { table, rid, .. } => {
                    let t = tables.get(&table).ok_or_else(|| replay_err(&table))?;
                    let rid = rid_map.get(&(table, rid)).copied().unwrap_or(rid);
                    t.delete(rid)?;
                }
                rec @ (WalRecord::ModelRegister { .. }
                | WalRecord::ModelSaveFull { .. }
                | WalRecord::ModelSaveIncremental { .. }
                | WalRecord::ModelBind { .. }) => {
                    app.records.push(rec);
                }
            }
        }

        // 4. Log appends continue after the valid tail found above.
        opts.registry
            .gauge("wal.recovery_replay_ns")
            .set(recovery_start.elapsed().as_nanos() as f64);
        let store = DurableStore {
            pool,
            registry: opts.registry,
            tables: RwLock::new(tables),
            wal: Some(wal),
            disk: Some(disk),
            paths: Some(paths),
            _dir_lock: Some(dir_lock),
            next_txn: AtomicU64::new(next_txn_floor.max(max_txn + 1)),
            latch: RwLock::new(()),
            op_order: parking_lot::Mutex::new(()),
            active_txns: std::sync::Mutex::new(0),
            quiesced: std::sync::Condvar::new(),
        };
        Ok((store, app))
    }

    // ------------------------- transactions -------------------------

    /// Start a transaction (one statement or one user transaction's
    /// write set in the SQL facade). Every `begin` must be paired with a
    /// `commit` or `commit_nowait`, or checkpoints will wait forever for
    /// the transaction to finish.
    pub fn begin(&self) -> u64 {
        let txn = self.next_txn.fetch_add(1, Ordering::Relaxed);
        *self.active_txns.lock().unwrap() += 1;
        self.log(&WalRecord::TxnBegin { txn });
        txn
    }

    fn finish_txn(&self) {
        let mut active = self.active_txns.lock().unwrap();
        *active -= 1;
        if *active == 0 {
            self.quiesced.notify_all();
        }
    }

    /// Commit: append the commit record and wait until it is durable
    /// under the configured fsync policy.
    pub fn commit(&self, txn: u64) -> StorageResult<()> {
        let lsn = self.log(&WalRecord::TxnCommit { txn });
        // The txn is complete once its commit record is appended; the
        // durability wait below must not block a pending checkpoint.
        self.finish_txn();
        if let Some(lsn) = lsn {
            self.wal.as_ref().unwrap().commit(lsn)?;
        }
        Ok(())
    }

    /// Commit without waiting for durability: append the commit record
    /// and return its LSN so the caller can release latches/locks first
    /// and `wait_durable` afterwards. Multi-statement transactions use
    /// this to keep the commit critical section short while still
    /// acknowledging only durable commits.
    pub fn commit_nowait(&self, txn: u64) -> Option<Lsn> {
        let lsn = self.log(&WalRecord::TxnCommit { txn });
        self.finish_txn();
        lsn
    }

    // --------------------------- catalog ----------------------------

    pub fn table(&self, name: &str) -> Option<Arc<Table>> {
        self.tables.read().get(name).cloned()
    }

    pub fn table_names(&self) -> Vec<String> {
        let mut v: Vec<String> = self.tables.read().keys().cloned().collect();
        v.sort();
        v
    }

    pub fn create_table(&self, txn: u64, name: &str, schema: Schema) -> StorageResult<Arc<Table>> {
        let _latch = self.latch.read();
        let _order = self.op_order.lock();
        let mut tables = self.tables.write();
        if tables.contains_key(name) {
            return Err(StorageError::Catalog(format!(
                "table '{name}' already exists"
            )));
        }
        let table = Arc::new(Table::new(name, schema.clone(), self.pool.clone()));
        tables.insert(name.to_string(), table.clone());
        drop(tables);
        self.log(&WalRecord::CreateTable {
            txn,
            table: name.to_string(),
            schema,
        });
        Ok(table)
    }

    pub fn drop_table(&self, txn: u64, name: &str) -> StorageResult<()> {
        let _latch = self.latch.read();
        let _order = self.op_order.lock();
        if self.tables.write().remove(name).is_none() {
            return Err(StorageError::Catalog(format!("unknown table '{name}'")));
        }
        self.log(&WalRecord::DropTable {
            txn,
            table: name.to_string(),
        });
        Ok(())
    }

    pub fn create_index(&self, txn: u64, name: &str, col: usize) -> StorageResult<()> {
        let _latch = self.latch.read();
        let _order = self.op_order.lock();
        let t = self.require(name)?;
        t.create_index(col)?;
        self.log(&WalRecord::CreateIndex {
            txn,
            table: name.to_string(),
            col: col as u32,
        });
        Ok(())
    }

    // ----------------------------- DML ------------------------------

    pub fn insert(&self, txn: u64, name: &str, tuple: Tuple) -> StorageResult<RecordId> {
        let _latch = self.latch.read();
        let _order = self.op_order.lock();
        let t = self.require(name)?;
        let encoded = tuple.encode(&t.schema.types())?;
        let rid = t.insert(tuple)?;
        self.log(&WalRecord::HeapInsert {
            txn,
            table: name.to_string(),
            rid,
            tuple: encoded.to_vec(),
        });
        Ok(rid)
    }

    pub fn update(&self, txn: u64, name: &str, rid: RecordId, tuple: Tuple) -> StorageResult<()> {
        let _latch = self.latch.read();
        let _order = self.op_order.lock();
        let t = self.require(name)?;
        let encoded = tuple.encode(&t.schema.types())?;
        t.update(rid, tuple)?;
        self.log(&WalRecord::HeapUpdate {
            txn,
            table: name.to_string(),
            rid,
            tuple: encoded.to_vec(),
        });
        Ok(())
    }

    pub fn delete(&self, txn: u64, name: &str, rid: RecordId) -> StorageResult<()> {
        let _latch = self.latch.read();
        let _order = self.op_order.lock();
        let t = self.require(name)?;
        t.delete(rid)?;
        self.log(&WalRecord::HeapDelete {
            txn,
            table: name.to_string(),
            rid,
        });
        Ok(())
    }

    // ------------------- app records & durability --------------------

    /// Append an application record (model events, bindings, KV
    /// commits). Returns its end LSN, or `None` on a volatile store.
    pub fn append_record(&self, record: &WalRecord) -> Option<Lsn> {
        let _latch = self.latch.read();
        self.log(record)
    }

    /// Append without taking the checkpoint quiesce latch. Used by the
    /// model-manager event sink, which runs under the model store's own
    /// write lock: taking the latch there would deadlock against a
    /// checkpoint holding the latch while snapshotting the model store.
    /// Safe because checkpoint recovery replays model events
    /// idempotently (events landing after the checkpoint LSN but inside
    /// the snapshot are skipped on replay).
    pub fn append_record_unlatched(&self, record: &WalRecord) -> Option<Lsn> {
        self.log(record)
    }

    /// Wait until `lsn` is durable (no-op on volatile stores).
    pub fn wait_durable(&self, lsn: Lsn) -> StorageResult<()> {
        match &self.wal {
            Some(wal) => wal.commit(lsn),
            None => Ok(()),
        }
    }

    /// Force the whole log to stable storage.
    pub fn sync(&self) -> StorageResult<()> {
        match &self.wal {
            Some(wal) => wal.sync(),
            None => Ok(()),
        }
    }

    fn log(&self, record: &WalRecord) -> Option<Lsn> {
        self.wal.as_ref().map(|w| w.append(record))
    }

    fn require(&self, name: &str) -> StorageResult<Arc<Table>> {
        self.table(name)
            .ok_or_else(|| StorageError::Catalog(format!("unknown table '{name}'")))
    }

    // -------------------------- checkpoint ---------------------------

    /// Write a checkpoint: quiesce mutations, flush all dirty pages,
    /// publish an atomic page-file snapshot + manifest (including the
    /// caller's opaque app snapshot, taken under the quiesce latch), and
    /// truncate log segments the snapshot supersedes.
    pub fn checkpoint(&self, app_snapshot: impl FnOnce() -> Vec<u8>) -> StorageResult<Lsn> {
        let (Some(wal), Some(paths), Some(_disk)) = (&self.wal, &self.paths, &self.disk) else {
            return Err(StorageError::Catalog(
                "checkpoint on a volatile store".into(),
            ));
        };
        // Quiesce: block new operations (write latch) and wait for open
        // statement transactions to finish, so the snapshot never holds a
        // transaction's uncommitted prefix. Under a sustained stream of
        // overlapping transactions this waits until a gap appears.
        let _latch = loop {
            let latch = self.latch.write();
            let active = self.active_txns.lock().unwrap();
            if *active == 0 {
                break latch;
            }
            drop(latch);
            let _unused = self.quiesced.wait(active).unwrap();
        };
        self.pool.flush_all_and_sync()?;
        wal.sync()?;
        let ckpt_lsn = wal.end_lsn();

        // Page-file snapshot, named by LSN. The manifest (published
        // atomically below) references this name, so a crash anywhere in
        // between leaves the previous manifest/image pair intact.
        let image = format!("checkpoint-{ckpt_lsn:016x}.ndb");
        let tmp_data = paths.dir.join(format!("{image}.tmp"));
        fs::copy(&paths.data, &tmp_data)
            .map_err(|e| StorageError::Codec(format!("checkpoint copy: {e}")))?;
        sync_file(&tmp_data)?;
        fs::rename(&tmp_data, paths.dir.join(&image))
            .map_err(|e| StorageError::Codec(format!("checkpoint publish: {e}")))?;

        // Manifest.
        let tables = self.tables.read();
        let mut manifests: Vec<TableManifest> = tables
            .values()
            .map(|t| TableManifest {
                name: t.name.clone(),
                schema: t.schema.clone(),
                pages: t.heap_page_ids(),
                indexed_cols: t.indexed_columns().iter().map(|c| *c as u32).collect(),
            })
            .collect();
        manifests.sort_by(|a, b| a.name.cmp(&b.name));
        drop(tables);
        let manifest = Manifest {
            ckpt_lsn,
            next_txn: self.next_txn.load(Ordering::Relaxed),
            image: image.clone(),
            app_snapshot: app_snapshot(),
            tables: manifests,
        };
        let tmp_meta = paths.ckpt_meta.with_extension("meta.tmp");
        fs::write(&tmp_meta, manifest.encode())
            .map_err(|e| StorageError::Codec(format!("manifest write: {e}")))?;
        sync_file(&tmp_meta)?;
        fs::rename(&tmp_meta, &paths.ckpt_meta)
            .map_err(|e| StorageError::Codec(format!("manifest publish: {e}")))?;
        // The image/manifest renames are only durable once the directory
        // entries are — fsync the directory before declaring success.
        crate::log::sync_dir(&paths.dir)?;

        // Note: no CheckpointEnd record is appended — the manifest is the
        // authoritative anchor, and appending here would make the record
        // stream depend on checkpoint timing (breaking the determinism
        // that crash-point tests rely on). The record type remains for
        // log-level tooling.
        wal.truncate_before(ckpt_lsn)?;
        // Old images are superseded once the manifest points elsewhere.
        if let Ok(entries) = fs::read_dir(&paths.dir) {
            for entry in entries.flatten() {
                let name = entry.file_name();
                let name = name.to_string_lossy();
                if name.starts_with("checkpoint-") && name.ends_with(".ndb") && *name != *image {
                    let _ = fs::remove_file(entry.path());
                }
            }
        }
        Ok(ckpt_lsn)
    }

    // ----------------------------- stats -----------------------------

    pub fn buffer_stats(&self) -> BufferStats {
        self.pool.stats()
    }

    pub fn wal_stats(&self) -> Option<WalStats> {
        self.wal.as_ref().map(|w| w.stats())
    }

    /// The registry this store's WAL and buffer metrics live in.
    pub fn metrics(&self) -> &Arc<MetricsRegistry> {
        &self.registry
    }

    /// Re-export point-in-time sources (buffer-pool counters, WAL stats)
    /// as gauges in the registry. The buffer pool and `WalStats` keep
    /// their own counters; mirroring them here at snapshot time keeps
    /// their hot paths untouched.
    pub fn refresh_metrics(&self) {
        let b = self.pool.stats();
        let r = &self.registry;
        r.gauge("buffer.hits").set(b.hits as f64);
        r.gauge("buffer.misses").set(b.misses as f64);
        r.gauge("buffer.evictions").set(b.evictions as f64);
        r.gauge("buffer.hit_ratio").set(b.hit_ratio());
        r.gauge("buffer.point_hit_ratio").set(b.point_hit_ratio());
        r.gauge("buffer.occupancy").set(b.occupancy());
        r.gauge("buffer.capacity").set(b.capacity as f64);
        r.gauge("buffer.resident").set(b.resident as f64);
        r.gauge("buffer.shards").set(self.pool.shard_count() as f64);
        for (i, s) in self.pool.shard_stats().iter().enumerate() {
            r.gauge(&format!("buffer.shard{i}.hits")).set(s.hits as f64);
            r.gauge(&format!("buffer.shard{i}.misses"))
                .set(s.misses as f64);
            r.gauge(&format!("buffer.shard{i}.evictions"))
                .set(s.evictions as f64);
            r.gauge(&format!("buffer.shard{i}.hit_ratio"))
                .set(s.hit_ratio());
        }
        if let Some(w) = self.wal_stats() {
            r.gauge("wal.appended_records")
                .set(w.appended_records as f64);
            r.gauge("wal.appended_bytes").set(w.appended_bytes as f64);
            r.gauge("wal.flushes").set(w.flushes as f64);
            r.gauge("wal.fsyncs").set(w.fsyncs as f64);
            r.gauge("wal.group_rides").set(w.group_rides as f64);
        }
    }

    pub fn pool(&self) -> &Arc<BufferPool> {
        &self.pool
    }

    pub fn is_durable(&self) -> bool {
        self.wal.is_some()
    }

    /// Crash injection passthrough (tests): see
    /// [`Wal::lose_after_records`]. No-op on volatile stores.
    pub fn lose_after_records(&self, n: u64, torn: bool) {
        if let Some(wal) = &self.wal {
            wal.lose_after_records(n, torn);
        }
    }
}

fn replay_err(table: &str) -> StorageError {
    StorageError::Catalog(format!("replay references unknown table '{table}'"))
}

fn sync_file(path: &Path) -> StorageResult<()> {
    fs::File::open(path)
        .and_then(|f| f.sync_all())
        .map_err(|e| StorageError::Codec(format!("fsync {}: {e}", path.display())))
}

// ----------------------------- manifest ------------------------------

#[derive(Debug, Clone)]
struct TableManifest {
    name: String,
    schema: Schema,
    pages: Vec<PageId>,
    indexed_cols: Vec<u32>,
}

struct Manifest {
    ckpt_lsn: Lsn,
    next_txn: u64,
    /// File name (within the database dir) of this checkpoint's page
    /// image. Naming the image in the manifest makes the
    /// image-then-manifest publish sequence atomic as a pair: until the
    /// manifest rename lands, recovery keeps using the old manifest with
    /// its old (still present) image.
    image: String,
    app_snapshot: Vec<u8>,
    tables: Vec<TableManifest>,
}

impl Manifest {
    fn encode(&self) -> Vec<u8> {
        let mut body = Writer::new();
        body.u64(self.ckpt_lsn);
        body.u64(self.next_txn);
        body.str(&self.image);
        body.bytes(&self.app_snapshot);
        body.u32(self.tables.len() as u32);
        for t in &self.tables {
            body.str(&t.name);
            write_schema(&mut body, &t.schema);
            body.u32(t.pages.len() as u32);
            for p in &t.pages {
                body.u64(*p);
            }
            body.u32(t.indexed_cols.len() as u32);
            for c in &t.indexed_cols {
                body.u32(*c);
            }
        }
        let body = body.into_bytes();
        let mut out = Vec::with_capacity(body.len() + 12);
        out.extend_from_slice(MANIFEST_MAGIC);
        out.extend_from_slice(&crc32(&body).to_le_bytes());
        out.extend_from_slice(&body);
        out
    }

    fn decode(bytes: &[u8]) -> Option<Manifest> {
        let rest = bytes.strip_prefix(MANIFEST_MAGIC.as_slice())?;
        let (crc_bytes, body) = rest.split_at_checked(4)?;
        let crc = u32::from_le_bytes(crc_bytes.try_into().ok()?);
        if crc32(body) != crc {
            return None;
        }
        let mut r = Reader(body);
        let ckpt_lsn = r.u64()?;
        let next_txn = r.u64()?;
        let image = r.str()?;
        let app_snapshot = r.bytes()?.to_vec();
        let n_tables = r.u32()? as usize;
        let mut tables = Vec::with_capacity(n_tables.min(1 << 16));
        for _ in 0..n_tables {
            let name = r.str()?;
            let schema = read_schema(&mut r)?;
            let n_pages = r.u32()? as usize;
            let mut pages = Vec::with_capacity(n_pages.min(1 << 20));
            for _ in 0..n_pages {
                pages.push(r.u64()?);
            }
            let n_idx = r.u32()? as usize;
            let mut indexed_cols = Vec::with_capacity(n_idx.min(1 << 12));
            for _ in 0..n_idx {
                indexed_cols.push(r.u32()?);
            }
            tables.push(TableManifest {
                name,
                schema,
                pages,
                indexed_cols,
            });
        }
        r.is_empty().then_some(Manifest {
            ckpt_lsn,
            next_txn,
            image,
            app_snapshot,
            tables,
        })
    }
}

fn read_manifest(path: &Path) -> Option<Manifest> {
    Manifest::decode(&fs::read(path).ok()?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::log::FsyncPolicy;
    use neurdb_storage::{ColumnDef, DataType, Value};
    use std::sync::atomic::AtomicU32;

    fn tmpdir(tag: &str) -> PathBuf {
        static N: AtomicU32 = AtomicU32::new(0);
        let d = std::env::temp_dir().join(format!(
            "neurdb-store-{tag}-{}-{}",
            std::process::id(),
            N.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = fs::remove_dir_all(&d);
        d
    }

    fn opts() -> DurableStoreOptions {
        DurableStoreOptions {
            frames: 64,
            wal: WalOptions {
                segment_bytes: 16 << 10,
                fsync: FsyncPolicy::Never,
                ..WalOptions::default()
            },
            ..Default::default()
        }
    }

    fn schema() -> Schema {
        Schema::new(vec![
            ColumnDef::new("id", DataType::Int).not_null().unique(),
            ColumnDef::new("name", DataType::Text),
            ColumnDef::new("score", DataType::Float),
        ])
    }

    fn row(id: i64, name: &str, score: f64) -> Tuple {
        Tuple::new(vec![
            Value::Int(id),
            Value::Text(name.into()),
            Value::Float(score),
        ])
    }

    fn sorted_rows(store: &DurableStore, table: &str) -> Vec<Tuple> {
        let mut rows: Vec<Tuple> = store
            .table(table)
            .unwrap()
            .scan()
            .unwrap()
            .into_iter()
            .map(|(_, t)| t)
            .collect();
        rows.sort_by(|a, b| format!("{a:?}").cmp(&format!("{b:?}")));
        rows
    }

    #[test]
    fn committed_work_survives_reopen_without_checkpoint() {
        let dir = tmpdir("basic");
        {
            let (store, _) = DurableStore::open(&dir, opts()).unwrap();
            let txn = store.begin();
            store.create_table(txn, "t", schema()).unwrap();
            for i in 0..100 {
                store.insert(txn, "t", row(i, "x", i as f64)).unwrap();
            }
            store.create_index(txn, "t", 0).unwrap();
            store.commit(txn).unwrap();
            // Crash: drop without checkpoint or clean shutdown.
        }
        let (store, app) = DurableStore::open(&dir, opts()).unwrap();
        assert!(app.snapshot.is_none());
        let t = store.table("t").unwrap();
        assert_eq!(t.len().unwrap(), 100);
        assert!(t.has_index(0));
        assert_eq!(t.lookup(0, &Value::Int(42)).unwrap().len(), 1);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn uncommitted_tail_is_absent_after_crash() {
        let dir = tmpdir("uncommitted");
        {
            let (store, _) = DurableStore::open(&dir, opts()).unwrap();
            let txn = store.begin();
            store.create_table(txn, "t", schema()).unwrap();
            for i in 0..10 {
                store.insert(txn, "t", row(i, "committed", 0.0)).unwrap();
            }
            store.commit(txn).unwrap();
            // Second txn never commits before the crash.
            let txn2 = store.begin();
            for i in 100..110 {
                store.insert(txn2, "t", row(i, "uncommitted", 0.0)).unwrap();
            }
            assert_eq!(store.table("t").unwrap().len().unwrap(), 20);
        }
        let (store, _) = DurableStore::open(&dir, opts()).unwrap();
        let rows = sorted_rows(&store, "t");
        assert_eq!(rows.len(), 10, "uncommitted inserts must not replay");
        assert!(rows
            .iter()
            .all(|r| r.get(1) == &Value::Text("committed".into())));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn checkpoint_restores_and_replays_tail() {
        let dir = tmpdir("ckpt");
        {
            let (store, _) = DurableStore::open(&dir, opts()).unwrap();
            let txn = store.begin();
            store.create_table(txn, "t", schema()).unwrap();
            store.create_index(txn, "t", 0).unwrap();
            for i in 0..50 {
                store.insert(txn, "t", row(i, "pre", i as f64)).unwrap();
            }
            store.commit(txn).unwrap();
            store.checkpoint(|| b"app-state".to_vec()).unwrap();
            // Post-checkpoint committed work.
            let txn = store.begin();
            for i in 50..80 {
                store.insert(txn, "t", row(i, "post", i as f64)).unwrap();
            }
            // Update and delete pre-checkpoint rows (identity rids).
            let t = store.table("t").unwrap();
            let hit = &t.lookup(0, &Value::Int(7)).unwrap()[0];
            store
                .update(txn, "t", hit.0, row(7, "updated", 7.5))
                .unwrap();
            let hit = &t.lookup(0, &Value::Int(8)).unwrap()[0];
            store.delete(txn, "t", hit.0).unwrap();
            store.commit(txn).unwrap();
        }
        let (store, app) = DurableStore::open(&dir, opts()).unwrap();
        assert_eq!(app.snapshot.as_deref(), Some(&b"app-state"[..]));
        let t = store.table("t").unwrap();
        assert_eq!(t.len().unwrap(), 79);
        assert_eq!(
            t.lookup(0, &Value::Int(7)).unwrap()[0].1.get(1),
            &Value::Text("updated".into())
        );
        assert!(t.lookup(0, &Value::Int(8)).unwrap().is_empty());
        assert_eq!(t.lookup(0, &Value::Int(75)).unwrap().len(), 1);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn crash_mid_txn_via_fault_injection() {
        let dir = tmpdir("fault");
        let committed_before_crash;
        {
            let (store, _) = DurableStore::open(&dir, opts()).unwrap();
            let txn = store.begin();
            store.create_table(txn, "t", schema()).unwrap();
            for i in 0..20 {
                store.insert(txn, "t", row(i, "a", 0.0)).unwrap();
            }
            store.commit(txn).unwrap();
            committed_before_crash = 20;
            // Lose everything after the first txn; keep operating.
            let records_so_far = store.wal_stats().unwrap().appended_records;
            store.lose_after_records(records_so_far, true);
            let txn = store.begin();
            for i in 20..40 {
                store.insert(txn, "t", row(i, "b", 0.0)).unwrap();
            }
            store.commit(txn).unwrap(); // "durable" per the doomed OS
            assert_eq!(store.table("t").unwrap().len().unwrap(), 40);
        }
        let (store, _) = DurableStore::open(&dir, opts()).unwrap();
        assert_eq!(
            store.table("t").unwrap().len().unwrap(),
            committed_before_crash,
            "post-crash-point txn must vanish"
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn ddl_replay_covers_drop_and_multiple_tables() {
        let dir = tmpdir("ddl");
        {
            let (store, _) = DurableStore::open(&dir, opts()).unwrap();
            let txn = store.begin();
            store.create_table(txn, "keep", schema()).unwrap();
            store.create_table(txn, "gone", schema()).unwrap();
            store.insert(txn, "keep", row(1, "k", 1.0)).unwrap();
            store.insert(txn, "gone", row(2, "g", 2.0)).unwrap();
            store.drop_table(txn, "gone").unwrap();
            store.commit(txn).unwrap();
        }
        let (store, _) = DurableStore::open(&dir, opts()).unwrap();
        assert_eq!(store.table_names(), vec!["keep".to_string()]);
        assert_eq!(store.table("keep").unwrap().len().unwrap(), 1);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn app_records_come_back_committed_only() {
        let dir = tmpdir("app");
        {
            let (store, _) = DurableStore::open(&dir, opts()).unwrap();
            store
                .append_record(&WalRecord::ModelRegister {
                    txn: SYSTEM_TXN,
                    mid: 1,
                    ts: 1,
                    spec: vec![1, 2, 3],
                    states: vec![vec![9; 32]],
                })
                .unwrap();
            let txn = store.begin();
            store
                .append_record(&WalRecord::ModelBind {
                    txn,
                    table: "t".into(),
                    target: "y".into(),
                    mid: 1,
                    meta: vec![],
                })
                .unwrap();
            // txn never commits -> its bind record must not replay.
            store.sync().unwrap();
        }
        let (_, app) = DurableStore::open(&dir, opts()).unwrap();
        assert_eq!(app.records.len(), 1);
        assert!(matches!(app.records[0], WalRecord::ModelRegister { .. }));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn drop_and_recreate_resets_rid_translation() {
        let dir = tmpdir("drop-recreate");
        {
            let (store, _) = DurableStore::open(&dir, opts()).unwrap();
            let txn = store.begin();
            store.create_table(txn, "t", schema()).unwrap();
            store.insert(txn, "t", row(1, "old", 1.0)).unwrap();
            store.commit(txn).unwrap();
            store.checkpoint(Vec::new).unwrap();
            // Post-checkpoint: grow the old incarnation (replay of these
            // inserts can land at shifted rids), then drop, recreate, and
            // update rows of the fresh incarnation by rid.
            let txn = store.begin();
            for i in 2..20 {
                store.insert(txn, "t", row(i, "old", 0.0)).unwrap();
            }
            store.drop_table(txn, "t").unwrap();
            store.create_table(txn, "t", schema()).unwrap();
            let rid = store.insert(txn, "t", row(100, "fresh", 0.5)).unwrap();
            store
                .update(txn, "t", rid, row(100, "updated", 0.9))
                .unwrap();
            store.commit(txn).unwrap();
        }
        let (store, _) = DurableStore::open(&dir, opts()).unwrap();
        let rows = sorted_rows(&store, "t");
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].get(1), &Value::Text("updated".into()));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn two_checkpoints_then_crash() {
        let dir = tmpdir("two-ckpt");
        {
            let (store, _) = DurableStore::open(&dir, opts()).unwrap();
            let txn = store.begin();
            store.create_table(txn, "t", schema()).unwrap();
            store.insert(txn, "t", row(1, "a", 1.0)).unwrap();
            store.commit(txn).unwrap();
            store.checkpoint(Vec::new).unwrap();
            let txn = store.begin();
            store.insert(txn, "t", row(2, "b", 2.0)).unwrap();
            store.commit(txn).unwrap();
            store.checkpoint(Vec::new).unwrap();
            let txn = store.begin();
            store.insert(txn, "t", row(3, "c", 3.0)).unwrap();
            store.commit(txn).unwrap();
        }
        let (store, _) = DurableStore::open(&dir, opts()).unwrap();
        assert_eq!(store.table("t").unwrap().len().unwrap(), 3);
        // And recovery is idempotent across another reopen.
        drop(store);
        let (store, _) = DurableStore::open(&dir, opts()).unwrap();
        assert_eq!(store.table("t").unwrap().len().unwrap(), 3);
        fs::remove_dir_all(&dir).unwrap();
    }
}
