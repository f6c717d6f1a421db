//! The multi-version transaction engine with pluggable CC policies.
//!
//! Keys are `u64`, values are `u64` (the CC experiments run over fixed
//! record sets — YCSB rows, TPC-C stock/balance counters — where the value
//! payload is irrelevant to concurrency behaviour). Each key holds a
//! version chain plus a reader/writer lock word; policies decide per
//! operation whether to lock, read a snapshot, buffer a write, or abort.

use crate::metrics::ContentionTracker;
use crate::policy::{CcPolicy, OpCtx, ReadDecision, ReadMode, WriteDecision, WriteMode};
use parking_lot::Mutex;
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Transaction identifier.
pub type TxnId = u64;
/// Logical commit timestamp.
pub type Ts = u64;

/// Errors surfaced to workload drivers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TxnError {
    /// The transaction must abort (conflict, deadlock timeout, policy
    /// decision, or SSI dangerous structure). Contains a reason tag.
    Abort(AbortReason),
    /// Key does not exist.
    KeyNotFound(u64),
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AbortReason {
    LockTimeout,
    /// Two shared holders of a key both asked to upgrade it: neither can
    /// get the lock while the other holds its share.
    UpgradeDeadlock,
    WriteConflict,
    ReadValidation,
    SsiDangerousStructure,
    PolicyChoice,
}

impl std::fmt::Display for TxnError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TxnError::Abort(r) => write!(f, "transaction aborted: {r:?}"),
            TxnError::KeyNotFound(k) => write!(f, "key {k} not found"),
        }
    }
}

impl std::error::Error for TxnError {}

#[derive(Debug, Clone, Copy)]
struct Version {
    ts: Ts,
    value: u64,
}

#[derive(Debug, Default)]
struct LockWord {
    /// Shared holders.
    shared: HashSet<TxnId>,
    /// Exclusive holder.
    exclusive: Option<TxnId>,
    /// A shared holder waiting to upgrade to exclusive. While it waits, no
    /// new transaction takes a shared lock, so the holders drain.
    upgrader: Option<TxnId>,
}

/// Answer to a lock request.
#[derive(Debug, PartialEq, Eq)]
enum Grant {
    Granted,
    Wait,
    /// The request waits on a transaction that waits on it.
    Deadlock,
}

impl LockWord {
    fn try_shared(&mut self, txn: TxnId) -> bool {
        let blocked = self.exclusive.is_some_and(|holder| holder != txn)
            || (self.upgrader.is_some_and(|u| u != txn) && !self.shared.contains(&txn));
        if !blocked {
            self.shared.insert(txn);
        }
        !blocked
    }

    fn try_exclusive(&mut self, txn: TxnId) -> Grant {
        if self.exclusive.is_some_and(|holder| holder != txn) {
            return Grant::Wait;
        }
        if self.shared.iter().any(|t| *t != txn) {
            if !self.shared.contains(&txn) {
                return Grant::Wait;
            }
            // An upgrade: two upgraders each wait for the other's share.
            if self.upgrader.is_some_and(|u| u != txn) {
                return Grant::Deadlock;
            }
            self.upgrader = Some(txn);
            return Grant::Wait;
        }
        self.exclusive = Some(txn);
        self.shared.remove(&txn);
        // Only a shared holder can be the upgrader, and `txn` is the last.
        self.upgrader = None;
        Grant::Granted
    }

    fn release(&mut self, txn: TxnId) {
        self.shared.remove(&txn);
        if self.exclusive == Some(txn) {
            self.exclusive = None;
        }
        if self.upgrader == Some(txn) {
            self.upgrader = None;
        }
    }
}

#[derive(Debug, Default)]
struct KeyState {
    versions: Vec<Version>,
    lock: LockWord,
    /// SSI SIREAD markers: transactions that read this key (kept while the
    /// reader is interesting to SSI, cleaned lazily).
    sireads: Vec<TxnId>,
}

impl KeyState {
    fn latest_committed(&self) -> Option<Version> {
        self.versions.last().copied()
    }

    fn visible_at(&self, ts: Ts) -> Option<Version> {
        self.versions.iter().rev().find(|v| v.ts <= ts).copied()
    }
}

struct Shard {
    map: Mutex<HashMap<u64, KeyState>>,
}

/// Per-transaction SSI flags in the global registry.
#[derive(Default)]
struct SsiFlags {
    in_conflict: AtomicBool,
    out_conflict: AtomicBool,
    finished: AtomicBool,
    /// Clock value when the transaction finished (0 while running). Used to
    /// decide whether a finished reader still *overlapped* a committing
    /// writer — rw-antidependency edges to overlapping committed readers
    /// still count (write-skew detection needs them).
    finish_ts: AtomicU64,
}

/// A transaction handle. Not `Sync` — owned by one worker thread.
pub struct Txn {
    pub id: TxnId,
    pub begin_ts: Ts,
    /// Hint used by the learned policy ("Txn Length" feature).
    pub len_hint: usize,
    /// Workload-assigned transaction type (Polyjuice feature).
    pub txn_type: u8,
    ops_done: usize,
    /// key -> version ts observed (for OCC validation).
    read_set: HashMap<u64, Ts>,
    /// key -> buffered value.
    write_buffer: HashMap<u64, u64>,
    /// Keys this txn holds locks on.
    locks: HashSet<u64>,
    /// Keys read under SSI (SIREAD markers to clean up).
    siread_keys: Vec<u64>,
    aborted: bool,
}

/// Engine configuration.
#[derive(Debug, Clone, Copy)]
pub struct EngineConfig {
    pub shards: usize,
    /// Lock-wait deadline before declaring deadlock-timeout.
    pub lock_timeout: Duration,
    /// Keep at most this many versions per key (GC).
    pub max_versions: usize,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            shards: 256,
            lock_timeout: Duration::from_millis(2),
            max_versions: 8,
        }
    }
}

/// The transaction engine.
pub struct TxnEngine {
    shards: Vec<Shard>,
    policy: Arc<dyn CcPolicy>,
    clock: AtomicU64,
    next_txn: AtomicU64,
    cfg: EngineConfig,
    pub metrics: ContentionTracker,
    /// SSI transaction registry, sharded by txn id to keep begin/commit
    /// off a single lock (PostgreSQL's SerializableXactHashLock is a known
    /// bottleneck; we shard rather than reproduce it).
    ssi: Vec<Mutex<HashMap<TxnId, Arc<SsiFlags>>>>,
}

const SSI_SHARDS: usize = 64;

impl TxnEngine {
    pub fn new(policy: Arc<dyn CcPolicy>, cfg: EngineConfig) -> Self {
        TxnEngine {
            shards: (0..cfg.shards)
                .map(|_| Shard {
                    map: Mutex::new(HashMap::new()),
                })
                .collect(),
            policy,
            clock: AtomicU64::new(1),
            next_txn: AtomicU64::new(1),
            cfg,
            metrics: ContentionTracker::new(),
            ssi: (0..SSI_SHARDS)
                .map(|_| Mutex::new(HashMap::new()))
                .collect(),
        }
    }

    fn ssi_shard(&self, id: TxnId) -> &Mutex<HashMap<TxnId, Arc<SsiFlags>>> {
        &self.ssi[(id as usize) % SSI_SHARDS]
    }

    fn ssi_flags(&self, id: TxnId) -> Option<Arc<SsiFlags>> {
        self.ssi_shard(id).lock().get(&id).cloned()
    }

    /// Swap the CC policy at runtime (used by the two-phase adaptation:
    /// candidate models are hot-swapped while the workload runs).
    pub fn set_policy(&mut self, policy: Arc<dyn CcPolicy>) {
        self.policy = policy;
    }

    pub fn policy_name(&self) -> &str {
        self.policy.name()
    }

    fn shard(&self, key: u64) -> &Shard {
        &self.shards[(key as usize) % self.shards.len()]
    }

    /// Load initial data without concurrency control.
    pub fn load(&self, key: u64, value: u64) {
        let ts = self.clock.fetch_add(1, Ordering::Relaxed);
        let mut m = self.shard(key).map.lock();
        let st = m.entry(key).or_default();
        st.versions.push(Version { ts, value });
    }

    /// Make `key` readable even if no transaction has ever written it: if
    /// the key has no versions, install a zero version at timestamp 0,
    /// visible to every snapshot. Callers that map externally-created
    /// objects (e.g. heap rows that predate the engine) onto engine keys
    /// use this before the first `read`, so the conflict bookkeeping works
    /// without a priming write.
    pub fn ensure(&self, key: u64) {
        let mut m = self.shard(key).map.lock();
        let st = m.entry(key).or_default();
        if st.versions.is_empty() {
            st.versions.push(Version { ts: 0, value: 0 });
        }
    }

    pub fn begin(&self) -> Txn {
        self.begin_with_hint(10)
    }

    /// Begin with a transaction-length hint (the learned CC feature).
    pub fn begin_with_hint(&self, len_hint: usize) -> Txn {
        self.begin_with_type(len_hint, 0)
    }

    /// Begin with both a length hint and a workload transaction type.
    pub fn begin_with_type(&self, len_hint: usize, txn_type: u8) -> Txn {
        let id = self.next_txn.fetch_add(1, Ordering::Relaxed);
        // Consume a timestamp so every later commit gets a strictly larger
        // ts than this snapshot (first-committer-wins relies on it).
        let begin_ts = self.clock.fetch_add(1, Ordering::Relaxed);
        if self.policy.ssi_checks() {
            self.ssi_shard(id)
                .lock()
                .insert(id, Arc::new(SsiFlags::default()));
        }
        Txn {
            id,
            begin_ts,
            len_hint,
            txn_type,
            ops_done: 0,
            read_set: HashMap::new(),
            write_buffer: HashMap::new(),
            locks: HashSet::new(),
            siread_keys: Vec::new(),
            aborted: false,
        }
    }

    fn op_ctx(&self, txn: &Txn, key: u64) -> OpCtx {
        let write_locked = {
            let m = self.shard(key).map.lock();
            m.get(&key)
                .map(|st| st.lock.exclusive.is_some_and(|h| h != txn.id))
                .unwrap_or(false)
        };
        OpCtx {
            key,
            ops_done: txn.ops_done,
            txn_len_hint: txn.len_hint,
            txn_type: txn.txn_type,
            contention: self.metrics.contention(key, write_locked),
        }
    }

    fn acquire(&self, txn: &mut Txn, key: u64, exclusive: bool) -> Result<(), TxnError> {
        let deadline = Instant::now() + self.cfg.lock_timeout;
        loop {
            {
                let mut m = self.shard(key).map.lock();
                let st = m.entry(key).or_default();
                let grant = if exclusive {
                    st.lock.try_exclusive(txn.id)
                } else if st.lock.try_shared(txn.id) {
                    Grant::Granted
                } else {
                    Grant::Wait
                };
                match grant {
                    Grant::Granted => {
                        txn.locks.insert(key);
                        return Ok(());
                    }
                    Grant::Deadlock => {
                        return Err(TxnError::Abort(AbortReason::UpgradeDeadlock));
                    }
                    Grant::Wait => {}
                }
            }
            if Instant::now() >= deadline {
                return Err(TxnError::Abort(AbortReason::LockTimeout));
            }
            std::thread::yield_now();
        }
    }

    /// Read `key` within `txn`.
    pub fn read(&self, txn: &mut Txn, key: u64) -> Result<u64, TxnError> {
        assert!(!txn.aborted, "use of aborted transaction");
        // Read-your-own-writes.
        if let Some(v) = txn.write_buffer.get(&key) {
            txn.ops_done += 1;
            return Ok(*v);
        }
        let ctx = self.op_ctx(txn, key);
        let decision = self.policy.read_decision(&ctx);
        txn.ops_done += 1;
        self.metrics.record_read(key);
        match decision {
            ReadDecision::Abort => {
                self.rollback_internal(txn, &[key]);
                Err(TxnError::Abort(AbortReason::PolicyChoice))
            }
            ReadDecision::Proceed(ReadMode::LockShared) => {
                if let Err(e) = self.acquire(txn, key, false) {
                    self.rollback_internal(txn, &[key]);
                    return Err(e);
                }
                let m = self.shard(key).map.lock();
                let st = m.get(&key).ok_or(TxnError::KeyNotFound(key))?;
                let v = st.latest_committed().ok_or(TxnError::KeyNotFound(key))?;
                txn.read_set.insert(key, v.ts);
                Ok(v.value)
            }
            ReadDecision::Proceed(ReadMode::Snapshot) => {
                let mut m = self.shard(key).map.lock();
                let st = m.get_mut(&key).ok_or(TxnError::KeyNotFound(key))?;
                let v = st
                    .visible_at(txn.begin_ts)
                    .or_else(|| st.latest_committed())
                    .ok_or(TxnError::KeyNotFound(key))?;
                txn.read_set.insert(key, v.ts);
                if self.policy.ssi_checks() {
                    // Bound the SIREAD list per key: under memory pressure
                    // PostgreSQL degrades SIREAD locks to coarser
                    // summaries; we drop the oldest markers, trading a
                    // sliver of precision for bounded commit-time work on
                    // hot keys.
                    if st.sireads.len() >= 256 {
                        st.sireads.remove(0);
                    }
                    st.sireads.push(txn.id);
                    txn.siread_keys.push(key);
                }
                Ok(v.value)
            }
        }
    }

    /// Write `key = value` within `txn`.
    pub fn write(&self, txn: &mut Txn, key: u64, value: u64) -> Result<(), TxnError> {
        assert!(!txn.aborted, "use of aborted transaction");
        let ctx = self.op_ctx(txn, key);
        let decision = self.policy.write_decision(&ctx);
        txn.ops_done += 1;
        self.metrics.record_write(key);
        match decision {
            WriteDecision::Abort => {
                self.rollback_internal(txn, &[key]);
                Err(TxnError::Abort(AbortReason::PolicyChoice))
            }
            WriteDecision::Proceed(WriteMode::LockExclusive) => {
                if let Err(e) = self.acquire(txn, key, true) {
                    self.rollback_internal(txn, &[key]);
                    return Err(e);
                }
                txn.write_buffer.insert(key, value);
                Ok(())
            }
            WriteDecision::Proceed(WriteMode::Buffer) => {
                txn.write_buffer.insert(key, value);
                Ok(())
            }
        }
    }

    /// Attempt to commit; on failure the transaction is rolled back.
    pub fn commit(&self, mut txn: Txn) -> Result<Ts, TxnError> {
        assert!(!txn.aborted, "use of aborted transaction");
        let write_keys: Vec<u64> = txn.write_buffer.keys().copied().collect();
        // Phase 1: lock the write set (keys not already locked).
        for &key in &write_keys {
            if !txn.locks.contains(&key) {
                if let Err(e) = self.acquire(&mut txn, key, true) {
                    self.rollback_internal(&mut txn, &write_keys);
                    return Err(e);
                }
            }
        }
        // Phase 2a: OCC backward validation — every read version must still
        // be the latest committed one.
        if self.policy.validate_reads() {
            for (&key, &seen_ts) in &txn.read_set {
                let m = self.shard(key).map.lock();
                if let Some(st) = m.get(&key) {
                    if let Some(latest) = st.latest_committed() {
                        if latest.ts != seen_ts {
                            drop(m);
                            self.rollback_internal(&mut txn, &[key]);
                            return Err(TxnError::Abort(AbortReason::ReadValidation));
                        }
                    }
                }
            }
        }
        // Phase 2b: snapshot-isolation first-committer-wins.
        if self.policy.ssi_checks() {
            for &key in &write_keys {
                let m = self.shard(key).map.lock();
                if let Some(st) = m.get(&key) {
                    if let Some(latest) = st.latest_committed() {
                        if latest.ts > txn.begin_ts {
                            drop(m);
                            self.rollback_internal(&mut txn, &[key]);
                            return Err(TxnError::Abort(AbortReason::WriteConflict));
                        }
                    }
                }
            }
            // Phase 2c: rw-antidependency bookkeeping. Writing a key that a
            // concurrent transaction read creates reader --rw--> me.
            let me = self.ssi_flags(txn.id);
            let mut my_in = false;
            for &key in &write_keys {
                let mut m = self.shard(key).map.lock();
                if let Some(st) = m.get_mut(&key) {
                    let begin_ts = txn.begin_ts;
                    // Collect reader flags first to keep lock scopes short.
                    let readers: Vec<TxnId> = st.sireads.clone();
                    let mut keep: Vec<TxnId> = Vec::with_capacity(readers.len());
                    for reader in readers {
                        if reader == txn.id {
                            keep.push(reader);
                            continue;
                        }
                        // A missing registry entry means it was GC'd:
                        // drop the stale marker.
                        if let Some(flags) = self.ssi_flags(reader) {
                            let finished = flags.finished.load(Ordering::Relaxed);
                            // An edge exists if the reader is active or
                            // finished *after* this txn began (overlap).
                            let overlaps =
                                !finished || flags.finish_ts.load(Ordering::Relaxed) >= begin_ts;
                            if overlaps {
                                flags.out_conflict.store(true, Ordering::Relaxed);
                                my_in = true;
                                // Keep the marker while the reader may
                                // still overlap writers that began
                                // before it finished; begin timestamps
                                // only grow, so a non-overlapping
                                // finished reader is dead.
                                keep.push(reader);
                            }
                        }
                    }
                    st.sireads = keep;
                }
            }
            if let Some(me) = &me {
                if my_in {
                    me.in_conflict.store(true, Ordering::Relaxed);
                }
                // Dangerous structure: this txn is a pivot with both
                // incoming and outgoing rw-antidependency edges.
                if me.in_conflict.load(Ordering::Relaxed) && me.out_conflict.load(Ordering::Relaxed)
                {
                    self.rollback_internal(&mut txn, &write_keys);
                    return Err(TxnError::Abort(AbortReason::SsiDangerousStructure));
                }
            }
        }
        // Phase 3: install versions at a fresh commit timestamp.
        let commit_ts = self.clock.fetch_add(1, Ordering::Relaxed);
        for (&key, &value) in &txn.write_buffer {
            let mut m = self.shard(key).map.lock();
            let st = m.entry(key).or_default();
            st.versions.push(Version {
                ts: commit_ts,
                value,
            });
            if st.versions.len() > self.cfg.max_versions {
                let cut = st.versions.len() - self.cfg.max_versions;
                st.versions.drain(..cut);
            }
        }
        self.finish(&mut txn, false);
        self.metrics.record_commit();
        Ok(commit_ts)
    }

    /// Roll back explicitly.
    pub fn abort(&self, mut txn: Txn) {
        let keys: Vec<u64> = txn.write_buffer.keys().copied().collect();
        self.rollback_internal(&mut txn, &keys);
    }

    fn rollback_internal(&self, txn: &mut Txn, conflict_keys: &[u64]) {
        if txn.aborted {
            return;
        }
        self.finish(txn, true);
        self.metrics.record_abort(conflict_keys);
        txn.aborted = true;
    }

    /// Release locks and mark the SSI registry entry finished. SIREAD
    /// markers are kept on *commit* (edges to committed-but-overlapping
    /// readers still matter for write-skew detection, as in PostgreSQL) and
    /// dropped eagerly on *abort*.
    fn finish(&self, txn: &mut Txn, clear_sireads: bool) {
        for &key in &txn.locks {
            let mut m = self.shard(key).map.lock();
            if let Some(st) = m.get_mut(&key) {
                st.lock.release(txn.id);
            }
        }
        txn.locks.clear();
        if self.policy.ssi_checks() {
            if clear_sireads {
                for &key in &txn.siread_keys {
                    let mut m = self.shard(key).map.lock();
                    if let Some(st) = m.get_mut(&key) {
                        st.sireads.retain(|t| *t != txn.id);
                    }
                }
            }
            let mut registry = self.ssi_shard(txn.id).lock();
            if let Some(flags) = registry.get(&txn.id) {
                flags
                    .finish_ts
                    .store(self.clock.load(Ordering::Relaxed), Ordering::Relaxed);
                flags.finished.store(true, Ordering::Relaxed);
            }
            // Opportunistic GC of long-finished entries in this shard.
            if registry.len() > 512 {
                let horizon = self.clock.load(Ordering::Relaxed).saturating_sub(10_000);
                registry.retain(|_, f| {
                    !f.finished.load(Ordering::Relaxed)
                        || f.finish_ts.load(Ordering::Relaxed) >= horizon
                });
            }
        }
    }

    /// Latest committed value (non-transactional peek, for tests/loaders).
    pub fn peek(&self, key: u64) -> Option<u64> {
        let m = self.shard(key).map.lock();
        m.get(&key)
            .and_then(|st| st.latest_committed())
            .map(|v| v.value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{Occ, Ssi, TwoPhaseLocking};

    fn engine(policy: Arc<dyn CcPolicy>) -> TxnEngine {
        TxnEngine::new(policy, EngineConfig::default())
    }

    #[test]
    fn ensure_makes_unwritten_keys_readable() {
        let e = engine(Arc::new(Occ));
        let mut t = e.begin();
        assert!(e.read(&mut t, 42).is_err(), "unknown key must not read");
        e.abort(t);
        e.ensure(42);
        let mut t = e.begin();
        assert_eq!(e.read(&mut t, 42).unwrap(), 0);
        e.write(&mut t, 42, 7).unwrap();
        e.commit(t).unwrap();
        // ensure() after a real write is a no-op.
        e.ensure(42);
        assert_eq!(e.peek(42), Some(7));
    }

    #[test]
    fn read_write_commit_2pl() {
        let e = engine(Arc::new(TwoPhaseLocking));
        e.load(1, 100);
        let mut t = e.begin();
        assert_eq!(e.read(&mut t, 1).unwrap(), 100);
        e.write(&mut t, 1, 200).unwrap();
        assert_eq!(e.read(&mut t, 1).unwrap(), 200, "read-your-writes");
        e.commit(t).unwrap();
        assert_eq!(e.peek(1), Some(200));
    }

    #[test]
    fn abort_discards_writes() {
        let e = engine(Arc::new(TwoPhaseLocking));
        e.load(1, 100);
        let mut t = e.begin();
        e.write(&mut t, 1, 999).unwrap();
        e.abort(t);
        assert_eq!(e.peek(1), Some(100));
    }

    #[test]
    fn write_write_conflict_times_out_under_2pl() {
        let e = engine(Arc::new(TwoPhaseLocking));
        e.load(1, 0);
        let mut t1 = e.begin();
        e.write(&mut t1, 1, 1).unwrap();
        let mut t2 = e.begin();
        let r = e.write(&mut t2, 1, 2);
        assert_eq!(r, Err(TxnError::Abort(AbortReason::LockTimeout)));
        e.commit(t1).unwrap();
        assert_eq!(e.peek(1), Some(1));
    }

    #[test]
    fn occ_validation_catches_stale_read() {
        let e = engine(Arc::new(Occ));
        e.load(1, 10);
        let mut t1 = e.begin();
        assert_eq!(e.read(&mut t1, 1).unwrap(), 10);
        // t2 sneaks in a write.
        let mut t2 = e.begin();
        e.write(&mut t2, 1, 20).unwrap();
        e.commit(t2).unwrap();
        // t1 writes based on the stale read; validation must fail.
        e.write(&mut t1, 2, 99).unwrap();
        let r = e.commit(t1);
        assert_eq!(r, Err(TxnError::Abort(AbortReason::ReadValidation)));
    }

    #[test]
    fn snapshot_reads_are_stable_under_ssi() {
        let e = engine(Arc::new(Ssi));
        e.load(1, 10);
        let mut t1 = e.begin();
        assert_eq!(e.read(&mut t1, 1).unwrap(), 10);
        let mut t2 = e.begin();
        e.write(&mut t2, 1, 20).unwrap();
        e.commit(t2).unwrap();
        // Snapshot read repeats the old value.
        assert_eq!(e.read(&mut t1, 1).unwrap(), 10);
        // t1 is read-only; it can commit fine.
        e.commit(t1).unwrap();
    }

    #[test]
    fn ssi_first_committer_wins() {
        let e = engine(Arc::new(Ssi));
        e.load(1, 0);
        let mut t1 = e.begin();
        let mut t2 = e.begin();
        e.write(&mut t1, 1, 1).unwrap();
        e.write(&mut t2, 1, 2).unwrap();
        e.commit(t1).unwrap();
        let r = e.commit(t2);
        assert_eq!(r, Err(TxnError::Abort(AbortReason::WriteConflict)));
        assert_eq!(e.peek(1), Some(1));
    }

    #[test]
    fn ssi_aborts_dangerous_structure() {
        // Classic write-skew: t1 reads x writes y; t2 reads y writes x.
        let e = engine(Arc::new(Ssi));
        e.load(1, 0); // x
        e.load(2, 0); // y
        let mut t1 = e.begin();
        let mut t2 = e.begin();
        e.read(&mut t1, 1).unwrap();
        e.read(&mut t2, 2).unwrap();
        e.write(&mut t1, 2, 1).unwrap();
        e.write(&mut t2, 1, 1).unwrap();
        let r1 = e.commit(t1);
        let r2 = e.commit(t2);
        assert!(
            r1.is_err() || r2.is_err(),
            "write skew must not fully commit under SSI: {r1:?} {r2:?}"
        );
    }

    #[test]
    fn concurrent_increments_are_serializable_under_2pl() {
        use std::thread;
        let e = Arc::new(TxnEngine::new(
            Arc::new(TwoPhaseLocking),
            EngineConfig {
                lock_timeout: Duration::from_micros(200),
                ..Default::default()
            },
        ));
        e.load(1, 0);
        let threads = 4;
        let per = 25;
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                let e = e.clone();
                thread::spawn(move || {
                    let mut done = 0;
                    while done < per {
                        let mut t = e.begin();
                        let v = match e.read(&mut t, 1) {
                            Ok(v) => v,
                            Err(_) => continue,
                        };
                        if e.write(&mut t, 1, v + 1).is_err() {
                            continue;
                        }
                        if e.commit(t).is_ok() {
                            done += 1;
                        }
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(e.peek(1), Some((threads * per) as u64));
    }

    #[test]
    fn second_upgrader_of_a_key_is_a_deadlock() {
        let mut lock = LockWord::default();
        assert!(lock.try_shared(1) && lock.try_shared(2));
        assert_eq!(lock.try_exclusive(1), Grant::Wait);
        assert_eq!(lock.try_exclusive(2), Grant::Deadlock);
        assert!(lock.try_shared(2), "a holder keeps its share");
        assert!(
            !lock.try_shared(3),
            "a pending upgrade admits no new reader"
        );
        lock.release(2);
        assert_eq!(lock.try_exclusive(1), Grant::Granted);
        lock.release(1);
        assert!(lock.try_shared(3) && lock.try_shared(4));
    }

    #[test]
    fn version_gc_bounds_chain_length() {
        let e = engine(Arc::new(TwoPhaseLocking));
        e.load(1, 0);
        for i in 0..100 {
            let mut t = e.begin();
            e.write(&mut t, 1, i).unwrap();
            e.commit(t).unwrap();
        }
        let m = e.shard(1).map.lock();
        assert!(m.get(&1).unwrap().versions.len() <= EngineConfig::default().max_versions);
    }

    #[test]
    fn metrics_track_commits_and_aborts() {
        let e = engine(Arc::new(TwoPhaseLocking));
        e.load(1, 0);
        let mut t = e.begin();
        e.write(&mut t, 1, 5).unwrap();
        e.commit(t).unwrap();
        assert_eq!(e.metrics.commits(), 1);
        let mut t1 = e.begin();
        e.write(&mut t1, 1, 6).unwrap();
        let mut t2 = e.begin();
        let _ = e.write(&mut t2, 1, 7); // times out -> abort recorded
        assert!(e.metrics.aborts() >= 1);
        e.commit(t1).unwrap();
    }
}
