//! Concurrency and equivalence suites for the sharded buffer pool:
//! deterministic multi-thread stress under capacity pressure, a
//! flush-then-reopen durability round trip over a real file disk, and
//! property tests checking the pool against a model under random access
//! traces.

use neurdb_storage::{AccessHint, BufferPool, DiskBackend, DiskManager, Page};
use proptest::prelude::*;
use std::sync::Arc;
use std::thread;
use std::time::Duration;

/// Each page stores one little-endian u64 counter in slot 0.
fn init_counter_pages(pool: &BufferPool, n: usize) -> Vec<u64> {
    (0..n)
        .map(|_| {
            let id = pool.allocate_page().unwrap();
            pool.with_page_mut(id, |p| p.insert(&0u64.to_le_bytes()).unwrap())
                .unwrap();
            id
        })
        .collect()
}

fn read_counter(pool: &BufferPool, id: u64) -> u64 {
    pool.with_page(id, |p| {
        u64::from_le_bytes(p.get(0).unwrap().try_into().unwrap())
    })
    .unwrap()
}

/// N threads doing mixed reads/writes/allocations across shards with the
/// pool far smaller than the page set: no increment may be lost, and a
/// final `flush_all` must land every counter on disk.
#[test]
fn concurrent_mixed_ops_lose_no_writes() {
    let disk = Arc::new(DiskManager::new());
    // 64 counter pages >> 8 frames: constant eviction.
    let pool = Arc::new(BufferPool::with_shards(disk.clone(), 8, 4));
    const THREADS: usize = 8;
    const PAGES_PER_THREAD: usize = 8;
    const INCREMENTS: usize = 320; // divisible by PAGES_PER_THREAD
    let pages = init_counter_pages(&pool, THREADS * PAGES_PER_THREAD);

    let handles: Vec<_> = (0..THREADS)
        .map(|t| {
            let pool = pool.clone();
            let mine: Vec<u64> = pages[t * PAGES_PER_THREAD..(t + 1) * PAGES_PER_THREAD].to_vec();
            let all = pages.clone();
            thread::spawn(move || {
                for i in 0..INCREMENTS {
                    // Write my own pages (disjoint ownership: the sum
                    // of increments is exact, not racy).
                    let target = mine[i % mine.len()];
                    pool.with_page_mut(target, |p| {
                        let v = u64::from_le_bytes(p.get(0).unwrap().try_into().unwrap());
                        p.update(0, &(v + 1).to_le_bytes()).unwrap();
                    })
                    .unwrap();
                    // Read somebody's page with a mixed hint and an
                    // occasional allocation, to churn the shards.
                    let other = all[(i * 7 + t * 13) % all.len()];
                    let hint = match i % 3 {
                        0 => AccessHint::Point,
                        1 => AccessHint::Sequential,
                        _ => AccessHint::Index,
                    };
                    pool.with_page_hint(other, hint, |p| p.live_count())
                        .unwrap();
                    if i % 97 == 0 {
                        pool.allocate_page().unwrap();
                    }
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }

    let expected = (INCREMENTS / PAGES_PER_THREAD) as u64;
    for &id in &pages {
        assert_eq!(
            read_counter(&pool, id),
            expected,
            "lost increment on page {id}"
        );
    }
    // Flush everything and verify the raw disk images agree.
    pool.flush_all().unwrap();
    assert_eq!(pool.dirty_count(), 0);
    for &id in &pages {
        let page = Page::from_bytes(&disk.read(id).unwrap()).unwrap();
        let v = u64::from_le_bytes(page.get(0).unwrap().try_into().unwrap());
        assert_eq!(v, expected, "stale flush of page {id}");
    }
}

/// A file disk whose writes from the thread named `flusher` start late:
/// it widens the window between `flush_all` copying a dirty page and
/// writing that copy, where an eviction can write newer bytes first.
struct SlowFlushDisk(neurdb_wal::FileDisk);

impl DiskBackend for SlowFlushDisk {
    fn allocate(&self) -> neurdb_storage::StorageResult<u64> {
        self.0.allocate()
    }
    fn read(&self, id: u64) -> neurdb_storage::StorageResult<Box<[u8]>> {
        self.0.read(id)
    }
    fn write(&self, id: u64, data: &[u8]) -> neurdb_storage::StorageResult<()> {
        if thread::current().name() == Some("flusher") {
            thread::sleep(Duration::from_micros(200));
        }
        self.0.write(id, data)
    }
    fn sync(&self) -> neurdb_storage::StorageResult<()> {
        self.0.sync()
    }
    fn num_pages(&self) -> usize {
        self.0.num_pages()
    }
    fn read_count(&self) -> u64 {
        self.0.read_count()
    }
    fn write_count(&self) -> u64 {
        self.0.write_count()
    }
}

/// Concurrent writers racing a concurrent flusher, then a reopen over the
/// same file disk: every committed increment must be on disk once the
/// last flush completes. Neither the flusher's off-latch writes nor an
/// eviction that writes a page back while the flusher still holds an
/// older copy of it may lose a write. The flusher's writes are slowed
/// and the scenario repeats, so the eviction race is hit every run.
#[test]
fn flush_race_then_reopen_over_file_disk() {
    const ROUNDS: usize = 5;
    const PAGES: usize = 24;
    const THREADS: usize = 4;
    const INCREMENTS: usize = 396; // divisible by PAGES / THREADS = 6 pages each
    let dir = std::env::temp_dir().join(format!("neurdb-bufstress-{}", std::process::id()));
    for round in 0..ROUNDS {
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("data.ndb");
        {
            let disk = Arc::new(SlowFlushDisk(neurdb_wal::FileDisk::open(&path).unwrap()));
            let pool = Arc::new(BufferPool::with_shards(disk, 6, 4));
            let pages = init_counter_pages(&pool, PAGES);
            let writers: Vec<_> = (0..THREADS)
                .map(|t| {
                    let pool = pool.clone();
                    let mine: Vec<u64> = pages.iter().copied().skip(t).step_by(THREADS).collect();
                    thread::spawn(move || {
                        for i in 0..INCREMENTS {
                            let target = mine[i % mine.len()];
                            pool.with_page_mut(target, |p| {
                                let v = u64::from_le_bytes(p.get(0).unwrap().try_into().unwrap());
                                p.update(0, &(v + 1).to_le_bytes()).unwrap();
                            })
                            .unwrap();
                        }
                    })
                })
                .collect();
            // Flush concurrently with the writers, repeatedly.
            let flusher = {
                let pool = pool.clone();
                thread::Builder::new()
                    .name("flusher".into())
                    .spawn(move || {
                        for _ in 0..20 {
                            pool.flush_all().unwrap();
                        }
                    })
                    .unwrap()
            };
            for w in writers {
                w.join().unwrap();
            }
            flusher.join().unwrap();
            // Quiesced final flush: everything must reach the file.
            pool.flush_all_and_sync().unwrap();
            assert_eq!(pool.dirty_count(), 0);
        }
        // Reopen the file with a fresh pool: no lost writes.
        let disk = Arc::new(neurdb_wal::FileDisk::open(&path).unwrap());
        let pool = BufferPool::new(disk, 16);
        let expected = (THREADS * INCREMENTS / PAGES) as u64;
        for id in 0..PAGES as u64 {
            assert_eq!(
                read_counter(&pool, id),
                expected,
                "round {round}: page {id} lost writes across reopen"
            );
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// One op of a single-threaded model trace.
#[derive(Debug, Clone)]
enum TraceOp {
    Read { page: usize, hint: u8 },
    Write { page: usize, value: u64 },
}

fn trace_strategy(pages: usize, len: usize) -> impl Strategy<Value = Vec<TraceOp>> {
    let op = prop_oneof![
        (0..pages, 0u8..3).prop_map(|(page, hint)| TraceOp::Read { page, hint }),
        (0..pages, any::<u64>()).prop_map(|(page, value)| TraceOp::Write { page, value }),
    ];
    proptest::collection::vec(op, 1..len)
}

proptest! {
    /// Against a `Vec<u64>` model: every read, in both shard geometries,
    /// returns the model's value under constant eviction pressure.
    #[test]
    fn policies_match_model_under_random_traces(trace in trace_strategy(20, 120)) {
        for shards in [1usize, 4] {
            let pool = BufferPool::with_shards(Arc::new(DiskManager::new()), 5, shards);
            let ids = init_counter_pages(&pool, 20);
            let mut model = [0u64; 20];
            for op in &trace {
                match *op {
                    TraceOp::Write { page, value } => {
                        model[page] = value;
                        pool.with_page_mut(ids[page], |p| {
                            p.update(0, &value.to_le_bytes()).unwrap()
                        }).unwrap();
                    }
                    TraceOp::Read { page, hint } => {
                        let hint = match hint {
                            0 => AccessHint::Point,
                            1 => AccessHint::Sequential,
                            _ => AccessHint::Index,
                        };
                        let got = pool.with_page_hint(ids[page], hint, |p| {
                            u64::from_le_bytes(p.get(0).unwrap().try_into().unwrap())
                        }).unwrap();
                        prop_assert_eq!(
                            got, model[page],
                            "shards {} page {}", shards, page
                        );
                    }
                }
            }
            // And the flushed images agree with the model too.
            pool.flush_all().unwrap();
            for (page, &id) in ids.iter().enumerate() {
                prop_assert_eq!(read_counter(&pool, id), model[page]);
            }
        }
    }
}
