//! Batches and the producer-thread stream (paper Section 4.1, "Data
//! Streaming Protocol").
//!
//! In the paper the AI runtime is a separate process, and the streaming
//! protocol ships encoded batches to it through a bounded window so data
//! preparation overlaps training (Fig. 6). Here the runtime runs inside
//! the database process, so a batch is a [`DataBatch`] passed by value or
//! by reference: the engine trains on any iterator of batches.
//!
//! [`stream_from_source`] keeps the window for the one case where a
//! producer has real preparation work to overlap with training (row
//! generation and feature encoding in the Fig. 6 harness): a producer
//! thread pulls batches from its source into a bounded channel whose
//! capacity is the window, and blocks when the window is full.

use crossbeam::channel::{bounded, Receiver};
use neurdb_nn::Matrix;
use std::thread::JoinHandle;

/// One training batch: features and targets.
#[derive(Debug, Clone, PartialEq)]
pub struct DataBatch {
    pub features: Matrix,
    pub targets: Matrix,
}

impl DataBatch {
    pub fn rows(&self) -> usize {
        self.features.rows
    }
}

/// Spawn a producer thread that pulls batches from `source` into a
/// channel holding at most `window` batches. Returns the receiving end
/// (train on `rx.iter()`) and the producer, which yields the number of
/// batches it sent.
pub fn stream_from_source(
    window: usize,
    source: impl Iterator<Item = DataBatch> + Send + 'static,
) -> (Receiver<DataBatch>, JoinHandle<usize>) {
    let (tx, rx) = bounded(window.max(1));
    let handle = std::thread::spawn(move || {
        let mut n = 0;
        for batch in source {
            if tx.send(batch).is_err() {
                break;
            }
            n += 1;
        }
        n
    });
    (rx, handle)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;
    use std::time::{Duration, Instant};

    fn batch(rows: usize, seed: f32) -> DataBatch {
        let features = Matrix::from_vec(rows, 3, (0..rows * 3).map(|i| seed + i as f32).collect());
        let targets = Matrix::from_vec(rows, 1, (0..rows).map(|i| seed - i as f32).collect());
        DataBatch { features, targets }
    }

    #[test]
    fn stream_delivers_in_order() {
        let (rx, producer) = stream_from_source(2, (0..10).map(|i| batch(4, i as f32)));
        let got: Vec<DataBatch> = rx.iter().collect();
        let want: Vec<DataBatch> = (0..10).map(|i| batch(4, i as f32)).collect();
        assert_eq!(got, want);
        assert_eq!(producer.join().unwrap(), 10);
    }

    #[test]
    fn window_applies_backpressure() {
        let pulled = Arc::new(AtomicUsize::new(0));
        let counter = pulled.clone();
        let source = (0..10).map(move |i| {
            counter.fetch_add(1, Ordering::SeqCst);
            batch(1, i as f32)
        });
        let (rx, producer) = stream_from_source(2, source);
        // Without a consumer the producer fills the window, pulls one more
        // batch and blocks sending it.
        let deadline = Instant::now() + Duration::from_secs(10);
        while pulled.load(Ordering::SeqCst) < 3 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        std::thread::sleep(Duration::from_millis(30));
        assert_eq!(pulled.load(Ordering::SeqCst), 3, "the send must block");
        assert_eq!(rx.iter().count(), 10);
        assert_eq!(producer.join().unwrap(), 10);
    }

    #[test]
    fn stream_from_source_counts() {
        let (rx, producer) = stream_from_source(4, (0..5).map(|i| batch(2, i as f32)));
        let mut n = 0;
        while rx.recv().is_ok() {
            n += 1;
        }
        assert_eq!(n, 5);
        assert_eq!(producer.join().unwrap(), 5);
    }
}
