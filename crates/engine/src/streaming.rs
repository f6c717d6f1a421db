//! The data streaming protocol between the database and AI runtimes
//! (paper Section 4.1, "Data Streaming Protocol").
//!
//! A dispatcher performs a *handshake* with the runtime to negotiate model
//! and streaming parameters (batch size, window size = batches in flight,
//! buffer sizes), then streams encoded batches through a bounded channel
//! whose capacity is the negotiated window. Because the channel is bounded
//! and the producer (data preparation: scan + encode) runs concurrently
//! with the consumer (training), data preparation overlaps computation —
//! the overlap is where NeurDB's latency advantage over the batch-loading
//! PostgreSQL+P baseline comes from (paper Fig. 6(a,b)).
//!
//! Batches are actually serialized to bytes and deserialized on the other
//! side, so the protocol pays a realistic per-byte cost rather than moving
//! pointers.

use bytes::{Buf, BufMut, BytesMut};
use crossbeam::channel::{bounded, Receiver, Sender};
use neurdb_nn::Matrix;
use std::thread::JoinHandle;

/// Streaming parameters negotiated at handshake.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StreamParams {
    /// Records per batch (paper default: 4096).
    pub batch_size: usize,
    /// Batches in flight between dispatcher and runtime (paper default: 80).
    pub window: usize,
}

impl Default for StreamParams {
    fn default() -> Self {
        StreamParams {
            batch_size: 4096,
            window: 80,
        }
    }
}

/// Handshake message: model + streaming parameters (paper lists model
/// structure/arguments/batch size and buffer sizes/batches-per-transmission).
#[derive(Debug, Clone, PartialEq)]
pub struct Handshake {
    pub model_descriptor: String,
    pub params: StreamParams,
}

/// One streamed batch: features and targets, encoded on the wire.
#[derive(Debug, Clone, PartialEq)]
pub struct DataBatch {
    pub features: Matrix,
    pub targets: Matrix,
}

impl DataBatch {
    /// Wire-encode the batch (length-prefixed f32 payloads).
    pub fn encode(&self) -> Vec<u8> {
        let mut buf =
            BytesMut::with_capacity(16 + 4 * (self.features.data.len() + self.targets.data.len()));
        for m in [&self.features, &self.targets] {
            buf.put_u32_le(m.rows as u32);
            buf.put_u32_le(m.cols as u32);
            for v in &m.data {
                buf.put_f32_le(*v);
            }
        }
        buf.to_vec()
    }

    /// Decode a batch from wire bytes.
    pub fn decode(bytes: &[u8]) -> DataBatch {
        let mut buf = bytes;
        let mut mats = Vec::with_capacity(2);
        for _ in 0..2 {
            let rows = buf.get_u32_le() as usize;
            let cols = buf.get_u32_le() as usize;
            let data: Vec<f32> = (0..rows * cols).map(|_| buf.get_f32_le()).collect();
            mats.push(Matrix::from_vec(rows, cols, data));
        }
        let targets = mats.pop().unwrap();
        let features = mats.pop().unwrap();
        DataBatch { features, targets }
    }

    pub fn rows(&self) -> usize {
        self.features.rows
    }
}

/// Producer half of a data stream. Dropping it ends the stream.
pub struct StreamSender {
    tx: Sender<Vec<u8>>,
}

impl StreamSender {
    /// Send a batch (blocking when the window is full — this backpressure
    /// is what bounds memory, one of the protocol's stated goals).
    pub fn send(&mut self, batch: &DataBatch) -> Result<(), &'static str> {
        self.tx
            .send(batch.encode())
            .map_err(|_| "stream receiver dropped")
    }
}

/// Consumer half of a data stream.
pub struct StreamReceiver {
    rx: Receiver<Vec<u8>>,
}

impl StreamReceiver {
    /// Blocking receive; `None` at end-of-stream.
    pub fn recv(&mut self) -> Option<DataBatch> {
        let bytes = self.rx.recv().ok()?;
        Some(DataBatch::decode(&bytes))
    }
}

/// Perform the handshake and open a stream with the negotiated window.
pub fn open_stream(handshake: &Handshake) -> (StreamSender, StreamReceiver) {
    let (tx, rx) = bounded(handshake.params.window.max(1));
    (StreamSender { tx }, StreamReceiver { rx })
}

/// Spawn a producer thread that pulls batches from `source` and streams
/// them; returns the receiver and the producer handle.
pub fn stream_from_source(
    handshake: &Handshake,
    source: impl Iterator<Item = DataBatch> + Send + 'static,
) -> (StreamReceiver, JoinHandle<usize>) {
    let (mut tx, rx) = open_stream(handshake);
    let handle = std::thread::spawn(move || {
        let mut n = 0;
        for batch in source {
            if tx.send(&batch).is_err() {
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

    fn batch(rows: usize, seed: f32) -> DataBatch {
        let features = Matrix::from_vec(rows, 3, (0..rows * 3).map(|i| seed + i as f32).collect());
        let targets = Matrix::from_vec(rows, 1, (0..rows).map(|i| seed - i as f32).collect());
        DataBatch { features, targets }
    }

    #[test]
    fn batch_wire_roundtrip() {
        let b = batch(7, 0.5);
        let decoded = DataBatch::decode(&b.encode());
        assert_eq!(b, decoded);
    }

    #[test]
    fn stream_delivers_in_order() {
        let hs = Handshake {
            model_descriptor: "test".into(),
            params: StreamParams {
                batch_size: 4,
                window: 2,
            },
        };
        let (mut tx, mut rx) = open_stream(&hs);
        let producer = std::thread::spawn(move || {
            for i in 0..10 {
                tx.send(&batch(4, i as f32)).unwrap();
            }
            drop(tx);
        });
        let mut got = 0;
        while let Some(b) = rx.recv() {
            assert_eq!(b.features.get(0, 0), got as f32);
            got += 1;
        }
        assert_eq!(got, 10);
        producer.join().unwrap();
    }

    #[test]
    fn window_applies_backpressure() {
        let hs = Handshake {
            model_descriptor: "bp".into(),
            params: StreamParams {
                batch_size: 1,
                window: 2,
            },
        };
        let (mut tx, mut rx) = open_stream(&hs);
        // Fill the window without a consumer: two sends succeed instantly.
        tx.send(&batch(1, 0.0)).unwrap();
        tx.send(&batch(1, 1.0)).unwrap();
        // A slow consumer drains everything after 30ms.
        let t = std::thread::spawn(move || {
            std::thread::sleep(std::time::Duration::from_millis(30));
            let mut n = 0;
            while rx.recv().is_some() {
                n += 1;
            }
            n
        });
        // The third send must block until the consumer frees a slot.
        let start = std::time::Instant::now();
        tx.send(&batch(1, 2.0)).unwrap();
        assert!(
            start.elapsed().as_millis() >= 20,
            "send should have blocked"
        );
        drop(tx);
        assert_eq!(t.join().unwrap(), 3);
    }

    #[test]
    fn stream_from_source_counts() {
        let hs = Handshake {
            model_descriptor: "src".into(),
            params: StreamParams {
                batch_size: 2,
                window: 4,
            },
        };
        let batches: Vec<DataBatch> = (0..5).map(|i| batch(2, i as f32)).collect();
        let (mut rx, handle) = stream_from_source(&hs, batches.into_iter());
        let mut n = 0;
        while rx.recv().is_some() {
            n += 1;
        }
        assert_eq!(n, 5);
        assert_eq!(handle.join().unwrap(), 5);
    }
}
