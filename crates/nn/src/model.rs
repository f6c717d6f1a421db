//! Layered models: the unit the paper's model manager stores and versions.
//!
//! A model is an ordered stack of layers `M(X) = L(n)(...L(1)(X))`
//! (Section 4.1). [`LayerSpec`] describes the architecture declaratively so
//! model storage can rebuild the stack and then load per-layer weight blobs
//! — which is exactly how incremental updates re-assemble a model version
//! from layers with different timestamps.

use crate::attention::MultiHeadAttention;
use crate::layer::{Embedding, Layer, LayerNorm, Linear, Relu, Sigmoid, Tanh};
use crate::loss::{bce_with_logits, mse, softmax_cross_entropy};
use crate::optim::{Adam, OptimConfig};
use crate::tensor::Matrix;
use rand::Rng;
use serde::{Deserialize, Serialize};
use std::borrow::Cow;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::ops::Range;

/// Declarative layer description; the model manager persists this next to
/// the weight blobs.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum LayerSpec {
    Linear {
        inputs: usize,
        outputs: usize,
    },
    Embedding {
        vocab: usize,
        dim: usize,
        nfields: usize,
    },
    Relu,
    Sigmoid,
    Tanh,
    LayerNorm {
        dim: usize,
    },
    MultiHeadAttention {
        dim: usize,
        heads: usize,
    },
}

impl LayerSpec {
    /// Append a compact wire encoding — used by the model manager's
    /// durable snapshots and the WAL's model-event records.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        use bytes::BufMut;
        match self {
            LayerSpec::Linear { inputs, outputs } => {
                out.put_u8(0);
                out.put_u64_le(*inputs as u64);
                out.put_u64_le(*outputs as u64);
            }
            LayerSpec::Embedding {
                vocab,
                dim,
                nfields,
            } => {
                out.put_u8(1);
                out.put_u64_le(*vocab as u64);
                out.put_u64_le(*dim as u64);
                out.put_u64_le(*nfields as u64);
            }
            LayerSpec::Relu => out.put_u8(2),
            LayerSpec::Sigmoid => out.put_u8(3),
            LayerSpec::Tanh => out.put_u8(4),
            LayerSpec::LayerNorm { dim } => {
                out.put_u8(5);
                out.put_u64_le(*dim as u64);
            }
            LayerSpec::MultiHeadAttention { dim, heads } => {
                out.put_u8(6);
                out.put_u64_le(*dim as u64);
                out.put_u64_le(*heads as u64);
            }
        }
    }

    /// Decode one spec from the front of `buf`; `None` on malformed input.
    pub fn decode(buf: &mut &[u8]) -> Option<Self> {
        use bytes::Buf;
        if buf.remaining() < 1 {
            return None;
        }
        let tag = buf.get_u8();
        let u = |buf: &mut &[u8]| -> Option<usize> {
            (buf.remaining() >= 8).then(|| buf.get_u64_le() as usize)
        };
        Some(match tag {
            0 => LayerSpec::Linear {
                inputs: u(buf)?,
                outputs: u(buf)?,
            },
            1 => LayerSpec::Embedding {
                vocab: u(buf)?,
                dim: u(buf)?,
                nfields: u(buf)?,
            },
            2 => LayerSpec::Relu,
            3 => LayerSpec::Sigmoid,
            4 => LayerSpec::Tanh,
            5 => LayerSpec::LayerNorm { dim: u(buf)? },
            6 => LayerSpec::MultiHeadAttention {
                dim: u(buf)?,
                heads: u(buf)?,
            },
            _ => return None,
        })
    }

    /// Encode an ordered spec stack.
    pub fn encode_stack(specs: &[LayerSpec]) -> Vec<u8> {
        use bytes::BufMut;
        let mut out = Vec::with_capacity(4 + specs.len() * 8);
        out.put_u32_le(specs.len() as u32);
        for s in specs {
            s.encode_into(&mut out);
        }
        out
    }

    /// Decode a spec stack produced by [`LayerSpec::encode_stack`].
    pub fn decode_stack(mut buf: &[u8]) -> Option<Vec<LayerSpec>> {
        use bytes::Buf;
        if buf.remaining() < 4 {
            return None;
        }
        let n = buf.get_u32_le() as usize;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(LayerSpec::decode(&mut buf)?);
        }
        Some(out)
    }

    /// Whether the layer computes each output row from its own input row
    /// alone. Attention is the one layer that does not: it mixes the rows
    /// of a sequence.
    pub fn is_row_wise(&self) -> bool {
        !matches!(self, LayerSpec::MultiHeadAttention { .. })
    }

    /// Instantiate the layer with fresh (random) weights.
    pub fn build(&self, rng: &mut impl Rng) -> Box<dyn Layer> {
        match self {
            LayerSpec::Linear { inputs, outputs } => Box::new(Linear::new(*inputs, *outputs, rng)),
            LayerSpec::Embedding {
                vocab,
                dim,
                nfields,
            } => Box::new(Embedding::new(*vocab, *dim, *nfields, rng)),
            LayerSpec::Relu => Box::new(Relu::new()),
            LayerSpec::Sigmoid => Box::new(Sigmoid::new()),
            LayerSpec::Tanh => Box::new(Tanh::new()),
            LayerSpec::LayerNorm { dim } => Box::new(LayerNorm::new(*dim)),
            LayerSpec::MultiHeadAttention { dim, heads } => {
                Box::new(MultiHeadAttention::new(*dim, *heads, rng))
            }
        }
    }
}

/// Loss function selector for [`Trainer`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LossKind {
    /// Mean squared error — `PREDICT VALUE OF` (regression).
    Mse,
    /// Binary cross-entropy on logits — `PREDICT CLASS OF` with 2 classes.
    Bce,
    /// Softmax cross-entropy; targets are class indexes in column 0.
    CrossEntropy,
}

/// A sequential stack of layers.
pub struct Model {
    pub spec: Vec<LayerSpec>,
    layers: Vec<Box<dyn Layer>>,
}

impl std::fmt::Debug for Model {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Model[{}]", self.describe())
    }
}

impl Model {
    pub fn from_spec(spec: Vec<LayerSpec>, rng: &mut impl Rng) -> Self {
        let layers = spec.iter().map(|s| s.build(rng)).collect();
        Model { spec, layers }
    }

    pub fn num_layers(&self) -> usize {
        self.layers.len()
    }

    pub fn param_count(&self) -> usize {
        self.layers.iter().map(|l| l.param_count()).sum()
    }

    pub fn forward(&mut self, input: &Matrix) -> Matrix {
        self.forward_from(0, input)
    }

    /// Forward through layers `from..` only: `input` is what layer
    /// `from - 1` would output. Layers before `from` neither run nor
    /// cache anything.
    pub fn forward_from(&mut self, from: usize, input: &Matrix) -> Matrix {
        self.forward_range(from..self.layers.len(), input)
    }

    /// Forward through `layers`. With no layers the output is a copy of
    /// `input`; otherwise the input is only borrowed.
    fn forward_range(&mut self, layers: Range<usize>, input: &Matrix) -> Matrix {
        let Some((first, rest)) = self.layers[layers].split_first_mut() else {
            return input.clone();
        };
        let mut x = first.forward(input);
        for layer in rest {
            x = layer.forward(&x);
        }
        x
    }

    /// Backward through layers `from..`, last to first; gradients
    /// accumulate in each of them. Layers before `from` get no gradient,
    /// which is all a frozen prefix needs. `from = 0` is full backprop.
    pub fn backward(&mut self, from: usize, grad_out: &Matrix) {
        let mut layers = self.layers[from..].iter_mut().rev();
        let Some(last) = layers.next() else { return };
        let mut g = last.backward(grad_out);
        for layer in layers {
            g = layer.backward(&g);
        }
    }

    /// Zero the gradients of layers `from..`.
    pub fn zero_grad(&mut self, from: usize) {
        for layer in &mut self.layers[from..] {
            layer.zero_grad();
        }
    }

    /// Parameter slices of layers `from..` (used to freeze a prefix).
    pub fn params_from(&mut self, from: usize) -> Vec<&mut [f32]> {
        self.layers[from..]
            .iter_mut()
            .flat_map(|l| l.params())
            .collect()
    }

    pub fn grads_from(&mut self, from: usize) -> Vec<&mut [f32]> {
        self.layers[from..]
            .iter_mut()
            .flat_map(|l| l.grads())
            .collect()
    }

    /// Serialize each layer's weights.
    pub fn layer_states(&self) -> Vec<Vec<u8>> {
        self.layers.iter().map(|l| l.state()).collect()
    }

    /// Load one layer's weights.
    pub fn load_layer_state(&mut self, idx: usize, bytes: &[u8]) {
        self.layers[idx].load_state(bytes);
    }

    /// Load all layers' weights.
    pub fn load_states(&mut self, states: &[Vec<u8>]) {
        assert_eq!(states.len(), self.layers.len(), "layer count mismatch");
        for (i, s) in states.iter().enumerate() {
            self.layers[i].load_state(s);
        }
    }

    pub fn describe(&self) -> String {
        self.layers
            .iter()
            .map(|l| l.describe())
            .collect::<Vec<_>>()
            .join(" -> ")
    }
}

/// The frozen prefix's output, memoized by input row.
///
/// While a prefix is frozen its weights do not change, so the output of a
/// row-wise prefix is a pure function of the input row's bits: a row that
/// repeats, within a batch or across batches, runs the prefix once. Each
/// row-wise layer computes every row alone and in the same summation
/// order, so a memoized row has the same bits as a recomputed one.
/// Memory per distinct row: its prefix output (width × 4 bytes), its input
/// row, and a 16-byte slot.
#[derive(Default)]
struct PrefixMemo {
    /// Hash of an input row's bits -> its (sub-batch, row) in `subs`. A
    /// row whose hash is taken by a different row is not memoized.
    slots: HashMap<u64, (u32, u32), BuildHasherDefault<PassThrough>>,
    /// Each sub-batch of new rows the prefix ran on, and its output.
    subs: Vec<(Matrix, Matrix)>,
}

impl PrefixMemo {
    /// Layers `..to` of `model` applied to `input`: rows not seen before
    /// run through the prefix as one sub-batch, the rest come from the memo.
    fn forward_prefix(&mut self, model: &mut Model, to: usize, input: &Matrix) -> Cow<'_, Matrix> {
        let new = self.subs.len() as u32;
        let mut slot_of = Vec::with_capacity(input.rows);
        let mut fresh = Vec::new();
        for r in 0..input.rows {
            let row = input.row(r);
            let hash = row_hash(row);
            let seen = self.slots.get(&hash).copied().filter(|&(sub, i)| {
                let seen = if sub == new {
                    input.row(fresh[i as usize])
                } else {
                    self.subs[sub as usize].0.row(i as usize)
                };
                seen.iter()
                    .zip(row)
                    .all(|(a, b)| a.to_bits() == b.to_bits())
            });
            let slot = seen.unwrap_or_else(|| {
                let slot = (new, fresh.len() as u32);
                self.slots.entry(hash).or_insert(slot);
                fresh.push(r);
                slot
            });
            slot_of.push(slot);
        }
        if fresh.len() == input.rows {
            // Every row is new and distinct: the sub-batch is the batch.
            let out = model.forward_range(0..to, input);
            self.subs.push((input.clone(), out));
            return Cow::Borrowed(&self.subs[new as usize].1);
        }
        if !fresh.is_empty() {
            let mut rows = Vec::with_capacity(fresh.len() * input.cols);
            for &r in &fresh {
                rows.extend_from_slice(input.row(r));
            }
            let rows = Matrix::from_vec(fresh.len(), input.cols, rows);
            let out = model.forward_range(0..to, &rows);
            self.subs.push((rows, out));
        }
        let width = self.subs[0].1.cols;
        let mut data = Vec::with_capacity(input.rows * width);
        for (sub, i) in slot_of {
            data.extend_from_slice(self.subs[sub as usize].1.row(i as usize));
        }
        Cow::Owned(Matrix::from_vec(input.rows, width, data))
    }
}

/// A row's `f32` bit patterns hashed by the multiply-rotate step of
/// rustc's `FxHasher`, then the MurmurHash3 finalizer so that the low
/// bits the map buckets by depend on every field.
fn row_hash(row: &[f32]) -> u64 {
    let mut h = row.iter().fold(0u64, |h, v| {
        (h.rotate_left(5) ^ u64::from(v.to_bits())).wrapping_mul(0x517c_c1b7_2722_0a95)
    });
    h ^= h >> 33;
    h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
    h ^= h >> 33;
    h = h.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    h ^ (h >> 33)
}

/// The memo's map keys are [`row_hash`]es already; hash them to
/// themselves.
#[derive(Default)]
struct PassThrough(u64);

impl Hasher for PassThrough {
    fn write(&mut self, _: &[u8]) {
        unreachable!("memo keys are u64 hashes")
    }

    fn write_u64(&mut self, hash: u64) {
        self.0 = hash;
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// Couples a model with an Adam optimizer and a loss, handling layer
/// freezing for incremental updates.
pub struct Trainer {
    pub model: Model,
    pub loss: LossKind,
    opt: Adam,
    frozen_prefix: usize,
    /// Frozen-prefix outputs seen so far; empty unless the prefix is
    /// frozen and row-wise. Freed with the trainer.
    memo: PrefixMemo,
}

impl Trainer {
    pub fn new(model: Model, loss: LossKind, cfg: OptimConfig) -> Self {
        Trainer {
            model,
            loss,
            opt: Adam::new(cfg),
            frozen_prefix: 0,
            memo: PrefixMemo::default(),
        }
    }

    /// Freeze the first `n` layers: their weights stop updating. This is
    /// the mechanism behind the paper's incremental model update — only the
    /// trailing layers are fine-tuned and persisted as a new version.
    ///
    /// Also drops the memo of frozen-prefix outputs, so call it again
    /// after loading new weights into a frozen layer through `model`.
    pub fn set_frozen_prefix(&mut self, n: usize) {
        assert!(n <= self.model.num_layers());
        self.memo = PrefixMemo::default();
        if n != self.frozen_prefix {
            self.frozen_prefix = n;
            self.opt.reset();
        }
    }

    pub fn frozen_prefix(&self) -> usize {
        self.frozen_prefix
    }

    /// One SGD step on a batch. For [`LossKind::CrossEntropy`], `target`
    /// column 0 holds class indexes. Returns the loss. Only the unfrozen
    /// layers run backward, and a frozen prefix of row-wise layers runs
    /// forward once per distinct input row of the fine-tune (see
    /// [`PrefixMemo`]): a fine-tune pays for the layers it trains.
    pub fn train_batch(&mut self, input: &Matrix, target: &Matrix) -> f32 {
        let from = self.frozen_prefix;
        let pred = if from > 0 && self.model.spec[..from].iter().all(LayerSpec::is_row_wise) {
            let prefix_out = self.memo.forward_prefix(&mut self.model, from, input);
            self.model.forward_from(from, &prefix_out)
        } else {
            self.model.forward(input)
        };
        let (loss, grad) = match self.loss {
            LossKind::Mse => mse(&pred, target),
            LossKind::Bce => bce_with_logits(&pred, target),
            LossKind::CrossEntropy => {
                let labels: Vec<usize> = (0..target.rows)
                    .map(|r| target.get(r, 0).max(0.0) as usize)
                    .collect();
                softmax_cross_entropy(&pred, &labels)
            }
        };
        self.model.zero_grad(from);
        self.model.backward(from, &grad);
        // `params_from` and `grads_from` both borrow the model mutably, so
        // snapshot the gradients into owned buffers first.
        let mut grads_owned: Vec<Vec<f32>> = self
            .model
            .grads_from(from)
            .iter()
            .map(|g| g.to_vec())
            .collect();
        let mut params = self.model.params_from(from);
        let mut grads_refs: Vec<&mut [f32]> =
            grads_owned.iter_mut().map(|g| g.as_mut_slice()).collect();
        self.opt.step(&mut params, &mut grads_refs);
        loss
    }

    /// Evaluate loss without updating weights.
    pub fn eval_batch(&mut self, input: &Matrix, target: &Matrix) -> f32 {
        let pred = self.model.forward(input);
        match self.loss {
            LossKind::Mse => mse(&pred, target).0,
            LossKind::Bce => bce_with_logits(&pred, target).0,
            LossKind::CrossEntropy => {
                let labels: Vec<usize> = (0..target.rows)
                    .map(|r| target.get(r, 0).max(0.0) as usize)
                    .collect();
                softmax_cross_entropy(&pred, &labels).0
            }
        }
    }

    pub fn predict(&mut self, input: &Matrix) -> Matrix {
        self.model.forward(input)
    }
}

/// A standard MLP spec: `dims[0] -> dims[1] -> ... -> dims.last()` with
/// ReLU between hidden layers.
pub fn mlp_spec(dims: &[usize]) -> Vec<LayerSpec> {
    assert!(dims.len() >= 2);
    let mut spec = Vec::new();
    for i in 0..dims.len() - 1 {
        spec.push(LayerSpec::Linear {
            inputs: dims[i],
            outputs: dims[i + 1],
        });
        if i + 2 < dims.len() {
            spec.push(LayerSpec::Relu);
        }
    }
    spec
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(42)
    }

    /// y = 2a - b as a regression task.
    fn toy_batch(rng: &mut impl Rng, n: usize) -> (Matrix, Matrix) {
        let mut x = Matrix::zeros(n, 2);
        let mut y = Matrix::zeros(n, 1);
        for r in 0..n {
            let a: f32 = rng.gen_range(-1.0..1.0);
            let b: f32 = rng.gen_range(-1.0..1.0);
            x.set(r, 0, a);
            x.set(r, 1, b);
            y.set(r, 0, 2.0 * a - b);
        }
        (x, y)
    }

    #[test]
    fn mlp_learns_linear_function() {
        let mut rng = rng();
        let model = Model::from_spec(mlp_spec(&[2, 16, 1]), &mut rng);
        let mut t = Trainer::new(
            model,
            LossKind::Mse,
            OptimConfig {
                lr: 0.01,
                ..Default::default()
            },
        );
        let mut last = f32::MAX;
        for _ in 0..300 {
            let (x, y) = toy_batch(&mut rng, 32);
            last = t.train_batch(&x, &y);
        }
        assert!(last < 0.01, "final loss {last}");
    }

    #[test]
    fn classification_with_cross_entropy() {
        let mut rng = rng();
        let model = Model::from_spec(mlp_spec(&[2, 16, 2]), &mut rng);
        let mut t = Trainer::new(
            model,
            LossKind::CrossEntropy,
            OptimConfig {
                lr: 0.01,
                ..Default::default()
            },
        );
        // Class = whether a+b > 0.
        let gen = |rng: &mut rand::rngs::StdRng, n: usize| {
            let mut x = Matrix::zeros(n, 2);
            let mut y = Matrix::zeros(n, 1);
            for r in 0..n {
                let a: f32 = rng.gen_range(-1.0..1.0);
                let b: f32 = rng.gen_range(-1.0..1.0);
                x.set(r, 0, a);
                x.set(r, 1, b);
                y.set(r, 0, if a + b > 0.0 { 1.0 } else { 0.0 });
            }
            (x, y)
        };
        for _ in 0..300 {
            let (x, y) = gen(&mut rng, 32);
            t.train_batch(&x, &y);
        }
        let (x, y) = gen(&mut rng, 256);
        let pred = t.predict(&x);
        let labels: Vec<usize> = (0..y.rows).map(|r| y.get(r, 0) as usize).collect();
        let acc = crate::loss::accuracy(&pred, &labels);
        assert!(acc > 0.9, "accuracy {acc}");
    }

    #[test]
    fn frozen_prefix_keeps_early_layers_fixed() {
        let mut rng = rng();
        let model = Model::from_spec(mlp_spec(&[2, 8, 8, 1]), &mut rng);
        let mut t = Trainer::new(model, LossKind::Mse, OptimConfig::default());
        let before = t.model.layer_states();
        t.set_frozen_prefix(2); // freeze first linear + relu
        for _ in 0..20 {
            let (x, y) = toy_batch(&mut rng, 16);
            t.train_batch(&x, &y);
        }
        let after = t.model.layer_states();
        assert_eq!(before[0], after[0], "frozen layer 0 must not change");
        assert_ne!(before[2], after[2], "unfrozen layer 2 must receive updates");
    }

    #[test]
    fn layer_state_roundtrip_through_spec() {
        let mut rng = rng();
        let spec = mlp_spec(&[3, 5, 2]);
        let mut a = Model::from_spec(spec.clone(), &mut rng);
        let states = a.layer_states();
        let mut b = Model::from_spec(spec, &mut rng);
        b.load_states(&states);
        let x = Matrix::xavier(4, 3, &mut rng);
        assert_eq!(a.forward(&x).data, b.forward(&x).data);
    }

    #[test]
    fn partial_layer_load_creates_hybrid() {
        let mut rng = rng();
        let spec = mlp_spec(&[2, 4, 1]);
        let mut a = Model::from_spec(spec.clone(), &mut rng);
        let mut b = Model::from_spec(spec.clone(), &mut rng);
        // Hybrid: layer 0 from a, layer 2 (second linear) from b.
        let mut h = Model::from_spec(spec, &mut rng);
        h.load_layer_state(0, &a.layer_states()[0]);
        h.load_layer_state(2, &b.layer_states()[2]);
        let x = Matrix::xavier(3, 2, &mut rng);
        let ya = a.forward(&x);
        let yb = b.forward(&x);
        let yh = h.forward(&x);
        assert_ne!(yh.data, ya.data);
        assert_ne!(yh.data, yb.data);
    }

    #[test]
    fn describe_lists_layers() {
        let mut rng = rng();
        let m = Model::from_spec(mlp_spec(&[2, 4, 1]), &mut rng);
        assert_eq!(m.describe(), "linear(2->4) -> relu -> linear(4->1)");
    }
}
