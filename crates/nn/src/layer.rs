//! The [`Layer`] trait and the elementary layers.
//!
//! Models in NeurDB's model manager are *ordered stacks of layers* whose
//! weights are stored and versioned independently (Section 4.1, "Model
//! Incremental Update"). Every layer here therefore exposes its parameters
//! as flat slices (`params` / `grads`) and a byte codec (`state` /
//! `load_state`) so the model storage can persist single layers.

use crate::tensor::Matrix;
use bytes::{Buf, BufMut, BytesMut};
use rand::Rng;

/// A differentiable layer. `forward` caches whatever `backward` needs, so a
/// layer instance handles one in-flight batch at a time (standard for
/// sequential training loops).
pub trait Layer: Send {
    /// Forward pass: `input` is `batch × in_features`.
    fn forward(&mut self, input: &Matrix) -> Matrix;

    /// Backward pass: receives dL/d(output), returns dL/d(input), and
    /// accumulates parameter gradients internally.
    fn backward(&mut self, grad_out: &Matrix) -> Matrix;

    /// Flat view of trainable parameters (empty for activations).
    fn params(&mut self) -> Vec<&mut [f32]>;

    /// Flat view of accumulated gradients, parallel to `params`.
    fn grads(&mut self) -> Vec<&mut [f32]>;

    /// Zero the accumulated gradients.
    fn zero_grad(&mut self);

    /// Number of trainable scalars.
    fn param_count(&self) -> usize;

    /// Serialize weights (not gradients/caches) to bytes.
    fn state(&self) -> Vec<u8>;

    /// Restore weights from `state` bytes.
    fn load_state(&mut self, bytes: &[u8]);

    /// A short human-readable name ("linear(64->32)" etc.).
    fn describe(&self) -> String;
}

fn put_slice_f32(buf: &mut BytesMut, s: &[f32]) {
    buf.put_u32_le(s.len() as u32);
    for v in s {
        buf.put_f32_le(*v);
    }
}

fn get_vec_f32(buf: &mut &[u8]) -> Vec<f32> {
    let n = buf.get_u32_le() as usize;
    (0..n).map(|_| buf.get_f32_le()).collect()
}

/// Fully-connected layer: `y = x W + b`.
pub struct Linear {
    pub in_features: usize,
    pub out_features: usize,
    w: Matrix,
    b: Vec<f32>,
    gw: Matrix,
    gb: Vec<f32>,
    input: Option<Matrix>,
}

impl Linear {
    pub fn new(in_features: usize, out_features: usize, rng: &mut impl Rng) -> Self {
        Linear {
            in_features,
            out_features,
            w: Matrix::xavier(in_features, out_features, rng),
            b: vec![0.0; out_features],
            gw: Matrix::zeros(in_features, out_features),
            gb: vec![0.0; out_features],
            input: None,
        }
    }
}

impl Layer for Linear {
    fn forward(&mut self, input: &Matrix) -> Matrix {
        assert_eq!(input.cols, self.in_features, "linear input width");
        self.input = Some(input.clone());
        input.matmul(&self.w).add_row_broadcast(&self.b)
    }

    fn backward(&mut self, grad_out: &Matrix) -> Matrix {
        let input = self.input.as_ref().expect("backward before forward");
        // dW = x^T g ; db = column sums of g ; dx = g W^T
        let gw = input.t_matmul(grad_out);
        for (a, b) in self.gw.data.iter_mut().zip(gw.data) {
            *a += b;
        }
        for (a, b) in self.gb.iter_mut().zip(grad_out.sum_rows()) {
            *a += b;
        }
        grad_out.matmul_t(&self.w)
    }

    fn params(&mut self) -> Vec<&mut [f32]> {
        vec![&mut self.w.data, &mut self.b]
    }

    fn grads(&mut self) -> Vec<&mut [f32]> {
        vec![&mut self.gw.data, &mut self.gb]
    }

    fn zero_grad(&mut self) {
        self.gw.data.iter_mut().for_each(|v| *v = 0.0);
        self.gb.iter_mut().for_each(|v| *v = 0.0);
    }

    fn param_count(&self) -> usize {
        self.w.data.len() + self.b.len()
    }

    fn state(&self) -> Vec<u8> {
        let mut buf = BytesMut::new();
        buf.put_u32_le(self.in_features as u32);
        buf.put_u32_le(self.out_features as u32);
        put_slice_f32(&mut buf, &self.w.data);
        put_slice_f32(&mut buf, &self.b);
        buf.to_vec()
    }

    fn load_state(&mut self, bytes: &[u8]) {
        let mut buf = bytes;
        let inf = buf.get_u32_le() as usize;
        let outf = buf.get_u32_le() as usize;
        assert_eq!(
            (inf, outf),
            (self.in_features, self.out_features),
            "shape mismatch"
        );
        self.w.data = get_vec_f32(&mut buf);
        self.b = get_vec_f32(&mut buf);
    }

    fn describe(&self) -> String {
        format!("linear({}->{})", self.in_features, self.out_features)
    }
}

/// Embedding lookup: input cells are categorical ids (stored as f32); each
/// row of `nfields` ids becomes the concatenation of their embeddings.
pub struct Embedding {
    pub vocab: usize,
    pub dim: usize,
    pub nfields: usize,
    table: Matrix,
    gtable: Matrix,
    input_ids: Option<Vec<usize>>,
}

impl Embedding {
    pub fn new(vocab: usize, dim: usize, nfields: usize, rng: &mut impl Rng) -> Self {
        Embedding {
            vocab,
            dim,
            nfields,
            table: Matrix::xavier(vocab, dim, rng),
            gtable: Matrix::zeros(vocab, dim),
            input_ids: None,
        }
    }
}

impl Layer for Embedding {
    fn forward(&mut self, input: &Matrix) -> Matrix {
        assert_eq!(input.cols, self.nfields, "embedding field count");
        let mut out = Matrix::zeros(input.rows, self.nfields * self.dim);
        let mut ids = Vec::with_capacity(input.rows * self.nfields);
        for r in 0..input.rows {
            for f in 0..self.nfields {
                let id = (input.get(r, f).max(0.0) as usize).min(self.vocab - 1);
                ids.push(id);
                let src = self.table.row(id);
                let dst = &mut out.row_mut(r)[f * self.dim..(f + 1) * self.dim];
                dst.copy_from_slice(src);
            }
        }
        self.input_ids = Some(ids);
        out
    }

    fn backward(&mut self, grad_out: &Matrix) -> Matrix {
        let ids = self.input_ids.as_ref().expect("backward before forward");
        let rows = grad_out.rows;
        for r in 0..rows {
            for f in 0..self.nfields {
                let id = ids[r * self.nfields + f];
                let g = &grad_out.row(r)[f * self.dim..(f + 1) * self.dim];
                let dst = self.gtable.row_mut(id);
                for (d, gv) in dst.iter_mut().zip(g.iter()) {
                    *d += gv;
                }
            }
        }
        // Ids carry no gradient.
        Matrix::zeros(rows, self.nfields)
    }

    fn params(&mut self) -> Vec<&mut [f32]> {
        vec![&mut self.table.data]
    }

    fn grads(&mut self) -> Vec<&mut [f32]> {
        vec![&mut self.gtable.data]
    }

    fn zero_grad(&mut self) {
        self.gtable.data.iter_mut().for_each(|v| *v = 0.0);
    }

    fn param_count(&self) -> usize {
        self.table.data.len()
    }

    fn state(&self) -> Vec<u8> {
        let mut buf = BytesMut::new();
        buf.put_u32_le(self.vocab as u32);
        buf.put_u32_le(self.dim as u32);
        buf.put_u32_le(self.nfields as u32);
        put_slice_f32(&mut buf, &self.table.data);
        buf.to_vec()
    }

    fn load_state(&mut self, bytes: &[u8]) {
        let mut buf = bytes;
        let vocab = buf.get_u32_le() as usize;
        let dim = buf.get_u32_le() as usize;
        let nfields = buf.get_u32_le() as usize;
        assert_eq!((vocab, dim, nfields), (self.vocab, self.dim, self.nfields));
        self.table.data = get_vec_f32(&mut buf);
    }

    fn describe(&self) -> String {
        format!(
            "embedding({}x{} over {} fields)",
            self.vocab, self.dim, self.nfields
        )
    }
}

/// An elementwise activation. `$bwd` gives the derivative from the
/// forward *output*, which the layer caches, so backward never evaluates
/// the activation again.
macro_rules! stateless_activation {
    ($name:ident, $fwd:expr, $bwd:expr, $desc:expr) => {
        /// Stateless activation layer.
        #[derive(Default)]
        pub struct $name {
            output: Option<Matrix>,
        }

        impl $name {
            pub fn new() -> Self {
                Self { output: None }
            }
        }

        impl Layer for $name {
            fn forward(&mut self, input: &Matrix) -> Matrix {
                let output = input.map($fwd);
                self.output = Some(output.clone());
                output
            }

            fn backward(&mut self, grad_out: &Matrix) -> Matrix {
                let output = self.output.as_ref().expect("backward before forward");
                assert_eq!((grad_out.rows, grad_out.cols), (output.rows, output.cols));
                let data = grad_out
                    .data
                    .iter()
                    .zip(&output.data)
                    .map(|(g, &y)| g * $bwd(y))
                    .collect();
                Matrix::from_vec(output.rows, output.cols, data)
            }

            fn params(&mut self) -> Vec<&mut [f32]> {
                vec![]
            }
            fn grads(&mut self) -> Vec<&mut [f32]> {
                vec![]
            }
            fn zero_grad(&mut self) {}
            fn param_count(&self) -> usize {
                0
            }
            fn state(&self) -> Vec<u8> {
                vec![]
            }
            fn load_state(&mut self, _bytes: &[u8]) {}
            fn describe(&self) -> String {
                $desc.to_string()
            }
        }
    };
}

// Each derivative gives the same bits as the one taken from the input:
// `y > 0` iff `x > 0` for ReLU, and `s`/`y` is exactly the value the
// input formula recomputed.
stateless_activation!(
    Relu,
    |x| if x > 0.0 { x } else { 0.0 },
    |y: f32| if y > 0.0 { 1.0 } else { 0.0 },
    "relu"
);
stateless_activation!(
    Sigmoid,
    |x: f32| 1.0 / (1.0 + (-x).exp()),
    |s: f32| s * (1.0 - s),
    "sigmoid"
);
stateless_activation!(Tanh, |x: f32| x.tanh(), |y: f32| 1.0 - y.powi(2), "tanh");

/// Layer normalization over the feature dimension, with learned gain/bias.
pub struct LayerNorm {
    pub dim: usize,
    gamma: Vec<f32>,
    beta: Vec<f32>,
    ggamma: Vec<f32>,
    gbeta: Vec<f32>,
    cache: Option<(Matrix, Vec<f32>)>, // normalized x, inv_std per row
    eps: f32,
}

impl LayerNorm {
    pub fn new(dim: usize) -> Self {
        LayerNorm {
            dim,
            gamma: vec![1.0; dim],
            beta: vec![0.0; dim],
            ggamma: vec![0.0; dim],
            gbeta: vec![0.0; dim],
            cache: None,
            eps: 1e-5,
        }
    }
}

impl Layer for LayerNorm {
    fn forward(&mut self, input: &Matrix) -> Matrix {
        assert_eq!(input.cols, self.dim);
        let mut xhat = Matrix::zeros(input.rows, input.cols);
        let mut inv_stds = Vec::with_capacity(input.rows);
        let mut out = Matrix::zeros(input.rows, input.cols);
        for r in 0..input.rows {
            let row = input.row(r);
            let mean = row.iter().sum::<f32>() / self.dim as f32;
            let var = row.iter().map(|x| (x - mean).powi(2)).sum::<f32>() / self.dim as f32;
            let inv_std = 1.0 / (var + self.eps).sqrt();
            inv_stds.push(inv_std);
            let params = self.gamma.iter().zip(&self.beta);
            for (((h, o), &x), (g, b)) in xhat
                .row_mut(r)
                .iter_mut()
                .zip(out.row_mut(r))
                .zip(row)
                .zip(params)
            {
                *h = (x - mean) * inv_std;
                *o = *h * g + b;
            }
        }
        self.cache = Some((xhat, inv_stds));
        out
    }

    fn backward(&mut self, grad_out: &Matrix) -> Matrix {
        let (xhat, inv_stds) = self.cache.as_ref().expect("backward before forward");
        let n = self.dim as f32;
        let mut grad_in = Matrix::zeros(grad_out.rows, grad_out.cols);
        let mut dxhat = vec![0.0; self.dim];
        for (r, &inv_std) in inv_stds.iter().enumerate() {
            let g = grad_out.row(r);
            let xh = xhat.row(r);
            // Accumulate param grads.
            for c in 0..self.dim {
                self.ggamma[c] += g[c] * xh[c];
                self.gbeta[c] += g[c];
            }
            // dxhat = g * gamma
            for ((d, gv), gamma) in dxhat.iter_mut().zip(g).zip(&self.gamma) {
                *d = gv * gamma;
            }
            let sum_dxhat: f32 = dxhat.iter().sum();
            let sum_dxhat_xhat: f32 = dxhat.iter().zip(xh.iter()).map(|(a, b)| a * b).sum();
            for ((v, &d), &h) in grad_in.row_mut(r).iter_mut().zip(&dxhat).zip(xh) {
                *v = (d - sum_dxhat / n - h * sum_dxhat_xhat / n) * inv_std;
            }
        }
        grad_in
    }

    fn params(&mut self) -> Vec<&mut [f32]> {
        vec![&mut self.gamma, &mut self.beta]
    }

    fn grads(&mut self) -> Vec<&mut [f32]> {
        vec![&mut self.ggamma, &mut self.gbeta]
    }

    fn zero_grad(&mut self) {
        self.ggamma.iter_mut().for_each(|v| *v = 0.0);
        self.gbeta.iter_mut().for_each(|v| *v = 0.0);
    }

    fn param_count(&self) -> usize {
        2 * self.dim
    }

    fn state(&self) -> Vec<u8> {
        let mut buf = BytesMut::new();
        buf.put_u32_le(self.dim as u32);
        put_slice_f32(&mut buf, &self.gamma);
        put_slice_f32(&mut buf, &self.beta);
        buf.to_vec()
    }

    fn load_state(&mut self, bytes: &[u8]) {
        let mut buf = bytes;
        let dim = buf.get_u32_le() as usize;
        assert_eq!(dim, self.dim);
        self.gamma = get_vec_f32(&mut buf);
        self.beta = get_vec_f32(&mut buf);
    }

    fn describe(&self) -> String {
        format!("layernorm({})", self.dim)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    /// Central-difference gradient check for a layer's input gradient.
    fn grad_check_input(layer: &mut dyn Layer, input: &Matrix) {
        let out = layer.forward(input);
        // Loss = sum of outputs; dL/dy = ones.
        let ones = Matrix::from_vec(out.rows, out.cols, vec![1.0; out.rows * out.cols]);
        let grad_in = layer.backward(&ones);
        let eps = 1e-2f32;
        for i in 0..input.data.len().min(20) {
            let mut plus = input.clone();
            plus.data[i] += eps;
            let mut minus = input.clone();
            minus.data[i] -= eps;
            let fp: f32 = layer.forward(&plus).data.iter().sum();
            let fm: f32 = layer.forward(&minus).data.iter().sum();
            let numeric = (fp - fm) / (2.0 * eps);
            let analytic = grad_in.data[i];
            assert!(
                (numeric - analytic).abs() < 2e-2 * (1.0 + numeric.abs()),
                "grad mismatch at {i}: numeric {numeric} vs analytic {analytic} ({})",
                layer.describe()
            );
        }
    }

    #[test]
    fn linear_gradient_check() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let mut l = Linear::new(4, 3, &mut rng);
        let x = Matrix::xavier(5, 4, &mut rng);
        grad_check_input(&mut l, &x);
    }

    #[test]
    fn linear_weight_gradient_check() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(4);
        let mut l = Linear::new(3, 2, &mut rng);
        let x = Matrix::xavier(4, 3, &mut rng);
        l.forward(&x);
        let ones = Matrix::from_vec(4, 2, vec![1.0; 8]);
        l.zero_grad();
        l.backward(&ones);
        let analytic = l.gw.clone();
        let eps = 1e-2f32;
        for i in 0..l.w.data.len() {
            let orig = l.w.data[i];
            l.w.data[i] = orig + eps;
            let fp: f32 = l.forward(&x).data.iter().sum();
            l.w.data[i] = orig - eps;
            let fm: f32 = l.forward(&x).data.iter().sum();
            l.w.data[i] = orig;
            let numeric = (fp - fm) / (2.0 * eps);
            assert!(
                (numeric - analytic.data[i]).abs() < 2e-2 * (1.0 + numeric.abs()),
                "weight grad mismatch at {i}"
            );
        }
    }

    #[test]
    fn activations_gradient_check() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let x = Matrix::xavier(3, 6, &mut rng).scale(2.0);
        grad_check_input(&mut Sigmoid::new(), &x);
        grad_check_input(&mut Tanh::new(), &x);
        // ReLU: keep inputs away from the kink.
        let x_off = x.map(|v| if v.abs() < 0.1 { v + 0.5 } else { v });
        grad_check_input(&mut Relu::new(), &x_off);
    }

    #[test]
    fn layernorm_gradient_check() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(6);
        let mut ln = LayerNorm::new(8);
        let x = Matrix::xavier(4, 8, &mut rng).scale(3.0);
        grad_check_input(&mut ln, &x);
    }

    #[test]
    fn layernorm_normalizes() {
        let mut ln = LayerNorm::new(4);
        let x = Matrix::from_vec(1, 4, vec![10.0, 20.0, 30.0, 40.0]);
        let y = ln.forward(&x);
        let mean: f32 = y.row(0).iter().sum::<f32>() / 4.0;
        assert!(mean.abs() < 1e-5);
    }

    #[test]
    fn embedding_lookup_and_grad() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let mut e = Embedding::new(10, 4, 2, &mut rng);
        let x = Matrix::from_vec(2, 2, vec![1.0, 3.0, 1.0, 7.0]);
        let y = e.forward(&x);
        assert_eq!((y.rows, y.cols), (2, 8));
        // Row 0 field 0 and row 1 field 0 share id 1 -> identical slices.
        assert_eq!(&y.row(0)[..4], &y.row(1)[..4]);
        let g = Matrix::from_vec(2, 8, vec![1.0; 16]);
        e.backward(&g);
        // Id 1 was used twice -> its gradient row accumulates 2.0 per dim.
        assert!(e.gtable.row(1).iter().all(|v| (*v - 2.0).abs() < 1e-6));
        assert!(e.gtable.row(0).iter().all(|v| *v == 0.0));
    }

    #[test]
    fn embedding_clamps_out_of_vocab() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(8);
        let mut e = Embedding::new(4, 2, 1, &mut rng);
        let x = Matrix::from_vec(1, 1, vec![99.0]);
        let y = e.forward(&x); // must not panic
        assert_eq!(y.cols, 2);
    }

    #[test]
    fn state_roundtrip() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(9);
        let mut a = Linear::new(5, 3, &mut rng);
        let bytes = a.state();
        let mut b = Linear::new(5, 3, &mut rng);
        b.load_state(&bytes);
        let x = Matrix::xavier(2, 5, &mut rng);
        assert_eq!(a.forward(&x).data, b.forward(&x).data);
    }

    #[test]
    fn param_counts() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(10);
        assert_eq!(Linear::new(4, 3, &mut rng).param_count(), 15);
        assert_eq!(Embedding::new(10, 4, 2, &mut rng).param_count(), 40);
        assert_eq!(LayerNorm::new(6).param_count(), 12);
        assert_eq!(Relu::new().param_count(), 0);
    }
}
