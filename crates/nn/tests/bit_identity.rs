//! Bit-for-bit checks of the training path against straightforward
//! reference formulations: the matrix kernels and LayerNorm against plain
//! loop nests, the activations against derivatives taken from their
//! inputs, and a frozen-prefix fine-tune (backprop stopped at the prefix,
//! the prefix's output memoized by input row) against a step that runs
//! the whole stack forward and backward and then updates only the
//! unfrozen layers.

use neurdb_nn::{
    armnet_finetune_from, armnet_spec, mse, Adam, ArmNetConfig, Layer, LayerNorm, LayerSpec,
    LossKind, Matrix, Model, OptimConfig, Relu, Sigmoid, Tanh, Trainer,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// `a @ b`, ikj, skipping zero left-hand entries.
fn ref_matmul(a: &Matrix, b: &Matrix) -> Matrix {
    let mut out = Matrix::zeros(a.rows, b.cols);
    for i in 0..a.rows {
        for k in 0..a.cols {
            let x = a.get(i, k);
            if x == 0.0 {
                continue;
            }
            for j in 0..b.cols {
                let v = out.get(i, j) + x * b.get(k, j);
                out.set(i, j, v);
            }
        }
    }
    out
}

/// `a^T @ b`, row by row of `a`, skipping zero entries of `a`.
fn ref_t_matmul(a: &Matrix, b: &Matrix) -> Matrix {
    let mut out = Matrix::zeros(a.cols, b.cols);
    for r in 0..a.rows {
        for i in 0..a.cols {
            let x = a.get(r, i);
            if x == 0.0 {
                continue;
            }
            for j in 0..b.cols {
                let v = out.get(i, j) + x * b.get(r, j);
                out.set(i, j, v);
            }
        }
    }
    out
}

/// `a @ b^T` as one dot product per output, every term included.
fn ref_matmul_t(a: &Matrix, b: &Matrix) -> Matrix {
    let mut out = Matrix::zeros(a.rows, b.rows);
    for i in 0..a.rows {
        for j in 0..b.rows {
            let mut s = 0.0;
            for k in 0..a.cols {
                s += a.get(i, k) * b.get(j, k);
            }
            out.set(i, j, s);
        }
    }
    out
}

fn assert_same_bits(what: &str, got: &Matrix, want: &Matrix) {
    assert_eq!(
        (got.rows, got.cols),
        (want.rows, want.cols),
        "{what}: shape"
    );
    for (n, (g, w)) in got.data.iter().zip(&want.data).enumerate() {
        assert_eq!(g.to_bits(), w.to_bits(), "{what}: element {n}: {g} vs {w}");
    }
}

/// Random entries with exact zeros in them: about a third are `+0.0` or
/// `-0.0`, the rest span several orders of magnitude.
fn random_with_zeros(rows: usize, cols: usize, rng: &mut StdRng) -> Matrix {
    let data = (0..rows * cols)
        .map(|_| match rng.gen_range(0..6) {
            0 => 0.0,
            1 => -0.0,
            _ => rng.gen_range(-1.0f32..1.0) * 10f32.powi(rng.gen_range(-3..3)),
        })
        .collect();
    Matrix::from_vec(rows, cols, data)
}

#[test]
fn kernels_match_reference_loops_bit_for_bit() {
    let mut rng = StdRng::seed_from_u64(11);
    // ArmNet's layer shapes, the one-column and one-row cases, and random
    // small shapes.
    let mut shapes = vec![
        (4096, 64, 1),
        (512, 64, 64),
        (500, 176, 64),
        (1, 1, 1),
        (3, 1, 5),
        (1, 7, 1),
        (6, 5, 1),
    ];
    for _ in 0..40 {
        shapes.push((
            rng.gen_range(1..40),
            rng.gen_range(1..40),
            rng.gen_range(1..40),
        ));
    }
    for (n, k, m) in shapes {
        let a = random_with_zeros(n, k, &mut rng);
        // ReLU outputs: exact zeros wherever the input was not positive.
        let relu_a = Relu::new().forward(&a);
        let b = random_with_zeros(k, m, &mut rng);
        for lhs in [&a, &relu_a] {
            assert_same_bits(
                &format!("matmul {n}x{k} @ {k}x{m}"),
                &lhs.matmul(&b),
                &ref_matmul(lhs, &b),
            );
        }
        let c = random_with_zeros(n, m, &mut rng);
        for lhs in [&a, &relu_a] {
            assert_same_bits(
                &format!("t_matmul ({n}x{k})^T @ {n}x{m}"),
                &lhs.t_matmul(&c),
                &ref_t_matmul(lhs, &c),
            );
        }
        let d = random_with_zeros(m, k, &mut rng);
        for lhs in [&a, &relu_a] {
            assert_same_bits(
                &format!("matmul_t {n}x{k} @ ({m}x{k})^T"),
                &lhs.matmul_t(&d),
                &ref_matmul_t(lhs, &d),
            );
        }
    }
    // A zero left-hand entry drops its term even when the other factor is
    // infinite, so `0 * inf` never turns a sum into NaN.
    let a = Matrix::from_vec(2, 3, vec![0.0, 1.0, -0.0, 2.0, 0.0, 1.0]);
    let b = Matrix::from_vec(3, 1, vec![f32::INFINITY, 0.5, f32::NEG_INFINITY]);
    assert_same_bits("matmul, infinite terms", &a.matmul(&b), &ref_matmul(&a, &b));
    let c = Matrix::from_vec(2, 1, vec![f32::INFINITY, 0.5]);
    assert_same_bits(
        "t_matmul, infinite terms",
        &a.t_matmul(&c),
        &ref_t_matmul(&a, &c),
    );
}

#[test]
fn activation_backward_matches_input_derivative_bit_for_bit() {
    let mut rng = StdRng::seed_from_u64(12);
    let mut x = random_with_zeros(64, 33, &mut rng).data;
    x.extend([20.0, -20.0, 90.0, -90.0, 1e-30, -1e-30]);
    let x = Matrix::from_vec(1, x.len(), x);
    let g = Matrix::from_vec(
        1,
        x.cols,
        (0..x.cols).map(|_| rng.gen_range(-2.0..2.0)).collect(),
    );
    let check = |layer: &mut dyn Layer, deriv_of_input: fn(f32) -> f32| {
        layer.forward(&x);
        let got = layer.backward(&g);
        let want = Matrix::from_vec(
            1,
            x.cols,
            g.data
                .iter()
                .zip(&x.data)
                .map(|(g, &v)| g * deriv_of_input(v))
                .collect(),
        );
        assert_same_bits(&layer.describe(), &got, &want);
    };
    check(&mut Relu::new(), |v| if v > 0.0 { 1.0 } else { 0.0 });
    check(&mut Sigmoid::new(), |v| {
        let s = 1.0 / (1.0 + (-v).exp());
        s * (1.0 - s)
    });
    check(&mut Tanh::new(), |v| 1.0 - v.tanh().powi(2));
}

/// LayerNorm as the textbook loops: statistics per row, every element
/// read and written by index. Returns the output.
fn ref_layernorm_forward(x: &Matrix, gamma: &[f32], beta: &[f32]) -> Matrix {
    let n = x.cols as f32;
    let mut out = Matrix::zeros(x.rows, x.cols);
    for r in 0..x.rows {
        let mean = x.row(r).iter().sum::<f32>() / n;
        let var = x.row(r).iter().map(|v| (v - mean).powi(2)).sum::<f32>() / n;
        let inv_std = 1.0 / (var + 1e-5).sqrt();
        for c in 0..x.cols {
            let h = (x.get(r, c) - mean) * inv_std;
            out.set(r, c, h * gamma[c] + beta[c]);
        }
    }
    out
}

/// LayerNorm's backward as the textbook loops: adds the parameter
/// gradients to `dgamma` and `dbeta` and returns the input gradient.
fn ref_layernorm_backward(
    x: &Matrix,
    g: &Matrix,
    gamma: &[f32],
    dgamma: &mut [f32],
    dbeta: &mut [f32],
) -> Matrix {
    let n = x.cols as f32;
    let mut dx = Matrix::zeros(x.rows, x.cols);
    for r in 0..x.rows {
        let mean = x.row(r).iter().sum::<f32>() / n;
        let var = x.row(r).iter().map(|v| (v - mean).powi(2)).sum::<f32>() / n;
        let inv_std = 1.0 / (var + 1e-5).sqrt();
        let xhat: Vec<f32> = (0..x.cols)
            .map(|c| (x.get(r, c) - mean) * inv_std)
            .collect();
        let mut dxhat = Vec::new();
        for c in 0..x.cols {
            dgamma[c] += g.get(r, c) * xhat[c];
            dbeta[c] += g.get(r, c);
            dxhat.push(g.get(r, c) * gamma[c]);
        }
        let sum_dxhat: f32 = dxhat.iter().sum();
        let sum_dxhat_xhat: f32 = dxhat.iter().zip(&xhat).map(|(a, b)| a * b).sum();
        for c in 0..x.cols {
            let v = (dxhat[c] - sum_dxhat / n - xhat[c] * sum_dxhat_xhat / n) * inv_std;
            dx.set(r, c, v);
        }
    }
    dx
}

#[test]
fn layernorm_matches_reference_loops_bit_for_bit() {
    let mut rng = StdRng::seed_from_u64(13);
    // ArmNet's widths (22 and 4 fields of 8) and small odd ones.
    for (rows, dim) in [(512, 176), (300, 32), (7, 1), (5, 3), (1, 9)] {
        let mut ln = LayerNorm::new(dim);
        let (gamma, beta): (Vec<f32>, Vec<f32>) = (0..dim)
            .map(|_| (rng.gen_range(-2.0..2.0), rng.gen_range(-1.0..1.0)))
            .unzip();
        {
            let mut params = ln.params();
            params[0].copy_from_slice(&gamma);
            params[1].copy_from_slice(&beta);
        }
        let x = random_with_zeros(rows, dim, &mut rng);
        let g = random_with_zeros(rows, dim, &mut rng);
        let what = format!("layernorm {rows}x{dim}");
        let y = ln.forward(&x);
        assert_same_bits(&what, &y, &ref_layernorm_forward(&x, &gamma, &beta));
        // Two backward passes: parameter gradients accumulate.
        ln.zero_grad();
        ln.backward(&g);
        let dx = ln.backward(&g);
        let (mut dgamma, mut dbeta) = (vec![0.0; dim], vec![0.0; dim]);
        ref_layernorm_backward(&x, &g, &gamma, &mut dgamma, &mut dbeta);
        let ref_dx = ref_layernorm_backward(&x, &g, &gamma, &mut dgamma, &mut dbeta);
        assert_same_bits(&what, &dx, &ref_dx);
        for (got, want) in ln.grads().iter().zip([&dgamma, &dbeta]) {
            let got: Vec<u32> = got.iter().map(|v| v.to_bits()).collect();
            let want: Vec<u32> = want.iter().map(|v| v.to_bits()).collect();
            assert_eq!(got, want, "{what}: parameter gradients");
        }
    }
}

fn random_batch(cfg: &ArmNetConfig, rows: usize, rng: &mut StdRng) -> (Matrix, Matrix) {
    let ids = (0..rows * cfg.nfields)
        .map(|_| rng.gen_range(0..cfg.vocab) as f32)
        .collect();
    let targets = (0..rows).map(|_| rng.gen_range(-1.0..1.0)).collect();
    (
        Matrix::from_vec(rows, cfg.nfields, ids),
        Matrix::from_vec(rows, 1, targets),
    )
}

/// Fine-tunes a model through [`Trainer`] and a twin through the
/// reference step, batch by batch. The reference runs the whole stack
/// forward, zeroes and backpropagates through all of it, then steps Adam
/// over layers `prefix..`, resetting Adam when the prefix changes as
/// [`Trainer::set_frozen_prefix`] does. Each step gives its batch's frozen
/// prefix; the trainer's prefix is set only when it changes, so its memo
/// of prefix outputs spans batches. Losses and weights must agree bit for
/// bit after every step.
fn assert_finetune_matches_full_forward(spec: Vec<LayerSpec>, steps: &[(usize, Matrix, Matrix)]) {
    let opt = OptimConfig {
        lr: 5e-3,
        ..Default::default()
    };
    let mut trainer = Trainer::new(
        Model::from_spec(spec.clone(), &mut StdRng::seed_from_u64(21)),
        LossKind::Mse,
        opt,
    );
    let mut reference = Model::from_spec(spec, &mut StdRng::seed_from_u64(21));
    let mut adam = Adam::new(opt);
    assert_eq!(trainer.model.layer_states(), reference.layer_states());

    for (step, (prefix, x, y)) in steps.iter().enumerate() {
        if *prefix != trainer.frozen_prefix() {
            trainer.set_frozen_prefix(*prefix);
            adam = Adam::new(opt);
        }
        let loss = trainer.train_batch(x, y);

        let pred = reference.forward(x);
        let (ref_loss, grad) = mse(&pred, y);
        reference.zero_grad(0);
        reference.backward(0, &grad);
        let mut grads: Vec<Vec<f32>> = reference
            .grads_from(*prefix)
            .iter()
            .map(|g| g.to_vec())
            .collect();
        let mut grad_refs: Vec<&mut [f32]> = grads.iter_mut().map(|g| g.as_mut_slice()).collect();
        adam.step(&mut reference.params_from(*prefix), &mut grad_refs);

        assert_eq!(loss.to_bits(), ref_loss.to_bits(), "loss at step {step}");
        assert_eq!(
            trainer.model.layer_states(),
            reference.layer_states(),
            "weights after step {step}"
        );
    }
}

/// `rows` rows drawn with replacement from the first `distinct` rows of
/// `pool`, and random targets.
fn batch_from_pool(
    pool: &Matrix,
    distinct: usize,
    rows: usize,
    rng: &mut StdRng,
) -> (Matrix, Matrix) {
    let mut ids = Vec::with_capacity(rows * pool.cols);
    for _ in 0..rows {
        ids.extend_from_slice(pool.row(rng.gen_range(0..distinct)));
    }
    let targets = (0..rows).map(|_| rng.gen_range(-1.0..1.0)).collect();
    (
        Matrix::from_vec(rows, pool.cols, ids),
        Matrix::from_vec(rows, 1, targets),
    )
}

/// The ArmNet `PREDICT` trains: four fields over a 2,048-id vocabulary.
fn predict_cfg() -> ArmNetConfig {
    ArmNetConfig {
        nfields: 4,
        vocab: 2048,
        embed_dim: 8,
        hidden: 64,
        outputs: 1,
    }
}

/// The fine-tune step backpropagates through the unfrozen layers only;
/// its random rows are (almost surely) distinct.
#[test]
fn frozen_prefix_finetune_matches_full_backward_bit_for_bit() {
    let cfg = ArmNetConfig::default();
    let from = armnet_finetune_from(&cfg);
    let mut data_rng = StdRng::seed_from_u64(22);
    let steps: Vec<_> = (0..5)
        .map(|_| {
            let (x, y) = random_batch(&cfg, 4096, &mut data_rng);
            (from, x, y)
        })
        .collect();
    assert_finetune_matches_full_forward(armnet_spec(&cfg), &steps);
}

/// Rows repeat within each batch and across batches, and each batch also
/// brings rows not seen before, so the memo serves some rows and computes
/// others in every step.
#[test]
fn memoized_prefix_with_repeated_rows_matches_full_forward() {
    let cfg = predict_cfg();
    let mut rng = StdRng::seed_from_u64(23);
    let (pool, _) = random_batch(&cfg, 600, &mut rng);
    let steps: Vec<_> = (1..=6)
        .map(|i| {
            let (x, y) = batch_from_pool(&pool, 100 * i, 512, &mut rng);
            (armnet_finetune_from(&cfg), x, y)
        })
        .collect();
    assert_finetune_matches_full_forward(armnet_spec(&cfg), &steps);
}

/// Every row of the fine-tune is distinct: field 0 is the row number.
#[test]
fn memoized_prefix_with_all_distinct_rows_matches_full_forward() {
    let cfg = predict_cfg();
    let mut rng = StdRng::seed_from_u64(24);
    let steps: Vec<_> = (0..4)
        .map(|i| {
            let (mut x, y) = random_batch(&cfg, 1000, &mut rng);
            for r in 0..x.rows {
                x.set(r, 0, (i * x.rows + r) as f32);
            }
            (armnet_finetune_from(&cfg), x, y)
        })
        .collect();
    assert_finetune_matches_full_forward(armnet_spec(&cfg), &steps);
}

/// Attention mixes the rows of a batch, so a prefix that contains it must
/// run forward on every batch as a whole. Each batch repeats a few rows:
/// computing a row once, or reusing it from an earlier batch, would give
/// it a different attention context.
#[test]
fn prefix_with_attention_runs_every_row_forward() {
    let spec = vec![
        LayerSpec::Linear {
            inputs: 4,
            outputs: 8,
        },
        LayerSpec::MultiHeadAttention { dim: 8, heads: 2 },
        LayerSpec::Linear {
            inputs: 8,
            outputs: 8,
        },
        LayerSpec::Relu,
        LayerSpec::Linear {
            inputs: 8,
            outputs: 1,
        },
    ];
    let mut rng = StdRng::seed_from_u64(25);
    let pool = Matrix::from_vec(5, 4, (0..20).map(|_| rng.gen_range(-1.0..1.0)).collect());
    let steps: Vec<_> = (0..4)
        .map(|_| {
            let (x, y) = batch_from_pool(&pool, 5, 16, &mut rng);
            (4, x, y)
        })
        .collect();
    assert_finetune_matches_full_forward(spec, &steps);
}

/// Changing the frozen prefix between batches drops the memo: layers that
/// trained while the prefix was shorter change what the longer prefix
/// outputs, and a shorter prefix outputs a different width.
#[test]
fn frozen_prefix_change_drops_the_memo() {
    let cfg = predict_cfg();
    let from = armnet_finetune_from(&cfg);
    let mut rng = StdRng::seed_from_u64(26);
    let (pool, _) = random_batch(&cfg, 200, &mut rng);
    let steps: Vec<_> = [from, from, 2, 2, from, from, 4, from]
        .into_iter()
        .map(|prefix| {
            let (x, y) = batch_from_pool(&pool, 200, 256, &mut rng);
            (prefix, x, y)
        })
        .collect();
    assert_finetune_matches_full_forward(armnet_spec(&cfg), &steps);
}
