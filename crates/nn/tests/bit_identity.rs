//! Bit-for-bit checks of the training path against straightforward
//! reference formulations: the matrix kernels against plain loop nests,
//! the activations against derivatives taken from their inputs, and a
//! frozen-prefix fine-tune against a step that backpropagates through the
//! whole stack and then updates only the unfrozen layers.

use neurdb_nn::{
    armnet_finetune_from, armnet_spec, mse, Adam, ArmNetConfig, Layer, LossKind, Matrix, Model,
    OptimConfig, Relu, Sigmoid, Tanh, Trainer,
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

/// The fine-tune step backpropagates through the unfrozen layers only. The
/// reference zeroes and backpropagates through all of them, then steps
/// Adam over the unfrozen ones. Losses and weights must agree bit for bit.
#[test]
fn frozen_prefix_finetune_matches_full_backward_bit_for_bit() {
    let cfg = ArmNetConfig::default();
    let from = armnet_finetune_from(&cfg);
    let opt = OptimConfig {
        lr: 5e-3,
        ..Default::default()
    };
    let mut trainer = Trainer::new(
        Model::from_spec(armnet_spec(&cfg), &mut StdRng::seed_from_u64(21)),
        LossKind::Mse,
        opt,
    );
    trainer.set_frozen_prefix(from);
    let mut reference = Model::from_spec(armnet_spec(&cfg), &mut StdRng::seed_from_u64(21));
    let mut adam = Adam::new(opt);
    assert_eq!(trainer.model.layer_states(), reference.layer_states());

    let mut data_rng = StdRng::seed_from_u64(22);
    for step in 0..5 {
        let (x, y) = random_batch(&cfg, 4096, &mut data_rng);
        let loss = trainer.train_batch(&x, &y);

        let pred = reference.forward(&x);
        let (ref_loss, grad) = mse(&pred, &y);
        reference.zero_grad(0);
        reference.backward(0, &grad);
        let mut grads: Vec<Vec<f32>> = reference
            .grads_from(from)
            .iter()
            .map(|g| g.to_vec())
            .collect();
        let mut grad_refs: Vec<&mut [f32]> = grads.iter_mut().map(|g| g.as_mut_slice()).collect();
        adam.step(&mut reference.params_from(from), &mut grad_refs);

        assert_eq!(loss.to_bits(), ref_loss.to_bits(), "loss at step {step}");
        assert_eq!(
            trainer.model.layer_states(),
            reference.layer_states(),
            "weights after step {step}"
        );
    }
}
