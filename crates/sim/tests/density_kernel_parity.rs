//! Property suite pinning the density matrix's block kernel to its
//! two-pass reference kernels.
//!
//! [`DensityMatrix::apply_kraus`], [`DensityMatrix::apply_unitary`] and
//! the dense branch of [`DensityMatrix::apply_gate`] run one block
//! kernel that skips exact-zero operator entries; the references
//! ([`DensityMatrix::apply_kraus_reference`],
//! [`DensityMatrix::apply_unitary_reference`],
//! [`DensityMatrix::apply_gate_reference`]) keep the full column pass,
//! row pass, clone and accumulate. On finite states the two must agree
//! value-exactly: every entry compares `==`, and every nonzero real or
//! imaginary component has identical bits — only the sign of an exact
//! zero may differ.
//!
//! Channels are the real constructors of `hgp_noise` (depolarizing,
//! two-qubit depolarizing, thermal relaxation including the
//! infinite-T1/T2 identity, amplitude and phase damping, Pauli channels
//! with zero-probability branches) plus random dense Kraus sets with
//! sprinkled exact zeros, on 1–3 targets in arbitrary order, from the
//! sparse `|0...0>` state and from random mixed states.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use hgp_circuit::{Gate, Param};
use hgp_math::{c64, Complex64, Matrix};
use hgp_noise::{channels, NoiseChannel};
use hgp_sim::DensityMatrix;

/// Value-exact agreement: `==` everywhere, equal bits on every nonzero
/// component.
fn assert_value_exact(fast: &DensityMatrix, reference: &DensityMatrix) -> Result<(), String> {
    let dim = reference.dim();
    for i in 0..dim {
        for j in 0..dim {
            let (a, b) = (fast.get(i, j), reference.get(i, j));
            prop_assert!(a == b, "rho[{i},{j}] = {a:?} vs reference {b:?}");
            for (x, y) in [(a.re, b.re), (a.im, b.im)] {
                prop_assert!(
                    x == 0.0 || x.to_bits() == y.to_bits(),
                    "rho[{i},{j}] component bits: {x:e} vs {y:e}"
                );
            }
        }
    }
    Ok(())
}

/// A random complex entry: exactly zero one time in three, otherwise
/// with each component exactly zero one time in four.
fn sparse_entry(rng: &mut StdRng) -> Complex64 {
    if rng.gen_range(0u32..3) == 0 {
        return Complex64::ZERO;
    }
    let mut part = || {
        if rng.gen_range(0u32..4) == 0 {
            0.0
        } else {
            rng.gen_range(-1.0f64..1.0)
        }
    };
    c64(part(), part())
}

/// A random dense Kraus set on `k` targets. The kernels' parity is
/// algebraic, so the operators need not be trace preserving.
fn random_kraus(rng: &mut StdRng, k: usize) -> Vec<Matrix> {
    let block = 1usize << k;
    let n_ops = rng.gen_range(1usize..5);
    (0..n_ops)
        .map(|_| {
            Matrix::from_vec(
                block,
                block,
                (0..block * block).map(|_| sparse_entry(rng)).collect(),
            )
        })
        .collect()
}

/// The channel constructors the noise model emits, drawn at random
/// parameters for `k` targets.
fn real_channel(rng: &mut StdRng, k: usize) -> Vec<Matrix> {
    if k == 2 {
        return channels::depolarizing_2q(rng.gen_range(0.0f64..1.0));
    }
    match rng.gen_range(0u32..7) {
        0 => channels::depolarizing(rng.gen_range(0.0f64..1.0)),
        1 => channels::amplitude_damping(rng.gen_range(0.0f64..1.0)),
        2 => channels::phase_damping(rng.gen_range(0.0f64..1.0)),
        3 => {
            let t1 = rng.gen_range(20.0f64..150.0);
            let t2 = rng.gen_range(5.0f64..2.0 * t1);
            channels::thermal_relaxation(t1, t2, rng.gen_range(0.0f64..5.0))
        }
        4 => channels::thermal_relaxation(f64::INFINITY, f64::INFINITY, 1.0),
        5 => {
            // Zero-probability branches give all-zero Kraus operators.
            let p = rng.gen_range(0.0f64..0.5);
            let probs = match rng.gen_range(0u32..3) {
                0 => [1.0 - p, p, 0.0, 0.0],
                1 => [1.0 - p, 0.0, 0.0, p],
                _ => [1.0, 0.0, 0.0, 0.0],
            };
            NoiseChannel::Pauli { probs }.kraus_operators()
        }
        _ => NoiseChannel::Depolarizing {
            p: rng.gen_range(0.0f64..1.0),
        }
        .kraus_operators(),
    }
}

/// `k` distinct targets out of `n`, in random (not necessarily
/// adjacent or sorted) order.
fn random_targets(rng: &mut StdRng, n: usize, k: usize) -> Vec<usize> {
    let mut targets = Vec::with_capacity(k);
    while targets.len() < k {
        let t = rng.gen_range(0..n);
        if !targets.contains(&t) {
            targets.push(t);
        }
    }
    targets
}

/// `|0...0><0...0|` (mostly exact zeros), or a random mixed state built
/// from it with dense random operators through the reference kernels.
fn start_state(rng: &mut StdRng, n: usize, mixed: bool) -> DensityMatrix {
    let mut rho = DensityMatrix::zero_state(n);
    if mixed {
        rho.apply_unitary_reference(&Gate::H.matrix().unwrap(), &[0]);
        for _ in 0..3 {
            let k = rng.gen_range(1..=n.min(2));
            let targets = random_targets(rng, n, k);
            rho.apply_kraus_reference(&random_kraus(rng, k), &targets);
        }
    }
    rho
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn channels_match_the_reference_kernel(
        n in 1usize..6,
        k in 1usize..4,
        mixed in 0u64..2,
        real in 0u64..2,
        seed in 0u64..1_000_000,
    ) {
        let k = k.min(n);
        let mut rng = StdRng::seed_from_u64(seed);
        let targets = random_targets(&mut rng, n, k);
        let kraus = if real == 1 && k <= 2 {
            real_channel(&mut rng, k)
        } else {
            random_kraus(&mut rng, k)
        };
        let start = start_state(&mut rng, n, mixed == 1);
        let mut fast = start.clone();
        let mut reference = start;
        fast.apply_kraus(&kraus, &targets);
        reference.apply_kraus_reference(&kraus, &targets);
        assert_value_exact(&fast, &reference)?;
    }

    #[test]
    fn unitaries_and_gates_match_the_reference_kernel(
        n in 1usize..6,
        k in 1usize..4,
        mixed in 0u64..2,
        seed in 0u64..1_000_000,
    ) {
        let k = k.min(n);
        let mut rng = StdRng::seed_from_u64(seed);
        let targets = random_targets(&mut rng, n, k);
        let op = random_kraus(&mut rng, k).swap_remove(0);
        let start = start_state(&mut rng, n, mixed == 1);
        let mut fast = start.clone();
        let mut reference = start.clone();
        fast.apply_unitary(&op, &targets);
        reference.apply_unitary_reference(&op, &targets);
        assert_value_exact(&fast, &reference)?;

        // Dense gates (and a diagonal one, which both paths route to
        // the same elementwise kernel).
        let angle = rng.gen_range(-3.0f64..3.0);
        let gate = match (k, rng.gen_range(0u32..3)) {
            (1, 0) => Gate::H,
            (1, 1) => Gate::Rx(Param::bound(angle)),
            (1, _) => Gate::Rz(Param::bound(angle)),
            (_, 0) => Gate::CX,
            (_, 1) => Gate::Rzx(Param::bound(angle)),
            _ => Gate::Swap,
        };
        let qubits = &targets[..gate.n_qubits()];
        let mut fast = start.clone();
        let mut reference = start;
        fast.apply_gate(&gate, qubits).unwrap();
        reference.apply_gate_reference(&gate, qubits).unwrap();
        assert_value_exact(&fast, &reference)?;
    }
}

#[test]
fn walks_of_mixed_operators_stay_value_exact() {
    // A longer walk: the block kernel's zero-sign freedom must never
    // grow into a nonzero difference downstream.
    let mut rng = StdRng::seed_from_u64(7);
    let n = 4;
    let mut fast = DensityMatrix::zero_state(n);
    let mut reference = DensityMatrix::zero_state(n);
    for step in 0..60 {
        let k = 1 + step % 2;
        let targets = random_targets(&mut rng, n, k);
        let kraus = if step % 3 == 0 {
            random_kraus(&mut rng, k)
        } else {
            real_channel(&mut rng, k)
        };
        fast.apply_kraus(&kraus, &targets);
        reference.apply_kraus_reference(&kraus, &targets);
    }
    assert_value_exact(&fast, &reference).unwrap();
}
