//! Matrix-free measurement mitigation (M3).
//!
//! The full assignment matrix `A` over `n` qubits has `4^n` entries, but a
//! shot record only ever observes a handful of distinct bitstrings. M3
//! restricts `A` to the observed subspace, normalizes its columns (so
//! probability leaking *out* of the subspace does not bias the solution),
//! and solves `A_sub x = p_noisy`. Entries of `A_sub` factor over qubits,
//! so each is generated from the per-qubit confusion parameters — no
//! matrix is ever materialized beyond the `observed x observed` system,
//! which is built once per record and shared by both solvers.

use std::collections::BTreeMap;

use hgp_noise::readout::QubitReadout;
use hgp_noise::ReadoutModel;
use hgp_sim::Counts;

/// A mitigated quasi-probability distribution.
///
/// Entries can be slightly negative (mitigation is an inverse problem);
/// they sum to ~1. Expectation values remain well-defined.
#[derive(Debug, Clone, PartialEq)]
pub struct QuasiDistribution {
    n_qubits: usize,
    probs: BTreeMap<usize, f64>,
}

impl QuasiDistribution {
    /// Quasi-probability of a bitstring (0 if unobserved).
    pub fn probability(&self, bitstring: usize) -> f64 {
        self.probs.get(&bitstring).copied().unwrap_or(0.0)
    }

    /// Iterates `(bitstring, quasi_probability)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (usize, f64)> + '_ {
        self.probs.iter().map(|(&b, &p)| (b, p))
    }

    /// Sum of all quasi-probabilities (~1).
    pub fn total(&self) -> f64 {
        self.probs.values().sum()
    }

    /// Expectation of a per-bitstring cost under the quasi-distribution.
    pub fn expectation_of(&self, cost: impl Fn(usize) -> f64) -> f64 {
        self.probs.iter().map(|(&b, &p)| cost(b) * p).sum()
    }

    /// Projects onto the nearest true probability distribution (clip
    /// negatives, renormalize) — used when downstream code needs real
    /// probabilities (e.g. CVaR over mitigated shots).
    pub fn to_probabilities(&self) -> BTreeMap<usize, f64> {
        let clipped: BTreeMap<usize, f64> =
            self.probs.iter().map(|(&b, &p)| (b, p.max(0.0))).collect();
        let sum: f64 = clipped.values().sum();
        if sum <= 0.0 {
            return clipped;
        }
        clipped.into_iter().map(|(b, p)| (b, p / sum)).collect()
    }
}

/// The M3 mitigator.
///
/// See the crate-level example.
#[derive(Debug, Clone, PartialEq)]
pub struct M3Mitigator {
    qubits: Vec<QubitReadout>,
    /// Iterative-solver tolerance on the residual's max-norm.
    tol: f64,
    /// Iteration cap before falling back to direct elimination.
    max_iters: usize,
}

impl M3Mitigator {
    /// Builds a mitigator from per-qubit confusion parameters.
    pub fn new(qubits: Vec<QubitReadout>) -> Self {
        Self {
            qubits,
            tol: 1e-10,
            max_iters: 200,
        }
    }

    /// Builds a mitigator matching a [`ReadoutModel`] (in practice: from
    /// the same calibration data the noise came from, as on hardware
    /// where M3 runs its own calibration circuits).
    pub fn from_readout_model(model: &ReadoutModel) -> Self {
        Self::new((0..model.n_qubits()).map(|q| model.qubit(q)).collect())
    }

    /// Number of qubits.
    pub fn n_qubits(&self) -> usize {
        self.qubits.len()
    }

    /// Element `P(observe row | true col)` of the assignment matrix,
    /// generated on the fly (factorizes over qubits).
    fn assignment(&self, row: usize, col: usize) -> f64 {
        let mut p = 1.0;
        for (q, r) in self.qubits.iter().enumerate() {
            let true_bit = (col >> q) & 1;
            let obs_bit = (row >> q) & 1;
            p *= match (true_bit, obs_bit) {
                (0, 0) => 1.0 - r.p01,
                (0, 1) => r.p01,
                (1, 1) => 1.0 - r.p10,
                (1, 0) => r.p10,
                _ => unreachable!(),
            };
            if p == 0.0 {
                return 0.0;
            }
        }
        p
    }

    /// The column-normalized `observed x observed` system `A_sub`,
    /// row-major: entry `(i, j)` is `P(observed[i] | observed[j])`
    /// divided by column `j`'s probability of staying inside the
    /// subspace (so probability leaking out does not bias the solution).
    fn subspace_system(&self, observed: &[usize]) -> Vec<f64> {
        let m = observed.len();
        let mut a: Vec<f64> = observed
            .iter()
            .flat_map(|&row| observed.iter().map(move |&col| self.assignment(row, col)))
            .collect();
        let col_norm: Vec<f64> = (0..m).map(|j| (0..m).map(|i| a[i * m + j]).sum()).collect();
        for row in a.chunks_exact_mut(m) {
            for (entry, norm) in row.iter_mut().zip(&col_norm) {
                *entry /= norm;
            }
        }
        a
    }

    /// Mitigates a shot record, returning quasi-probabilities over the
    /// observed bitstrings.
    ///
    /// # Panics
    ///
    /// Panics if the counts' width disagrees with the calibration or the
    /// record is empty.
    pub fn apply(&self, counts: &Counts) -> QuasiDistribution {
        assert_eq!(counts.n_qubits(), self.qubits.len(), "width mismatch");
        let observed = counts.observed();
        assert!(!observed.is_empty(), "cannot mitigate an empty record");
        let m = observed.len();
        let total = counts.total() as f64;
        let p_noisy: Vec<f64> = observed
            .iter()
            .map(|&b| counts.count(b) as f64 / total)
            .collect();
        let a = self.subspace_system(&observed);
        // Jacobi iteration with diagonal preconditioning; A_sub is
        // strongly diagonally dominant for realistic readout errors.
        let mut x = p_noisy.clone();
        let mut solved = false;
        for _ in 0..self.max_iters {
            let mut max_resid = 0.0f64;
            let mut next = vec![0.0; m];
            for (i, row) in a.chunks_exact(m).enumerate() {
                let mut ax = 0.0;
                for (a_ij, x_j) in row.iter().zip(&x) {
                    ax += a_ij * x_j;
                }
                let resid = p_noisy[i] - ax;
                max_resid = max_resid.max(resid.abs());
                next[i] = x[i] + resid / row[i];
            }
            x = next;
            if max_resid < self.tol {
                solved = true;
                break;
            }
        }
        if !solved {
            // Direct solve fallback (observed subspaces are small).
            x = direct_solve(&a, &p_noisy);
        }
        QuasiDistribution {
            n_qubits: self.qubits.len(),
            probs: observed.into_iter().zip(x).collect(),
        }
    }
}

/// Solves `a x = p` for the row-major `m x m` system `a` by Gaussian
/// elimination with partial pivoting (M3's fallback when Jacobi does not
/// converge; observed subspaces are small).
#[allow(clippy::needless_range_loop)] // Gaussian elimination indexes two rows at once
fn direct_solve(a: &[f64], p: &[f64]) -> Vec<f64> {
    let m = p.len();
    let mut a: Vec<Vec<f64>> = a.chunks_exact(m).map(<[f64]>::to_vec).collect();
    let mut b = p.to_vec();
    // Gaussian elimination with partial pivoting.
    for col in 0..m {
        let pivot = (col..m)
            .max_by(|&i, &j| {
                a[i][col]
                    .abs()
                    .partial_cmp(&a[j][col].abs())
                    .expect("finite")
            })
            .expect("nonempty");
        a.swap(col, pivot);
        b.swap(col, pivot);
        let d = a[col][col];
        assert!(d.abs() > 1e-14, "assignment matrix is singular");
        for row in (col + 1)..m {
            let factor = a[row][col] / d;
            for k in col..m {
                a[row][k] -= factor * a[col][k];
            }
            b[row] -= factor * b[col];
        }
    }
    let mut x = vec![0.0; m];
    for row in (0..m).rev() {
        let mut acc = b[row];
        for k in (row + 1)..m {
            acc -= a[row][k] * x[k];
        }
        x[row] = acc / a[row][row];
    }
    x
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn symmetric(n: usize, e: f64) -> M3Mitigator {
        M3Mitigator::new(vec![QubitReadout::symmetric(e); n])
    }

    #[test]
    fn identity_calibration_is_a_no_op() {
        let m3 = symmetric(2, 0.0);
        let mut counts = Counts::new(2);
        counts.record(0b01, 30);
        counts.record(0b10, 70);
        let q = m3.apply(&counts);
        assert!((q.probability(0b01) - 0.3).abs() < 1e-12);
        assert!((q.probability(0b10) - 0.7).abs() < 1e-12);
    }

    #[test]
    fn recovers_known_distribution() {
        // Truth: 50/50 over |000> and |111>; corrupt with 4% readout and
        // mitigate back.
        let model = ReadoutModel::uniform(3, 0.04);
        let mut truth = Counts::new(3);
        truth.record(0b000, 50_000);
        truth.record(0b111, 50_000);
        let mut rng = StdRng::seed_from_u64(23);
        let noisy = model.corrupt_counts(&truth, &mut rng);
        // Noise spreads mass to neighbours.
        assert!(noisy.frequency(0b000) < 0.47);
        let m3 = M3Mitigator::from_readout_model(&model);
        let q = m3.apply(&noisy);
        assert!((q.probability(0b000) - 0.5).abs() < 0.02);
        assert!((q.probability(0b111) - 0.5).abs() < 0.02);
        assert!((q.total() - 1.0).abs() < 0.02);
    }

    #[test]
    fn improves_expectation_values() {
        // Observable: parity ZZ on |11> should be +1.
        let model = ReadoutModel::uniform(2, 0.06);
        let mut truth = Counts::new(2);
        truth.record(0b11, 40_000);
        let mut rng = StdRng::seed_from_u64(5);
        let noisy = model.corrupt_counts(&truth, &mut rng);
        let parity = |b: usize| {
            if b.count_ones().is_multiple_of(2) {
                1.0
            } else {
                -1.0
            }
        };
        let raw = noisy.expectation_of(parity);
        let mitigated = M3Mitigator::from_readout_model(&model)
            .apply(&noisy)
            .expectation_of(parity);
        assert!(raw < 0.85, "noise should visibly bias parity (raw {raw})");
        assert!(mitigated > 0.97, "mitigated parity {mitigated}");
    }

    #[test]
    fn asymmetric_errors_are_handled() {
        let m3 = M3Mitigator::new(vec![
            QubitReadout {
                p01: 0.02,
                p10: 0.15,
            },
            QubitReadout {
                p01: 0.08,
                p10: 0.01,
            },
        ]);
        // True state |01> (qubit0 = 1): qubit 0 often decays to read 0.
        let model = ReadoutModel::new(vec![
            QubitReadout {
                p01: 0.02,
                p10: 0.15,
            },
            QubitReadout {
                p01: 0.08,
                p10: 0.01,
            },
        ]);
        let mut truth = Counts::new(2);
        truth.record(0b01, 60_000);
        let mut rng = StdRng::seed_from_u64(11);
        let noisy = model.corrupt_counts(&truth, &mut rng);
        let q = m3.apply(&noisy);
        assert!((q.probability(0b01) - 1.0).abs() < 0.02);
    }

    #[test]
    fn quasi_probabilities_can_go_negative_but_project_cleanly() {
        let model = ReadoutModel::uniform(2, 0.1);
        let mut truth = Counts::new(2);
        truth.record(0b00, 1_000);
        let mut rng = StdRng::seed_from_u64(2);
        let noisy = model.corrupt_counts(&truth, &mut rng);
        let q = M3Mitigator::from_readout_model(&model).apply(&noisy);
        let proj = q.to_probabilities();
        let sum: f64 = proj.values().sum();
        assert!((sum - 1.0).abs() < 1e-12);
        for &p in proj.values() {
            assert!(p >= 0.0);
        }
    }

    #[test]
    #[should_panic(expected = "width mismatch")]
    fn width_mismatch_panics() {
        let m3 = symmetric(3, 0.01);
        let mut counts = Counts::new(2);
        counts.record(0, 1);
        let _ = m3.apply(&counts);
    }

    /// A 4-qubit asymmetric calibration and a fixed 9-outcome record:
    /// the inputs of the bit pins below.
    fn pinned_inputs() -> (M3Mitigator, Counts) {
        let m3 = M3Mitigator::new(vec![
            QubitReadout {
                p01: 0.021,
                p10: 0.048,
            },
            QubitReadout {
                p01: 0.013,
                p10: 0.067,
            },
            QubitReadout {
                p01: 0.034,
                p10: 0.029,
            },
            QubitReadout {
                p01: 0.009,
                p10: 0.052,
            },
        ]);
        let mut counts = Counts::new(4);
        for (bits, n) in [
            (0b0000, 311),
            (0b1111, 287),
            (0b0001, 23),
            (0b0100, 19),
            (0b1110, 31),
            (0b1011, 17),
            (0b0110, 96),
            (0b1001, 88),
            (0b0111, 7),
        ] {
            counts.record(bits, n);
        }
        (m3, counts)
    }

    fn bits_of(q: &QuasiDistribution) -> Vec<u64> {
        q.iter().map(|(_, p)| p.to_bits()).collect()
    }

    #[test]
    fn jacobi_output_bits_are_pinned() {
        // Recorded from the solver that re-derived every assignment
        // entry on each sweep; the precomputed system must match it bit
        // for bit.
        let (m3, counts) = pinned_inputs();
        assert_eq!(
            bits_of(&m3.apply(&counts)),
            [
                0x3fd7dc270207ff5f,
                0x3f8c949bd243109a,
                0x3f56f6756c13e974,
                0x3fbe7aa349634d90,
                0xbf8acbf0f5bee7fe,
                0x3fbb0d5b804e43da,
                0x3f82f22e660f0328,
                0x3f93c68962747664,
                0x3fd7c8a375e4cf05,
            ]
        );
    }

    #[test]
    fn direct_solve_fallback_bits_are_pinned() {
        // No Jacobi sweep allowed: the record goes straight to Gaussian
        // elimination.
        let (m3, counts) = pinned_inputs();
        let direct = M3Mitigator { max_iters: 0, ..m3 };
        assert_eq!(
            bits_of(&direct.apply(&counts)),
            [
                0x3fd7dc2702082632,
                0x3f8c949bd23ab5a0,
                0x3f56f6756b4e645e,
                0x3fbe7aa34963fff2,
                0xbf8acbf0f5c7878a,
                0x3fbb0d5b804e68f7,
                0x3f82f22e660c1c06,
                0x3f93c6896271b0f9,
                0x3fd7c8a375e4dbce,
            ]
        );
    }

    #[test]
    fn direct_solve_agrees_with_jacobi_on_a_well_conditioned_record() {
        let model = ReadoutModel::uniform(3, 0.01);
        let mut truth = Counts::new(3);
        truth.record(0b000, 3_000);
        truth.record(0b101, 2_000);
        truth.record(0b111, 5_000);
        let noisy = model.corrupt_counts(&truth, &mut StdRng::seed_from_u64(7));
        let jacobi = M3Mitigator::from_readout_model(&model);
        let direct = M3Mitigator {
            max_iters: 0,
            ..jacobi.clone()
        };
        let (a, b) = (jacobi.apply(&noisy), direct.apply(&noisy));
        assert!(a.iter().count() > 3, "readout spreads the record");
        for ((ba, pa), (bb, pb)) in a.iter().zip(b.iter()) {
            assert_eq!(ba, bb);
            assert!((pa - pb).abs() < 1e-12, "{ba:b}: {pa} vs {pb}");
        }
    }
}
