//! Exact-path superoperator replay: the precompiled density-matrix tape.
//!
//! The exact density walk ([`crate::TrajectoryProgram::apply_exact`] over
//! a [`DensityMatrix`], which is what `Executor::run` drives) pays
//! interpretation costs per dispatch: every run
//! re-derives each gate's matrix and diagonal, and every noise channel
//! rebuilds its Kraus set and goes through the generic block kernel —
//! [`DensityMatrix::apply_kraus`] forms `K·B·K†` for every Kraus
//! operator on every `2^k × 2^k` block of `rho`, every time it fires.
//!
//! [`ExactReplayProgram`] compiles the recording once into a flat
//! superoperator tape, mirroring what [`super::ReplayProgram`] does for
//! trajectories:
//!
//! - maximal runs of consecutive diagonal gates fuse into a single
//!   elementwise sweep `rho[i][j] *= d(i) conj(d(j))` — one pass over
//!   the matrix regardless of run length, with per-gate factor tables so
//!   the per-entry multiply sequence is unchanged,
//! - dense gates and fixed unitaries carry their resolved matrices plus
//!   precomputed block offsets ([`DenseOp`]), applied left/right in one
//!   fused pass — no `Gate::matrix()` calls, no index re-derivation,
//! - channels are resolved at compile time ([`ExactChannel`]):
//!   single-Kraus channels apply in place like a unitary (no clone, no
//!   accumulator), one- and two-qubit multi-Kraus channels collapse
//!   into a sparse resolved superoperator (`4×4` / `16×16`, exact
//!   zeros dropped — structured channels like Pauli mixes and dampings
//!   are mostly zeros) swept over (row, col) block pairs in one
//!   strided pass, and wider multi-Kraus channels keep their Kraus
//!   matrices but work blockwise — `sum_k K B K†` per index block — in
//!   one pass over `rho` with no `dim²` clones,
//!
//! and [`ExactReplayEngine`] replays the tape over a reusable
//! [`ExactScratch`] arena, fanning row chunks out across rayon workers
//! once the matrix is large enough ([`kernels::PAR_QUBIT_THRESHOLD`]
//! total entries).
//!
//! # The parity contract
//!
//! The reference implementation stays exactly where it was: the
//! `ExactSink` schedule walk (`Executor::run`) driving
//! [`DensityMatrix`], equivalently
//! [`crate::TrajectoryProgram::apply_exact`] over the recorded program.
//! Training probes and exact serving jobs both execute on the tape, so
//! the walk is the reference oracle for both. Against that reference the
//! tape is
//!
//! - **bit-identical** on fused diagonal runs (same per-entry multiply
//!   sequence),
//! - **value-exact** on dense gates/unitaries and single-Kraus
//!   channels: the tape runs the two-pass reference arithmetic of
//!   [`DensityMatrix::apply_unitary_reference`] bit for bit (the
//!   left-pass and right-pass block updates touch disjoint entries, so
//!   fusing them per aligned row chunk only reorders independent
//!   writes), while the walk's block kernel skips exact-zero operator
//!   entries — every entry compares `==`, and only the sign of an
//!   exact zero may differ,
//! - **≤ 1e-12 elementwise** for resolved multi-Kraus channels, where
//!   summing over Kraus terms per entry (instead of per full-matrix
//!   sweep) reassociates the additions,
//!
//! and parallel execution is deterministic: chunk boundaries are aligned
//! to every operator's block structure, so per-entry arithmetic is
//! independent of the worker count. Trace preservation and Hermiticity
//! are property-tested alongside the elementwise pins in
//! `crates/sim/tests/exact_replay_parity.rs`.
//!
//! Remaining headroom, deliberately not taken here: Hermitian-half
//! storage (sweep only `j >= i` and mirror) and fusing adjacent channels
//! that share an eigenbasis into one resolved superoperator.
//!
//! # Example
//!
//! ```
//! use hgp_circuit::Gate;
//! use hgp_sim::{DensityMatrix, ExactReplayEngine, ExactReplayProgram, TrajectoryProgram};
//!
//! let mut program = TrajectoryProgram::new(2);
//! program.push_gate(Gate::H, &[0]);
//! program.push_gate(Gate::CX, &[0, 1]);
//! let tape = ExactReplayProgram::compile(&program);
//! let rho = ExactReplayEngine::evolve(&tape);
//!
//! let mut reference = DensityMatrix::zero_state(2);
//! program.apply_exact(&mut reference);
//! assert_eq!(rho, reference); // unitary-only tape: bit-identical
//! ```

use std::sync::Arc;

use rayon::prelude::*;

use hgp_math::{Complex64, Matrix};
use hgp_obs::profile::{timed, NoProfile, ProfileSink, ReplayOpKind};

use crate::density::DensityMatrix;
use crate::kernels::{self, DiagOp};
use crate::trajectory::{ChannelOp, TrajectoryOp, TrajectoryProgram};

use super::ReplaySlot;

/// Minimum rows per parallel chunk (widened to each op's alignment).
const PAR_CHUNK_ROWS: usize = 64;

/// Whether a sweep over `entries` matrix elements is worth fanning out.
///
/// Uses the same total-amplitude threshold as the statevector kernels:
/// for a density matrix, `dim² >= 2^PAR_QUBIT_THRESHOLD` means 10+
/// qubits.
#[inline]
fn fan_out(entries: usize) -> bool {
    entries >= (1 << kernels::PAR_QUBIT_THRESHOLD) && rayon::current_num_threads() > 1
}

/// Chunk height for an op whose blocks must stay chunk-local: a power
/// of two at least `align_rows`.
#[inline]
fn chunk_height(align_rows: usize) -> usize {
    align_rows.max(PAR_CHUNK_ROWS)
}

/// A dense operator with its embedding resolved at compile time:
/// matrix, target bit mask, and the `2^k` block row offsets that the
/// density kernels re-derive per call.
#[derive(Debug, Clone)]
struct DenseOp {
    /// The resolved operator (`2^k` square). Behind an [`Arc`] so
    /// template binds — which clone the tape and substitute only
    /// parametric slots — share shape-constant matrices.
    matrix: Arc<Matrix>,
    /// OR of the target bit masks.
    all_mask: usize,
    /// `offs[r]` = index bits operator row `r` contributes
    /// (MSB-first target convention, `base | offs[r]` = absolute row).
    offs: Vec<usize>,
    /// Row-chunk alignment keeping every block chunk-local:
    /// `2^(max target bit + 1)`.
    align_rows: usize,
}

impl DenseOp {
    fn new(matrix: Arc<Matrix>, targets: &[usize]) -> Self {
        let k = targets.len();
        assert_eq!(matrix.rows(), 1 << k, "operator dimension mismatch");
        for (i, &t) in targets.iter().enumerate() {
            assert!(!targets[..i].contains(&t), "targets must differ");
        }
        let masks: Vec<usize> = targets.iter().map(|&t| 1usize << t).collect();
        let all_mask: usize = masks.iter().fold(0, |a, &m| a | m);
        let offs: Vec<usize> = (0..1usize << k)
            .map(|r| {
                let mut off = 0usize;
                for (pos, &m) in masks.iter().enumerate() {
                    if (r >> (k - 1 - pos)) & 1 == 1 {
                        off |= m;
                    }
                }
                off
            })
            .collect();
        let align_rows = targets.iter().map(|&t| 2usize << t).max().unwrap_or(1);
        Self {
            matrix,
            all_mask,
            offs,
            align_rows,
        }
    }

    /// `rho -> M rho M†` over row-major `data`.
    ///
    /// Bit-identical to [`DensityMatrix::apply_unitary_reference`] (a
    /// full left pass, then a full right pass, every matrix entry in
    /// every chain): the left pass's (base, col) block updates and the
    /// right pass's row-local updates touch disjoint entry sets, so
    /// sweeping aligned row chunks (left then right per chunk) only
    /// reorders independent writes — for any chunking and any worker
    /// count.
    fn conjugate(&self, data: &mut [Complex64], dim: usize) {
        let height = chunk_height(self.align_rows);
        if fan_out(data.len()) && dim > height {
            data.par_chunks_mut(height * dim)
                .enumerate()
                .for_each(|(c, chunk)| self.conjugate_rows(chunk, c * height, dim));
        } else {
            self.conjugate_rows(data, 0, dim);
        }
    }

    fn conjugate_rows(&self, chunk: &mut [Complex64], row0: usize, dim: usize) {
        if self.offs.len() == 2 {
            return self.conjugate_rows_1q(chunk, row0, dim);
        }
        let m = self.matrix.as_ref();
        let rows = chunk.len() / dim;
        let mut vin = vec![Complex64::ZERO; self.offs.len()];
        // Left pass: rho -> M rho, per block row set, column by column.
        for local in 0..rows {
            let base = row0 + local;
            if base & self.all_mask != 0 {
                continue;
            }
            for col in 0..dim {
                for (r, &off) in self.offs.iter().enumerate() {
                    vin[r] = chunk[(base + off - row0) * dim + col];
                }
                for (r, &off) in self.offs.iter().enumerate() {
                    let mut acc = Complex64::ZERO;
                    for (c, &v) in vin.iter().enumerate() {
                        // hgp-analysis: allow(d4) -- this fused chain IS the
                        // pinned reference arithmetic the parity tests fix.
                        acc = m[(r, c)].mul_add(v, acc);
                    }
                    chunk[(base + off - row0) * dim + col] = acc;
                }
            }
        }
        // Right pass: rho -> rho M†, row-local.
        for row in chunk.chunks_exact_mut(dim) {
            for base in 0..dim {
                if base & self.all_mask != 0 {
                    continue;
                }
                for (c, &off) in self.offs.iter().enumerate() {
                    vin[c] = row[base + off];
                }
                // (rho M†)[row, c'] = sum_c rho[row, c] conj(M[c', c])
                for (cp, &off) in self.offs.iter().enumerate() {
                    let mut acc = Complex64::ZERO;
                    for (c, &v) in vin.iter().enumerate() {
                        // hgp-analysis: allow(d4) -- this fused chain IS the
                        // pinned reference arithmetic the parity tests fix.
                        acc = m[(cp, c)].conj().mul_add(v, acc);
                    }
                    row[base + off] = acc;
                }
            }
        }
    }

    /// One-qubit specialization of [`Self::conjugate_rows`]: matrix
    /// entries (and their conjugates for the right pass) hoist out of
    /// the sweeps and the gather buffer disappears. Each entry's
    /// accumulation chain is exactly the generic
    /// `m[r][1].mul_add(v1, m[r][0].mul_add(v0, 0))` — bit parity
    /// holds.
    fn conjugate_rows_1q(&self, chunk: &mut [Complex64], row0: usize, dim: usize) {
        let m = self.matrix.as_ref();
        let bit = self.offs[1];
        let (m00, m01) = (m[(0, 0)], m[(0, 1)]);
        let (m10, m11) = (m[(1, 0)], m[(1, 1)]);
        let rows = chunk.len() / dim;
        // Left pass: rho -> M rho.
        for local in 0..rows {
            if (row0 + local) & bit != 0 {
                continue;
            }
            let lo = local * dim;
            let hi = lo + bit * dim;
            for col in 0..dim {
                let v0 = chunk[lo + col];
                let v1 = chunk[hi + col];
                // hgp-analysis: allow(d4) -- this fused chain IS the pinned
                // reference arithmetic the parity tests fix.
                chunk[lo + col] = m01.mul_add(v1, m00.mul_add(v0, Complex64::ZERO));
                // hgp-analysis: allow(d4) -- same pinned reference chain.
                chunk[hi + col] = m11.mul_add(v1, m10.mul_add(v0, Complex64::ZERO));
            }
        }
        // Right pass: rho -> rho M†, row-local.
        let (c00, c01) = (m00.conj(), m01.conj());
        let (c10, c11) = (m10.conj(), m11.conj());
        for row in chunk.chunks_exact_mut(dim) {
            for base in 0..dim {
                if base & bit != 0 {
                    continue;
                }
                let v0 = row[base];
                let v1 = row[base + bit];
                // hgp-analysis: allow(d4) -- this fused chain IS the pinned
                // reference arithmetic the parity tests fix.
                row[base] = c01.mul_add(v1, c00.mul_add(v0, Complex64::ZERO));
                // hgp-analysis: allow(d4) -- same pinned reference chain.
                row[base + bit] = c11.mul_add(v1, c10.mul_add(v0, Complex64::ZERO));
            }
        }
    }
}

/// Widest channel resolved into a [`SuperOp`]: at two targets the
/// superoperator is 16×16 (4 KiB dense, far less sparse) and already
/// far cheaper than per-Kraus block products; at three it would be
/// 64×64 per block and the blockwise Kraus form wins again.
const SUPEROP_MAX_TARGETS: usize = 2;

/// A small (≤ [`SUPEROP_MAX_TARGETS`]-qubit) multi-Kraus channel
/// resolved into its superoperator
/// `s[(a,b)][(r,c)] = sum_k K_k[a,r] conj(K_k[b,c])`, swept over
/// (row-block, col-block) index pairs in one strided pass — no
/// per-Kraus `rho` clone, and no per-Kraus arithmetic at all.
///
/// The superoperator is stored sparse (CSR over output entries):
/// structured channels are mostly exact zeros — damping/dephasing Kraus
/// sets are diagonal or single-entry, and Pauli-mix channels cancel
/// pairwise to IEEE-exact `0.0` (equal-magnitude subtraction is exact)
/// — so the sweep touches only surviving terms. Dropping a `0.0` term
/// can at most flip the sign of a zero, well inside the multi-Kraus
/// `1e-12` parity regime.
#[derive(Debug, Clone)]
struct SuperOp {
    /// OR of the target bit masks.
    all_mask: usize,
    /// Block row/col offsets (`2^k` of them, MSB-first convention).
    offs: Vec<usize>,
    /// Row-chunk alignment keeping every block chunk-local.
    align_rows: usize,
    /// CSR row starts into `idx`/`coef`: one row per output entry
    /// `a * block + b` of the `block² × block²` superoperator.
    starts: Vec<u32>,
    /// Input entry `r * block + c` of each surviving term.
    idx: Vec<u32>,
    coef: Vec<Complex64>,
}

impl SuperOp {
    fn compile(kraus: &[Matrix], targets: &[usize]) -> Self {
        let geom = DenseOp::new(Arc::new(kraus[0].clone()), targets);
        let block = geom.offs.len();
        let entries = block * block;
        let mut dense = vec![Complex64::ZERO; entries * entries];
        for k in kraus {
            for a in 0..block {
                for b in 0..block {
                    for r in 0..block {
                        for c in 0..block {
                            dense[(a * block + b) * entries + r * block + c] +=
                                k[(a, r)] * k[(b, c)].conj();
                        }
                    }
                }
            }
        }
        let mut starts = Vec::with_capacity(entries + 1);
        let mut idx = Vec::new();
        let mut coef = Vec::new();
        starts.push(0u32);
        for row in dense.chunks_exact(entries) {
            for (i, &z) in row.iter().enumerate() {
                if z.re != 0.0 || z.im != 0.0 {
                    idx.push(i as u32);
                    coef.push(z);
                }
            }
            starts.push(idx.len() as u32);
        }
        Self {
            all_mask: geom.all_mask,
            offs: geom.offs,
            align_rows: geom.align_rows,
            starts,
            idx,
            coef,
        }
    }

    fn apply(&self, data: &mut [Complex64], dim: usize) {
        let height = chunk_height(self.align_rows);
        if fan_out(data.len()) && dim > height {
            data.par_chunks_mut(height * dim)
                .enumerate()
                .for_each(|(c, chunk)| self.apply_rows(chunk, c * height, dim));
        } else {
            self.apply_rows(data, 0, dim);
        }
    }

    fn apply_rows(&self, chunk: &mut [Complex64], row0: usize, dim: usize) {
        let block = self.offs.len();
        let entries = block * block;
        debug_assert!(entries <= 16, "SuperOp is capped at 2 targets");
        let rows = chunk.len() / dim;
        // Stack blocks sized for the 2-target cap.
        let mut v = [Complex64::ZERO; 16];
        let mut out = [Complex64::ZERO; 16];
        for local in 0..rows {
            let bi = row0 + local;
            if bi & self.all_mask != 0 {
                continue;
            }
            for bj in 0..dim {
                if bj & self.all_mask != 0 {
                    continue;
                }
                for (r, &ro) in self.offs.iter().enumerate() {
                    let row = (bi + ro - row0) * dim + bj;
                    for (c, &co) in self.offs.iter().enumerate() {
                        v[r * block + c] = chunk[row + co];
                    }
                }
                for (o, slot) in out.iter_mut().enumerate().take(entries) {
                    let mut acc = Complex64::ZERO;
                    for t in self.starts[o] as usize..self.starts[o + 1] as usize {
                        // hgp-analysis: allow(d4) -- this fused chain IS the
                        // pinned reference arithmetic the parity tests fix.
                        acc = self.coef[t].mul_add(v[self.idx[t] as usize], acc);
                    }
                    *slot = acc;
                }
                for (r, &ro) in self.offs.iter().enumerate() {
                    let row = (bi + ro - row0) * dim + bj;
                    for (c, &co) in self.offs.iter().enumerate() {
                        chunk[row + co] = out[r * block + c];
                    }
                }
            }
        }
    }
}

/// A multi-qubit multi-Kraus channel: Kraus matrices precompiled
/// alongside the block offsets, applied blockwise — for each (row base,
/// col base) pair, load the `2^k × 2^k` sub-block `B` and replace it
/// with `sum_k K_k B K_k†` — in one pass over `rho`, no full clones.
#[derive(Debug, Clone)]
struct KrausBlocks {
    kraus: Vec<Matrix>,
    all_mask: usize,
    offs: Vec<usize>,
    align_rows: usize,
}

impl KrausBlocks {
    fn apply(&self, data: &mut [Complex64], dim: usize) {
        let height = chunk_height(self.align_rows);
        if fan_out(data.len()) && dim > height {
            data.par_chunks_mut(height * dim)
                .enumerate()
                .for_each(|(c, chunk)| self.apply_rows(chunk, c * height, dim));
        } else {
            self.apply_rows(data, 0, dim);
        }
    }

    fn apply_rows(&self, chunk: &mut [Complex64], row0: usize, dim: usize) {
        let block = self.offs.len();
        let rows = chunk.len() / dim;
        let mut b = vec![Complex64::ZERO; block * block];
        let mut kb = vec![Complex64::ZERO; block * block];
        let mut acc = vec![Complex64::ZERO; block * block];
        for local in 0..rows {
            let bi = row0 + local;
            if bi & self.all_mask != 0 {
                continue;
            }
            for bj in 0..dim {
                if bj & self.all_mask != 0 {
                    continue;
                }
                for (r, &ro) in self.offs.iter().enumerate() {
                    let row = (bi + ro - row0) * dim + bj;
                    for (c, &co) in self.offs.iter().enumerate() {
                        b[r * block + c] = chunk[row + co];
                    }
                }
                acc.fill(Complex64::ZERO);
                for k in &self.kraus {
                    // kb = K b
                    for a in 0..block {
                        for c in 0..block {
                            let mut s = Complex64::ZERO;
                            for r in 0..block {
                                // hgp-analysis: allow(d4) -- this fused chain IS
                                // the pinned reference arithmetic the parity
                                // tests fix.
                                s = k[(a, r)].mul_add(b[r * block + c], s);
                            }
                            kb[a * block + c] = s;
                        }
                    }
                    // acc += kb K†: acc[a, b'] += sum_c kb[a, c] conj(K[b', c])
                    for a in 0..block {
                        for bp in 0..block {
                            let mut s = acc[a * block + bp];
                            for c in 0..block {
                                // hgp-analysis: allow(d4) -- this fused chain IS
                                // the pinned reference arithmetic the parity
                                // tests fix.
                                s = k[(bp, c)].conj().mul_add(kb[a * block + c], s);
                            }
                            acc[a * block + bp] = s;
                        }
                    }
                }
                for (r, &ro) in self.offs.iter().enumerate() {
                    let row = (bi + ro - row0) * dim + bj;
                    for (c, &co) in self.offs.iter().enumerate() {
                        chunk[row + co] = acc[r * block + c];
                    }
                }
            }
        }
    }
}

/// A noise channel resolved into its cheapest exact form at compile
/// time.
#[derive(Debug, Clone)]
enum ExactChannel {
    /// Single-Kraus channel: applied in place like a unitary — no
    /// clone, no accumulator.
    Unitary(DenseOp),
    /// One- or two-qubit multi-Kraus channel as a sparse resolved
    /// superoperator.
    Super(SuperOp),
    /// Wider multi-Kraus channel, blockwise `sum_k K B K†`.
    Blocks(KrausBlocks),
}

impl ExactChannel {
    fn compile(channel: &ChannelOp, targets: &[usize]) -> Self {
        let kraus = channel.kraus();
        if kraus.len() == 1 {
            return ExactChannel::Unitary(DenseOp::new(Arc::new(kraus[0].clone()), targets));
        }
        if targets.len() <= SUPEROP_MAX_TARGETS {
            return ExactChannel::Super(SuperOp::compile(kraus, targets));
        }
        // Reuse DenseOp's offset derivation for the block geometry.
        let geom = DenseOp::new(Arc::new(kraus[0].clone()), targets);
        ExactChannel::Blocks(KrausBlocks {
            kraus: kraus.to_vec(),
            all_mask: geom.all_mask,
            offs: geom.offs,
            align_rows: geom.align_rows,
        })
    }

    fn apply(&self, data: &mut [Complex64], dim: usize) {
        match self {
            ExactChannel::Unitary(op) => op.conjugate(data, dim),
            ExactChannel::Super(s) => s.apply(data, dim),
            ExactChannel::Blocks(b) => b.apply(data, dim),
        }
    }

    /// The profiling bucket this channel shape is attributed to: the
    /// in-place single-Kraus path profiles like a mixed-unitary pick,
    /// resolved superoperators and blockwise Kraus sums like a general
    /// channel.
    fn profile_kind(&self) -> ReplayOpKind {
        match self {
            ExactChannel::Unitary(_) => ReplayOpKind::MixedChannel,
            ExactChannel::Super(_) | ExactChannel::Blocks(_) => ReplayOpKind::GeneralChannel,
        }
    }
}

/// One instruction of a compiled exact tape.
#[derive(Debug, Clone)]
enum ExactOp {
    /// A fused run of consecutive diagonal gates: one elementwise sweep
    /// over `diag[start..start + len]`.
    DiagRun { start: usize, len: usize },
    /// A dense operator conjugation `rho -> M rho M†`.
    Apply(DenseOp),
    /// A precompiled channel.
    Channel(usize),
}

/// A flat, precompiled superoperator tape for the exact density-matrix
/// path. See the module docs.
#[derive(Debug, Clone)]
pub struct ExactReplayProgram {
    n_qubits: usize,
    ops: Vec<ExactOp>,
    /// Arena of fused diagonal ops, referenced by [`ExactOp::DiagRun`].
    diag: Vec<DiagOp>,
    /// Resolved channels, shared (never parametric) across template
    /// binds.
    channels: Arc<Vec<ExactChannel>>,
    /// Longest fused diagonal run — sizes the factor-table scratch.
    max_run: usize,
}

impl ExactReplayProgram {
    /// Compiles a recorded trajectory program into an exact tape.
    pub fn compile(program: &TrajectoryProgram) -> Self {
        Self::compile_with_slots(program).0
    }

    /// [`ExactReplayProgram::compile`] returning, for each trajectory
    /// op, the tape slot it compiled into (in trajectory-op order) —
    /// the substitution map exact schedule templates are built from.
    pub fn compile_with_slots(program: &TrajectoryProgram) -> (Self, Vec<ReplaySlot>) {
        let mut ops: Vec<ExactOp> = Vec::new();
        let mut diag: Vec<DiagOp> = Vec::new();
        let mut channels: Vec<ExactChannel> = Vec::new();
        let mut slots: Vec<ReplaySlot> = Vec::with_capacity(program.ops().len());
        let mut run_open = false;
        for op in program.ops() {
            match op {
                TrajectoryOp::Gate { gate, qubits } => {
                    // Mirror DensityMatrix::apply_gate's dispatch rule:
                    // diagonal gates take the phase-only path, everything
                    // else the dense kernels.
                    if let Some(d) = DiagOp::from_gate(gate, qubits) {
                        slots.push(ReplaySlot::Diag(diag.len()));
                        if run_open {
                            match ops.last_mut() {
                                Some(ExactOp::DiagRun { len, .. }) => *len += 1,
                                _ => unreachable!("open run is the last op"),
                            }
                        } else {
                            ops.push(ExactOp::DiagRun {
                                start: diag.len(),
                                len: 1,
                            });
                            run_open = true;
                        }
                        diag.push(d);
                        continue;
                    }
                    run_open = false;
                    slots.push(ReplaySlot::Op(ops.len()));
                    ops.push(ExactOp::Apply(DenseOp::new(
                        Arc::new(gate.matrix().expect("trajectory programs are bound")),
                        qubits,
                    )));
                }
                TrajectoryOp::Unitary { matrix, targets } => {
                    run_open = false;
                    slots.push(ReplaySlot::Op(ops.len()));
                    ops.push(ExactOp::Apply(DenseOp::new(
                        Arc::new(matrix.clone()),
                        targets,
                    )));
                }
                TrajectoryOp::Channel { channel, targets } => {
                    run_open = false;
                    slots.push(ReplaySlot::Channel(channels.len()));
                    ops.push(ExactOp::Channel(channels.len()));
                    channels.push(ExactChannel::compile(channel, targets));
                }
            }
        }
        let max_run = ops
            .iter()
            .map(|op| match op {
                ExactOp::DiagRun { len, .. } => *len,
                _ => 0,
            })
            .max()
            .unwrap_or(0);
        (
            Self {
                n_qubits: program.n_qubits(),
                ops,
                diag,
                channels: Arc::new(channels),
                max_run,
            },
            slots,
        )
    }

    /// Register width.
    pub fn n_qubits(&self) -> usize {
        self.n_qubits
    }

    /// Tape length (fused diagonal runs count as one op).
    pub fn n_ops(&self) -> usize {
        self.ops.len()
    }

    /// Number of resolved channels.
    pub fn n_channels(&self) -> usize {
        self.channels.len()
    }

    /// Number of fused diagonal entries.
    pub fn n_diag_ops(&self) -> usize {
        self.diag.len()
    }

    /// Overwrites a diagonal slot with a re-bound diagonal op — the
    /// template substitution step for bound-angle `RZ`/`RZZ`/`CZ`
    /// entries. The new op must target the same qubits the recorded op
    /// targeted (templates guarantee this by construction).
    ///
    /// # Panics
    ///
    /// Panics if the slot does not point into the diagonal arena.
    pub fn substitute_diag(&mut self, slot: ReplaySlot, d: DiagOp) {
        match slot {
            ReplaySlot::Diag(i) => self.diag[i] = d,
            other => panic!("slot {other:?} is not a diagonal entry"),
        }
    }

    /// Overwrites a dense slot's matrix — the template substitution
    /// step for re-integrated pulse unitaries and re-bound dense gates.
    /// The precomputed block offsets are shape-constant and stay.
    ///
    /// # Panics
    ///
    /// Panics if the slot is not a dense op or the dimension disagrees
    /// with the recorded targets.
    pub fn substitute_unitary(&mut self, slot: ReplaySlot, m: &Matrix) {
        match slot {
            ReplaySlot::Op(i) => match &mut self.ops[i] {
                ExactOp::Apply(dense) => {
                    assert_eq!(m.rows(), dense.offs.len(), "dimension mismatch");
                    dense.matrix = Arc::new(m.clone());
                }
                other => panic!("slot points at {other:?}, not a dense op"),
            },
            other => panic!("slot {other:?} is not a dense op"),
        }
    }

    /// Replays the tape into the scratch state (resetting it to
    /// `|0...0><0...0|` first). The hot loop performs no per-op
    /// allocation beyond tiny per-chunk block buffers.
    pub fn run_into(&self, scratch: &mut ExactScratch) {
        self.run_into_profiled(scratch, &NoProfile);
    }

    /// [`ExactReplayProgram::run_into`] with an opt-in [`ProfileSink`]
    /// attributing each tape op's wall time to its [`ReplayOpKind`]
    /// (dense conjugations by arity, channels via
    /// `ExactChannel::profile_kind`; the exact path never
    /// renormalizes). With [`NoProfile`] this monomorphizes to the
    /// unprofiled loop exactly; any sink leaves the sweeps untouched,
    /// so the evolved state stays bit-identical.
    pub fn run_into_profiled<P: ProfileSink>(&self, scratch: &mut ExactScratch, sink: &P) {
        assert_eq!(scratch.rho.n_qubits(), self.n_qubits, "scratch width");
        scratch.rho.reset_zero();
        let dim = scratch.rho.dim();
        for op in &self.ops {
            match op {
                ExactOp::DiagRun { start, len } => timed(sink, ReplayOpKind::DiagRun, || {
                    apply_diag_run(
                        &self.diag[*start..*start + *len],
                        &mut scratch.factors,
                        scratch.rho.data_mut(),
                        dim,
                    )
                }),
                ExactOp::Apply(dense) => {
                    let kind = if dense.offs.len() == 2 {
                        ReplayOpKind::Dense1q
                    } else {
                        ReplayOpKind::Dense2q
                    };
                    timed(sink, kind, || dense.conjugate(scratch.rho.data_mut(), dim))
                }
                ExactOp::Channel(i) => {
                    let channel = &self.channels[*i];
                    timed(sink, channel.profile_kind(), || {
                        channel.apply(scratch.rho.data_mut(), dim)
                    })
                }
            }
        }
    }
}

/// Applies a fused diagonal run: per-gate factor tables, then one
/// elementwise sweep multiplying each entry by every gate's
/// `d(i) conj(d(j))` in op order — the same per-entry multiply sequence
/// as gate-at-a-time `apply_diagonal_unitary`, hence bit-identical.
fn apply_diag_run(
    run: &[DiagOp],
    factors: &mut Vec<Complex64>,
    data: &mut [Complex64],
    dim: usize,
) {
    factors.clear();
    for op in run {
        for i in 0..dim {
            factors.push(op.factor(i));
        }
    }
    let tables: &[Complex64] = factors;
    if fan_out(data.len()) && dim > PAR_CHUNK_ROWS {
        data.par_chunks_mut(PAR_CHUNK_ROWS * dim)
            .enumerate()
            .for_each(|(c, chunk)| diag_sweep(tables, chunk, c * PAR_CHUNK_ROWS, dim));
    } else {
        diag_sweep(tables, data, 0, dim);
    }
}

fn diag_sweep(tables: &[Complex64], chunk: &mut [Complex64], row0: usize, dim: usize) {
    for (local, row) in chunk.chunks_exact_mut(dim).enumerate() {
        let i = row0 + local;
        for (j, entry) in row.iter_mut().enumerate() {
            for tab in tables.chunks_exact(dim) {
                *entry *= tab[i] * tab[j].conj();
            }
        }
    }
}

/// Reusable replay arena: the density matrix plus the diagonal
/// factor-table scratch.
#[derive(Debug, Clone)]
pub struct ExactScratch {
    rho: DensityMatrix,
    factors: Vec<Complex64>,
}

impl ExactScratch {
    /// Allocates an arena sized for `program`.
    pub fn for_program(program: &ExactReplayProgram) -> Self {
        let dim = 1usize << program.n_qubits;
        Self {
            rho: DensityMatrix::zero_state(program.n_qubits),
            factors: Vec::with_capacity(program.max_run * dim),
        }
    }

    /// The current state (the result of the last replay).
    pub fn state(&self) -> &DensityMatrix {
        &self.rho
    }
}

/// Replays [`ExactReplayProgram`] tapes over a reusable arena.
///
/// Unlike the trajectory [`super::ReplayEngine`] there is no ensemble:
/// one replay produces the exact mixed state. The engine exists so
/// repeated dispatches (serving, optimization loops) reuse the `4^n`
/// allocation.
#[derive(Debug, Clone)]
pub struct ExactReplayEngine {
    scratch: ExactScratch,
}

impl ExactReplayEngine {
    /// Allocates an engine sized for `program`.
    pub fn for_program(program: &ExactReplayProgram) -> Self {
        Self {
            scratch: ExactScratch::for_program(program),
        }
    }

    /// Replays the tape from `|0...0><0...0|` and returns the resulting
    /// state (borrowed from the arena).
    pub fn run(&mut self, program: &ExactReplayProgram) -> &DensityMatrix {
        program.run_into(&mut self.scratch);
        self.scratch.state()
    }

    /// [`ExactReplayEngine::run`] with an opt-in [`ProfileSink`] (see
    /// [`ExactReplayProgram::run_into_profiled`]).
    pub fn run_profiled<P: ProfileSink>(
        &mut self,
        program: &ExactReplayProgram,
        sink: &P,
    ) -> &DensityMatrix {
        program.run_into_profiled(&mut self.scratch, sink);
        self.scratch.state()
    }

    /// Consumes the engine, yielding the arena's state.
    pub fn into_state(self) -> DensityMatrix {
        self.scratch.rho
    }

    /// One-shot convenience: compile-free replay to an owned state.
    pub fn evolve(program: &ExactReplayProgram) -> DensityMatrix {
        let mut engine = Self::for_program(program);
        program.run_into(&mut engine.scratch);
        engine.into_state()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hgp_circuit::{Gate, Param};
    use hgp_math::c64;
    use hgp_math::pauli::{sigma_x, sigma_y, sigma_z};

    #[test]
    #[should_panic(expected = "targets must differ")]
    fn dense_op_rejects_repeated_targets() {
        // A repeated target would alias two operator bits onto one qubit.
        DenseOp::new(Arc::new(Gate::CX.matrix().unwrap()), &[1, 1]);
    }

    fn depolarizing_op(p: f64) -> ChannelOp {
        let kraus = vec![
            Matrix::identity(2).scale(c64((1.0 - 3.0 * p / 4.0).sqrt(), 0.0)),
            sigma_x().scale(c64((p / 4.0).sqrt(), 0.0)),
            sigma_y().scale(c64((p / 4.0).sqrt(), 0.0)),
            sigma_z().scale(c64((p / 4.0).sqrt(), 0.0)),
        ];
        ChannelOp::general(kraus)
    }

    fn two_qubit_dephasing(p: f64) -> ChannelOp {
        let id = Matrix::identity(4).scale(c64((1.0 - p).sqrt(), 0.0));
        let zz = Matrix::from_vec(
            4,
            4,
            vec![
                c64(1.0, 0.0),
                Complex64::ZERO,
                Complex64::ZERO,
                Complex64::ZERO,
                Complex64::ZERO,
                c64(-1.0, 0.0),
                Complex64::ZERO,
                Complex64::ZERO,
                Complex64::ZERO,
                Complex64::ZERO,
                c64(-1.0, 0.0),
                Complex64::ZERO,
                Complex64::ZERO,
                Complex64::ZERO,
                Complex64::ZERO,
                c64(1.0, 0.0),
            ],
        )
        .scale(c64(p.sqrt(), 0.0));
        ChannelOp::general(vec![id, zz])
    }

    fn reference(program: &TrajectoryProgram) -> DensityMatrix {
        let mut rho = DensityMatrix::zero_state(program.n_qubits());
        program.apply_exact(&mut rho);
        rho
    }

    fn assert_close(a: &DensityMatrix, b: &DensityMatrix, tol: f64) {
        let dim = a.dim();
        for i in 0..dim {
            for j in 0..dim {
                assert!(
                    (a.get(i, j) - b.get(i, j)).norm() <= tol,
                    "mismatch at ({i},{j}): {:?} vs {:?}",
                    a.get(i, j),
                    b.get(i, j)
                );
            }
        }
    }

    #[test]
    fn unitary_only_tape_is_bit_identical() {
        let mut program = TrajectoryProgram::new(3);
        program.push_gate(Gate::H, &[0]);
        program.push_gate(Gate::Rz(Param::bound(0.7)), &[0]);
        program.push_gate(Gate::Rzz(Param::bound(-0.4)), &[0, 2]);
        program.push_gate(Gate::CZ, &[1, 2]);
        program.push_gate(Gate::CX, &[0, 1]);
        program.push_unitary(Gate::Rx(Param::bound(1.1)).matrix().unwrap(), &[2]);
        let tape = ExactReplayProgram::compile(&program);
        assert_eq!(ExactReplayEngine::evolve(&tape), reference(&program));
    }

    #[test]
    fn single_kraus_channel_is_bit_identical() {
        let mut program = TrajectoryProgram::new(2);
        program.push_gate(Gate::H, &[0]);
        program.push_channel(
            ChannelOp::general(vec![Gate::CX.matrix().unwrap()]),
            &[0, 1],
        );
        let tape = ExactReplayProgram::compile(&program);
        assert_eq!(ExactReplayEngine::evolve(&tape), reference(&program));
    }

    #[test]
    fn multi_kraus_channels_match_reference_within_1e_12() {
        let mut program = TrajectoryProgram::new(2);
        program.push_gate(Gate::H, &[0]);
        program.push_gate(Gate::CX, &[0, 1]);
        program.push_channel(depolarizing_op(0.2), &[0]);
        program.push_channel(two_qubit_dephasing(0.3), &[0, 1]);
        let tape = ExactReplayProgram::compile(&program);
        let rho = ExactReplayEngine::evolve(&tape);
        assert_close(&rho, &reference(&program), 1e-12);
        assert!((rho.trace() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn three_qubit_channel_takes_the_kraus_block_path() {
        // Correlated ZZZ dephasing on three targets: beyond
        // SUPEROP_MAX_TARGETS, so this must exercise KrausBlocks.
        let p = 0.25f64;
        let mut zzz = Matrix::identity(8);
        for i in 0..8usize {
            if (i.count_ones() & 1) == 1 {
                zzz[(i, i)] = c64(-1.0, 0.0);
            }
        }
        let channel = ChannelOp::general(vec![
            Matrix::identity(8).scale(c64((1.0 - p).sqrt(), 0.0)),
            zzz.scale(c64(p.sqrt(), 0.0)),
        ]);
        let mut program = TrajectoryProgram::new(3);
        program.push_gate(Gate::H, &[0]);
        program.push_gate(Gate::CX, &[0, 1]);
        program.push_gate(Gate::Rz(Param::bound(0.6)), &[2]);
        program.push_channel(channel, &[0, 1, 2]);
        let tape = ExactReplayProgram::compile(&program);
        assert!(matches!(
            tape.channels.as_slice(),
            [ExactChannel::Blocks(_)]
        ));
        let rho = ExactReplayEngine::evolve(&tape);
        assert_close(&rho, &reference(&program), 1e-12);
        assert!((rho.trace() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn diag_runs_fuse_and_stay_bit_identical() {
        let mut program = TrajectoryProgram::new(3);
        program.push_gate(Gate::H, &[0]);
        program.push_gate(Gate::H, &[1]);
        program.push_gate(Gate::H, &[2]);
        for (a, b) in [(0, 1), (1, 2), (0, 2)] {
            program.push_gate(Gate::Rzz(Param::bound(0.3 * (a + b) as f64)), &[a, b]);
        }
        program.push_gate(Gate::Rz(Param::bound(-0.9)), &[1]);
        let tape = ExactReplayProgram::compile(&program);
        // The cost layer fused into one run (after the three H ops).
        assert_eq!(tape.n_ops(), 4);
        assert_eq!(tape.n_diag_ops(), 4);
        assert_eq!(ExactReplayEngine::evolve(&tape), reference(&program));
    }

    #[test]
    fn engine_reuse_resets_the_arena() {
        let mut program = TrajectoryProgram::new(2);
        program.push_gate(Gate::H, &[0]);
        program.push_channel(depolarizing_op(0.4), &[0]);
        let tape = ExactReplayProgram::compile(&program);
        let mut engine = ExactReplayEngine::for_program(&tape);
        let first = engine.run(&tape).clone();
        let second = engine.run(&tape).clone();
        assert_eq!(first, second);
    }

    #[test]
    fn substitution_rebinds_diag_and_dense_slots() {
        let mut program = TrajectoryProgram::new(2);
        program.push_gate(Gate::Rz(Param::bound(0.1)), &[0]);
        program.push_unitary(Gate::Rx(Param::bound(0.2)).matrix().unwrap(), &[1]);
        let (mut tape, slots) = ExactReplayProgram::compile_with_slots(&program);
        tape.substitute_diag(
            slots[0],
            DiagOp::from_gate(&Gate::Rz(Param::bound(1.5)), &[0]).unwrap(),
        );
        tape.substitute_unitary(slots[1], &Gate::Rx(Param::bound(-0.8)).matrix().unwrap());

        let mut rebound = TrajectoryProgram::new(2);
        rebound.push_gate(Gate::Rz(Param::bound(1.5)), &[0]);
        rebound.push_unitary(Gate::Rx(Param::bound(-0.8)).matrix().unwrap(), &[1]);
        assert_eq!(ExactReplayEngine::evolve(&tape), reference(&rebound));
    }
}
