//! The hybrid gate-pulse model — the paper's contribution.
//!
//! The Hamiltonian layer keeps its gate-level `RZZ` structure (problem
//! encoding, carefully calibrated 2q pulses, small parameter count); the
//! problem-agnostic mixer layer is replaced with one *native parametric
//! drive pulse per qubit*, exposing amplitude, phase, and per-pulse
//! frequency shift — parameters invisible at the gate level (§IV-A.1 of
//! the paper). The mixer pulse duration is a compile-time knob, binary
//! searched by Step I ([`crate::duration_search`]).

use hgp_device::Backend;
use hgp_graph::Graph;
use hgp_pulse::Waveform;
use hgp_sim::{Counts, ExactReplayProgram};

use crate::compile::{CircuitCompiler, CompiledProgram, HybridShape};
use crate::executor::Executor;
use crate::models::gate::GateModelOptions;
use crate::models::VqaModel;
use crate::program::Program;
use crate::qaoa::initial_point;

/// Hardware bound on the sustained mixer drive amplitude.
pub const MIXER_AMP_BOUND: f64 = 0.3;
/// Bound on the *accumulated* frequency-trim authority of one mixer
/// pulse, radians (`|freq_shift| * duration <= this`).
///
/// Hardware allows shifts of ~±100 MHz (±0.14 rad/dt, see
/// [`FREQ_SHIFT_HW_BOUND`]) — far more Z-authority over a 320 dt pulse
/// than the trim needs. On a smooth simulated landscape the optimizer
/// spends all of it synthesizing large interleaved Z rotations, leaving
/// the QAOA algorithm family entirely, which the paper's hardware-noise-
/// and budget-limited training could not do (their gains were ~5%). The
/// accumulated trim is therefore capped at about 1 rad — calibrating the
/// pulse parametrization's benefit to the paper's effect size — and made
/// duration-independent so Step I's duration reduction does not eat the
/// benefit (Fig. 5 finds none lost).
pub const FREQ_TRIM_AUTHORITY_RAD: f64 = 0.96;
/// The hardware limit on per-pulse frequency shifts, rad/dt (~100 MHz,
/// paper §IV-A.2).
pub const FREQ_SHIFT_HW_BOUND: f64 = 0.14;
/// Bound on the per-qubit carrier-phase trim, radians.
///
/// The phase parameter exists to track slow frame drift and residual `Z`
/// phases (paper §IV-A); it is a *trim*, not a free mixer axis — left
/// unbounded it turns the ansatz into a free-axis mixer, a materially
/// stronger algorithm than the QAOA family the paper evaluates.
pub const PHASE_TRIM_BOUND: f64 = 0.25;

/// The hybrid gate-pulse QAOA model.
///
/// Parameter layout (per QAOA layer, concatenated):
/// `[gamma, theta, phase_0, f_0, phase_1, f_1, ...]`:
///
/// - `theta` — the commanded mixer rotation angle, *shared* across qubits
///   (the mixer keeps its global `e^{-i beta X^n}` structure; `theta`
///   plays `2 beta`'s role and maps to each qubit's drive amplitude
///   through its calibration),
/// - per qubit, `phase` (drive phase, radians, clamped to the trim bound)
///   and `f` (frequency shift as a fraction of the allowed trim:
///   `freq = clamp(2 f, +-1) * bound`) — the pulse-only degrees of freedom
///   the paper highlights (§IV-A.1), which can cancel per-qubit frame
///   drift and calibration error invisible at the gate level.
///
/// All parameters are angle-like in magnitude so a single optimizer trust
/// region fits them.
///
/// ```
/// use hgp_core::models::{HybridModel, VqaModel};
/// use hgp_graph::instances;
/// use hgp_device::Backend;
///
/// let backend = Backend::ibmq_toronto();
/// let graph = instances::task1_three_regular_6();
/// let model = HybridModel::new(&backend, &graph, 1, vec![1, 2, 3, 4, 5, 7])
///     .expect("connected region");
/// assert_eq!(model.n_params(), 2 + 2 * 6);
/// assert_eq!(model.mixer_duration_dt(), 320); // raw, before Step I
/// ```
#[derive(Debug, Clone)]
pub struct HybridModel<'a> {
    backend: &'a Backend,
    /// The shape artifact everything delegates to — the same type the
    /// serve layer caches, so model-driven and served hybrid runs are
    /// one code path ([`crate::compile::CompiledProgram`]).
    compiled: CompiledProgram,
}

impl<'a> HybridModel<'a> {
    /// Builds the hybrid model with the raw (unoptimized) gate part and
    /// the raw 320 dt mixer duration.
    ///
    /// # Errors
    ///
    /// Returns an error if the region size mismatches the graph.
    pub fn new(
        backend: &'a Backend,
        graph: &Graph,
        p: usize,
        region: Vec<usize>,
    ) -> Result<Self, String> {
        Self::with_options(backend, graph, p, region, GateModelOptions::raw())
    }

    /// Builds the hybrid model with explicit gate-level options (the
    /// paper's GO configuration uses [`GateModelOptions::optimized`]).
    ///
    /// The shape work — per-layer Hamiltonian routing with chained
    /// layouts, mixer pulse calibration — is
    /// [`CircuitCompiler::compile_hybrid`]; the model is a thin view
    /// over the resulting [`CompiledProgram`].
    ///
    /// # Errors
    ///
    /// Returns an error if the region size mismatches the graph.
    pub fn with_options(
        backend: &'a Backend,
        graph: &Graph,
        p: usize,
        region: Vec<usize>,
        options: GateModelOptions,
    ) -> Result<Self, String> {
        let n = graph.n_nodes();
        if region.len() != n {
            return Err(format!(
                "region has {} qubits but the graph has {n} nodes",
                region.len()
            ));
        }
        assert!(p > 0, "need at least one QAOA layer");
        let shape = HybridShape::new(graph.clone(), p).with_options(options);
        let compiled = CircuitCompiler::new(backend, region).compile_hybrid(&shape)?;
        Ok(Self { backend, compiled })
    }

    /// Wraps an already-compiled hybrid program (e.g. one pulled from
    /// the serve cache) as a trainable model. `backend` must be the one
    /// the shape was compiled against.
    pub fn from_compiled(backend: &'a Backend, compiled: CompiledProgram) -> Self {
        Self { backend, compiled }
    }

    /// The underlying compiled artifact.
    pub fn compiled(&self) -> &CompiledProgram {
        &self.compiled
    }

    /// Consumes the model, yielding its compiled artifact.
    pub fn into_compiled(self) -> CompiledProgram {
        self.compiled
    }

    /// Sets the mixer pulse duration (Step I's knob). Must be a positive
    /// multiple of 32 dt per the Gaussian waveform constraint. Routing
    /// is reused; only the mixer waveform recompiles.
    ///
    /// # Panics
    ///
    /// Panics on an invalid duration.
    pub fn with_mixer_duration(mut self, duration_dt: u32) -> Self {
        self.compiled = self.compiled.with_mixer_duration(duration_dt);
        self
    }

    /// Rebuilds this model with a different mixer duration (used by the
    /// Step I binary search).
    pub fn clone_with_duration(&self, duration_dt: u32) -> Self {
        self.clone().with_mixer_duration(duration_dt)
    }

    /// The gate-level options the gate part was compiled with.
    pub fn options(&self) -> GateModelOptions {
        self.compiled.shape().options()
    }

    /// The problem instance.
    pub fn graph(&self) -> &Graph {
        self.compiled.shape().graph()
    }

    /// The backend.
    pub fn backend(&self) -> &Backend {
        self.backend
    }

    /// QAOA depth.
    pub fn p(&self) -> usize {
        self.compiled.shape().p()
    }

    /// The mixer waveform at the current duration.
    pub fn mixer_waveform(&self) -> Waveform {
        self.compiled.mixer_waveform()
    }

    /// Number of parameters per layer: `gamma`, the shared mixer angle
    /// `theta`, and `(phase, freq)` per qubit.
    pub fn params_per_layer(&self) -> usize {
        self.compiled.shape().params_per_layer()
    }

    /// The drive amplitude that reproduces `RX(theta)` at the current
    /// mixer duration on region wire `wire` (used for initialization).
    pub fn amp_for_angle(&self, wire: usize, theta: f64) -> f64 {
        self.compiled.amp_for_angle(wire, theta)
    }

    /// Expands a gate-level `[gamma_1, beta_1, ...]` point into this
    /// model's parameter vector (`theta = 2 beta`, trims zero).
    fn params_from_gate_point(&self, point: &[f64]) -> Vec<f64> {
        let mut params = Vec::with_capacity(self.n_params());
        for layer in 0..self.p() {
            params.push(point[2 * layer]);
            params.push(2.0 * point[2 * layer + 1]);
            for _ in 0..self.n_qubits() {
                params.push(0.0); // phase
                params.push(0.0); // frequency-shift scale
            }
        }
        params
    }
}

impl VqaModel for HybridModel<'_> {
    fn backend(&self) -> &Backend {
        self.backend
    }

    fn n_qubits(&self) -> usize {
        self.compiled.n_qubits()
    }

    fn region_size(&self) -> usize {
        self.compiled.region().len()
    }

    fn n_params(&self) -> usize {
        self.compiled.n_params()
    }

    fn initial_params(&self) -> Vec<f64> {
        // gamma from the standard schedule; mixer pulses initialized at
        // the gate-level equivalent RX(2 beta) — "initialized from the
        // gate-level circuit".
        self.params_from_gate_point(&initial_point(self.p()))
    }

    fn initial_param_candidates(&self) -> Vec<Vec<f64>> {
        crate::qaoa::initial_candidates(self.p())
            .iter()
            .map(|point| self.params_from_gate_point(point))
            .collect()
    }

    fn build(&self, params: &[f64]) -> Program {
        // Commanded amplitudes, then the *true* physics: amplitude
        // miscalibration and residual frame offset act on the pulse
        // exactly as on the gate model's pulses — but here the trainable
        // parameters can cancel them. See `CompiledProgram::bind`.
        self.compiled.bind(params)
    }

    fn layout(&self) -> &[usize] {
        self.compiled.region()
    }

    fn executor(&self) -> Executor<'_> {
        self.compiled.executor(self.backend)
    }

    fn exact_tape(&self, exec: &Executor<'_>, params: &[f64]) -> ExactReplayProgram {
        self.compiled.bind_exact(exec, params)
    }

    fn interpret_counts(&self, counts: &Counts) -> Counts {
        self.compiled.decode_counts(counts)
    }

    fn mixer_duration_dt(&self) -> u32 {
        self.compiled.mixer_duration_dt()
    }

    fn coarse_param_ids(&self) -> Option<Vec<usize>> {
        // Per layer: gamma and the shared mixer angle theta — exactly the
        // gate-level QAOA's (gamma, beta) pair. Coarse-stage training over
        // these dimensions is the gate model's own optimization, so the
        // hybrid never loses to its gate-level sub-model.
        Some(self.compiled.shape().coarse_param_ids())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::CostEvaluator;
    use hgp_graph::instances;

    fn region6() -> Vec<usize> {
        vec![1, 2, 3, 4, 5, 7]
    }

    #[test]
    fn parameter_layout() {
        let backend = Backend::ibmq_toronto();
        let graph = instances::task1_three_regular_6();
        let model = HybridModel::new(&backend, &graph, 2, region6()).unwrap();
        assert_eq!(model.n_params(), 2 * (2 + 12));
        assert_eq!(model.initial_params().len(), model.n_params());
    }

    #[test]
    fn initial_params_reproduce_gate_level_mixer() {
        // At the initial parameters, the hybrid mixer pulse equals
        // RX(2 beta) on every qubit, so on an ideal backend the hybrid and
        // gate models produce the same distribution.
        let backend = Backend::ideal(6);
        let graph = instances::task1_three_regular_6();
        let region: Vec<usize> = (0..6).collect();
        let hybrid = HybridModel::new(&backend, &graph, 1, region.clone()).unwrap();
        let params = hybrid.initial_params();
        let program = hybrid.build(&params);
        let exec = Executor::new(&backend, hybrid.layout().to_vec());
        let counts = hybrid.interpret_counts(&exec.sample(&program, 150_000, 1));

        let base = initial_point(1);
        let reference = crate::qaoa::qaoa_circuit(&graph, 1).bind(&base);
        let psi = hgp_sim::StateVector::from_circuit(&reference).unwrap();
        for b in 0..(1usize << 6) {
            assert!(
                (counts.frequency(b) - psi.probability(b)).abs() < 0.012,
                "state {b:06b}"
            );
        }
    }

    #[test]
    fn mixer_duration_is_configurable() {
        let backend = Backend::ibmq_toronto();
        let graph = instances::task1_three_regular_6();
        let model = HybridModel::new(&backend, &graph, 1, region6())
            .unwrap()
            .with_mixer_duration(128);
        assert_eq!(model.mixer_duration_dt(), 128);
        let program = model.build(&model.initial_params());
        // 6 mixer blocks of 128 dt.
        assert_eq!(program.pulse_duration_dt(), 6 * 128);
    }

    #[test]
    #[should_panic(expected = "multiple of 32")]
    fn invalid_duration_panics() {
        let backend = Backend::ibmq_toronto();
        let graph = instances::task1_three_regular_6();
        let _ = HybridModel::new(&backend, &graph, 1, region6())
            .unwrap()
            .with_mixer_duration(100);
    }

    #[test]
    fn amp_bound_is_enforced() {
        let backend = Backend::ibmq_toronto();
        let graph = instances::task1_three_regular_6();
        let model = HybridModel::new(&backend, &graph, 1, region6()).unwrap();
        let mut params = model.initial_params();
        params[1] = 50.0; // absurd amplitude; must be clamped, not explode
        let program = model.build(&params);
        let exec = Executor::new(&backend, model.layout().to_vec());
        let rho = exec.run(&program);
        assert!((rho.trace() - 1.0).abs() < 1e-8);
    }

    #[test]
    fn hybrid_runs_with_noise_and_scores_reasonably() {
        let backend = Backend::ibmq_toronto();
        let graph = instances::task1_three_regular_6();
        let model = HybridModel::new(&backend, &graph, 1, region6()).unwrap();
        let exec = Executor::new(&backend, model.layout().to_vec());
        let counts = exec.sample(&model.build(&model.initial_params()), 1024, 9);
        let eval = CostEvaluator::new(&graph);
        let ar = eval.approximation_ratio(&model.interpret_counts(&counts));
        assert!(ar > 0.4 && ar < 0.9, "initial hybrid AR {ar}");
    }
}
