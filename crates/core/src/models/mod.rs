//! The three VQA model variants the paper compares.
//!
//! | Model | Hamiltonian layer | Mixer layer | Parameters / layer |
//! |---|---|---|---|
//! | [`GateModel`] | gates (`RZZ`) | gates (`RX`) | 2 (`gamma`, `beta`) |
//! | [`HybridModel`] | gates (`RZZ`) — *algorithm knowledge kept* | native pulses | 1 + 3n (`gamma` + per-qubit amp/phase/freq) |
//! | [`PulseModel`] | trainable pulses | trainable pulses | 2 per physical pulse (structure gradually lost) |
//!
//! Every model routes its gate content inside a fixed connected *region*
//! of physical qubits (the paper fixes the logical-to-physical mapping),
//! so the density-matrix width never exceeds the region size.

mod gate;
mod hybrid;
mod pulse;
mod region;

pub(crate) use gate::route_in_region;
pub use gate::{GateModel, GateModelOptions};
pub use hybrid::{
    HybridModel, FREQ_SHIFT_HW_BOUND, FREQ_TRIM_AUTHORITY_RAD, MIXER_AMP_BOUND, PHASE_TRIM_BOUND,
};
pub use pulse::PulseModel;
pub use region::{default_region, region_coupling, try_region_coupling};

use hgp_sim::ExactReplayProgram;

use crate::executor::Executor;
use crate::program::Program;

/// A trainable VQA model: parameters in, executable hybrid program out.
///
/// Models are `Sync`: the training loop evaluates independent objective
/// probes (multi-start warm-up, simplex initializations, parameter-shift
/// gradients) in parallel, building one program per worker from the same
/// shared model.
pub trait VqaModel: Sync {
    /// The backend the model is compiled against.
    fn backend(&self) -> &hgp_device::Backend;

    /// Number of *logical* qubits (the problem size).
    fn n_qubits(&self) -> usize;

    /// Width of the simulated register (the routing region size).
    fn region_size(&self) -> usize;

    /// Number of trainable parameters.
    fn n_params(&self) -> usize;

    /// A sensible starting point for the optimizer.
    fn initial_params(&self) -> Vec<f64>;

    /// Builds the executable program for a parameter vector.
    ///
    /// # Panics
    ///
    /// Panics if `params.len() != self.n_params()`.
    fn build(&self, params: &[f64]) -> Program;

    /// The region: `layout[i]` = physical qubit of region wire `i`.
    fn layout(&self) -> &[usize];

    /// The executor training runs this model's probes on. Defaults to a
    /// fresh [`Executor`] over the model's backend and layout; models
    /// with a compiled artifact share its cached noise model, which is
    /// what lets [`VqaModel::exact_tape`] bind the artifact's template.
    fn executor(&self) -> Executor<'_> {
        Executor::new(self.backend(), self.layout().to_vec())
    }

    /// The exact-path superoperator tape of [`VqaModel::build`]'s
    /// program on `exec` — what a training probe replays. Defaults to
    /// walking the built program's schedule
    /// ([`Executor::exact_replay_program`]); models with a compiled
    /// template bind it instead, bit-identical to that walk.
    ///
    /// # Panics
    ///
    /// Panics if `params.len() != self.n_params()`.
    fn exact_tape(&self, exec: &Executor<'_>, params: &[f64]) -> ExactReplayProgram {
        exec.exact_replay_program(&self.build(params))
    }

    /// Maps measured region-wire counts to logical-qubit counts
    /// (accounting for routing's final permutation).
    fn interpret_counts(&self, counts: &hgp_sim::Counts) -> hgp_sim::Counts;

    /// Duration of one mixer layer in `dt` (the paper's headline
    /// duration metric).
    fn mixer_duration_dt(&self) -> u32;

    /// Indices of the *core* parameters for hierarchical training, if the
    /// model benefits from it.
    ///
    /// When present, the training loop first optimizes only these
    /// dimensions (the algorithmic parameters, e.g. QAOA's
    /// `gamma`/`theta`), then refines the full vector — the standard
    /// coarse-to-fine protocol for pulse-augmented ansatze, which keeps a
    /// high-dimensional model from losing to its own low-dimensional
    /// sub-model under a tight evaluation budget.
    fn coarse_param_ids(&self) -> Option<Vec<usize>> {
        None
    }

    /// Candidate starting points for training (the optimizer probes each
    /// once and starts from the best). Defaults to the single
    /// [`VqaModel::initial_params`] point.
    fn initial_param_candidates(&self) -> Vec<Vec<f64>> {
        vec![self.initial_params()]
    }
}
