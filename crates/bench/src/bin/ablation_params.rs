//! Ablation: which pulse parameters earn the hybrid model its edge?
//!
//! The paper motivates exposing amplitude, phase, *and* frequency
//! (§IV-A.1). This ablation trains the hybrid with the per-qubit trims
//! selectively frozen at zero, isolating each parameter family's
//! contribution. Frozen parameters still exist in the vector (same
//! optimizer dimensionality) but are ignored by the build.

use hgp_bench::{paper_train_config, pct, region_for};
use hgp_core::models::{GateModel, GateModelOptions, HybridModel, VqaModel};
use hgp_core::prelude::*;
use hgp_device::Backend;
use hgp_graph::instances;
use hgp_graph::Graph;

/// Wraps a hybrid model, zeroing selected per-qubit trim parameters.
struct FrozenTrims<'a> {
    inner: HybridModel<'a>,
    allow_phase: bool,
    allow_freq: bool,
}

impl FrozenTrims<'_> {
    /// The parameter vector with the frozen trims zeroed.
    fn masked(&self, params: &[f64]) -> Vec<f64> {
        let per_layer = self.inner.params_per_layer();
        let n = self.inner.n_qubits();
        let mut masked = params.to_vec();
        for layer in 0..self.inner.p() {
            for l in 0..n {
                if !self.allow_phase {
                    masked[layer * per_layer + 2 + 2 * l] = 0.0;
                }
                if !self.allow_freq {
                    masked[layer * per_layer + 2 + 2 * l + 1] = 0.0;
                }
            }
        }
        masked
    }
}

impl VqaModel for FrozenTrims<'_> {
    fn backend(&self) -> &Backend {
        VqaModel::backend(&self.inner)
    }
    fn n_qubits(&self) -> usize {
        self.inner.n_qubits()
    }
    fn region_size(&self) -> usize {
        self.inner.region_size()
    }
    fn n_params(&self) -> usize {
        self.inner.n_params()
    }
    fn initial_params(&self) -> Vec<f64> {
        self.inner.initial_params()
    }
    fn build(&self, params: &[f64]) -> Program {
        self.inner.build(&self.masked(params))
    }
    fn layout(&self) -> &[usize] {
        self.inner.layout()
    }
    fn executor(&self) -> Executor<'_> {
        self.inner.executor()
    }
    fn exact_tape(&self, exec: &Executor<'_>, params: &[f64]) -> hgp_sim::ExactReplayProgram {
        self.inner.exact_tape(exec, &self.masked(params))
    }
    fn interpret_counts(&self, counts: &hgp_sim::Counts) -> hgp_sim::Counts {
        self.inner.interpret_counts(counts)
    }
    fn mixer_duration_dt(&self) -> u32 {
        self.inner.mixer_duration_dt()
    }
}

fn run(backend: &Backend, graph: &Graph, allow_phase: bool, allow_freq: bool) -> f64 {
    let region = region_for(backend, graph.n_nodes());
    let inner = HybridModel::new(backend, graph, 1, region).expect("region");
    let model = FrozenTrims {
        inner,
        allow_phase,
        allow_freq,
    };
    train(&model, graph, &paper_train_config()).expectation_ar
}

fn main() {
    let backend = Backend::ibmq_toronto();
    let graph = instances::task1_three_regular_6();
    println!("Ablation: hybrid pulse-parameter families (ibmq_toronto, task 1)\n");
    let region = region_for(&backend, 6);
    let gate =
        GateModel::new(&backend, &graph, 1, region, GateModelOptions::raw()).expect("region");
    let r_gate = train(&gate, &graph, &paper_train_config());
    println!(
        "{:<42}{:>8}",
        "gate-level baseline",
        pct(r_gate.expectation_ar)
    );
    for (label, phase, freq) in [
        ("amplitude only (trims frozen)", false, false),
        ("amplitude + phase", true, false),
        ("amplitude + frequency", false, true),
        ("amplitude + phase + frequency (full)", true, true),
    ] {
        let ar = run(&backend, &graph, phase, freq);
        println!("{label:<42}{:>8}", pct(ar));
    }
    println!("\nexpected shape: each trim family adds AR; the full set is best (paper §IV-A.1)");
}
