//! The shared worker core: what every served job goes through between
//! admission and delivery, independent of how the [`crate::Daemon`]
//! queues and schedules it.
//!
//! 1. **Validate** — [`validate_request`] checks a request against its
//!    own declared shape (parameter counts, observable widths, shot
//!    counts, spec/program family pairing). Failures become
//!    validate-stage [`JobError`]s, never panics.
//! 2. **Compile** — [`compile_artifact`] turns a program shape into its
//!    cached form ([`hgp_core::compile::CircuitCompiler`] — cancellation,
//!    SABRE placement, routing; for hybrid shapes also per-layer layout
//!    chaining and mixer pulse calibration). The daemon runs it at most
//!    once per structural key and caches the result; a shape that fails
//!    to compile (e.g. a malformed pulse schedule) fails exactly the jobs
//!    of that shape, with a compile-stage [`JobError`].
//! 3. **Bind and execute** — [`execute_job`] binds each job's parameters
//!    into the shared compiled artifact and executes. The four
//!    trajectory kinds bind through the artifact's **schedule template**
//!    (`bind_replay`): the ASAP walk, idle analysis, and channel tables
//!    recorded once per shape (on its first trajectory bind) are reused,
//!    only the parametric entries (bound-angle diagonals, mixer pulse
//!    blocks) are substituted, and the shots run on the op-fused
//!    [`hgp_sim::ReplayEngine`] — bit-identical to the reference
//!    trajectory engine. Execution is wrapped in a panic boundary: any
//!    residual panic on request-derived data becomes an execute-stage
//!    [`JobError`] instead of killing the worker.
//!
//! Because a job's output depends only on `(compiled shape, params,
//! seed)` and all three are fixed at admission, **any concurrent
//! schedule is bit-identical to sequential execution** — the
//! integration suites pin this against hand-driven
//! [`Executor`](hgp_core::executor::Executor) runs for circuit and
//! hybrid programs alike.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Instant;

use hgp_core::compile::CircuitCompiler;
use hgp_core::models::GateModelOptions;
use hgp_device::Backend;
use hgp_sim::{ProfileSink, SimBackend, StateVector};

use crate::cache::CompiledArtifact;
use crate::job::{JobError, JobId, JobOutput, JobProgram, JobRequest, JobResult, JobSpec};

/// Worker pool, cache, seed and compile parameters — the
/// [`crate::DaemonConfig::service`] part of a daemon's configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Physical qubits circuits are routed into; a circuit of `n`
    /// qubits uses the first `n` entries (which must induce a connected
    /// subgraph).
    pub layout: Vec<usize>,
    /// Persistent worker threads. Defaults to the host's available
    /// parallelism, capped at 8.
    pub workers: usize,
    /// Compiled shapes kept in the LRU cache.
    pub cache_capacity: usize,
    /// Base seed of the evaluation stream.
    pub base_seed: u64,
    /// Transpilation passes applied once per circuit shape (hybrid
    /// shapes carry their own pass configuration).
    pub compile_options: GateModelOptions,
}

impl ServeConfig {
    /// Defaults: host parallelism (max 8) workers, 64 cached shapes,
    /// base seed 42, optimized compilation.
    pub fn new(layout: Vec<usize>) -> Self {
        let workers = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
            .min(8);
        Self {
            layout,
            workers,
            cache_capacity: 64,
            base_seed: 42,
            compile_options: GateModelOptions::optimized(),
        }
    }
}

/// A job admitted to the stream: id and seed fixed, awaiting dispatch.
///
/// This is the unit of the worker core: the daemon admits requests into
/// `PreparedJob`s and executes them through [`execute_job`], so the
/// determinism contract is written (and tested) in one place.
pub(crate) struct PreparedJob {
    pub(crate) id: JobId,
    pub(crate) seed: u64,
    pub(crate) params: Vec<f64>,
    pub(crate) spec: JobSpec,
}

impl PreparedJob {
    /// A result shell for a job that never reached a worker.
    pub(crate) fn failed(&self, error: JobError) -> JobResult {
        JobResult {
            id: self.id,
            seed: self.seed,
            cache_hit: false,
            elapsed_ns: 0,
            output: Err(error),
        }
    }
}

/// Validates one request against its own declared shape — parameter
/// counts, observable widths, shot counts, spec/program family pairing.
/// Runs at admission, before any execution; failures become
/// validate-stage job errors, never panics.
pub(crate) fn validate_request(request: &JobRequest) -> Result<(), JobError> {
    if request.params.len() != request.program.n_params() {
        return Err(JobError::validate(format!(
            "expected {} parameter(s), got {}",
            request.program.n_params(),
            request.params.len()
        )));
    }
    let is_hybrid_program = matches!(request.program, JobProgram::Hybrid(_));
    if request.spec.is_hybrid() != is_hybrid_program {
        return Err(JobError::validate(if is_hybrid_program {
            "hybrid programs require a Hybrid* job spec"
        } else {
            "circuit programs cannot run under a Hybrid* job spec"
        }));
    }
    let observable = match &request.spec {
        JobSpec::Expectation { observable }
        | JobSpec::TrajectoryExpectation { observable, .. }
        | JobSpec::HybridExpectation { observable }
        | JobSpec::HybridTrajectoryExpectation { observable, .. } => Some(observable),
        _ => None,
    };
    if let Some(observable) = observable {
        if observable.n_qubits() != request.program.n_qubits() {
            return Err(JobError::validate(format!(
                "observable width {} must match the program width {}",
                observable.n_qubits(),
                request.program.n_qubits()
            )));
        }
    }
    match &request.spec {
        JobSpec::Counts { shots: 0 } | JobSpec::HybridCounts { shots: 0 } => {
            return Err(JobError::validate("sampling needs at least one shot"));
        }
        JobSpec::TrajectoryCounts { shots: 0 } | JobSpec::HybridTrajectoryCounts { shots: 0 } => {
            return Err(JobError::validate(
                "trajectory sampling needs at least one shot",
            ));
        }
        JobSpec::TrajectoryExpectation {
            trajectories: 0, ..
        }
        | JobSpec::HybridTrajectoryExpectation {
            trajectories: 0, ..
        } => {
            return Err(JobError::validate(
                "trajectory estimation needs at least one trajectory",
            ));
        }
        _ => {}
    }
    Ok(())
}

/// Compiles one program shape into its cached artifact form — the
/// daemon's cache-miss path. All request-derived failures come back as
/// compile-stage [`JobError`]s.
pub(crate) fn compile_artifact(
    backend: &Backend,
    layout: &[usize],
    options: GateModelOptions,
    program: &JobProgram,
) -> Result<CompiledArtifact, JobError> {
    let compiler = CircuitCompiler::new(backend, layout.to_vec()).with_options(options);
    match program {
        JobProgram::Circuit(circuit) => compiler
            .compile(circuit)
            .map(|c| CompiledArtifact::Circuit(Arc::new(c))),
        JobProgram::Hybrid(shape) => compiler
            .compile_hybrid(shape)
            .map(|p| CompiledArtifact::Hybrid(Arc::new(p))),
    }
    .map_err(JobError::compile)
}

/// Times the bind stage of a job, accumulating into `acc`.
fn timed_bind<T>(acc: &mut u64, f: impl FnOnce() -> T) -> T {
    let t0 = Instant::now();
    let out = f();
    *acc += t0.elapsed().as_nanos() as u64;
    out
}

/// Stochastic shots a spec runs on the trajectory replay path — the
/// unit of the shots-executed metric. Counts jobs, not side effects:
/// expectation kinds execute one trajectory per requested sample, so
/// their trajectory count *is* their shot count. Non-trajectory kinds
/// (statevector, density matrix, exact sampling) report zero.
pub(crate) fn trajectory_shots(spec: &JobSpec) -> u64 {
    match spec {
        JobSpec::TrajectoryCounts { shots } | JobSpec::HybridTrajectoryCounts { shots } => {
            *shots as u64
        }
        JobSpec::TrajectoryExpectation { trajectories, .. }
        | JobSpec::HybridTrajectoryExpectation { trajectories, .. } => *trajectories as u64,
        _ => 0,
    }
}

/// Executes one job against its compiled shape, returning the result and
/// the job's bind-stage nanoseconds. Pure in `(compiled, params, seed)`
/// — the determinism contract lives here. The panic boundary converts
/// any residual panic on request-derived data into an execute-stage
/// [`JobError`]: a bad job must never take its worker thread down.
pub(crate) fn execute_job<P: ProfileSink>(
    backend: &Backend,
    compiled: &CompiledArtifact,
    cache_hit: bool,
    job: PreparedJob,
    sink: &P,
) -> (JobResult, u64) {
    let t0 = Instant::now();
    let mut bind_ns = 0u64;
    let output = catch_unwind(AssertUnwindSafe(|| {
        execute_spec(backend, compiled, &job, &mut bind_ns, sink)
    }))
    .unwrap_or_else(|payload| {
        let message = payload
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "worker panicked".to_string());
        Err(JobError::execute(message))
    });
    let result = JobResult {
        id: job.id,
        seed: job.seed,
        cache_hit,
        elapsed_ns: t0.elapsed().as_nanos() as u64,
        output,
    };
    (result, bind_ns)
}

/// The spec dispatch of [`execute_job`]. Binds are timed into `bind_ns`
/// so the metrics can split per-job worker time into bind vs execute.
///
/// The four trajectory kinds ride the schedule-template path:
/// [`hgp_core::compile::CompiledCircuit::bind_replay`] /
/// [`hgp_core::compile::CompiledProgram::bind_replay`] substitute the
/// job's parameters into the tape recorded at compile time — no
/// per-dispatch schedule walk — and the replay engine runs the shots
/// with zero per-shot allocation, bit-identical to the reference
/// trajectory engine.
///
/// The five exact kinds (`DensityMatrix`/`Counts`/`Expectation` and
/// their hybrid twins) ride the analogous exact-path template:
/// `bind_exact` substitutes into the precompiled superoperator tape and
/// `run_exact_replay` evolves the density matrix with resolved channels
/// — no schedule walk, no Kraus re-embedding, no per-Kraus clones —
/// pinned against the reference density walk (bit-identical on
/// order-preserving ops, ≤ 1e-12 elementwise on resolved multi-Kraus
/// channels; see `hgp_sim::replay::exact`).
fn execute_spec<P: ProfileSink>(
    backend: &Backend,
    compiled: &CompiledArtifact,
    job: &PreparedJob,
    bind_ns: &mut u64,
    sink: &P,
) -> Result<JobOutput, JobError> {
    match (compiled, &job.spec) {
        (CompiledArtifact::Circuit(compiled), spec) if !spec.is_hybrid() => match spec {
            JobSpec::StateVector => {
                let bound = timed_bind(bind_ns, || compiled.circuit().bind(&job.params));
                let wire = StateVector::execute(&bound).expect("compiled circuits bind fully");
                Ok(JobOutput::StateVector {
                    probabilities: compiled.decode_probabilities(&wire.probabilities()),
                })
            }
            JobSpec::DensityMatrix => {
                let exec = compiled.executor(backend);
                let tape = timed_bind(bind_ns, || compiled.bind_exact(&exec, &job.params));
                let rho = exec.run_exact_replay_profiled(&tape, sink);
                Ok(JobOutput::DensityMatrix {
                    probabilities: compiled.decode_probabilities(&rho.probabilities()),
                    purity: rho.purity(),
                })
            }
            JobSpec::Counts { shots } => {
                let exec = compiled.executor(backend);
                let tape = timed_bind(bind_ns, || compiled.bind_exact(&exec, &job.params));
                let rho = exec.run_exact_replay_profiled(&tape, sink);
                let counts = exec.sample_state(&rho, *shots, job.seed);
                Ok(JobOutput::Counts(compiled.decode_counts(&counts)))
            }
            JobSpec::Expectation { observable } => {
                let exec = compiled.executor(backend);
                let tape = timed_bind(bind_ns, || compiled.bind_exact(&exec, &job.params));
                let rho = exec.run_exact_replay_profiled(&tape, sink);
                Ok(JobOutput::Expectation {
                    value: SimBackend::expectation(&rho, &compiled.wire_observable(observable)),
                })
            }
            JobSpec::TrajectoryCounts { shots } => {
                // Template path: substitute params into the schedule
                // recorded at compile time; trajectory i draws its
                // randomness from stream position (job seed, i).
                let exec = compiled.executor(backend);
                let replay = timed_bind(bind_ns, || compiled.bind_replay(&exec, &job.params));
                let counts = exec.sample_replay_profiled(&replay, *shots, job.seed, sink);
                Ok(JobOutput::TrajectoryCounts(compiled.decode_counts(&counts)))
            }
            JobSpec::TrajectoryExpectation {
                observable,
                trajectories,
            } => {
                let exec = compiled.executor(backend);
                let replay = timed_bind(bind_ns, || compiled.bind_replay(&exec, &job.params));
                let (value, std_error) = exec.expectation_replay_profiled(
                    &replay,
                    &compiled.wire_observable(observable),
                    *trajectories,
                    job.seed,
                    sink,
                );
                Ok(JobOutput::TrajectoryExpectation {
                    value,
                    std_error,
                    trajectories: *trajectories,
                })
            }
            _ => unreachable!("validated spec/program pairing"),
        },
        (CompiledArtifact::Hybrid(compiled), spec) => match spec {
            JobSpec::HybridCounts { shots } => {
                let exec = compiled.executor(backend);
                let tape = timed_bind(bind_ns, || compiled.bind_exact(&exec, &job.params));
                let rho = exec.run_exact_replay_profiled(&tape, sink);
                let counts = exec.sample_state(&rho, *shots, job.seed);
                Ok(JobOutput::Counts(compiled.decode_counts(&counts)))
            }
            JobSpec::HybridExpectation { observable } => {
                let exec = compiled.executor(backend);
                let tape = timed_bind(bind_ns, || compiled.bind_exact(&exec, &job.params));
                let rho = exec.run_exact_replay_profiled(&tape, sink);
                Ok(JobOutput::Expectation {
                    value: SimBackend::expectation(&rho, &compiled.wire_observable(observable)),
                })
            }
            JobSpec::HybridTrajectoryCounts { shots } => {
                let exec = compiled.executor(backend);
                let replay = timed_bind(bind_ns, || compiled.bind_replay(&exec, &job.params));
                let counts = exec.sample_replay_profiled(&replay, *shots, job.seed, sink);
                Ok(JobOutput::TrajectoryCounts(compiled.decode_counts(&counts)))
            }
            JobSpec::HybridTrajectoryExpectation {
                observable,
                trajectories,
            } => {
                let exec = compiled.executor(backend);
                let replay = timed_bind(bind_ns, || compiled.bind_replay(&exec, &job.params));
                let (value, std_error) = exec.expectation_replay_profiled(
                    &replay,
                    &compiled.wire_observable(observable),
                    *trajectories,
                    job.seed,
                    sink,
                );
                Ok(JobOutput::TrajectoryExpectation {
                    value,
                    std_error,
                    trajectories: *trajectories,
                })
            }
            _ => unreachable!("validated spec/program pairing"),
        },
        _ => unreachable!("validated spec/program pairing"),
    }
}
