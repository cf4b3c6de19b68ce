//! What both serving workloads share: starting a daemon behind its TCP
//! front end, the per-job records the clients keep, the correctness gate
//! on served results, and the per-layer split read back from the
//! daemon's `metrics_snapshot` and `trace_tail` wire ops.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use hybrid_gate_pulse::core::compile::{CircuitCompiler, CompiledCircuit, CompiledProgram};
use hybrid_gate_pulse::core::models::GateModelOptions;
use hybrid_gate_pulse::device::Backend;
use hybrid_gate_pulse::obs::histogram::BUCKETS;
use hybrid_gate_pulse::obs::profile::ReplayOpKind;
use hybrid_gate_pulse::obs::{Histogram, OpProfileSnapshot, SpanKind};
use hybrid_gate_pulse::serve::json::JsonCodec;
use hybrid_gate_pulse::serve::{
    Daemon, DaemonConfig, JobOutput, JobProgram, JobRequest, JobResult, JobSpec, JobTrace,
    Priority, ServeMetrics, WireClient, WireRequest, WireResponse, WireServer,
};
use hybrid_gate_pulse::sim::seed::stream_seed;
use hybrid_gate_pulse::sim::SimBackend;

use crate::stats::{mean, median, ms, quantile, Rng};
use crate::Outcome;

/// Worker count of an out-of-the-box daemon (available parallelism).
pub fn default_workers() -> usize {
    DaemonConfig::new(Vec::new()).service.workers
}

/// The daemon's default base seed; served job `i` samples with
/// `stream_seed(BASE_SEED, i)`.
const BASE_SEED: u64 = 42;
/// Flight-recorder capacity of the traced daemon: far more jobs than
/// one phase of either workload submits.
const TRACE_CAPACITY: usize = 1 << 16;
/// The share of client latency the layer split may leave unexplained.
const MAX_UNATTRIBUTED: f64 = 0.1;
/// Served jobs per run re-executed in-process for the bit-for-bit check.
const RERUN_SAMPLE: usize = 6;

/// A daemon behind its TCP front end.
pub struct Rig {
    pub daemon: Arc<Daemon>,
    pub server: WireServer,
    pub workers: usize,
}

impl Rig {
    pub fn shutdown(mut self) {
        self.server.shutdown();
        self.daemon.shutdown();
    }
}

/// One job as its client saw it. Times are offsets from the phase origin.
#[derive(Clone)]
pub struct Record {
    pub request: JobRequest,
    pub priority: Priority,
    /// Ladder step (open loop) or 0.
    pub step: usize,
    pub intended: Duration,
    pub sent: Option<Duration>,
    pub acked: Option<Duration>,
    pub received: Option<Duration>,
    pub result: Option<JobResult>,
    pub problem: Option<String>,
}

impl Record {
    pub fn new(request: JobRequest, priority: Priority, step: usize, intended: Duration) -> Self {
        Self {
            request,
            priority,
            step,
            intended,
            sent: None,
            acked: None,
            received: None,
            result: None,
            problem: None,
        }
    }

    /// Client latency from the intended send time to the decoded result.
    pub fn latency_ms(&self) -> Option<f64> {
        self.received.map(|r| ms(r.saturating_sub(self.intended)))
    }
}

/// Starts a daemon at its out-of-the-box configuration (or, traced, with
/// engine profiling on and a recorder large enough for a whole phase).
fn start_rig(backend: &Backend, layout: &[usize], traced: bool) -> Rig {
    let mut config = DaemonConfig::new(layout.to_vec());
    if traced {
        config = config
            .with_profiling(true)
            .with_trace_capacity(TRACE_CAPACITY);
    }
    let workers = config.service.workers;
    let daemon = Arc::new(Daemon::start(backend.clone(), config));
    let server = WireServer::start(Arc::clone(&daemon), "127.0.0.1:0").expect("bind loopback");
    Rig {
        daemon,
        server,
        workers,
    }
}

/// Times `setups` set-ups — daemon start, server bind, connect, and the
/// cold first job of every warm shape — and keeps the last rig. The warm
/// jobs are checked like any served job.
pub fn set_up(
    backend: &Backend,
    layout: &[usize],
    warm: &[(JobRequest, Priority)],
    setups: usize,
    traced: bool,
    out: &mut Outcome,
) -> (Rig, Vec<f64>) {
    let mut times = Vec::new();
    let mut kept = None;
    for _ in 0..setups {
        if let Some(rig) = kept.take() {
            Rig::shutdown(rig);
        }
        let t = Instant::now();
        let rig = start_rig(backend, layout, traced);
        let mut client = WireClient::connect(rig.server.local_addr()).expect("connect");
        for (request, priority) in warm {
            out.attempted += 1;
            match client.submit(request.clone(), *priority) {
                Ok(Ok(_)) => match client.next_result() {
                    Ok(result) => {
                        if let Err(e) = well_formed(request, &result) {
                            out.fail(format!("warm-up job: {e}"));
                        }
                    }
                    Err(e) => out.fail(format!("warm-up result: {e}")),
                },
                Ok(Err(rejected)) => out.fail(format!("warm-up job rejected: {rejected}")),
                Err(e) => out.fail(format!("warm-up submit: {e}")),
            }
        }
        times.push(t.elapsed().as_secs_f64());
        drop(client);
        kept = Some(rig);
    }
    (kept.expect("at least one set-up"), times)
}

/// The structural checks every served result must pass.
pub fn well_formed(request: &JobRequest, result: &JobResult) -> Result<(), String> {
    let output = result
        .output
        .as_ref()
        .map_err(|e| format!("{}: {e}", result.id))?;
    let expected_seed = request
        .seed
        .unwrap_or_else(|| stream_seed(BASE_SEED, result.id.0));
    if result.seed != expected_seed {
        return Err(format!(
            "{}: seed {} is not its stream seed",
            result.id, result.seed
        ));
    }
    let width = request.program.n_qubits();
    let counts_ok = |counts: &hybrid_gate_pulse::sim::Counts, shots: usize| {
        let freq: f64 = counts.iter().map(|(b, _)| counts.frequency(b)).sum();
        counts.total() == shots as u64 && counts.n_qubits() == width && (freq - 1.0).abs() < 1e-9
    };
    let ok = match (&request.spec, output) {
        (JobSpec::Counts { shots }, JobOutput::Counts(c))
        | (JobSpec::TrajectoryCounts { shots }, JobOutput::TrajectoryCounts(c)) => {
            counts_ok(c, *shots)
        }
        (JobSpec::Expectation { observable }, JobOutput::Expectation { value })
        | (JobSpec::HybridExpectation { observable }, JobOutput::Expectation { value }) => {
            let bound: f64 = observable.terms().iter().map(|t| t.coeff().abs()).sum();
            value.is_finite() && value.abs() <= bound + 1e-9
        }
        _ => false,
    };
    if ok {
        Ok(())
    } else {
        Err(format!(
            "{}: malformed {} output",
            result.id,
            request.spec.kind_name()
        ))
    }
}

enum Artifact {
    Circuit(CompiledCircuit),
    Hybrid(CompiledProgram),
}

/// In-process re-execution of served jobs through `CircuitCompiler` and
/// `Executor`, with each job's recorded seed.
pub struct Reference<'a> {
    backend: &'a Backend,
    layout: Vec<usize>,
    compiled: HashMap<u64, Artifact>,
}

impl<'a> Reference<'a> {
    pub fn new(backend: &'a Backend, layout: &[usize]) -> Self {
        Self {
            backend,
            layout: layout.to_vec(),
            compiled: HashMap::new(),
        }
    }

    fn rerun(&mut self, request: &JobRequest, seed: u64) -> Result<JobOutput, String> {
        let key = request.program.structural_key();
        if !self.compiled.contains_key(&key) {
            let compiler = CircuitCompiler::new(self.backend, self.layout.clone())
                .with_options(GateModelOptions::optimized());
            let artifact = match &request.program {
                JobProgram::Circuit(c) => Artifact::Circuit(compiler.compile(c)?),
                JobProgram::Hybrid(s) => Artifact::Hybrid(compiler.compile_hybrid(s)?),
            };
            self.compiled.insert(key, artifact);
        }
        let params = &request.params;
        Ok(match (&self.compiled[&key], &request.spec) {
            (Artifact::Circuit(c), JobSpec::TrajectoryCounts { shots }) => {
                let exec = c.executor(self.backend);
                let replay = c.bind_replay(&exec, params);
                JobOutput::TrajectoryCounts(
                    c.decode_counts(&exec.sample_replay(&replay, *shots, seed)),
                )
            }
            (Artifact::Circuit(c), JobSpec::Counts { shots }) => {
                let exec = c.executor(self.backend);
                let rho = exec.run_exact_replay(&c.bind_exact(&exec, params));
                JobOutput::Counts(c.decode_counts(&exec.sample_state(&rho, *shots, seed)))
            }
            (Artifact::Circuit(c), JobSpec::Expectation { observable }) => {
                let exec = c.executor(self.backend);
                let rho = exec.run_exact_replay(&c.bind_exact(&exec, params));
                JobOutput::Expectation {
                    value: SimBackend::expectation(&rho, &c.wire_observable(observable)),
                }
            }
            (Artifact::Hybrid(p), JobSpec::HybridExpectation { observable }) => {
                let exec = p.executor(self.backend);
                let rho = exec.run_exact_replay(&p.bind_exact(&exec, params));
                JobOutput::Expectation {
                    value: SimBackend::expectation(&rho, &p.wire_observable(observable)),
                }
            }
            (_, spec) => return Err(format!("no reference for {}", spec.kind_name())),
        })
    }
}

fn same_output(a: &JobOutput, b: &JobOutput) -> bool {
    match (a, b) {
        (JobOutput::Expectation { value: x }, JobOutput::Expectation { value: y }) => {
            x.to_bits() == y.to_bits()
        }
        _ => a == b,
    }
}

/// The correctness gate over a phase's records: every job answered and
/// well formed, and a seeded sample re-run in-process bit for bit. Each
/// failure counts one failed operation.
pub fn check_records(
    records: &[Record],
    reference: &mut Reference<'_>,
    rng: &mut Rng,
    out: &mut Outcome,
) {
    for record in records {
        out.attempted += 1;
        let verdict = match (&record.problem, &record.result) {
            (Some(problem), _) => Err(problem.clone()),
            (None, None) => Err("no result received".to_string()),
            (None, Some(result)) => well_formed(&record.request, result),
        };
        if let Err(e) = verdict {
            out.fail(e);
        }
    }
    let answered: Vec<&Record> = records.iter().filter(|r| r.result.is_some()).collect();
    for _ in 0..RERUN_SAMPLE.min(answered.len()) {
        let record = answered[rng.below(answered.len())];
        let result = record.result.as_ref().expect("answered");
        let Ok(served) = &result.output else { continue };
        match reference.rerun(&record.request, result.seed) {
            Ok(local) if same_output(&local, served) => {}
            Ok(_) => out.fail(format!(
                "{}: served output differs from the in-process re-run",
                result.id
            )),
            Err(e) => out.fail(format!("{}: re-run failed: {e}", result.id)),
        }
    }
}

/// Daemon state read over the wire at a phase boundary.
pub struct Snapshot {
    pub at: Instant,
    pub metrics: ServeMetrics,
    pub profile: OpProfileSnapshot,
}

pub fn snapshot(control: &mut WireClient) -> Snapshot {
    let (metrics, profile) = control.metrics_snapshot().expect("metrics_snapshot");
    Snapshot {
        at: Instant::now(),
        metrics,
        profile,
    }
}

fn hist_diff(after: &Histogram, before: &Histogram) -> Histogram {
    let mut counts = [0u64; BUCKETS];
    for (i, c) in counts.iter_mut().enumerate() {
        *c = after.counts()[i] - before.counts()[i];
    }
    Histogram::from_parts(
        counts,
        after.count() - before.count(),
        after.sum() - before.sum(),
    )
}

fn span_ms(trace: &JobTrace, from: SpanKind, to: SpanKind) -> Option<f64> {
    Some((trace.at(to)? as f64 - trace.at(from)? as f64) / 1e6)
}

/// JSON codec cost of a job's request and result payloads, and their
/// size on the wire: encode and decode of the same envelopes the
/// clients exchange.
fn codec_cost(record: &Record) -> Option<(f64, usize)> {
    let result = record.result.clone()?;
    let request = WireRequest::Submit {
        request: record.request.clone(),
        priority: record.priority,
    };
    let response = WireResponse::Result { result };
    let t = Instant::now();
    let req_text = request.to_json_string();
    let req_back = WireRequest::from_json_str(&req_text).ok()?;
    let res_text = response.to_json_string();
    let res_back = WireResponse::from_json_str(&res_text).ok()?;
    let us = t.elapsed().as_secs_f64() * 1e6;
    std::hint::black_box((req_back, res_back));
    Some((us, req_text.len() + res_text.len() + 2))
}

/// Fills the per-layer metrics of a traced phase from its records, the
/// daemon snapshots taken around it, and the flight recorder's traces.
///
/// `focus` selects the jobs the latency-side quantiles describe (the
/// 50 jobs/s step on the open loop, every job on the closed loop).
pub fn layer_split(
    out: &mut Outcome,
    records: &[Record],
    focus: &dyn Fn(&Record) -> bool,
    before: &Snapshot,
    after: &Snapshot,
    traces: &[JobTrace],
    workers: usize,
) {
    let m0 = &before.metrics;
    let m1 = &after.metrics;
    let by_id: HashMap<u64, &JobTrace> = traces.iter().map(|t| (t.job, t)).collect();

    let mut client_ms = 0.0;
    let mut residual_sum_ms = 0.0;
    let mut residual_focus: Vec<f64> = Vec::new();
    let mut joined = 0usize;
    let mut bind_us: [Vec<f64>; 2] = [Vec::new(), Vec::new()];
    let mut exec_by_kind: HashMap<usize, Vec<f64>> = HashMap::new();
    let mut shot_exec_ms = 0.0;
    let mut shots = 0u64;
    for record in records {
        let (Some(latency), Some(result)) = (record.latency_ms(), &record.result) else {
            continue;
        };
        let Some(trace) = by_id.get(&result.id.0) else {
            continue;
        };
        let Some(residence) = span_ms(trace, SpanKind::Enqueued, SpanKind::Delivered) else {
            continue;
        };
        joined += 1;
        client_ms += latency;
        let residual = latency - residence;
        residual_sum_ms += residual;
        if focus(record) {
            residual_focus.push(residual);
        }
        let hybrid = usize::from(record.request.spec.is_hybrid());
        if let Some(b) = span_ms(trace, SpanKind::Compiled, SpanKind::Bound) {
            bind_us[hybrid].push(b * 1e3);
        }
        if let Some(e) = span_ms(trace, SpanKind::Bound, SpanKind::Executed) {
            exec_by_kind
                .entry(trace.job_kind as usize)
                .or_default()
                .push(e);
            if trace.shots > 0 {
                shot_exec_ms += e;
                shots += trace.shots;
            }
        }
        out.spans.push(format!(
            "{{\"job\": {}, \"kind\": \"{}\", \"step\": {}, \"client_ns\": {{\"intended\": {}, \"sent\": {}, \"ack\": {}, \"received\": {}}}, \"server_ns\": {{{}}}}}",
            result.id.0,
            record.request.spec.kind_name(),
            record.step,
            record.intended.as_nanos(),
            record.sent.map_or(0, |d| d.as_nanos()),
            record.acked.map_or(0, |d| d.as_nanos()),
            record.received.map_or(0, |d| d.as_nanos()),
            trace
                .spans
                .iter()
                .map(|s| format!("\"{}\": {}", s.kind.name(), s.at_ns))
                .collect::<Vec<_>>()
                .join(", ")
        ));
    }

    out.set("wire.residual_ms_p50", median(&residual_focus));
    out.set("wire.residual_ms_p99", quantile(&residual_focus, 0.99));
    let codec: Vec<(f64, usize)> = records.iter().take(512).filter_map(codec_cost).collect();
    out.set(
        "wire.codec_us_per_job",
        median(&codec.iter().map(|c| c.0).collect::<Vec<_>>()),
    );
    out.set(
        "wire.bytes_per_job",
        mean(&codec.iter().map(|c| c.1 as f64).collect::<Vec<_>>()),
    );

    let queue = hist_diff(&m1.queue_hist, &m0.queue_hist);
    out.set("daemon.queue_ms_p50", queue.p50() as f64 / 1e6);
    out.set("daemon.queue_ms_p99", queue.p99() as f64 / 1e6);
    let admitted = (m1.admitted_total() - m0.admitted_total()).max(1);
    out.set(
        "daemon.validate_us_per_job",
        (m1.validate_ns - m0.validate_ns) as f64 / 1e3 / admitted as f64,
    );
    out.set(
        "daemon.rejected",
        (m1.rejected_total() - m0.rejected_total()) as f64,
    );
    let busy_ns = (m1.bind_ns + m1.exec_ns - m0.bind_ns - m0.exec_ns) as f64;
    let wall_ns = (after.at - before.at).as_nanos() as f64;
    out.set(
        "daemon.worker_busy_ratio",
        busy_ns / (workers as f64 * wall_ns),
    );

    let hits = m1.cache_hits - m0.cache_hits;
    let misses = m1.cache_misses - m0.cache_misses;
    out.set(
        "cache.hit_ratio",
        hits as f64 / (hits + misses).max(1) as f64,
    );
    out.set("compile.misses", misses as f64);
    // Over the daemon's lifetime, so the cold compiles of set-up count
    // where the phase itself compiles nothing.
    out.set(
        "compile.ms_per_miss",
        m1.compile_ns as f64 / 1e6 / m1.cache_misses.max(1) as f64,
    );

    out.set("bind.us_per_job.circuit", mean(&bind_us[0]));
    out.set("bind.us_per_job.hybrid", mean(&bind_us[1]));
    for (name, kind) in [
        ("exec.ms_per_job.trajectory_counts", "trajectory_counts"),
        ("exec.ms_per_job.expectation", "expectation"),
        ("exec.ms_per_job.hybrid_expectation", "hybrid_expectation"),
        ("exec.ms_per_job.counts", "counts"),
    ] {
        let index = JobSpec::KIND_NAMES
            .iter()
            .position(|k| *k == kind)
            .expect("known kind");
        out.set(name, exec_by_kind.get(&index).map_or(0.0, |v| mean(v)));
    }
    out.set("exec.us_per_shot", shot_exec_ms * 1e3 / shots.max(1) as f64);

    let p0 = &before.profile;
    let p1 = &after.profile;
    let total = (p1.total_ns() - p0.total_ns()).max(1) as f64;
    for (name, kind) in [
        ("exec.op_share.diag_run", ReplayOpKind::DiagRun),
        ("exec.op_share.dense_1q", ReplayOpKind::Dense1q),
        ("exec.op_share.dense_2q", ReplayOpKind::Dense2q),
        ("exec.op_share.mixed_channel", ReplayOpKind::MixedChannel),
        (
            "exec.op_share.general_channel",
            ReplayOpKind::GeneralChannel,
        ),
        ("exec.op_share.renorm", ReplayOpKind::Renorm),
    ] {
        out.set(
            name,
            (p1.ns[kind.index()] - p0.ns[kind.index()]) as f64 / total,
        );
    }

    // Layer-sum check: the wire residual (from the traces) plus the
    // daemon's own queue, compile, bind and execute accounting (from the
    // metrics) must cover the client latency of the same jobs.
    let stages_ms = (m1.queue_ns + m1.compile_ns + m1.bind_ns + m1.exec_ns
        - m0.queue_ns
        - m0.compile_ns
        - m0.bind_ns
        - m0.exec_ns) as f64
        / 1e6;
    let attributed = residual_sum_ms + stages_ms;
    let unattributed = if client_ms > 0.0 {
        (1.0 - attributed / client_ms).abs()
    } else {
        1.0
    };
    out.set("unattributed_share", unattributed);
    out.attempted += 1;
    if unattributed > MAX_UNATTRIBUTED {
        out.fail(format!(
            "layers cover client latency only to within {unattributed:.3} (limit {MAX_UNATTRIBUTED})"
        ));
    }
    if joined < records.len() {
        out.notes.push(format!(
            "{} of {} jobs joined to a daemon trace",
            joined,
            records.len()
        ));
    }
}
