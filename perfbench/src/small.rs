//! `serve_small`: open loop on one connection at a fixed ladder of
//! rates. One sender thread writes `submit` lines on a seeded Poisson
//! schedule, one reader thread decodes the acks and results — both speak
//! the documented line protocol through the public `JsonCodec`, because
//! `WireClient` cannot send while it waits to receive.
//!
//! Half the jobs are `HybridExpectation` probes on the task-1 hybrid
//! shape at `Interactive` priority; half are `Counts{1024}` at `Batch`
//! priority on p=1 QAOA circuits drawn Zipf-wise from 96 random 6q
//! 3-regular graphs — 1.5x the daemon's 64-entry cache, so it misses
//! steadily. Each job's engine work is a few milliseconds, so the wire,
//! admission, compile-on-miss and the mixer-pulse bind dominate.

use std::collections::{HashMap, HashSet};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Mutex};
use std::time::{Duration, Instant};

use hybrid_gate_pulse::circuit::Circuit;
use hybrid_gate_pulse::core::compile::HybridShape;
use hybrid_gate_pulse::core::qaoa::{cost_hamiltonian, qaoa_circuit};
use hybrid_gate_pulse::device::Backend;
use hybrid_gate_pulse::graph::generators::random_regular;
use hybrid_gate_pulse::graph::instances;
use hybrid_gate_pulse::math::pauli::PauliSum;
use hybrid_gate_pulse::serve::json::JsonCodec;
use hybrid_gate_pulse::serve::{
    JobRequest, JobSpec, Priority, WireClient, WireRequest, WireResponse,
};

use crate::serve::{self, Record, Reference, Rig};
use crate::stats::{mean, median, ms, quantile, Rng};
use crate::Outcome;

const LAYOUT: [usize; 6] = [1, 2, 3, 4, 5, 7];
const SHAPES: usize = 96;
const COUNTS_SHOTS: usize = 1024;
/// Set-ups timed per run; each takes milliseconds, so many are cheap.
const SETUPS: usize = 15;
/// Offered rates (jobs/s) and each step's share of the measured time.
/// The 50 jobs/s step, where the latency metrics are taken, gets half.
const LADDER: [(f64, f64); 4] = [(25.0, 0.15), (50.0, 0.5), (100.0, 0.15), (200.0, 0.2)];
const LATENCY_STEP: usize = 1;
/// The latency limit a step's p99 must meet to count as sustained.
const P99_LIMIT_MS: f64 = 100.0;
/// A step's generator fell behind when its median lateness exceeds the
/// first bound or its p99 lateness the second. Jitter below them is
/// scheduling noise on a busy host and is already part of the latency,
/// which runs from the intended send time.
const LATE_P50_LIMIT_MS: f64 = 1.0;
const LATE_P99_LIMIT_MS: f64 = 25.0;
/// How long a step may take to drain before its stragglers count as lost.
const DRAIN_LIMIT: Duration = Duration::from_secs(20);
/// Unmeasured pause before each step, so the previous step drains before
/// the next one's first send is due.
const STEP_GAP_S: f64 = 0.25;

struct Mix {
    hybrid: HybridShape,
    hybrid_observable: PauliSum,
    circuits: Vec<Circuit>,
    /// Cumulative Zipf(1) weights over `circuits`.
    zipf: Vec<f64>,
}

impl Mix {
    fn new(rng: &mut Rng) -> Self {
        let task1 = instances::task1_three_regular_6();
        let mut circuits = Vec::with_capacity(SHAPES);
        let mut keys = HashSet::new();
        while circuits.len() < SHAPES {
            let circuit = qaoa_circuit(&random_regular(6, 3, rng.next_u64()), 1);
            if keys.insert(circuit.structural_key()) {
                circuits.push(circuit);
            }
        }
        let mut total = 0.0;
        let zipf = (0..SHAPES)
            .map(|k| {
                total += 1.0 / (k + 1) as f64;
                total
            })
            .collect();
        Self {
            hybrid_observable: cost_hamiltonian(&task1),
            hybrid: HybridShape::new(task1, 1),
            circuits,
            zipf,
        }
    }

    fn hybrid_job(&self, rng: &mut Rng) -> JobRequest {
        let mut params = vec![rng.range(0.1, 1.0), rng.range(0.1, 0.8)];
        while params.len() < self.hybrid.n_params() {
            params.push(rng.range(-0.02, 0.02));
        }
        JobRequest::hybrid(
            self.hybrid.clone(),
            params,
            JobSpec::HybridExpectation {
                observable: self.hybrid_observable.clone(),
            },
        )
    }

    /// Job `i` of the stream: even jobs are hybrid probes, odd jobs
    /// sampled counts on a Zipf-drawn shape.
    fn job(&self, i: usize, rng: &mut Rng) -> (JobRequest, Priority) {
        if i.is_multiple_of(2) {
            return (self.hybrid_job(rng), Priority::Interactive);
        }
        let u = rng.unit() * self.zipf[SHAPES - 1];
        let k = self.zipf.partition_point(|&c| c < u).min(SHAPES - 1);
        let params = vec![rng.range(0.1, 1.2), rng.range(0.1, 0.8)];
        (
            JobRequest::new(
                self.circuits[k].clone(),
                params,
                JobSpec::Counts {
                    shots: COUNTS_SHOTS,
                },
            ),
            Priority::Batch,
        )
    }
}

/// What the reader thread knows about one line it decoded.
enum Event {
    Ack(u64),
    Rejected(String),
}

/// Runs the whole ladder on one connection. Records come back in
/// schedule order.
fn open_loop(rig: &Rig, schedule: Vec<Record>) -> Vec<Record> {
    let stream = TcpStream::connect(rig.server.local_addr()).expect("connect");
    stream
        .set_read_timeout(Some(DRAIN_LIMIT))
        .expect("read timeout");
    let read_half = stream.try_clone().expect("clone socket");
    let total = schedule.len();
    let records = Mutex::new(schedule);
    // Submissions whose ack is still owed, in send order (acks of one
    // connection come back in submission order).
    let (owed_tx, owed_rx) = mpsc::channel::<usize>();
    let resolved = AtomicUsize::new(0);
    let origin = Instant::now();

    std::thread::scope(|scope| {
        let sender = scope.spawn(|| {
            let mut writer = stream;
            let mut step = usize::MAX;
            for index in 0..total {
                let (intended, this_step, request, priority) = {
                    let r = &records.lock().expect("records lock")[index];
                    (r.intended, r.step, r.request.clone(), r.priority)
                };
                if this_step != step {
                    // Let the previous step drain so steps do not overlap.
                    let deadline = Instant::now() + DRAIN_LIMIT;
                    while resolved.load(Ordering::SeqCst) < index && Instant::now() < deadline {
                        std::thread::sleep(Duration::from_millis(1));
                    }
                    step = this_step;
                }
                if let Some(wait) = intended.checked_sub(origin.elapsed()) {
                    std::thread::sleep(wait);
                }
                let mut line = WireRequest::Submit { request, priority }.to_json_string();
                line.push('\n');
                owed_tx.send(index).expect("reader alive");
                let sent = origin.elapsed();
                records.lock().expect("records lock")[index].sent = Some(sent);
                if let Err(e) = writer.write_all(line.as_bytes()) {
                    records.lock().expect("records lock")[index].problem =
                        Some(format!("transport: {e}"));
                    break;
                }
            }
            writer
        });

        let mut reader = BufReader::new(read_half);
        let mut by_id: HashMap<u64, usize> = HashMap::new();
        let mut line = String::new();
        while resolved.load(Ordering::SeqCst) < total {
            line.clear();
            match reader.read_line(&mut line) {
                Ok(0) | Err(_) => break,
                Ok(_) => {}
            }
            let at = origin.elapsed();
            let event = match WireResponse::from_json_str(line.trim_end()) {
                Ok(WireResponse::Accepted { ids }) => Event::Ack(ids[0].0),
                Ok(WireResponse::Rejected { rejected }) => Event::Rejected(rejected.to_string()),
                Ok(WireResponse::Result { result }) => {
                    let mut records = records.lock().expect("records lock");
                    match by_id.remove(&result.id.0) {
                        Some(index) => {
                            records[index].received = Some(at);
                            records[index].result = Some(result);
                            resolved.fetch_add(1, Ordering::SeqCst);
                        }
                        None => eprintln!("perfbench: result for unknown {}", result.id),
                    }
                    continue;
                }
                Ok(other) => Event::Rejected(format!("unexpected envelope {other:?}")),
                Err(e) => Event::Rejected(format!("undecodable line: {e}")),
            };
            let Ok(index) = owed_rx.recv_timeout(DRAIN_LIMIT) else {
                break;
            };
            let mut records = records.lock().expect("records lock");
            match event {
                Event::Ack(id) => {
                    records[index].acked = Some(at);
                    by_id.insert(id, index);
                }
                Event::Rejected(reason) => {
                    records[index].problem = Some(reason);
                    resolved.fetch_add(1, Ordering::SeqCst);
                }
            }
        }
        // Unblock a sender still waiting on a drain, then collect it.
        resolved.store(total, Ordering::SeqCst);
        let writer = sender.join().expect("sender thread");
        let _ = writer.shutdown(std::net::Shutdown::Both);
    });
    records.into_inner().expect("records lock")
}

/// The seeded schedule of the whole ladder: each step sends exactly
/// `rate x duration` jobs at uniformly random times — Poisson arrivals
/// conditioned on their count, so every run offers the same load.
fn schedule(mix: &Mix, rng: &mut Rng, seconds: f64) -> Vec<Record> {
    let mut records = Vec::new();
    let mut start = 0.0;
    for (step, (rate, share)) in LADDER.iter().enumerate() {
        start += STEP_GAP_S;
        let duration = share * seconds;
        let n = (rate * duration).round() as usize;
        let mut times: Vec<f64> = (0..n).map(|_| start + rng.unit() * duration).collect();
        times.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        for t in times {
            let (request, priority) = mix.job(records.len(), rng);
            records.push(Record::new(
                request,
                priority,
                step,
                Duration::from_secs_f64(t),
            ));
        }
        start += duration;
    }
    records
}

struct StepStats {
    rate: f64,
    latencies: Vec<f64>,
    p99_ms: f64,
    late_p99_ms: f64,
    fell_behind: bool,
    backlog_grew: bool,
    /// From the step's first intended send to its last result.
    span_s: f64,
    shots: usize,
}

impl StepStats {
    fn achieved(&self) -> f64 {
        self.latencies.len() as f64 / self.span_s
    }

    fn meets_limit(&self) -> bool {
        !self.fell_behind && !self.backlog_grew && self.p99_ms <= P99_LIMIT_MS
    }
}

fn step_stats(records: &[Record], step: usize) -> StepStats {
    let jobs: Vec<&Record> = records.iter().filter(|r| r.step == step).collect();
    let latencies: Vec<f64> = jobs.iter().filter_map(|r| r.latency_ms()).collect();
    let late: Vec<f64> = jobs
        .iter()
        .filter_map(|r| r.sent.map(|s| ms(s.saturating_sub(r.intended))))
        .collect();
    // Backlog: jobs sent but not answered, sampled at each send. It grows
    // when the last third of the step holds clearly more than the first.
    let outstanding: Vec<f64> = jobs
        .iter()
        .filter_map(|r| {
            let at = r.sent?;
            let open = jobs
                .iter()
                .filter(|o| o.sent.is_some_and(|s| s <= at) && o.received.is_none_or(|d| d > at))
                .count();
            Some(open as f64)
        })
        .collect();
    let third = outstanding.len() / 3;
    let backlog_grew = third > 0 && {
        let first = mean(&outstanding[..third]);
        let last = mean(&outstanding[outstanding.len() - third..]);
        last > 2.0 * first + 2.0
    };
    let first_intended = jobs.first().map_or(0.0, |r| r.intended.as_secs_f64());
    let last_received = jobs
        .iter()
        .filter_map(|r| r.received)
        .max()
        .map_or(first_intended, |d| d.as_secs_f64());
    StepStats {
        rate: LADDER[step].0,
        p99_ms: quantile(&latencies, 0.99),
        late_p99_ms: quantile(&late, 0.99),
        fell_behind: median(&late) > LATE_P50_LIMIT_MS || quantile(&late, 0.99) > LATE_P99_LIMIT_MS,
        backlog_grew,
        span_s: (last_received - first_intended).max(1e-9),
        shots: jobs
            .iter()
            .filter(|r| r.result.is_some())
            .map(|r| match r.request.spec {
                JobSpec::Counts { shots } => shots,
                _ => 0,
            })
            .sum(),
        latencies,
    }
}

/// The highest rate the ladder sustains: the achieved rate of the last
/// step that meets the latency limit with a steady backlog, moved
/// toward the next step by where the p99 crosses the limit between the
/// two (linear in rate). A step that failed for its backlog or a late
/// generator ends the search without interpolation.
fn sustained_rate(steps: &[StepStats]) -> f64 {
    let Some(first_fail) = steps.iter().position(|s| !s.meets_limit()) else {
        return steps.last().map_or(0.0, StepStats::achieved);
    };
    let fail = &steps[first_fail];
    let Some(pass) = first_fail.checked_sub(1).map(|i| &steps[i]) else {
        // Even the lowest rate misses the limit: scale it down by how far.
        return fail.achieved() * (P99_LIMIT_MS / fail.p99_ms).min(1.0);
    };
    if fail.fell_behind || fail.backlog_grew || fail.p99_ms <= pass.p99_ms {
        return pass.achieved();
    }
    let crossing = (P99_LIMIT_MS - pass.p99_ms) / (fail.p99_ms - pass.p99_ms);
    pass.achieved() + crossing * (fail.achieved() - pass.achieved())
}

/// End-to-end figures of one ladder; returns the 50 jobs/s step's p50.
fn summarize(records: &[Record], out: &mut Outcome) -> f64 {
    let steps: Vec<StepStats> = (0..LADDER.len()).map(|s| step_stats(records, s)).collect();
    for s in &steps {
        out.notes.push(format!(
            "step {:>3} jobs/s: {} samples, p50 {:.2} ms, p99 {:.2} ms, generator late p99 {:.3} ms{}, backlog {}, {}",
            s.rate,
            s.latencies.len(),
            median(&s.latencies),
            s.p99_ms,
            s.late_p99_ms,
            if s.fell_behind { " (fell behind: invalid)" } else { "" },
            if s.backlog_grew { "grew" } else { "steady" },
            if s.meets_limit() { "meets the limit" } else { "misses the limit" },
        ));
    }
    let focus = &steps[LATENCY_STEP];
    out.set("train_s", focus.span_s);
    out.set("lat_p50_ms", median(&focus.latencies));
    out.set("lat_p90_ms", quantile(&focus.latencies, 0.9));
    out.set("lat_p99_ms", focus.p99_ms);
    out.set("jobs_per_s", focus.achieved());
    out.set("shots_per_s", focus.shots as f64 / focus.span_s);
    out.set("sustained_jobs_per_s", sustained_rate(&steps));
    out.set(
        "gen.late_ms_p99",
        steps.iter().map(|s| s.late_p99_ms).fold(0.0, f64::max),
    );
    out.set(
        "gen.invalid_steps",
        steps.iter().filter(|s| s.fell_behind).count() as f64,
    );
    median(&focus.latencies)
}

pub fn run(seed: u64, seconds: f64, traced: bool) -> Outcome {
    let mut out = Outcome::default();
    let backend = Backend::ibmq_toronto();
    let mut rng = Rng::new(seed);
    let mix = Mix::new(&mut rng);
    let warm = vec![(mix.hybrid_job(&mut rng), Priority::Interactive)];
    let mut reference = Reference::new(&backend, &LAYOUT);
    let (rig, setup_s) = serve::set_up(&backend, &LAYOUT, &warm, SETUPS, false, &mut out);
    out.set("setup_s", median(&setup_s));

    let measured = if traced { seconds / 2.0 } else { seconds };
    let records = open_loop(&rig, schedule(&mix, &mut rng, measured));
    let untraced_p50 = summarize(&records, &mut out);
    serve::check_records(&records, &mut reference, &mut rng, &mut out);
    rig.shutdown();
    if !traced {
        return out;
    }

    let (rig, _) = serve::set_up(&backend, &LAYOUT, &warm, 1, true, &mut out);
    let mut control = WireClient::connect(rig.server.local_addr()).expect("connect");
    let before = serve::snapshot(&mut control);
    let records = open_loop(&rig, schedule(&mix, &mut rng, measured));
    let after = serve::snapshot(&mut control);
    let traces = control.trace_tail(records.len() + 16).expect("trace_tail");
    let mut traced_out = Outcome::default();
    let traced_p50 = summarize(&records, &mut traced_out);
    for name in ["gen.late_ms_p99", "gen.invalid_steps"] {
        out.set(name, traced_out.metrics[name]);
    }
    out.notes
        .extend(traced_out.notes.into_iter().map(|n| format!("traced {n}")));
    serve::check_records(&records, &mut reference, &mut rng, &mut out);
    serve::layer_split(
        &mut out,
        &records,
        &|r| r.step == LATENCY_STEP,
        &before,
        &after,
        &traces,
        rig.workers,
    );
    out.set("tracing_overhead", traced_p50 / untraced_p50 - 1.0);
    drop(control);
    rig.shutdown();
    out
}
