//! `serve_engine`: one `WireClient` connection, closed loop, a window of
//! four jobs in flight, alternating 12q `TrajectoryCounts{256}` and 8q
//! exact `Expectation` jobs on two shapes that set-up has already
//! compiled. Execution in `replay::batch` and `replay::exact` dominates;
//! the 12q counts payloads load the wire codec differently from
//! `serve_small`.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use hybrid_gate_pulse::circuit::Circuit;
use hybrid_gate_pulse::core::qaoa::{cost_hamiltonian, qaoa_circuit};
use hybrid_gate_pulse::device::Backend;
use hybrid_gate_pulse::graph::generators::random_regular;
use hybrid_gate_pulse::math::pauli::PauliSum;
use hybrid_gate_pulse::serve::{JobRequest, JobSpec, Priority, WireClient};

use crate::serve::{self, Record, Reference, Rig};
use crate::stats::{median, quantile, Rng};
use crate::Outcome;

const LAYOUT: [usize; 12] = [0, 1, 2, 3, 5, 8, 11, 14, 13, 12, 10, 7];
const WINDOW: usize = 4;
const TRAJECTORY_SHOTS: usize = 256;
/// Jobs per fixed unit of work, the unit `train_s` times on this workload.
const BLOCK: usize = 16;
/// Set-ups timed per run (each compiles both shapes cold).
const SETUPS: usize = 5;

struct Mix {
    circuit12: Circuit,
    circuit8: Circuit,
    observable8: PauliSum,
}

impl Mix {
    fn new() -> Self {
        let g12 = random_regular(12, 3, 7);
        let g8 = random_regular(8, 3, 3);
        Self {
            circuit12: qaoa_circuit(&g12, 1),
            circuit8: qaoa_circuit(&g8, 1),
            observable8: cost_hamiltonian(&g8),
        }
    }

    /// Job `i` of the stream: even jobs are 12q trajectory counts, odd
    /// jobs 8q exact expectations, at seeded QAOA angles.
    fn job(&self, i: usize, rng: &mut Rng) -> JobRequest {
        let params = vec![rng.range(0.1, 1.2), rng.range(0.1, 0.8)];
        if i.is_multiple_of(2) {
            JobRequest::new(
                self.circuit12.clone(),
                params,
                JobSpec::TrajectoryCounts {
                    shots: TRAJECTORY_SHOTS,
                },
            )
        } else {
            JobRequest::new(
                self.circuit8.clone(),
                params,
                JobSpec::Expectation {
                    observable: self.observable8.clone(),
                },
            )
        }
    }
}

struct ClosedLoop {
    client: WireClient,
    origin: Instant,
    records: Vec<Record>,
    /// Job id to record index, for the jobs in flight.
    in_flight: HashMap<u64, usize>,
}

impl ClosedLoop {
    fn submit(&mut self, request: JobRequest) {
        let now = self.origin.elapsed();
        let mut record = Record::new(request.clone(), Priority::Batch, 0, now);
        record.sent = Some(now);
        match self.client.submit(request, Priority::Batch) {
            Ok(Ok(ids)) => {
                record.acked = Some(self.origin.elapsed());
                self.in_flight.insert(ids[0].0, self.records.len());
            }
            Ok(Err(rejected)) => record.problem = Some(format!("rejected: {rejected}")),
            Err(e) => record.problem = Some(format!("transport: {e}")),
        }
        self.records.push(record);
    }

    /// Waits for the next result; false once the connection failed.
    fn complete_one(&mut self) -> bool {
        match self.client.next_result() {
            Ok(result) => {
                let at = self.origin.elapsed();
                match self.in_flight.remove(&result.id.0) {
                    Some(index) => {
                        let record = &mut self.records[index];
                        record.received = Some(at);
                        record.result = Some(result);
                    }
                    None => eprintln!("perfbench: result for unknown {}", result.id),
                }
                true
            }
            Err(e) => {
                for (_, index) in self.in_flight.drain() {
                    self.records[index].problem = Some(format!("transport: {e}"));
                }
                false
            }
        }
    }
}

/// Runs the closed loop for `duration`, then drains the window. Returns
/// the records and the loop's wall time.
fn closed_loop(rig: &Rig, mix: &Mix, rng: &mut Rng, duration: Duration) -> (Vec<Record>, f64) {
    let mut lp = ClosedLoop {
        client: WireClient::connect(rig.server.local_addr()).expect("connect"),
        origin: Instant::now(),
        records: Vec::new(),
        in_flight: HashMap::new(),
    };
    for _ in 0..WINDOW {
        let job = mix.job(lp.records.len(), rng);
        lp.submit(job);
    }
    while !lp.in_flight.is_empty() {
        if !lp.complete_one() {
            break;
        }
        if lp.origin.elapsed() < duration {
            let job = mix.job(lp.records.len(), rng);
            lp.submit(job);
        }
    }
    let wall = lp.origin.elapsed().as_secs_f64();
    (lp.records, wall)
}

/// End-to-end figures of one closed-loop phase.
fn summarize(records: &[Record], wall_s: f64, out: &mut Outcome) -> f64 {
    let latencies: Vec<f64> = records.iter().filter_map(Record::latency_ms).collect();
    let mut done: Vec<f64> = records
        .iter()
        .filter_map(|r| r.received.map(|d| d.as_secs_f64()))
        .collect();
    done.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    let blocks: Vec<f64> = done
        .chunks_exact(BLOCK)
        .scan(0.0, |start, block| {
            let end = block[BLOCK - 1];
            let span = end - *start;
            *start = end;
            Some(span)
        })
        .collect();
    let shots: usize = records
        .iter()
        .filter(|r| r.result.is_some())
        .map(|r| match r.request.spec {
            JobSpec::TrajectoryCounts { shots } => shots,
            _ => 0,
        })
        .sum();
    let jobs_per_s = done.len() as f64 / wall_s;
    out.notes.push(format!(
        "closed loop: {} jobs in {wall_s:.2} s, {} latency samples, {} blocks of {BLOCK}",
        records.len(),
        latencies.len(),
        blocks.len()
    ));
    out.set("train_s", median(&blocks));
    out.set("lat_p50_ms", median(&latencies));
    out.set("lat_p90_ms", quantile(&latencies, 0.9));
    out.set("lat_p99_ms", quantile(&latencies, 0.99));
    out.set("jobs_per_s", jobs_per_s);
    out.set("shots_per_s", shots as f64 / wall_s);
    // A closed loop never builds a backlog: what it sustains is what it runs.
    out.set("sustained_jobs_per_s", jobs_per_s);
    median(&latencies)
}

pub fn run(seed: u64, seconds: f64, traced: bool) -> Outcome {
    let mut out = Outcome::default();
    let backend = Backend::ibmq_guadalupe();
    let mix = Mix::new();
    let mut rng = Rng::new(seed);
    let warm: Vec<(JobRequest, Priority)> = (0..2)
        .map(|i| (mix.job(i, &mut rng), Priority::Batch))
        .collect();
    let mut reference = Reference::new(&backend, &LAYOUT);
    let (rig, setup_s) = serve::set_up(&backend, &LAYOUT, &warm, SETUPS, false, &mut out);
    out.set("setup_s", median(&setup_s));

    let measured = if traced { seconds / 2.0 } else { seconds };
    let (records, wall_s) = closed_loop(&rig, &mix, &mut rng, Duration::from_secs_f64(measured));
    let untraced_p50 = summarize(&records, wall_s, &mut out);
    serve::check_records(&records, &mut reference, &mut rng, &mut out);
    rig.shutdown();
    if !traced {
        return out;
    }

    let (rig, _) = serve::set_up(&backend, &LAYOUT, &warm, 1, true, &mut out);
    let mut control = WireClient::connect(rig.server.local_addr()).expect("connect");
    let before = serve::snapshot(&mut control);
    let (records, wall_s) = closed_loop(&rig, &mix, &mut rng, Duration::from_secs_f64(measured));
    let after = serve::snapshot(&mut control);
    let traces = control.trace_tail(records.len() + 16).expect("trace_tail");
    let mut traced_out = Outcome::default();
    let traced_p50 = summarize(&records, wall_s, &mut traced_out);
    serve::check_records(&records, &mut reference, &mut rng, &mut out);
    serve::layer_split(
        &mut out,
        &records,
        &|_| true,
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
