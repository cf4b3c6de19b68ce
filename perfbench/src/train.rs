//! `train_hybrid6`: the paper's own pipeline, one in-process `train()` of
//! the hybrid model on `task1_three_regular_6` at paper settings.
//!
//! Each repetition builds the model (set-up), times `train()`, then
//! replays the same optimisation through `minimize_two_stage` with a
//! benchmark-owned objective that issues exactly `train()`'s probes. The
//! replay must land on `train()`'s parameters bit for bit; its batch
//! timestamps are the objective-call latencies the optimizer waits on,
//! and in the traced run it also times each probe stage.

use std::time::{Duration, Instant};

use hybrid_gate_pulse::core::prelude::*;
use hybrid_gate_pulse::core::training::minimize_two_stage;
use hybrid_gate_pulse::device::Backend;
use hybrid_gate_pulse::graph::{instances, Graph};
use hybrid_gate_pulse::mitigation::M3Mitigator;
use hybrid_gate_pulse::sim::seed::stream_seed;
use rayon::prelude::*;

use crate::stats::{mean, median, ms, quantile};
use crate::Outcome;

const REGION: [usize; 6] = [1, 2, 3, 4, 5, 7];
/// Set-ups timed per run before training starts.
const SETUPS: usize = 200;
const GOLDEN: &str = include_str!("../golden/train_hybrid6.txt");
/// Training seeds with recorded golden results; the workload seed picks one.
const TRAIN_SEEDS: usize = 16;
/// The evaluation counts golden training seeds may spend: the middle of
/// the spread over training seeds (59 to 80 evaluations).
const TRAIN_EVALS: std::ops::RangeInclusive<usize> = 69..=71;

/// The training seed a workload seed selects: an entry of the golden table.
fn train_seed(seed: u64) -> Option<u64> {
    let seeds: Vec<u64> = GOLDEN
        .lines()
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| l.split_whitespace().next()?.parse().ok())
        .collect();
    (!seeds.is_empty()).then(|| seeds[(seed % seeds.len() as u64) as usize])
}

/// Paper settings: 50 iterations, 1024 shots, CVaR 0.3, M3, 8192 final shots.
fn paper_config(seed: u64) -> TrainConfig {
    TrainConfig {
        cvar_alpha: Some(0.3),
        use_m3: true,
        seed,
        ..TrainConfig::default()
    }
}

fn build_model<'a>(backend: &'a Backend, graph: &Graph) -> HybridModel<'a> {
    HybridModel::new(backend, graph, 1, REGION.to_vec()).expect("connected region")
}

/// Per-probe stage times of the traced replay, nanoseconds.
#[derive(Clone, Copy, Default)]
struct StageNs {
    build: u64,
    density: u64,
    sample: u64,
    cost: u64,
}

struct Batch {
    start: Duration,
    end: Duration,
    size: usize,
    first_eval: u64,
    stages: Vec<StageNs>,
}

struct Replay {
    params: Vec<f64>,
    ar: f64,
    n_evals: usize,
    batches: Vec<Batch>,
    wall: Duration,
    final_eval: Duration,
}

fn nanos_since(t: Instant) -> u64 {
    t.elapsed().as_nanos() as u64
}

/// Replays `train()`: the same executor, cost path, probe seeds and
/// parallel batches, driven through `minimize_two_stage`.
fn replay(model: &HybridModel<'_>, graph: &Graph, config: &TrainConfig, traced: bool) -> Replay {
    let origin = Instant::now();
    let exec = Executor::new(model.backend(), model.layout().to_vec());
    let mut evaluator = CostEvaluator::new(graph);
    if let Some(alpha) = config.cvar_alpha {
        evaluator = evaluator.with_cvar(alpha);
    }
    if config.use_m3 {
        evaluator = evaluator.with_m3(M3Mitigator::from_readout_model(exec.readout()));
    }
    let c_max = evaluator.c_max();
    let probe = |params: &[f64], eval_id: u64| -> (f64, StageNs) {
        let mut stages = StageNs::default();
        let t = Instant::now();
        let program = model.build(params);
        if traced {
            stages.build = nanos_since(t);
        }
        let t = Instant::now();
        let rho = exec.run(&program);
        if traced {
            stages.density = nanos_since(t);
        }
        let t = Instant::now();
        let counts = exec.sample_state(&rho, config.shots, stream_seed(config.seed, eval_id));
        if traced {
            stages.sample = nanos_since(t);
        }
        let t = Instant::now();
        let value = -evaluator.cost(&model.interpret_counts(&counts)) / c_max;
        if traced {
            stages.cost = nanos_since(t);
        }
        (value, stages)
    };
    let mut batches: Vec<Batch> = Vec::new();
    let mut eval_counter = 0u64;
    let mut objective = |xs: &[Vec<f64>]| -> Vec<f64> {
        let first_eval = eval_counter + 1;
        eval_counter += xs.len() as u64;
        let start = origin.elapsed();
        let out: Vec<(f64, StageNs)> = xs
            .par_iter()
            .enumerate()
            .map(|(i, x)| probe(x, first_eval + i as u64))
            .collect();
        batches.push(Batch {
            start,
            end: origin.elapsed(),
            size: xs.len(),
            first_eval,
            stages: out.iter().map(|(_, s)| *s).collect(),
        });
        out.into_iter().map(|(v, _)| v).collect()
    };
    let result = minimize_two_stage(
        &mut objective,
        &model.initial_param_candidates(),
        model.coarse_param_ids().as_deref(),
        config.max_evals,
    );
    let t = Instant::now();
    let rho = exec.run(&model.build(&result.x));
    let final_counts = exec.sample_state(&rho, config.final_shots, stream_seed(config.seed, 0));
    let ar = evaluator.cost(&model.interpret_counts(&final_counts)) / c_max;
    let final_eval = t.elapsed();
    Replay {
        params: result.x,
        ar,
        n_evals: result.n_evals,
        batches,
        wall: origin.elapsed(),
        final_eval,
    }
}

fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

/// The golden `(approximation ratio, best parameters)` of a training seed.
fn golden(seed: u64) -> Option<(u64, Vec<u64>)> {
    GOLDEN.lines().find_map(|line| {
        let mut fields = line.split_whitespace();
        if fields.next()?.parse::<u64>().ok()? != seed {
            return None;
        }
        let hex = |f: &str| u64::from_str_radix(f, 16).ok();
        let ar = hex(fields.next()?)?;
        let params = fields.map(hex).collect::<Option<Vec<u64>>>()?;
        Some((ar, params))
    })
}

/// Searches training seeds upward from 1000 for `TRAIN_SEEDS` whose
/// training spends `TRAIN_EVALS` evaluations and prints the table
/// `golden()` reads. Holding the evaluation count nearly fixed keeps the
/// work of one training the same for every workload seed, so `train_s`
/// compares like with like while the sampled inputs still vary.
pub fn record_golden() {
    let backend = Backend::ibmq_toronto();
    let graph = instances::task1_three_regular_6();
    let model = build_model(&backend, &graph);
    println!("# train seed, approximation ratio bits, best parameter bits (hex)");
    let mut found = 0;
    for seed in 1000.. {
        let result = train(&model, &graph, &paper_config(seed));
        eprintln!("seed {seed}: {} evals", result.n_evals);
        if !TRAIN_EVALS.contains(&result.n_evals) {
            continue;
        }
        let params: Vec<String> = bits(&result.best_params)
            .iter()
            .map(|b| format!("{b:016x}"))
            .collect();
        println!(
            "{seed} {:016x} {}",
            result.approximation_ratio.to_bits(),
            params.join(" ")
        );
        found += 1;
        if found == TRAIN_SEEDS {
            break;
        }
    }
}

pub fn run(seed: u64, seconds: f64, traced: bool) -> Outcome {
    let mut out = Outcome::default();
    let config = paper_config(train_seed(seed).unwrap_or(seed));
    let golden = golden(config.seed);
    if golden.is_none() {
        out.fail(format!(
            "no golden result for training seed {}",
            config.seed
        ));
    }
    let graph = instances::task1_three_regular_6();
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    // Set-up takes well under a millisecond, so it is timed on its own
    // many times before the loop and reported as the median.
    let mut setup_s: Vec<f64> = Vec::new();
    for _ in 0..SETUPS {
        let t = Instant::now();
        let backend = Backend::ibmq_toronto();
        let model = build_model(&backend, &graph);
        std::hint::black_box(&model);
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let mut train_s: Vec<f64> = Vec::new();
    let mut evals_per_s: Vec<f64> = Vec::new();
    let mut shots_per_s: Vec<f64> = Vec::new();
    let mut batch_ms: Vec<f64> = Vec::new();
    let mut replayed: Option<Replay> = None;
    loop {
        let t = Instant::now();
        let backend = Backend::ibmq_toronto();
        let model = build_model(&backend, &graph);
        setup_s.push(t.elapsed().as_secs_f64());

        let t = Instant::now();
        let result = train(&model, &graph, &config);
        let wall = t.elapsed().as_secs_f64();
        train_s.push(wall);
        evals_per_s.push(result.n_evals as f64 / wall);
        shots_per_s.push((result.n_evals * config.shots + config.final_shots) as f64 / wall);

        out.attempted += 1;
        if let Some((ar, params)) = &golden {
            if result.approximation_ratio.to_bits() != *ar || bits(&result.best_params) != *params {
                out.fail(format!(
                    "train() seed {} gave AR {} / params {:?}, golden differs",
                    config.seed, result.approximation_ratio, result.best_params
                ));
            }
        }
        if !(0.5..=1.0).contains(&result.approximation_ratio) {
            out.fail(format!("implausible AR {}", result.approximation_ratio));
        }

        // Every training is replayed: the replay checks `train()`
        // against the benchmark-owned objective and times its calls.
        let rep = replay(&model, &graph, &config, traced);
        out.attempted += 1;
        if bits(&rep.params) != bits(&result.best_params)
            || rep.ar.to_bits() != result.approximation_ratio.to_bits()
            || rep.n_evals != result.n_evals
        {
            out.fail(format!(
                "objective replay diverged from train(): params {:?} vs {:?}",
                rep.params, result.best_params
            ));
        }
        batch_ms.extend(rep.batches.iter().map(|b| ms(b.end - b.start)));
        replayed.get_or_insert(rep);
        if traced || Instant::now() >= deadline {
            break;
        }
    }
    out.notes.push(format!(
        "{} training run(s), {} objective batches timed",
        train_s.len(),
        batch_ms.len()
    ));
    out.set("setup_s", median(&setup_s));
    out.set("train_s", median(&train_s));
    out.set("lat_p50_ms", median(&batch_ms));
    out.set("lat_p90_ms", quantile(&batch_ms, 0.9));
    out.set("lat_p99_ms", quantile(&batch_ms, 0.99));
    out.set("jobs_per_s", median(&evals_per_s));
    out.set("shots_per_s", median(&shots_per_s));
    // A closed loop never builds a backlog: what it sustains is what it runs.
    out.set("sustained_jobs_per_s", median(&evals_per_s));
    if let (true, Some(rep)) = (traced, &replayed) {
        traced_metrics(&mut out, rep, median(&train_s));
    }
    out
}

fn traced_metrics(out: &mut Outcome, rep: &Replay, train_s: f64) {
    let probes: Vec<&StageNs> = rep.batches.iter().flat_map(|b| &b.stages).collect();
    let sum_ms = |f: fn(&StageNs) -> u64| probes.iter().map(|s| f(s)).sum::<u64>() as f64 / 1e6;
    let objective_ms: f64 = rep.batches.iter().map(|b| ms(b.end - b.start)).sum();
    let sizes: Vec<f64> = rep.batches.iter().map(|b| b.size as f64).collect();
    out.set("train.evals", rep.n_evals as f64);
    out.set("train.batches", rep.batches.len() as f64);
    out.set("train.batch_size_mean", mean(&sizes));
    out.set("train.build_ms", sum_ms(|s| s.build));
    out.set("train.density_ms", sum_ms(|s| s.density));
    out.set("train.sample_ms", sum_ms(|s| s.sample));
    out.set("train.cost_ms", sum_ms(|s| s.cost));
    out.set(
        "train.optimizer_ms",
        ms(rep.wall) - objective_ms - ms(rep.final_eval),
    );
    out.set("train.final_eval_ms", ms(rep.final_eval));
    out.set("tracing_overhead", rep.wall.as_secs_f64() / train_s - 1.0);
    for b in &rep.batches {
        let stages: Vec<String> = b
            .stages
            .iter()
            .map(|s| format!("[{}, {}, {}, {}]", s.build, s.density, s.sample, s.cost))
            .collect();
        out.spans.push(format!(
            "{{\"span\": \"objective_batch\", \"start_ns\": {}, \"end_ns\": {}, \"first_eval\": {}, \"size\": {}, \"probe_build_density_sample_cost_ns\": [{}]}}",
            b.start.as_nanos(),
            b.end.as_nanos(),
            b.first_eval,
            b.size,
            stages.join(", ")
        ));
    }
}
