//! The repository benchmark: three workloads, end-to-end metrics with
//! the benchmark's own tracing off, per-layer metrics from a traced run.
//!
//! ```text
//! perfbench --workload <train_hybrid6|serve_engine|serve_small>
//!           --seed <n> --seconds <s> --trace <0|1>
//! perfbench --record-golden      # rewrite golden/train_hybrid6.txt
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. `perfbench/run.py`
//! builds this package and forwards its arguments; see
//! `perfbench/README.md` for what each metric means on each workload.

mod engine;
mod serve;
mod small;
mod stats;
mod train;

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;

/// End-to-end metrics (reported with `--trace 0`) and their units.
pub const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("train_s", "s"),
    ("lat_p50_ms", "ms"),
    ("lat_p90_ms", "ms"),
    ("lat_p99_ms", "ms"),
    ("jobs_per_s", "1/s"),
    ("shots_per_s", "1/s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics (reported with `--trace 1`) and their units. A layer
/// a workload bypasses reports 0: it did no work there.
/// `sustained_jobs_per_s` is end to end in kind but listed here, without
/// a bound: `serve_small`'s 200 jobs/s step sits where transient host
/// stalls push its p99 over the limit, so its spread exceeds any bound.
pub const PER_LAYER: [(&str, &str); 39] = [
    ("wire.residual_ms_p50", "ms"),
    ("wire.residual_ms_p99", "ms"),
    ("wire.codec_us_per_job", "us"),
    ("wire.bytes_per_job", "bytes"),
    ("daemon.queue_ms_p50", "ms"),
    ("daemon.queue_ms_p99", "ms"),
    ("daemon.validate_us_per_job", "us"),
    ("daemon.rejected", "count"),
    ("daemon.worker_busy_ratio", "ratio"),
    ("cache.hit_ratio", "ratio"),
    ("compile.misses", "count"),
    ("compile.ms_per_miss", "ms"),
    ("bind.us_per_job.circuit", "us"),
    ("bind.us_per_job.hybrid", "us"),
    ("exec.ms_per_job.trajectory_counts", "ms"),
    ("exec.ms_per_job.expectation", "ms"),
    ("exec.ms_per_job.hybrid_expectation", "ms"),
    ("exec.ms_per_job.counts", "ms"),
    ("exec.us_per_shot", "us"),
    ("exec.op_share.diag_run", "ratio"),
    ("exec.op_share.dense_1q", "ratio"),
    ("exec.op_share.dense_2q", "ratio"),
    ("exec.op_share.mixed_channel", "ratio"),
    ("exec.op_share.general_channel", "ratio"),
    ("exec.op_share.renorm", "ratio"),
    ("train.evals", "count"),
    ("train.batches", "count"),
    ("train.batch_size_mean", "count"),
    ("train.build_ms", "ms"),
    ("train.density_ms", "ms"),
    ("train.sample_ms", "ms"),
    ("train.cost_ms", "ms"),
    ("train.optimizer_ms", "ms"),
    ("train.final_eval_ms", "ms"),
    ("sustained_jobs_per_s", "1/s"),
    ("gen.late_ms_p99", "ms"),
    ("gen.invalid_steps", "count"),
    ("unattributed_share", "ratio"),
    ("tracing_overhead", "ratio"),
];

/// What one workload run produced.
#[derive(Default)]
pub struct Outcome {
    /// Operations attempted (training runs or served jobs).
    pub attempted: u64,
    /// Operations that errored, were refused, or failed a correctness check.
    pub failed: u64,
    /// The reasons for failures, printed to standard error.
    pub problems: Vec<String>,
    pub metrics: BTreeMap<&'static str, f64>,
    /// Trace spans, one JSON object per line, written out at the end.
    pub spans: Vec<String>,
    /// Human-readable remarks (sample counts, ladder steps).
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    pub fn fail(&mut self, problem: String) {
        self.failed += 1;
        self.problems.push(problem);
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = Some(value()?.parse::<u64>().map_err(|e| e.to_string())?),
            "--seconds" => seconds = Some(value()?.parse::<f64>().map_err(|e| e.to_string())?),
            "--trace" => trace = Some(value()? == "1"),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !seconds.is_finite() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn json_number(v: f64) -> String {
    assert!(v.is_finite(), "metric values must be finite");
    let text = format!("{v}");
    if text.contains(['.', 'e']) {
        text
    } else {
        format!("{text}.0")
    }
}

fn json_str(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

/// The run metadata every result records.
fn metadata(args: &Args) -> String {
    let env = |k: &str| std::env::var(k).unwrap_or_else(|_| "unset".to_string());
    let host = std::fs::read_to_string("/proc/sys/kernel/hostname")
        .map(|h| h.trim().to_string())
        .unwrap_or_else(|_| "unknown".to_string());
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let fields = [
        ("workload", json_str(&args.workload)),
        ("seed", args.seed.to_string()),
        ("seconds", json_number(args.seconds)),
        ("trace", (args.trace as u8).to_string()),
        ("host", json_str(&host)),
        ("nproc", nproc.to_string()),
        ("workers", serve::default_workers().to_string()),
        ("rayon_num_threads", json_str(&env("RAYON_NUM_THREADS"))),
        (
            "rayon_threads_used",
            rayon::current_num_threads().to_string(),
        ),
        ("git_commit", json_str(&env("PERFBENCH_COMMIT"))),
        ("rustc", json_str(&env("PERFBENCH_RUSTC"))),
    ];
    let body: Vec<String> = fields
        .iter()
        .map(|(k, v)| format!("{}: {v}", json_str(k)))
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn write_spans(args: &Args, meta: &str, spans: &[String]) -> std::io::Result<String> {
    let dir = Path::new("perfbench").join("out");
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("spans-{}-seed{}.jsonl", args.workload, args.seed));
    let mut file = std::io::BufWriter::new(std::fs::File::create(&path)?);
    writeln!(file, "{{\"meta\": {meta}}}")?;
    for span in spans {
        writeln!(file, "{span}")?;
    }
    file.flush()?;
    Ok(path.display().to_string())
}

fn main() {
    if std::env::args().nth(1).as_deref() == Some("--record-golden") {
        train::record_golden();
        return;
    }
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let meta = metadata(&args);
    println!("meta {meta}");
    let mut outcome = match args.workload.as_str() {
        "train_hybrid6" => train::run(args.seed, args.seconds, args.trace),
        "serve_engine" => engine::run(args.seed, args.seconds, args.trace),
        "serve_small" => small::run(args.seed, args.seconds, args.trace),
        other => {
            eprintln!("perfbench: unknown workload {other}");
            std::process::exit(2);
        }
    };
    if !args.trace {
        outcome.set("peak_rss_mb", stats::peak_rss_mb());
    }
    for problem in &outcome.problems {
        eprintln!("perfbench: FAILED {problem}");
    }
    for note in &outcome.notes {
        println!("note {note}");
    }
    if args.trace {
        match write_spans(&args, &meta, &outcome.spans) {
            Ok(path) => println!("note {} spans written to {path}", outcome.spans.len()),
            Err(e) => eprintln!("perfbench: could not write spans: {e}"),
        }
    }
    let registry: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let mut entries = Vec::new();
    for (name, unit) in registry {
        let value = match outcome.metrics.get(name) {
            Some(v) => *v,
            // Per-layer metrics of a bypassed layer are a measured zero;
            // a missing end-to-end metric is a benchmark bug.
            None if args.trace => 0.0,
            None => panic!("workload {} did not report {name}", args.workload),
        };
        println!("metric {name} = {value} {unit}");
        entries.push(format!(
            "{}: {{\"value\": {}, \"unit\": {}}}",
            json_str(name),
            json_number(value),
            json_str(unit)
        ));
    }
    let correct = outcome.failed == 0 && outcome.attempted > 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.attempted.max(1),
        outcome.failed,
        entries.join(", ")
    );
}
