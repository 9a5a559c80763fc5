//! The repository benchmark: end-to-end and per-layer performance of
//! the offload serving stack on three workloads.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload serve_analytic --seed 1 --seconds 10 --trace 0
//! ```
//!
//! With `--trace 0` the run measures repeated untraced passes for
//! `--seconds` and prints the end-to-end metrics; with `--trace 1` it
//! alternates untraced and traced passes, replays the workload's inputs
//! through each layer's public API, writes the span file and the layer
//! table, and prints the per-layer metrics. Either way the last stdout
//! line is one JSON object: `{"correct", "attempted", "failed", "metrics"}`.
//! A run whose outputs fail a check prints `"correct": false` and exits 1.

mod check;
mod gen;
mod layers;
mod measure;
mod spec;
mod trace;

use std::process::ExitCode;
use std::time::{Duration, Instant};

use serde::Value;

use crate::check::Checked;
use crate::measure::{Inputs, Pass};
use crate::trace::Tracer;

type BoxError = Box<dyn std::error::Error>;

struct Args {
    workload: String,
    seed: Option<u64>,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: None,
        seconds: 10,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = Some(number()?),
            "--seconds" => args.seconds = number()?,
            "--trace" => {
                args.trace = match number()? {
                    0 => false,
                    1 => true,
                    _ => return Err("--trace takes 0 or 1".to_owned()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.workload.is_empty() {
        let names: Vec<String> = spec::all().into_iter().map(|s| s.name).collect();
        return Err(format!("--workload is required: one of {names:?}"));
    }
    Ok(args)
}

/// Median of a non-empty sample.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Peak resident set of this process (`VmHWM`), in MB.
fn peak_rss_mb() -> Result<f64, BoxError> {
    let status = std::fs::read_to_string("/proc/self/status")?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().strip_suffix("kB"))
        .ok_or("no VmHWM in /proc/self/status")?
        .trim()
        .parse()?;
    Ok(kb / 1024.0)
}

/// Metrics in print order: `(name, value, unit)`.
pub type Metrics = Vec<(&'static str, f64, &'static str)>;

/// Everything a run reports: its checks, digests and metrics.
#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub violations: Vec<String>,
    /// Output digest per stream, from the stream's first pass.
    pub digests: Vec<Option<String>>,
    /// Checked results of every stream's first pass, pooled.
    pub pooled: Checked,
    pub metrics: Metrics,
}

impl Report {
    /// Folds a pass's checks in. A stream's first pass joins the pooled
    /// results; a later pass whose digest differs is a violation, since
    /// runs must be deterministic.
    pub fn absorb(&mut self, pass: &Pass) {
        self.attempted += pass.checked.attempted();
        self.failed += pass.checked.failed();
        self.violations
            .extend(pass.checked.violations.iter().take(20).cloned());
        if self.digests.len() <= pass.stream {
            self.digests.resize(pass.stream + 1, None);
        }
        match &self.digests[pass.stream] {
            None => {
                self.digests[pass.stream] = Some(pass.digest.clone());
                self.pooled.merge(&pass.checked);
            }
            Some(first) if *first != pass.digest => self.violations.push(format!(
                "stream {}: pass digest {} differs from the first pass's {first}",
                pass.stream, pass.digest
            )),
            Some(_) => {}
        }
    }

    /// One checked but untimed pass, so that caches fill and lazy
    /// set-up finishes before anything is timed.
    pub fn warm_up(&mut self, inputs: &Inputs) -> Result<(), BoxError> {
        let pass = measure::pass(inputs, 0, &mut Tracer::off())?;
        self.absorb(&pass);
        Ok(())
    }

    /// One digest over every stream's outputs.
    pub fn digest(&self) -> String {
        check::stream_digest(self.digests.iter().flatten().map(String::as_bytes))
    }
}

/// Runs untraced passes for `seconds` and reports the end-to-end metrics.
fn end_to_end(inputs: &Inputs, seconds: u64) -> Result<Report, BoxError> {
    let until = Instant::now() + Duration::from_secs(seconds);
    let mut report = Report::default();
    let streams = inputs.streams.len();
    let mut setups = Vec::new();
    // Per stream: jobs resolved, and the run time of each of its passes.
    let mut runs: Vec<(u64, Vec<f64>)> = vec![(0, Vec::new()); streams];
    let mut rates = Vec::new();
    report.warm_up(inputs)?;
    // Every stream runs at least once, whatever `--seconds` says.
    while rates.len() < streams || Instant::now() < until {
        let pass = measure::pass(inputs, rates.len() % streams, &mut Tracer::off())?;
        report.absorb(&pass);
        setups.push(pass.setup_s);
        rates.push(pass.jobs_per_s());
        runs[pass.stream].0 = pass.resolved;
        runs[pass.stream].1.push(pass.run_s);
    }
    // Each stream's median pass, so that streams run more often than
    // others do not tilt the rate.
    let resolved: u64 = runs.iter().map(|(jobs, _)| jobs).sum();
    let run_s: f64 = runs.iter().map(|(_, times)| median(times)).sum();
    let checked = &report.pooled;
    let infinite = u64::MAX as f64;
    let quantile = |q| checked.latency_quantile(q).map_or(infinite, |l| l as f64);
    println!("{}: {}", inputs.spec.name, inputs.spec.shape);
    println!(
        "{}: {} passes over {streams} streams; jobs_per_s per pass min {:.0} max {:.0}",
        inputs.spec.name,
        rates.len(),
        rates.iter().copied().fold(f64::INFINITY, f64::min),
        rates.iter().copied().fold(0.0, f64::max),
    );
    let per_pass: Vec<String> = rates.iter().map(|r| format!("{r:.0}")).collect();
    eprintln!("jobs_per_s per pass: {}", per_pass.join(" "));
    println!(
        "{:<34} {:>20} share",
        "failed_share",
        checked.failed_share()
    );
    for (reason, n) in &checked.rejections {
        println!("rejected {n} jobs: {reason}");
    }
    report.metrics = vec![
        ("jobs_per_s", resolved as f64 / run_s, "1/s"),
        ("setup_s", median(&setups), "s"),
        ("peak_rss_mb", peak_rss_mb()?, "MB"),
        ("attainment", checked.attainment(), "share"),
        ("p50_latency_cycles", quantile(0.5), "cycles"),
        ("p99_latency_cycles", quantile(0.99), "cycles"),
    ];
    Ok(report)
}

fn print_result(report: &Report) {
    for (name, value, unit) in &report.metrics {
        println!("{name:<34} {value:>20} {unit}");
    }
    println!("digest {}", report.digest());
    for v in &report.violations {
        println!("CHECK FAILED: {v}");
    }
    let metrics = report
        .metrics
        .iter()
        .map(|&(name, value, unit)| {
            (
                name.to_owned(),
                Value::Object(vec![
                    ("value".to_owned(), Value::F64(value)),
                    ("unit".to_owned(), Value::Str(unit.to_owned())),
                ]),
            )
        })
        .collect();
    let line = Value::Object(vec![
        (
            "correct".to_owned(),
            Value::Bool(report.violations.is_empty()),
        ),
        ("attempted".to_owned(), Value::U64(report.attempted)),
        ("failed".to_owned(), Value::U64(report.failed)),
        ("metrics".to_owned(), Value::Object(metrics)),
    ]);
    println!(
        "{}",
        serde_json::to_string(&line).expect("result serializes")
    );
}

fn run(args: &Args) -> Result<Report, BoxError> {
    // Host-time metrics are taken with the program's own profiler off.
    mpsoc_sim::profile::set_enabled(false);
    let spec = spec::find(&args.workload)
        .ok_or_else(|| format!("unknown workload {:?}", args.workload))?;
    let seed = args.seed.unwrap_or(spec.default_seed);
    let inputs = Inputs::new(spec, seed)?;
    if args.trace {
        layers::traced(&inputs, args.seconds)
    } else {
        end_to_end(&inputs, args.seconds)
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(report) => {
            print_result(&report);
            if report.violations.is_empty() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
