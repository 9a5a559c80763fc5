//! The traced run: per-layer metrics, the span file and the layer table.
//!
//! Untraced and traced passes alternate for `--seconds`; the gap
//! between their `jobs_per_s` medians is the tracing overhead. Spans
//! wrap only the benchmark's own calls into public functions, so where
//! a workload's flow hides a layer boundary (the daemon hides the codec
//! and the fleet; the fleet hides admission) the run replays that
//! workload's exact inputs through the layer's public API:
//!
//! - `serve::wire`: every request and response through `encode`, and
//!   through a `Decoder` fed in 4 KiB chunks as a socket delivers them;
//! - `serve::fleet`: the daemon's submission order, call by call, into a
//!   fresh `Fleet::submit`, then `Fleet::drain`;
//! - `serve::daemon`: `Daemon::stats_report` at the poll times;
//! - `sched::admission`: every job through `AdmissionController::admit`;
//! - `sched::engine`: the job stream through `Engine::run`;
//! - `soc`: calibration, and solo `Offloader::offload` runs of the
//!   distinct `(kernel, n, m)` offloads the workload made.
//!
//! `sched_batch` has no serving front, so its serving layers are
//! measured by replaying its jobs through a one-session daemon over a
//! single analytic shard of the same size; the served workloads'
//! `sched::engine` figures replay their jobs through `Engine::run` on a
//! machine with the fleet's total cluster count.

use std::collections::BTreeSet;
use std::hint::black_box;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use mpsoc_offload::{OffloadStrategy, Offloader};
use mpsoc_sched::{AdmissionController, FifoFirstFit, JobOutcome, JobRecord, KernelId, ModelTable};
use mpsoc_serve::{
    encode, ClientScript, Daemon, Decoder, FleetConfig, FleetSlo, Request, Response, SessionLog,
};
use mpsoc_sim::rng::SplitMix64;
use mpsoc_soc::SocConfig;
use serde::Serialize;

use crate::check::{self, nearest_rank, Checked};
use crate::gen;
use crate::measure::{self, Inputs, Outcome, Pass, Stream};
use crate::spec::ServeSpec;
use crate::trace::Tracer;
use crate::{median, Metrics, Report};

type BoxError = Box<dyn std::error::Error>;

/// Chunk size the replayed decoders are fed in, as a socket read.
const CHUNK: usize = 4096;
/// Largest problem size replayed solo on a SoC: the co-simulated
/// workload's largest size. Larger operands can overflow a cluster's
/// TCDM on small partitions.
const MAX_SOC_N: u64 = 4096;
/// Fewest `Daemon::stats_report` calls timed.
const MIN_STATS_CALLS: usize = 64;
/// Run id of the replay spans; traced passes are numbered from 1.
const REPLAY: u32 = 0;

/// The end-to-end metrics each layer should move, by workload.
const FEEDS: [(&str, &str); 7] = [
    ("bench", "setup_s (all)"),
    ("serve::wire", "jobs_per_s, peak_rss_mb (serve_analytic)"),
    ("serve::daemon", "jobs_per_s, peak_rss_mb (serve_analytic)"),
    (
        "serve::fleet",
        "jobs_per_s (serve_analytic); attainment, p99_latency_cycles (serve_*)",
    ),
    (
        "sched::admission",
        "attainment, p50_latency_cycles, p99_latency_cycles (all)",
    ),
    ("sched::engine", "jobs_per_s (sched_batch)"),
    (
        "soc",
        "jobs_per_s, setup_s, attainment, p99_latency_cycles (serve_cosim)",
    ),
];

/// The serving path a layer replay starts from.
struct Served<'a> {
    scripts: &'a [ClientScript],
    config: FleetConfig,
    cosim: bool,
    table: &'a ModelTable,
    daemon: &'a Daemon,
    logs: &'a [SessionLog],
    streams: &'a [Vec<Response>],
    /// Run id of the spans around its `Daemon::run` and decodes.
    run: u32,
}

/// Where the span file and layer table go: under the build directory,
/// inside the checkout.
fn out_dir() -> PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| "target".into());
    PathBuf::from(target).join("perfbench")
}

fn ns(d: Duration) -> f64 {
    d.as_nanos() as f64
}

/// The traced run.
pub fn traced(inputs: &Inputs, seconds: u64) -> Result<Report, BoxError> {
    let until = Instant::now() + Duration::from_secs(seconds);
    let mut t = Tracer::default();
    let mut report = Report::default();
    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    let mut last: Option<Pass> = None;
    let streams = inputs.streams.len();
    report.warm_up(inputs)?;
    while traced.len() < streams || Instant::now() < until {
        let stream = traced.len() % streams;
        t.set_run(REPLAY, false);
        let pass = measure::pass(inputs, stream, &mut t)?;
        report.absorb(&pass);
        untraced.push(pass.jobs_per_s());
        t.set_run(traced.len() as u32 + 1, true);
        let pass = measure::pass(inputs, stream, &mut t)?;
        report.absorb(&pass);
        traced.push(pass.jobs_per_s());
        last = Some(pass);
    }
    let last_run = traced.len() as u32;
    let pass = last.expect("at least one traced pass");
    t.set_run(REPLAY, true);

    let spec = &inputs.spec;
    let stream = &inputs.streams[pass.stream];
    let mut m: Metrics = Vec::new();
    let mut violations = Vec::new();
    // The batch workload's serving front, replayed.
    let batch_front;
    let (served, records): (Served, Vec<JobRecord>) = match &pass.outcome {
        Outcome::Served {
            daemon,
            logs,
            streams,
        } => {
            let serve = spec.serve.as_ref().expect("served workload");
            let served = Served {
                scripts: &stream.scripts,
                config: gen::fleet_config(spec, serve),
                cosim: spec.cosim(),
                table: &inputs.table,
                daemon,
                logs,
                streams,
                run: last_run,
            };
            let records = daemon
                .fleet()
                .completed()
                .iter()
                .map(|r| r.record)
                .collect();
            (served, records)
        }
        Outcome::Batch { report: run } => {
            batch_front = BatchFront::replay(inputs, stream, &mut t)?;
            violations.extend(batch_front.checked.violations.iter().take(20).cloned());
            (batch_front.served(inputs), run.records.clone())
        }
    };

    let codec_ns = wire(&served, &mut t, &mut m, &mut violations);
    let fleet_ns = fleet(&served, &mut t, &mut m, &mut violations, stream.seed)?;
    daemon(&served, &mut t, &mut m, codec_ns, fleet_ns);

    // sched::admission and the shard's allocate/pick/retire outcomes.
    let admission = AdmissionController::new(inputs.table.clone(), spec.clusters);
    let admit = t.span("sched::admission", "AdmissionController::admit", |_| {
        let started = Instant::now();
        for job in &stream.jobs {
            black_box(admission.admit(black_box(job)));
        }
        started.elapsed()
    });
    m.push((
        "sched.admit_ns_per_job",
        ns(admit) / stream.jobs.len() as f64,
        "ns",
    ));
    let mut waits = pass.checked.queue_waits.clone();
    waits.sort_unstable();
    let wait_q = |q| nearest_rank(&waits, q).map_or(0.0, |w| w as f64);
    m.push(("sched.queue_wait_cycles_p50", wait_q(0.5), "cycles"));
    m.push(("sched.queue_wait_cycles_p99", wait_q(0.99), "cycles"));
    let (mut busy, mut makespan, mut offloaded, mut host_runs) = (0u64, 0u64, 0u64, 0u64);
    for r in &records {
        match r.outcome {
            JobOutcome::Offloaded { start, finish, m } => {
                busy += (finish - start) * m as u64;
                makespan = makespan.max(finish);
                offloaded += 1;
            }
            JobOutcome::Host { finish, .. } => {
                makespan = makespan.max(finish);
                host_runs += 1;
            }
            JobOutcome::Rejected { .. } => {}
        }
    }
    m.push((
        "sched.cluster_utilization",
        busy as f64 / (spec.total_clusters() as f64 * makespan.max(1) as f64),
        "share",
    ));
    m.push(("sched.offloaded", offloaded as f64, "count"));
    m.push(("sched.host_runs", host_runs as f64, "count"));

    // sched::engine: the measured call for the batch workload, a replay
    // of the same jobs for the served ones.
    let engine_ns = match &pass.outcome {
        Outcome::Batch { .. } => t
            .named("Engine::run")
            .filter(|s| s.run == last_run)
            .map(|s| s.ns())
            .sum::<u64>(),
        Outcome::Served { .. } => {
            let mut engine = gen::engine(spec.total_clusters(), &inputs.table);
            let started = Instant::now();
            let run = t.span("sched::engine", "Engine::run", |_| {
                engine.run(&stream.jobs, &mut FifoFirstFit)
            })?;
            let elapsed = started.elapsed().as_nanos() as u64;
            let c = check::batch(&stream.jobs, &run.records);
            violations.extend(c.violations.into_iter().take(20));
            elapsed
        }
    };
    m.push(("engine.run_s", engine_ns as f64 * 1e-9, "s"));
    m.push((
        "engine.ns_per_job",
        engine_ns as f64 / stream.jobs.len() as f64,
        "ns",
    ));

    soc(
        inputs,
        stream.seed,
        &records,
        &mut t,
        &mut m,
        &mut violations,
    )?;

    let jobs_per_s = median(&untraced);
    let traced_jobs_per_s = median(&traced);
    m.push(("trace.jobs_per_s_untraced", jobs_per_s, "1/s"));
    m.push(("trace.jobs_per_s_traced", traced_jobs_per_s, "1/s"));
    m.push((
        "trace.overhead_share",
        (jobs_per_s - traced_jobs_per_s) / jobs_per_s,
        "share",
    ));
    m.push(("trace.spans", t.spans().len() as f64, "count"));

    write_outputs(inputs, &t, last_run)?;
    report.violations.extend(violations);
    report.metrics = m;
    Ok(report)
}

/// `sched_batch`'s jobs through a one-session daemon over one analytic
/// shard of the batch machine's size, with room for every job.
struct BatchFront {
    scripts: Vec<ClientScript>,
    config: FleetConfig,
    daemon: Daemon,
    logs: Vec<SessionLog>,
    streams: Vec<Vec<Response>>,
    checked: Checked,
}

impl BatchFront {
    fn replay(inputs: &Inputs, stream: &Stream, t: &mut Tracer) -> Result<Self, BoxError> {
        let front = ServeSpec {
            sessions: 1,
            shards: 1,
            placement: "round_robin".to_owned(),
            steal: false,
            redirect_budget: 0,
            queue_limit: stream.jobs.len() as u64,
            stats_every: 2000,
        };
        let scripts = gen::scripts(&front, &stream.jobs, stream.seed);
        let config = gen::fleet_config(&inputs.spec, &front);
        let mut daemon = Daemon::new(gen::fleet(
            inputs.spec.cosim(),
            config,
            &inputs.table,
            stream.seed,
        )?);
        let logs = t.span("serve::daemon", "Daemon::run", |_| daemon.run(&scripts))?;
        let streams = logs
            .iter()
            .map(|log| t.span("serve::wire", "SessionLog::responses", |_| log.responses()))
            .collect::<Result<Vec<_>, _>>()?;
        let checked = check::served(&scripts, &streams);
        Ok(BatchFront {
            scripts,
            config,
            daemon,
            logs,
            streams,
            checked,
        })
    }

    fn served<'a>(&'a self, inputs: &'a Inputs) -> Served<'a> {
        Served {
            scripts: &self.scripts,
            config: self.config,
            cosim: inputs.spec.cosim(),
            table: &inputs.table,
            daemon: &self.daemon,
            logs: &self.logs,
            streams: &self.streams,
            run: REPLAY,
        }
    }
}

/// Feeds `bytes` to a fresh decoder in [`CHUNK`]-byte pieces and counts
/// the messages that come out.
fn decode_chunked<T: serde::Deserialize>(bytes: &[u8]) -> Result<usize, mpsoc_serve::DecodeError> {
    let mut decoder = Decoder::new();
    let mut frames = 0;
    for chunk in bytes.chunks(CHUNK) {
        decoder.push(chunk);
        while let Some(msg) = decoder.next_message::<T>()? {
            black_box(msg);
            frames += 1;
        }
    }
    decoder.finish()?;
    Ok(frames)
}

/// Replays the codec; returns the host ns spent on the daemon's side of
/// the wire (encoding requests, decoding them, encoding responses).
fn wire(served: &Served, t: &mut Tracer, m: &mut Metrics, violations: &mut Vec<String>) -> f64 {
    let requests: Vec<&Request> = served
        .scripts
        .iter()
        .flat_map(|s| s.sends.iter().map(|(_, r)| r))
        .collect();
    let responses: Vec<&Response> = served.streams.iter().flatten().collect();
    let jobs = requests
        .iter()
        .filter(|r| matches!(r, Request::SubmitJob { .. }))
        .count();

    let (encode_req, _) = encode_all(t, "encode(Request)", &requests);
    let (encode_resp, resp_bytes) = encode_all(t, "encode(Response)", &responses);

    // Decoding replays the byte streams the sessions carried.
    let inbound: Vec<Vec<u8>> = served
        .scripts
        .iter()
        .map(|s| s.sends.iter().flat_map(|(_, r)| encode(r)).collect())
        .collect();
    let (decode_req, req_frames) = t.span("serve::wire", "Decoder(Request)", |_| {
        let started = Instant::now();
        let frames: Result<usize, _> = inbound.iter().map(|b| decode_chunked::<Request>(b)).sum();
        (started.elapsed(), frames)
    });
    let (decode_resp, resp_frames) = t.span("serve::wire", "Decoder(Response)", |_| {
        let started = Instant::now();
        let frames: Result<usize, _> = served
            .logs
            .iter()
            .map(|l| decode_chunked::<Response>(&l.outbound))
            .sum();
        (started.elapsed(), frames)
    });
    match (req_frames, resp_frames) {
        (Ok(a), Ok(b)) if a == requests.len() && b == responses.len() => {}
        other => violations.push(format!("chunked decode replay disagrees: {other:?}")),
    }

    let frames = (requests.len() + responses.len()) as f64;
    let client_decode: u64 = t
        .named("SessionLog::responses")
        .filter(|s| s.run == served.run)
        .map(|s| s.ns())
        .sum();
    m.push(("wire.frames", frames, "count"));
    m.push(("wire.bytes_per_job", resp_bytes as f64 / jobs as f64, "B"));
    m.push((
        "wire.encode_ns_per_frame",
        (ns(encode_req) + ns(encode_resp)) / frames,
        "ns",
    ));
    m.push((
        "wire.decode_ns_per_frame",
        (ns(decode_req) + ns(decode_resp)) / frames,
        "ns",
    ));
    m.push(("wire.client_decode_s", client_decode as f64 * 1e-9, "s"));
    ns(encode_req) + ns(decode_req) + ns(encode_resp)
}

/// Encodes every message, returning the time taken and the bytes made.
fn encode_all<T: Serialize>(t: &mut Tracer, name: &'static str, msgs: &[&T]) -> (Duration, usize) {
    t.span("serve::wire", name, |_| {
        let started = Instant::now();
        let bytes: usize = msgs.iter().map(|msg| black_box(encode(*msg)).len()).sum();
        (started.elapsed(), bytes)
    })
}

/// Replays the daemon's submission order into a fresh fleet; returns
/// the host ns the fleet took (submits plus drain).
fn fleet(
    served: &Served,
    t: &mut Tracer,
    m: &mut Metrics,
    violations: &mut Vec<String>,
    seed: u64,
) -> Result<f64, BoxError> {
    // The daemon's order: (virtual time, session, send index).
    let mut order: Vec<(u64, usize, usize)> = served
        .scripts
        .iter()
        .enumerate()
        .flat_map(|(s, script)| {
            script
                .sends
                .iter()
                .enumerate()
                .map(move |(i, &(time, _))| (time, s, i))
        })
        .collect();
    order.sort_unstable();
    let mut fleet = gen::fleet(served.cosim, served.config, served.table, seed)?;
    let mut submit_ns = Vec::with_capacity(order.len());
    for (time, s, i) in order {
        if let Request::SubmitJob {
            kernel,
            n,
            deadline,
            ..
        } = served.scripts[s].sends[i].1
        {
            let started = Instant::now();
            t.span("serve::fleet", "Fleet::submit", |_| {
                fleet.submit(kernel, n, deadline, time)
            })?;
            submit_ns.push(started.elapsed().as_nanos() as u64);
        }
    }
    let started = Instant::now();
    t.span("serve::fleet", "Fleet::drain", |_| fleet.drain())?;
    let drain = started.elapsed();
    let slo = FleetSlo::from_fleet(&fleet);
    if slo != FleetSlo::from_fleet(served.daemon.fleet()) {
        violations.push("fleet replay diverged from the daemon's fleet".to_owned());
    }
    let total: u64 = submit_ns.iter().sum();
    submit_ns.sort_unstable();
    let q = |q| nearest_rank(&submit_ns, q).unwrap_or(0) as f64;
    m.push(("fleet.submit_ns_p50", q(0.5), "ns"));
    m.push(("fleet.submit_ns_p99", q(0.99), "ns"));
    m.push(("fleet.drain_s", drain.as_secs_f64(), "s"));
    m.push(("fleet.steals", slo.steals as f64, "count"));
    m.push(("fleet.redirects", slo.redirects as f64, "count"));
    m.push(("fleet.queue_full", slo.queue_full as f64, "count"));
    Ok(total as f64 + ns(drain))
}

fn daemon(served: &Served, t: &mut Tracer, m: &mut Metrics, codec_ns: f64, fleet_ns: f64) {
    let run_ns: u64 = t
        .named("Daemon::run")
        .filter(|s| s.run == served.run)
        .map(|s| s.ns())
        .sum();
    let run_ns = run_ns as f64;
    m.push(("daemon.run_s", run_ns * 1e-9, "s"));
    m.push(("daemon.self_s", (run_ns - fleet_ns - codec_ns) * 1e-9, "s"));
    // Daemon::run hands every response over when it returns, so all of
    // them are held before the first is delivered.
    let responses: usize = served.streams.iter().map(Vec::len).sum();
    m.push(("daemon.responses_buffered", responses as f64, "count"));
    let mut polls: Vec<u64> = served
        .scripts
        .iter()
        .flat_map(|s| s.sends.iter())
        .filter(|(_, r)| matches!(r, Request::GetStats))
        .map(|&(time, _)| time)
        .collect();
    if polls.is_empty() {
        polls.extend(
            served
                .scripts
                .iter()
                .filter_map(|s| s.sends.last())
                .map(|&(time, _)| time),
        );
    }
    let calls: Vec<u64> = polls
        .iter()
        .cycle()
        .take(polls.len().max(MIN_STATS_CALLS))
        .copied()
        .collect();
    let stats = t.span("serve::daemon", "Daemon::stats_report", |_| {
        let started = Instant::now();
        for &time in &calls {
            black_box(served.daemon.stats_report(time));
        }
        started.elapsed()
    });
    m.push((
        "daemon.stats_report_ns",
        ns(stats) / calls.len() as f64,
        "ns",
    ));
}

/// Deterministic operands for a solo offload replay.
fn operands(n: u64, seed: u64) -> (Vec<f64>, Vec<f64>) {
    let mut rng = SplitMix64::new(seed ^ n);
    let mut x = vec![0.0; n as usize];
    let mut y = vec![0.0; n as usize];
    rng.fill_f64(&mut x, -4.0, 4.0);
    rng.fill_f64(&mut y, -4.0, 4.0);
    (x, y)
}

fn soc(
    inputs: &Inputs,
    seed: u64,
    records: &[JobRecord],
    t: &mut Tracer,
    m: &mut Metrics,
    violations: &mut Vec<String>,
) -> Result<(), BoxError> {
    let spec = &inputs.spec;
    let completed: Vec<&JobRecord> = records
        .iter()
        .filter(|r| !matches!(r.outcome, JobOutcome::Rejected { .. }))
        .collect();
    let contention: u64 = completed.iter().map(|r| r.contention_cycles).sum();
    let retries: u64 = completed.iter().map(|r| u64::from(r.retries)).sum();
    m.push((
        "soc.contention_cycles_per_job",
        contention as f64 / completed.len().max(1) as f64,
        "cycles",
    ));
    m.push(("soc.retries", retries as f64, "count"));

    // Co-simulated workloads calibrate in every set-up; the others get
    // one replayed calibration of a SoC their machine's size.
    let calibrations: Vec<f64> = t.named("calibrate").map(|s| s.ns() as f64 * 1e-9).collect();
    let calibrate_s = if calibrations.is_empty() {
        let started = Instant::now();
        t.span("soc", "calibrate", |_| {
            gen::calibrated(spec.clusters as usize)
        })?;
        started.elapsed().as_secs_f64()
    } else {
        median(&calibrations)
    };
    m.push(("soc.calibrate_s", calibrate_s, "s"));

    let tuples: BTreeSet<(KernelId, u64, usize)> = records
        .iter()
        .filter_map(|r| match r.outcome {
            JobOutcome::Offloaded { m, .. } if r.job.n <= MAX_SOC_N => {
                Some((r.job.kernel, r.job.n, m))
            }
            _ => None,
        })
        .collect();
    let mut offloader = Offloader::new(SocConfig::with_clusters(spec.clusters as usize))?;
    let (mut host_ns, mut sim_cycles) = (0u128, 0u64);
    for &(kernel, n, clusters) in &tuples {
        let k = kernel.instantiate();
        let (x, y) = operands(n, seed);
        let started = Instant::now();
        let run = t.span("soc", "Offloader::offload", |_| {
            offloader.offload(k.as_ref(), &x, &y, clusters, OffloadStrategy::extended())
        })?;
        host_ns += started.elapsed().as_nanos();
        sim_cycles += run.cycles();
        if !run.verify(k.as_ref(), &x, &y).passed() {
            violations.push(format!(
                "solo {kernel} n={n} m={clusters} failed verification"
            ));
        }
    }
    m.push((
        "soc.offload_ns_per_sim_cycle",
        host_ns as f64 / sim_cycles.max(1) as f64,
        "ns/cycle",
    ));
    Ok(())
}

#[derive(Serialize)]
struct LayerRow {
    layer: String,
    self_ms: f64,
    spans: u64,
    feeds: String,
}

/// Writes the span file and the layer table, and prints the table.
fn write_outputs(inputs: &Inputs, t: &Tracer, last_run: u32) -> Result<(), BoxError> {
    let rows: Vec<LayerRow> = t
        .layer_self_ns(&[last_run, REPLAY])
        .into_iter()
        .map(|(layer, (self_ns, spans))| LayerRow {
            layer: layer.to_owned(),
            self_ms: self_ns as f64 * 1e-6,
            spans,
            feeds: FEEDS
                .iter()
                .find(|(l, _)| *l == layer)
                .map_or("", |(_, f)| f)
                .to_owned(),
        })
        .collect();
    println!(
        "{:<18} {:>12} {:>8}  feeds (traced pass {last_run} + replays)",
        "layer", "self_ms", "spans"
    );
    for r in &rows {
        println!(
            "{:<18} {:>12.3} {:>8}  {}",
            r.layer, r.self_ms, r.spans, r.feeds
        );
    }
    let dir = out_dir();
    std::fs::create_dir_all(&dir)?;
    let stem = format!("{}-{}", inputs.spec.name, inputs.seed);
    let spans = dir.join(format!("spans-{stem}.json"));
    std::fs::write(&spans, serde_json::to_string(&t.spans())?)?;
    let table = dir.join(format!("layers-{stem}.json"));
    std::fs::write(&table, serde_json::to_string_pretty(&rows)?)?;
    println!("wrote {} and {}", spans.display(), table.display());
    Ok(())
}
