//! One measured pass of a workload: set the machine up, push the inputs
//! through the path a client uses, check every output.
//!
//! Host time is split in two intervals. `setup` builds the machine
//! (calibration, SoCs, fleet or engine). `run` starts when the first
//! request enters `Daemon::run` (or `Engine::run` is called) and ends
//! when the client has decoded its last response.

use std::time::{Duration, Instant};

use mpsoc_sched::{Engine, FifoFirstFit, Job, ModelTable, RunReport};
use mpsoc_serve::{ClientScript, Daemon, Response, SessionLog};

use crate::check::{self, Checked};
use crate::gen;
use crate::spec::Spec;
use crate::trace::Tracer;
use mpsoc_sim::rng::SplitMix64;

type BoxError = Box<dyn std::error::Error>;

/// Host time one pass spends building machines for its set-up median.
const SETUP_BUDGET: Duration = Duration::from_millis(30);
/// Shortest batch of builds timed as one set-up sample.
const SETUP_SAMPLE: Duration = Duration::from_millis(1);

/// One independent job stream of a workload.
pub struct Stream {
    pub seed: u64,
    pub jobs: Vec<Job>,
    /// Client scripts for served workloads; empty for the batch engine.
    pub scripts: Vec<ClientScript>,
}

/// A workload's inputs, made once from its seed: `spec.streams`
/// independent streams, each seeded from the run's seed.
pub struct Inputs {
    pub spec: Spec,
    pub seed: u64,
    /// The table the inputs were priced with; every set-up must
    /// reproduce it exactly.
    pub table: ModelTable,
    pub streams: Vec<Stream>,
}

impl Inputs {
    pub fn new(spec: Spec, seed: u64) -> Result<Self, BoxError> {
        let table = gen::model_table(&spec)?;
        let mut seeds = SplitMix64::new(seed);
        let streams = (0..spec.streams)
            .map(|_| {
                let seed = seeds.next_u64();
                let jobs = gen::jobs(&spec, &table, seed);
                let scripts = match &spec.serve {
                    Some(serve) => gen::scripts(serve, &jobs, seed),
                    None => Vec::new(),
                };
                Stream {
                    seed,
                    jobs,
                    scripts,
                }
            })
            .collect();
        Ok(Inputs {
            spec,
            seed,
            table,
            streams,
        })
    }
}

/// What one pass left behind, for the checks and the layer replays.
pub enum Outcome {
    Served {
        daemon: Daemon,
        logs: Vec<SessionLog>,
        streams: Vec<Vec<Response>>,
    },
    Batch {
        report: RunReport,
    },
}

pub struct Pass {
    /// Index of the stream the pass ran.
    pub stream: usize,
    pub setup_s: f64,
    pub run_s: f64,
    /// Jobs that got a verdict (accepted or rejected) within `run_s`.
    pub resolved: u64,
    pub checked: Checked,
    pub digest: String,
    pub outcome: Outcome,
}

impl Pass {
    pub fn jobs_per_s(&self) -> f64 {
        self.resolved as f64 / self.run_s
    }
}

/// The machine a pass runs on.
enum Machine {
    Daemon(Daemon),
    Engine(Box<Engine>),
}

/// Builds the machine once.
fn build(
    inputs: &Inputs,
    stream: &Stream,
    t: &mut Tracer,
) -> Result<(ModelTable, Machine), BoxError> {
    let spec = &inputs.spec;
    let table = match spec.cosim() {
        true => t.span("soc", "calibrate", |_| gen::model_table(spec))?,
        false => ModelTable::paper_defaults(),
    };
    let machine = match &spec.serve {
        Some(serve) => Machine::Daemon(t.span("serve::fleet", "Fleet::new", |_| {
            gen::daemon(spec, serve, &table, stream.seed)
        })?),
        None => Machine::Engine(t.span("sched::engine", "Engine::new", |_| {
            Box::new(gen::engine(spec.clusters, &table))
        })),
    };
    Ok((table, machine))
}

/// Runs one pass over stream `index`, recording spans into `t` when it
/// is on.
///
/// Set-up is built once untimed, then repeated for [`SETUP_BUDGET`] and
/// reported as the median per-build time of batches lasting at least
/// [`SETUP_SAMPLE`] (batches double until they do), so that micro-second
/// set-ups still give a steady figure. The last machine built runs the
/// pass.
pub fn pass(inputs: &Inputs, index: usize, t: &mut Tracer) -> Result<Pass, BoxError> {
    let spec = &inputs.spec;
    let stream = &inputs.streams[index];
    let mut setups = Vec::new();
    let setup_started = Instant::now();
    let (table, machine) = t.span("bench", "setup", |t| {
        // Only the first, untimed build is traced, so the span file
        // does not grow with the number of timed repeats.
        let mut built = build(inputs, stream, t)?;
        let mut off = Tracer::off();
        let mut batch = 1u32;
        while setups.is_empty() || setup_started.elapsed() < SETUP_BUDGET {
            let started = Instant::now();
            for _ in 0..batch {
                built = build(inputs, stream, &mut off)?;
            }
            let elapsed = started.elapsed();
            if elapsed >= SETUP_SAMPLE {
                setups.push(elapsed.as_secs_f64() / f64::from(batch));
            } else {
                batch *= 2;
            }
        }
        Ok::<_, BoxError>(built)
    })?;
    let setup_s = crate::median(&setups);
    let mut pass = match machine {
        Machine::Daemon(mut daemon) => {
            let run_started = Instant::now();
            let logs = t.span("serve::daemon", "Daemon::run", |_| {
                daemon.run(&stream.scripts)
            })?;
            let streams = logs
                .iter()
                .map(|log| t.span("serve::wire", "SessionLog::responses", |_| log.responses()))
                .collect::<Result<Vec<_>, _>>()?;
            let run_s = run_started.elapsed().as_secs_f64();
            let checked = t.span("bench", "check", |_| {
                check::served(&stream.scripts, &streams)
            });
            let resolved = streams
                .iter()
                .flatten()
                .filter(|r| {
                    matches!(
                        r,
                        Response::JobAccepted { .. } | Response::JobRejected { .. }
                    )
                })
                .count() as u64;
            Pass {
                stream: index,
                setup_s,
                run_s,
                resolved,
                checked,
                digest: check::stream_digest(logs.iter().map(|l| l.outbound.as_slice())),
                outcome: Outcome::Served {
                    daemon,
                    logs,
                    streams,
                },
            }
        }
        Machine::Engine(mut engine) => {
            let run_started = Instant::now();
            let report = t.span("sched::engine", "Engine::run", |_| {
                engine.run(&stream.jobs, &mut FifoFirstFit)
            })?;
            let run_s = run_started.elapsed().as_secs_f64();
            let checked = t.span("bench", "check", |_| {
                check::batch(&stream.jobs, &report.records)
            });
            Pass {
                stream: index,
                setup_s,
                run_s,
                resolved: report.records.len() as u64,
                checked,
                digest: check::records_digest(&report.records),
                outcome: Outcome::Batch { report },
            }
        }
    };
    // Paper defaults carry a NaN fit quality, so only a calibrated
    // table can be compared.
    if spec.cosim() && table != inputs.table {
        pass.checked
            .violations
            .push("set-up calibrated a different model table".to_owned());
    }
    Ok(pass)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec;

    fn small(name: &str) -> Inputs {
        let mut s = spec::find(name).expect("workload exists");
        s.streams = 2;
        s.jobs = 200;
        Inputs::new(s, 5).expect("inputs")
    }

    #[test]
    fn real_runs_pass_every_check_and_repeat_byte_for_byte() {
        for name in ["serve_analytic", "sched_batch"] {
            let inputs = small(name);
            for stream in 0..2 {
                let a = pass(&inputs, stream, &mut Tracer::off()).expect("pass");
                let b = pass(&inputs, stream, &mut Tracer::off()).expect("pass");
                assert!(a.checked.correct(), "{name}: {:?}", a.checked.violations);
                assert_eq!(a.checked.jobs, 200);
                assert_eq!(a.resolved, 200);
                assert_eq!(a.digest, b.digest, "{name}: passes must repeat");
                assert!(a.setup_s > 0.0 && a.run_s > 0.0);
            }
            assert_ne!(
                inputs.streams[0].jobs, inputs.streams[1].jobs,
                "{name}: streams are independent"
            );
        }
    }
}
