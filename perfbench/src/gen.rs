//! The load generator: job streams and client scripts made from a seed,
//! and the machines they run on.
//!
//! Generating inputs is the generator's work and stays outside every
//! timed interval; the program under test receives only the finished
//! scripts or job lists.

use mpsoc_offload::Offloader;
use mpsoc_sched::{
    calibrate, AdmissionController, AdmissionDecision, ArrivalPattern, CalibrationGrid, Engine,
    Job, ModelTable, ServiceBackend, Workload,
};
use mpsoc_serve::{ClientScript, Daemon, Fleet, FleetConfig, PlacementPolicy};
use mpsoc_sim::rng::SplitMix64;
use mpsoc_soc::SocConfig;

use crate::spec::{ServeSpec, Spec};

/// Calibration operand seed: part of the machine, not of the workload.
pub const CALIBRATION_SEED: u64 = 0xCA1B_5EED;
/// Salt separating the session-assignment stream from the job stream.
const SESSION_SALT: u64 = 0x5E55_1015_0000_0001;

/// The model table the workload's machine admits with. Co-simulated
/// workloads calibrate it on their own SoC, which is set-up work.
pub fn model_table(spec: &Spec) -> Result<ModelTable, Box<dyn std::error::Error>> {
    if spec.cosim() {
        calibrated(spec.clusters as usize)
    } else {
        Ok(ModelTable::paper_defaults())
    }
}

/// A table calibrated with the default grid on a SoC of `clusters`.
pub fn calibrated(clusters: usize) -> Result<ModelTable, Box<dyn std::error::Error>> {
    let mut offloader = Offloader::new(SocConfig::with_clusters(clusters))?;
    Ok(calibrate(
        &mut offloader,
        &CalibrationGrid::default(),
        CALIBRATION_SEED,
    )?)
}

/// The open-loop Poisson job stream, sorted by arrival, ids `0..jobs`.
pub fn jobs(spec: &Spec, table: &ModelTable, seed: u64) -> Vec<Job> {
    let mut workload = Workload::balanced(
        spec.jobs as usize,
        seed,
        ArrivalPattern::Poisson {
            mean_interarrival: 1.0,
        },
    );
    workload.sizes = spec.sizes.clone();
    let gap = match spec.pricing.as_str() {
        "reference" => {
            workload.interarrival_for_load(table, spec.total_clusters() as usize, spec.load)
        }
        "admitted" => {
            // Kernel, size and deadline draws do not depend on the gap,
            // so the probe stream carries the jobs the run will see.
            let probe = workload.generate(table);
            let admission = AdmissionController::new(table.clone(), spec.clusters);
            let demand: f64 = probe
                .iter()
                .map(|j| match admission.admit(j) {
                    AdmissionDecision::Offload { m_min, predicted } => m_min as f64 * predicted,
                    _ => 0.0,
                })
                .sum::<f64>()
                / probe.len() as f64;
            demand / (spec.load * spec.total_clusters() as f64)
        }
        other => panic!("workloads.json: unknown pricing {other:?}"),
    };
    workload.arrivals = ArrivalPattern::Poisson {
        mean_interarrival: gap,
    };
    workload.generate(table)
}

/// Splits a job stream over `serve.sessions` client scripts. Each job
/// goes to a seeded random session and is numbered within it; every
/// `stats_every`-th submission is followed by a `GetStats` poll from
/// the same session at the same virtual time.
pub fn scripts(serve: &ServeSpec, jobs: &[Job], seed: u64) -> Vec<ClientScript> {
    let mut rng = SplitMix64::new(seed ^ SESSION_SALT);
    let mut scripts = vec![ClientScript::new(); serve.sessions as usize];
    let mut next_client_job = vec![0u64; scripts.len()];
    for (i, job) in jobs.iter().enumerate() {
        let s = rng.next_below(serve.sessions) as usize;
        scripts[s].submit_at(
            job.arrival,
            next_client_job[s],
            job.kernel,
            job.n,
            job.deadline,
        );
        next_client_job[s] += 1;
        if (i as u64 + 1) % serve.stats_every == 0 {
            scripts[s].poll_stats_at(job.arrival);
        }
    }
    scripts
}

fn placement(name: &str) -> PlacementPolicy {
    mpsoc_serve::ALL_PLACEMENTS
        .into_iter()
        .find(|p| p.name() == name)
        .unwrap_or_else(|| panic!("workloads.json: unknown placement {name:?}"))
}

/// The fleet configuration of a served workload.
pub fn fleet_config(spec: &Spec, serve: &ServeSpec) -> FleetConfig {
    FleetConfig {
        shards: serve.shards as usize,
        clusters_per_shard: spec.clusters as usize,
        queue_limit: serve.queue_limit as usize,
        placement: placement(&serve.placement),
        steal: serve.steal,
        redirect_budget: serve.redirect_budget,
        failover: false,
    }
}

/// A fresh fleet over `table`: analytic shards, or one co-simulated SoC
/// per shard with operands seeded from `seed`.
pub fn fleet(
    cosim: bool,
    config: FleetConfig,
    table: &ModelTable,
    seed: u64,
) -> Result<Fleet, Box<dyn std::error::Error>> {
    if !cosim {
        return Ok(Fleet::analytic(config, table));
    }
    let mut backends = Vec::with_capacity(config.shards);
    for i in 0..config.shards {
        let offloader = Offloader::new(SocConfig::with_clusters(config.clusters_per_shard))?;
        backends.push(ServiceBackend::co_simulated(offloader, seed ^ i as u64));
    }
    Ok(Fleet::with_backends(config, table, backends))
}

/// A fresh daemon for a served workload.
pub fn daemon(
    spec: &Spec,
    serve: &ServeSpec,
    table: &ModelTable,
    seed: u64,
) -> Result<Daemon, Box<dyn std::error::Error>> {
    Ok(Daemon::new(fleet(
        spec.cosim(),
        fleet_config(spec, serve),
        table,
        seed,
    )?))
}

/// A fresh batch engine over `clusters` with the analytic backend.
pub fn engine(clusters: u64, table: &ModelTable) -> Engine {
    Engine::new(
        table.clone(),
        clusters as usize,
        ServiceBackend::analytic(table.clone()),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec;

    fn small(name: &str) -> Spec {
        let mut s = spec::find(name).expect("workload exists");
        s.jobs = 300;
        if let Some(serve) = s.serve.as_mut() {
            serve.stats_every = 100;
        }
        s
    }

    #[test]
    fn generators_are_deterministic_in_their_seed() {
        for name in ["serve_analytic", "sched_batch"] {
            let s = small(name);
            let table = ModelTable::paper_defaults();
            let a = jobs(&s, &table, 7);
            assert_eq!(a, jobs(&s, &table, 7), "{name}: same seed, same jobs");
            assert_ne!(a, jobs(&s, &table, 8), "{name}: seed must matter");
            assert_eq!(a.len(), 300);
            if let Some(serve) = &s.serve {
                let x = scripts(serve, &a, 7);
                let y = scripts(serve, &a, 7);
                assert_eq!(x.len(), serve.sessions as usize);
                for (x, y) in x.iter().zip(&y) {
                    assert_eq!(x.sends, y.sends);
                }
                let sends: usize = x.iter().map(|c| c.sends.len()).sum();
                let polls = 300 / serve.stats_every as usize;
                assert_eq!(sends, 300 + polls);
            }
        }
    }

    #[test]
    fn scripts_are_time_ordered_per_session() {
        let s = small("serve_analytic");
        let serve = s.serve.as_ref().expect("served workload");
        let table = ModelTable::paper_defaults();
        for script in scripts(serve, &jobs(&s, &table, 3), 3) {
            assert!(script.sends.windows(2).all(|w| w[0].0 <= w[1].0));
        }
    }
}
