//! Per-job records and aggregate scheduling metrics, all
//! serde-serializable for JSON artifacts.

use serde::{Deserialize, Serialize};

use crate::admission::RejectReason;
use crate::job::Job;

/// What happened to one job.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum JobOutcome {
    /// Ran on a carved cluster partition.
    Offloaded {
        /// Cycle the partition started executing.
        start: u64,
        /// Cycle the offload completed.
        finish: u64,
        /// Partition size (clusters).
        m: usize,
    },
    /// Ran on the host core.
    Host {
        /// Cycle the host began the job.
        start: u64,
        /// Cycle the host finished.
        finish: u64,
    },
    /// Turned away at admission.
    Rejected {
        /// Why.
        reason: RejectReason,
    },
}

/// One job plus its fate.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct JobRecord {
    /// The job as submitted.
    pub job: Job,
    /// What happened to it.
    pub outcome: JobOutcome,
    /// Shared-resource interference charged to this job (NoC stall +
    /// HBM queueing + AMO wait cycles) by the co-simulated backend.
    /// Zero under the measured and analytic backends, whose solo-run
    /// service times cannot observe cross-tenant contention.
    pub contention_cycles: u64,
    /// Re-dispatch attempts this job needed beyond the first: nonzero
    /// for co-simulated tenants whose completion was flagged corrupt,
    /// and for records produced by a resilient execution layer.
    pub retries: u32,
    /// Faults injected into this job's offload, as reported by the
    /// co-simulated SoC's injector. Zero under the measured and
    /// analytic backends (no fault plan is in the loop) and on
    /// fault-free machines.
    pub faults_observed: u64,
}

impl JobRecord {
    /// Completion latency (finish − arrival); `None` for rejected jobs.
    pub fn latency(&self) -> Option<u64> {
        match self.outcome {
            JobOutcome::Offloaded { finish, .. } | JobOutcome::Host { finish, .. } => {
                Some(finish - self.job.arrival)
            }
            JobOutcome::Rejected { .. } => None,
        }
    }

    /// Whether a *completed* job blew its deadline (rejections are
    /// counted separately, not as misses).
    pub fn missed_deadline(&self) -> bool {
        match self.outcome {
            JobOutcome::Offloaded { finish, .. } | JobOutcome::Host { finish, .. } => {
                finish > self.job.absolute_deadline()
            }
            JobOutcome::Rejected { .. } => false,
        }
    }
}

/// Aggregate metrics over one simulated run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Metrics {
    /// Jobs submitted.
    pub jobs: usize,
    /// Jobs that ran on cluster partitions.
    pub offloaded: usize,
    /// Jobs that ran on the host core.
    pub host_runs: usize,
    /// Jobs rejected at admission.
    pub rejected: usize,
    /// Completed jobs that blew their deadline.
    pub deadline_misses: usize,
    /// `deadline_misses / (offloaded + host_runs)`; 0 when nothing ran.
    pub miss_rate: f64,
    /// `rejected / jobs`.
    pub rejection_rate: f64,
    /// Mean completion latency (cycles) over completed jobs.
    pub mean_latency: f64,
    /// Median completion latency.
    pub p50_latency: u64,
    /// 95th-percentile completion latency.
    pub p95_latency: u64,
    /// 99th-percentile completion latency.
    pub p99_latency: u64,
    /// Last completion cycle (0 when nothing ran).
    pub makespan: u64,
    /// Completed jobs per million cycles.
    pub throughput_per_mcycle: f64,
    /// Busy cluster-cycles of offloads over `clusters × makespan`.
    pub cluster_utilization: f64,
}

impl Metrics {
    /// Computes aggregates from per-job records on a machine of
    /// `clusters` clusters.
    pub fn from_records(records: &[JobRecord], clusters: usize) -> Self {
        let jobs = records.len();
        let mut offloaded = 0;
        let mut host_runs = 0;
        let mut rejected = 0;
        let mut deadline_misses = 0;
        let mut busy_cluster_cycles = 0u64;
        let mut makespan = 0u64;
        let mut latencies: Vec<u64> = Vec::with_capacity(jobs);
        for r in records {
            match r.outcome {
                JobOutcome::Offloaded { start, finish, m } => {
                    offloaded += 1;
                    busy_cluster_cycles = busy_cluster_cycles
                        .saturating_add((finish - start).saturating_mul(m as u64));
                    makespan = makespan.max(finish);
                }
                JobOutcome::Host { finish, .. } => {
                    host_runs += 1;
                    makespan = makespan.max(finish);
                }
                JobOutcome::Rejected { .. } => rejected += 1,
            }
            if r.missed_deadline() {
                deadline_misses += 1;
            }
            if let Some(l) = r.latency() {
                latencies.push(l);
            }
        }
        latencies.sort_unstable();
        let completed = latencies.len();
        let mean_latency = if completed == 0 {
            0.0
        } else {
            latencies.iter().sum::<u64>() as f64 / completed as f64
        };
        Metrics {
            jobs,
            offloaded,
            host_runs,
            rejected,
            deadline_misses,
            miss_rate: if completed == 0 {
                0.0
            } else {
                deadline_misses as f64 / completed as f64
            },
            rejection_rate: if jobs == 0 {
                0.0
            } else {
                rejected as f64 / jobs as f64
            },
            mean_latency,
            p50_latency: percentile(&latencies, 50),
            p95_latency: percentile(&latencies, 95),
            p99_latency: percentile(&latencies, 99),
            makespan,
            throughput_per_mcycle: if makespan == 0 {
                0.0
            } else {
                completed as f64 / (makespan as f64 / 1e6)
            },
            cluster_utilization: if makespan == 0 {
                0.0
            } else {
                busy_cluster_cycles as f64 / (clusters as u64 * makespan) as f64
            },
        }
    }
}

/// Nearest-rank percentile of an ascending-sorted slice; 0 when empty.
fn percentile(sorted: &[u64], pct: usize) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (pct * sorted.len()).div_ceil(100).max(1) - 1;
    sorted[rank.min(sorted.len() - 1)]
}

/// Everything one `(policy, workload, machine)` run produced.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunReport {
    /// Policy name.
    pub policy: String,
    /// Machine size (clusters).
    pub clusters: usize,
    /// Aggregates.
    pub metrics: Metrics,
    /// Per-job fates, in submission order.
    pub records: Vec<JobRecord>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::KernelId;

    fn record(arrival: u64, deadline: u64, outcome: JobOutcome) -> JobRecord {
        JobRecord {
            job: Job {
                id: 0,
                kernel: KernelId::Daxpy,
                n: 1024,
                arrival,
                deadline,
            },
            outcome,
            contention_cycles: 0,
            retries: 0,
            faults_observed: 0,
        }
    }

    #[test]
    fn aggregates_count_misses_and_utilization() {
        let records = vec![
            record(
                0,
                100,
                JobOutcome::Offloaded {
                    start: 0,
                    finish: 90,
                    m: 2,
                },
            ),
            record(
                0,
                100,
                JobOutcome::Offloaded {
                    start: 90,
                    finish: 200,
                    m: 4,
                },
            ),
            record(
                0,
                1000,
                JobOutcome::Host {
                    start: 0,
                    finish: 50,
                },
            ),
            record(
                0,
                10,
                JobOutcome::Rejected {
                    reason: crate::admission::RejectReason::Infeasible,
                },
            ),
        ];
        let m = Metrics::from_records(&records, 8);
        assert_eq!(m.jobs, 4);
        assert_eq!(m.offloaded, 2);
        assert_eq!(m.host_runs, 1);
        assert_eq!(m.rejected, 1);
        assert_eq!(m.deadline_misses, 1);
        assert_eq!(m.makespan, 200);
        // Busy: 90·2 + 110·4 = 620 cluster-cycles over 8·200.
        assert!((m.cluster_utilization - 620.0 / 1600.0).abs() < 1e-12);
        assert_eq!(m.p50_latency, 90);
        assert_eq!(m.p99_latency, 200);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 50), 50);
        assert_eq!(percentile(&v, 95), 95);
        assert_eq!(percentile(&v, 99), 99);
        assert_eq!(percentile(&[7], 99), 7);
        assert_eq!(percentile(&[], 50), 0);
    }

    #[test]
    fn empty_runs_produce_zeroes() {
        let m = Metrics::from_records(&[], 8);
        assert_eq!(m.miss_rate, 0.0);
        assert_eq!(m.makespan, 0);
        assert_eq!(m.cluster_utilization, 0.0);
    }
}
