//! The closed-loop batch scheduler: one complete, pre-sorted job stream
//! through admission, spatial allocation and policy-driven dispatch.
//!
//! [`Engine::run`] feeds the stream to one [`ShardSim`], the same
//! scheduling loop a serving fleet runs per shard (the `shard` module
//! documents event ordering and how each service backend times
//! concurrent tenants). For every arrival instant it advances the shard
//! to that cycle — completions due by then retire first, so freed
//! clusters are visible to the arrivals — admits every job arriving at
//! it, and dispatches once, so the policy ranks same-cycle arrivals
//! together. It then runs the shard dry and returns the records in
//! stream order.
//!
//! Determinism: the shard orders events by `(time, sequence)` and every
//! service backend is deterministic, so a fixed `(workload, policy,
//! machine)` triple always yields a byte-identical [`RunReport`].
//!
//! What the engine adds over a bare shard is the state that outlives
//! one run, lent to each run's shard and taken back after it: the
//! recovery ledger (strikes, threshold, quarantined clusters and the
//! quarantine log), the lint and cost gates with their memos, the
//! service backend with its measurement caches, and the telemetry
//! buffer.

use mpsoc_noc::ClusterMask;
use mpsoc_offload::{QuarantineEvent, StrikeBoard};
use mpsoc_telemetry::EventTrace;

use crate::admission::AdmissionController;
use crate::calibrate::ModelTable;
use crate::cost_gate::CostGate;
use crate::error::SchedError;
use crate::job::Job;
use crate::lint_gate::LintGate;
use crate::metrics::{Metrics, RunReport};
use crate::policy::SchedPolicy;
use crate::service::ServiceBackend;
use crate::shard::{pool_shrank, ShardSim};

/// The multi-tenant scheduler: admission + allocation + dispatch over a
/// service-time backend.
#[derive(Debug)]
pub struct Engine {
    admission: AdmissionController,
    backend: ServiceBackend,
    clusters: usize,
    ledger: StrikeBoard,
    telemetry: EventTrace,
    lint_gate: Option<LintGate>,
    cost_gate: Option<CostGate>,
}

impl Engine {
    /// An engine over a machine of `clusters` clusters, using `table`
    /// for admission and predictions and `backend` for service times.
    pub fn new(table: ModelTable, clusters: usize, backend: ServiceBackend) -> Self {
        Engine {
            admission: AdmissionController::new(table, clusters as u64),
            backend,
            clusters,
            ledger: StrikeBoard::new(clusters),
            telemetry: EventTrace::disabled(),
            lint_gate: None,
            cost_gate: None,
        }
    }

    /// Retires `mask` from the allocatable pool — typically clusters a
    /// resilient execution layer has diagnosed as faulty. Quarantine is
    /// cumulative and applies to every subsequent [`Engine::run`]: the
    /// allocator never grants a quarantined cluster, and jobs whose
    /// Eq. 3 minimum partition exceeds the surviving pool are rejected
    /// with [`RejectReason::DegradedMachine`](crate::RejectReason::DegradedMachine).
    ///
    /// Retiring new clusters also drops the measured backend's
    /// memoized solo-run timings and the cost gate's memoized bounds,
    /// the same pool-shrink step a shard takes mid-stream (see
    /// [`ShardSim::quarantine`]). The ledger logs the decision at cycle
    /// 0, where the next run's virtual time starts.
    pub fn quarantine(&mut self, mask: ClusterMask) {
        if !self.ledger.quarantine(mask, 0).is_empty() {
            let healthy = self.ledger.healthy().count();
            pool_shrank(&mut self.backend, self.cost_gate.as_mut(), healthy);
        }
    }

    /// The clusters currently quarantined.
    pub fn quarantined(&self) -> ClusterMask {
        self.ledger.quarantined()
    }

    /// Configures automatic quarantine for co-simulated runs: a cluster
    /// is retired after `threshold` corrupt completions flagged it
    /// (default
    /// [`AUTO_QUARANTINE_STRIKES`](mpsoc_offload::AUTO_QUARANTINE_STRIKES));
    /// `None` disables the closed loop — corruption is then absorbed by
    /// re-dispatch alone. Strikes accumulate across runs, like the
    /// quarantined set.
    pub fn set_auto_quarantine(&mut self, threshold: Option<u32>) {
        self.ledger.set_threshold(threshold);
    }

    /// Every quarantine decision the ledger has logged, manual
    /// ([`Engine::quarantine`]) and automatic (during [`Engine::run`]),
    /// in firing order — at most one per cluster.
    pub fn quarantine_events(&self) -> &[QuarantineEvent] {
        self.ledger.events()
    }

    /// Enables static program verification at admission: every arriving
    /// job's worst-case core program is linted (memoized per kernel and
    /// problem size) and jobs with lint *errors* are rejected with
    /// [`RejectReason::ProgramLint`](crate::RejectReason::ProgramLint)
    /// before admission control runs.
    pub fn enable_lint(&mut self, gate: LintGate) {
        self.lint_gate = Some(gate);
    }

    /// Enables static cost verification at admission: jobs whose
    /// deadline undercuts the *static best-case* runtime bound at every
    /// cluster count, strategy, and the host path are rejected with
    /// [`RejectReason::StaticInfeasible`](crate::RejectReason::StaticInfeasible)
    /// before Eq. 3 runs. Verdicts are memoized per kernel and problem
    /// size.
    pub fn enable_cost(&mut self, gate: CostGate) {
        self.cost_gate = Some(gate);
    }

    /// The admission controller in use.
    pub fn admission(&self) -> &AdmissionController {
        &self.admission
    }

    /// Enables typed-event telemetry for subsequent [`Engine::run`]
    /// calls: job arrivals, queue waits, partition occupancy spans,
    /// host runs, rejections, re-dispatches and automatic quarantines.
    /// Disabled, every recording site is a single branch and reports
    /// stay byte-identical.
    pub fn enable_telemetry(&mut self, capacity: usize) {
        self.telemetry = EventTrace::enabled(capacity);
    }

    /// The typed-event trace of the last [`Engine::run`] (empty unless
    /// [`Engine::enable_telemetry`] was called).
    pub fn telemetry(&self) -> &EventTrace {
        &self.telemetry
    }

    /// Simulates `jobs` under `policy`. The stream must be sorted by
    /// arrival time, and job ids must strictly increase along it (as
    /// [`Workload::generate`](crate::Workload::generate) produces them):
    /// records come back in stream order.
    ///
    /// # Errors
    ///
    /// Service-backend failures (offload geometry violations, host-run
    /// faults, a stalled co-simulated session).
    ///
    /// # Panics
    ///
    /// Panics if `jobs` is not sorted by arrival, if two jobs share an
    /// id or ids decrease, or if the policy returns an invalid
    /// placement (out-of-range index, zero or unavailable partition
    /// size).
    pub fn run(
        &mut self,
        jobs: &[Job],
        policy: &mut dyn SchedPolicy,
    ) -> Result<RunReport, SchedError> {
        assert!(
            jobs.windows(2).all(|w| w[0].arrival <= w[1].arrival),
            "job stream must be sorted by arrival time"
        );
        assert!(
            jobs.windows(2).all(|w| w[0].id < w[1].id),
            "job ids must strictly increase along the stream"
        );
        let _prof = mpsoc_sim::profile::scope("sched.engine.run");
        let name = policy.name().to_owned();
        let table = self.admission.table().clone();
        let backend = std::mem::replace(&mut self.backend, ServiceBackend::analytic(table.clone()));
        let ledger = std::mem::take(&mut self.ledger);
        let mut shard = ShardSim::with_policy(table, self.clusters, backend, policy, ledger);
        shard.lint_gate = self.lint_gate.take();
        shard.cost_gate = self.cost_gate.take();
        shard.telemetry = std::mem::take(&mut self.telemetry);
        shard.telemetry.clear();

        let fed = feed(&mut shard, jobs);
        let mut records = shard.drain_finished();
        self.ledger = shard.ledger;
        self.backend = shard.backend;
        self.lint_gate = shard.lint_gate;
        self.cost_gate = shard.cost_gate;
        self.telemetry = shard.telemetry;
        fed?;

        records.sort_unstable_by_key(|r| r.job.id);
        Ok(RunReport {
            policy: name,
            clusters: self.clusters,
            metrics: Metrics::from_records(&records, self.clusters),
            records,
        })
    }
}

/// Feeds a sorted stream into `shard` one arrival instant at a time:
/// advance to the instant, admit all of its arrivals, dispatch once.
/// Then runs the shard dry.
fn feed<P: SchedPolicy>(shard: &mut ShardSim<P>, jobs: &[Job]) -> Result<(), SchedError> {
    let mut rest = jobs;
    while let Some(first) = rest.first() {
        let at = first.arrival;
        let (arriving, later) = rest.split_at(rest.partition_point(|j| j.arrival <= at));
        shard.advance(at)?;
        for job in arriving {
            shard.admit(*job)?;
        }
        shard.dispatch()?;
        rest = later;
    }
    shard.drain()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::KernelId;
    use crate::metrics::JobOutcome;
    use crate::policy::{EarliestDeadlineFirst, FifoFirstFit};

    fn jobs(specs: &[(u64, u64, u64)]) -> Vec<Job> {
        specs
            .iter()
            .enumerate()
            .map(|(i, &(arrival, n, deadline))| Job {
                id: i as u64,
                kernel: KernelId::Daxpy,
                n,
                arrival,
                deadline,
            })
            .collect()
    }

    fn engine(clusters: usize) -> Engine {
        Engine::new(
            ModelTable::paper_defaults(),
            clusters,
            ServiceBackend::analytic(ModelTable::paper_defaults()),
        )
    }

    #[test]
    fn one_job_runs_to_completion() {
        let stream = jobs(&[(0, 1024, 1000)]);
        let report = engine(8).run(&stream, &mut FifoFirstFit).expect("run");
        assert_eq!(report.metrics.offloaded, 1);
        assert_eq!(report.metrics.deadline_misses, 0);
        match report.records[0].outcome {
            JobOutcome::Offloaded { start, finish, m } => {
                assert_eq!(start, 0);
                assert!(finish > 0);
                assert_eq!(m, 1);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn concurrent_tenants_share_the_machine_spatially() {
        // Two jobs arriving together, each needing 1 cluster on an
        // 8-cluster machine: both run immediately, overlapping in time.
        let stream = jobs(&[(0, 1024, 1000), (0, 1024, 1000)]);
        let report = engine(8).run(&stream, &mut FifoFirstFit).expect("run");
        let (s0, f0, s1, f1) = match (report.records[0].outcome, report.records[1].outcome) {
            (
                JobOutcome::Offloaded {
                    start: s0,
                    finish: f0,
                    ..
                },
                JobOutcome::Offloaded {
                    start: s1,
                    finish: f1,
                    ..
                },
            ) => (s0, f0, s1, f1),
            other => panic!("{other:?}"),
        };
        assert_eq!((s0, s1), (0, 0), "both must start at once");
        assert!(f0 > 0 && f1 > 0);
        assert_eq!(report.metrics.deadline_misses, 0);
    }

    #[test]
    fn same_cycle_arrivals_are_ranked_together() {
        // Two jobs arrive on cycle 0 and only one fits the single
        // cluster; the second has the earlier deadline. Both are
        // admitted before the one dispatch of that instant, so EDF
        // starts the second and the first waits for the cluster.
        let stream = jobs(&[(0, 1024, 100_000), (0, 1024, 1000)]);
        let report = engine(1)
            .run(&stream, &mut EarliestDeadlineFirst)
            .expect("run");
        match (report.records[0].outcome, report.records[1].outcome) {
            (
                JobOutcome::Offloaded { start: s0, .. },
                JobOutcome::Offloaded {
                    start: s1,
                    finish: f1,
                    ..
                },
            ) => {
                assert_eq!(s1, 0, "the urgent job starts at once");
                assert_eq!(s0, f1, "the lax job waits for the cluster");
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    #[should_panic(expected = "job ids must strictly increase")]
    fn duplicate_job_ids_are_refused() {
        let mut stream = jobs(&[(0, 1024, 100_000), (10, 1024, 100_000)]);
        for job in &mut stream {
            job.id = 7;
        }
        let _ = engine(8).run(&stream, &mut FifoFirstFit);
    }

    #[test]
    fn saturation_queues_and_misses() {
        // Eight 1-cluster jobs on a 2-cluster machine with deadlines
        // sized for an immediate start: the queue forces misses.
        let stream = jobs(&[(0, 1024, 1000); 8]);
        let report = engine(2).run(&stream, &mut FifoFirstFit).expect("run");
        assert_eq!(report.metrics.offloaded, 8);
        assert!(report.metrics.deadline_misses > 0, "{:?}", report.metrics);
    }

    #[test]
    fn host_jobs_serialize_on_the_host_core() {
        // Tiny jobs below break-even with roomy deadlines: both go to
        // the host, which runs them back to back.
        let stream = jobs(&[(0, 64, 100_000), (0, 64, 100_000)]);
        let report = engine(8).run(&stream, &mut FifoFirstFit).expect("run");
        assert_eq!(report.metrics.host_runs, 2);
        let (f0, s1) = match (report.records[0].outcome, report.records[1].outcome) {
            (JobOutcome::Host { finish, .. }, JobOutcome::Host { start, .. }) => (finish, start),
            other => panic!("{other:?}"),
        };
        assert_eq!(s1, f0, "host is a serial server");
    }

    #[test]
    fn lint_gate_rejects_programs_that_fail_verification() {
        // A 64-word TCDM cannot hold a 1024-element daxpy: the gate's
        // static bounds check proves out-of-TCDM accesses and rejects
        // the job, while a clean small job still schedules normally.
        let stream = jobs(&[(0, 1024, 1000)]);
        let tiny = mpsoc_lint::LintContext {
            tcdm_words: 64,
            ..mpsoc_lint::LintContext::manticore()
        };

        let mut gated = engine(8);
        gated.enable_lint(crate::LintGate::new(tiny, 8));
        let report = gated.run(&stream, &mut FifoFirstFit).expect("run");
        assert_eq!(report.metrics.rejected, 1);
        match report.records[0].outcome {
            JobOutcome::Rejected {
                reason: crate::RejectReason::ProgramLint { errors },
            } => assert!(errors > 0),
            other => panic!("expected lint rejection, got {other:?}"),
        }

        // Same machine, real geometry: the gate waves the job through
        // and the report matches an ungated run exactly.
        let mut real = engine(8);
        real.enable_lint(crate::LintGate::manticore());
        let gated_report = real.run(&stream, &mut FifoFirstFit).expect("run");
        let plain_report = engine(8).run(&stream, &mut FifoFirstFit).expect("run");
        assert_eq!(gated_report, plain_report);
    }

    #[test]
    fn rejections_are_recorded() {
        let stream = jobs(&[(0, 1024, 300)]); // under c0 + c_mem·N: infeasible
        let report = engine(8).run(&stream, &mut FifoFirstFit).expect("run");
        assert_eq!(report.metrics.rejected, 1);
        assert!(matches!(
            report.records[0].outcome,
            JobOutcome::Rejected { .. }
        ));
    }

    #[test]
    fn telemetry_traces_queueing_and_rejections() {
        // Mixed stream on a tight machine: offloads that queue, a host
        // run and an infeasible job.
        let stream = jobs(&[
            (0, 1024, 1000),
            (0, 1024, 1000),
            (0, 1024, 1000),
            (10, 64, 100_000),
            (20, 1024, 30), // infeasible: rejected
        ]);
        let mut e = engine(2);
        e.enable_telemetry(4096);
        e.run(&stream, &mut FifoFirstFit).expect("run");
        let kinds: Vec<&str> = e
            .telemetry()
            .events()
            .iter()
            .map(|ev| ev.kind.name())
            .collect();
        assert!(kinds.contains(&"job_arrive"));
        assert!(kinds.contains(&"offload"));
        assert!(kinds.contains(&"queue_wait"));
        assert!(kinds.contains(&"host_run"));
        assert!(kinds.contains(&"reject"));

        // The trace exports to schema-valid Chrome trace JSON.
        let json = mpsoc_telemetry::chrome_trace_json(e.telemetry());
        let summary = mpsoc_telemetry::validate_chrome_trace(&json).expect("valid");
        assert!(summary.spans >= 4, "3 offload spans + 1 host run");
    }

    #[test]
    fn telemetry_does_not_change_reports() {
        let stream = jobs(&[(0, 1024, 1000), (0, 2048, 2000), (100, 256, 100_000)]);
        let plain = engine(8).run(&stream, &mut FifoFirstFit).expect("run");
        let mut traced_engine = engine(8);
        traced_engine.enable_telemetry(4096);
        let traced = traced_engine.run(&stream, &mut FifoFirstFit).expect("run");
        assert_eq!(plain, traced);
    }

    fn cosim_engine(clusters: usize) -> Engine {
        let offloader =
            mpsoc_offload::Offloader::new(mpsoc_soc::SocConfig::with_clusters(clusters))
                .expect("soc");
        Engine::new(
            ModelTable::paper_defaults(),
            clusters,
            ServiceBackend::co_simulated(offloader, 0xBEEF),
        )
    }

    #[test]
    fn cosimulated_backend_schedules_like_the_others() {
        let stream = jobs(&[(0, 1024, 1200), (0, 1024, 1200), (500, 2048, 3000)]);
        let report = cosim_engine(8)
            .run(&stream, &mut FifoFirstFit)
            .expect("run");
        assert_eq!(report.metrics.offloaded, 3);
        for r in &report.records {
            match r.outcome {
                JobOutcome::Offloaded { start, finish, m } => {
                    assert!(finish > start, "{r:?}");
                    assert!(m >= 1);
                }
                other => panic!("{other:?}"),
            }
        }
        // The two co-resident tenants each paid for the shared host
        // core: their measured finishes cannot both equal a solo run.
        let (f0, f1) = match (report.records[0].outcome, report.records[1].outcome) {
            (
                JobOutcome::Offloaded { finish: f0, .. },
                JobOutcome::Offloaded { finish: f1, .. },
            ) => (f0, f1),
            other => panic!("{other:?}"),
        };
        assert_ne!(f0, f1, "serialized marshalling must stagger finishes");
    }

    #[test]
    fn cosimulated_runs_are_deterministic() {
        let stream = jobs(&[
            (0, 1024, 2000),
            (0, 2048, 4000),
            (100, 256, 100_000),
            (500, 4096, 9000),
        ]);
        let a = cosim_engine(8)
            .run(&stream, &mut FifoFirstFit)
            .expect("run");
        let b = cosim_engine(8)
            .run(&stream, &mut FifoFirstFit)
            .expect("run");
        assert_eq!(a, b);
    }

    #[test]
    fn cosimulated_contention_is_attributed_under_scarce_bandwidth() {
        // Starve HBM so concurrent DMA + host operand-preparation
        // traffic queues: the per-job contention attribution must be
        // nonzero for at least one of the co-resident tenants, and it
        // is zero under the solo-run measured backend by construction.
        let mut config = mpsoc_soc::SocConfig::with_clusters(8);
        config.mem_words_per_cycle = 8;
        config.host_prep_words_per_cycle = 4;
        let offloader = mpsoc_offload::Offloader::new(config).expect("soc");
        let mut engine = Engine::new(
            ModelTable::paper_defaults(),
            8,
            ServiceBackend::co_simulated(offloader, 0xBEEF),
        );
        let stream = jobs(&[(0, 2048, 100_000), (0, 2048, 100_000)]);
        let report = engine.run(&stream, &mut FifoFirstFit).expect("run");
        assert_eq!(report.metrics.offloaded, 2);
        let total: u64 = report.records.iter().map(|r| r.contention_cycles).sum();
        assert!(total > 0, "co-residents must observe shared-HBM queueing");
    }

    #[test]
    fn measured_backend_reports_zero_contention() {
        let stream = jobs(&[(0, 2048, 100_000), (0, 2048, 100_000)]);
        let offloader =
            mpsoc_offload::Offloader::new(mpsoc_soc::SocConfig::with_clusters(8)).expect("soc");
        let mut e = Engine::new(
            ModelTable::paper_defaults(),
            8,
            ServiceBackend::measured(offloader, 0xBEEF),
        );
        let report = e.run(&stream, &mut FifoFirstFit).expect("run");
        assert!(report.records.iter().all(|r| r.contention_cycles == 0));
    }

    #[test]
    fn quarantined_clusters_leave_the_allocator_pool() {
        // Two 1-cluster jobs arriving together overlap on a healthy
        // machine; with all but one cluster quarantined they serialize.
        let stream = jobs(&[(0, 1024, 100_000), (0, 1024, 100_000)]);
        let mut degraded = engine(8);
        degraded.quarantine(ClusterMask::range(1, 7));
        assert_eq!(degraded.quarantined().count(), 7);
        let report = degraded.run(&stream, &mut FifoFirstFit).expect("run");
        let (f0, s1) = match (report.records[0].outcome, report.records[1].outcome) {
            (JobOutcome::Offloaded { finish: f0, .. }, JobOutcome::Offloaded { start: s1, .. }) => {
                (f0, s1)
            }
            other => panic!("{other:?}"),
        };
        assert_eq!(s1, f0, "one healthy cluster is a serial server");
    }

    #[test]
    fn degraded_machine_rejections_are_typed() {
        // Feasible on the full 8-cluster machine, infeasible on the 2
        // healthy survivors — and distinguishable from a plain
        // NotEnoughClusters rejection.
        let stream = jobs(&[(0, 1024, 700)]);
        let full = engine(8).run(&stream, &mut FifoFirstFit).expect("run");
        assert_eq!(full.metrics.offloaded, 1);

        let mut degraded = engine(8);
        degraded.quarantine(ClusterMask::range(2, 6));
        let report = degraded.run(&stream, &mut FifoFirstFit).expect("run");
        match report.records[0].outcome {
            JobOutcome::Rejected {
                reason: crate::RejectReason::DegradedMachine { required, healthy },
            } => {
                assert!(required > 2, "required {required}");
                assert_eq!(healthy, 2);
            }
            other => panic!("expected a degraded-machine rejection, got {other:?}"),
        }
    }

    #[test]
    fn quarantine_tolerates_a_fully_dead_machine() {
        // Everything quarantined: offloadable jobs are rejected (or go
        // to the host) instead of panicking in the allocator.
        let stream = jobs(&[(0, 1024, 1000), (0, 64, 100_000)]);
        let mut e = engine(8);
        e.quarantine(ClusterMask::first(8));
        let report = e.run(&stream, &mut FifoFirstFit).expect("run");
        assert_eq!(report.metrics.offloaded, 0);
        assert_eq!(report.metrics.rejected, 1);
        assert_eq!(report.metrics.host_runs, 1);
    }

    #[test]
    fn quarantine_invalidates_measured_solo_timings() {
        let offloader =
            mpsoc_offload::Offloader::new(mpsoc_soc::SocConfig::with_clusters(8)).expect("soc");
        let mut backend = ServiceBackend::measured(offloader, 0xBEEF);
        backend
            .offload_cycles(KernelId::Daxpy, 512, ClusterMask::first(2))
            .expect("offload");
        let cache_len = |b: &ServiceBackend| match b {
            ServiceBackend::Measured { offload_cache, .. } => offload_cache.len(),
            _ => unreachable!(),
        };
        assert_eq!(cache_len(&backend), 1);
        let mut e = Engine::new(ModelTable::paper_defaults(), 8, backend);
        e.quarantine(ClusterMask::single(7));
        assert_eq!(cache_len(&e.backend), 0, "quarantine must drop the cache");
    }

    #[test]
    fn cosimulated_records_carry_observed_faults() {
        // A single transient DMA stall: the job still completes (late),
        // and its record reports the injected fault.
        let mut offloader =
            mpsoc_offload::Offloader::new(mpsoc_soc::SocConfig::with_clusters(8)).expect("soc");
        let mut plan = mpsoc_soc::FaultPlan::with_seed(21);
        plan.dma_stall = mpsoc_soc::SiteSpec::once_at(0);
        plan.dma_stall_cycles = 300;
        offloader.install_faults(plan);
        let mut e = Engine::new(
            ModelTable::paper_defaults(),
            8,
            ServiceBackend::co_simulated(offloader, 0xBEEF),
        );
        let stream = jobs(&[(0, 1024, 100_000)]);
        let report = e.run(&stream, &mut FifoFirstFit).expect("run");
        assert_eq!(report.metrics.offloaded, 1);
        assert_eq!(report.records[0].faults_observed, 1);
        assert_eq!(report.records[0].retries, 0);
    }

    #[test]
    fn cosimulated_corruption_redispatches_and_counts_retries() {
        // A single transient DMA corruption: the CRC flags the result,
        // the engine re-dispatches on the same partition, and the
        // record carries the retry (closing the `retries: 0` gap).
        let mut offloader =
            mpsoc_offload::Offloader::new(mpsoc_soc::SocConfig::with_clusters(8)).expect("soc");
        let mut plan = mpsoc_soc::FaultPlan::with_seed(31);
        plan.dma_corrupt = mpsoc_soc::SiteSpec::once_at(0);
        offloader.install_faults(plan);
        let mut e = Engine::new(
            ModelTable::paper_defaults(),
            8,
            ServiceBackend::co_simulated(offloader, 0xBEEF),
        );
        let stream = jobs(&[(0, 1024, 100_000)]);
        let report = e.run(&stream, &mut FifoFirstFit).expect("run");
        assert_eq!(report.metrics.offloaded, 1);
        assert_eq!(report.records[0].retries, 1);
        assert!(report.records[0].faults_observed >= 1);
        match report.records[0].outcome {
            JobOutcome::Offloaded { start, finish, .. } => {
                assert_eq!(start, 0);
                assert!(finish > 0, "the retried attempt still completes");
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn persistent_corruption_auto_quarantines_without_an_explicit_call() {
        // Every DMA burst corrupts: each tenant's cluster accumulates a
        // strike per corrupt completion and crosses the 3-strike
        // threshold mid-stream. `Engine::quarantine` is never called;
        // the closed loop does it all.
        let mut offloader =
            mpsoc_offload::Offloader::new(mpsoc_soc::SocConfig::with_clusters(2)).expect("soc");
        let mut plan = mpsoc_soc::FaultPlan::with_seed(7);
        plan.dma_corrupt = mpsoc_soc::SiteSpec::rate(1.0);
        offloader.install_faults(plan);
        let mut e = Engine::new(
            ModelTable::paper_defaults(),
            2,
            ServiceBackend::co_simulated(offloader, 0xBEEF),
        );
        e.enable_telemetry(4096);
        let stream = jobs(&[(0, 1024, 100_000), (0, 1024, 100_000), (0, 1024, 100_000)]);
        let report = e.run(&stream, &mut FifoFirstFit).expect("run");
        assert_eq!(e.quarantined().count(), 2, "both clusters condemned");
        let events = e.quarantine_events();
        assert_eq!(events.len(), 2);
        assert!(events.iter().all(|ev| ev.strikes >= 3 && ev.at > 0));
        assert!(e
            .telemetry()
            .events()
            .iter()
            .any(|ev| ev.kind.name() == "quarantine"));
        // The two in-flight tenants complete (budget-exhausted results
        // accepted); the queued third is stranded on a dead machine and
        // resolves as a typed degraded rejection.
        assert_eq!(report.metrics.offloaded, 2);
        match report.records[2].outcome {
            JobOutcome::Rejected {
                reason: crate::RejectReason::DegradedMachine { healthy, .. },
            } => assert_eq!(healthy, 0),
            other => panic!("expected a degraded rejection, got {other:?}"),
        }
    }

    #[test]
    fn auto_quarantine_can_be_disabled() {
        let mk = || {
            let mut offloader =
                mpsoc_offload::Offloader::new(mpsoc_soc::SocConfig::with_clusters(2)).expect("soc");
            let mut plan = mpsoc_soc::FaultPlan::with_seed(7);
            plan.dma_corrupt = mpsoc_soc::SiteSpec::rate(1.0);
            offloader.install_faults(plan);
            Engine::new(
                ModelTable::paper_defaults(),
                2,
                ServiceBackend::co_simulated(offloader, 0xBEEF),
            )
        };
        let stream = jobs(&[(0, 1024, 100_000), (0, 1024, 100_000), (0, 1024, 100_000)]);
        let mut e = mk();
        e.set_auto_quarantine(None);
        let report = e.run(&stream, &mut FifoFirstFit).expect("run");
        assert!(e.quarantined().is_empty());
        assert!(e.quarantine_events().is_empty());
        assert_eq!(report.metrics.offloaded, 3, "every job still completes");
    }

    #[test]
    fn strikes_persist_across_runs() {
        // One cluster, every DMA burst corrupt: each run's job completes
        // corrupt 1 + MAX_RETRIES = 4 times, 4 strikes per run. Under a
        // threshold of 6 the first run leaves the cluster in the pool;
        // the second run's second strike crosses 6 only because the
        // engine's ledger carried the first run's four.
        let mut offloader =
            mpsoc_offload::Offloader::new(mpsoc_soc::SocConfig::with_clusters(1)).expect("soc");
        let mut plan = mpsoc_soc::FaultPlan::with_seed(7);
        plan.dma_corrupt = mpsoc_soc::SiteSpec::rate(1.0);
        offloader.install_faults(plan);
        let mut e = Engine::new(
            ModelTable::paper_defaults(),
            1,
            ServiceBackend::co_simulated(offloader, 0xBEEF),
        );
        e.set_auto_quarantine(Some(6));
        let stream = jobs(&[(0, 1024, 100_000)]);
        let first = e.run(&stream, &mut FifoFirstFit).expect("run");
        assert_eq!(first.records[0].retries, mpsoc_offload::MAX_RETRIES);
        assert!(e.quarantined().is_empty(), "4 strikes < 6");
        e.run(&stream, &mut FifoFirstFit).expect("run");
        assert_eq!(e.quarantined(), ClusterMask::single(0));
        let events = e.quarantine_events();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].strikes, 6);
    }

    #[test]
    fn wedged_cosimulated_session_is_a_typed_error() {
        // A lost completion credit wedges the tenant's barrier: with no
        // arrival left to advance time, the engine must surface a typed
        // SessionStalled error instead of panicking.
        let mut offloader =
            mpsoc_offload::Offloader::new(mpsoc_soc::SocConfig::with_clusters(8)).expect("soc");
        let mut plan = mpsoc_soc::FaultPlan::with_seed(23);
        plan.credit_loss = mpsoc_soc::SiteSpec::once_at(0);
        offloader.install_faults(plan);
        let mut e = Engine::new(
            ModelTable::paper_defaults(),
            8,
            ServiceBackend::co_simulated(offloader, 0xBEEF),
        );
        let stream = jobs(&[(0, 1024, 100_000)]);
        let err = e.run(&stream, &mut FifoFirstFit).unwrap_err();
        match err {
            SchedError::SessionStalled { in_flight } => assert_eq!(in_flight, 1),
            other => panic!("expected SessionStalled, got {other}"),
        }
    }

    #[test]
    fn runs_are_deterministic() {
        let stream = jobs(&[
            (0, 1024, 700),
            (100, 2048, 2000),
            (100, 256, 100_000),
            (500, 4096, 3000),
        ]);
        let a = engine(8).run(&stream, &mut FifoFirstFit).expect("run");
        let b = engine(8).run(&stream, &mut FifoFirstFit).expect("run");
        assert_eq!(a, b);
    }
}
