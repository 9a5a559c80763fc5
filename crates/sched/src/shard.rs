//! The scheduling loop: admission → spatial allocation → policy-driven
//! dispatch over a [`ServiceBackend`], as an incremental state machine
//! driven event by event. It is the only loop in this crate: a serving
//! fleet drives one [`ShardSim`] per shard as jobs arrive over the wire,
//! and [`Engine::run`](crate::Engine::run) drives one over a complete,
//! pre-sorted stream for the closed-loop studies.
//!
//! - [`ShardSim::advance`] drives virtual time forward to a horizon,
//!   retiring completions and re-dispatching the queue after each one;
//! - [`ShardSim::offer`] presents one arriving job and returns its
//!   admission fate immediately (queued, host, or rejected — including
//!   the serving-specific [`RejectReason::QueueFull`] backpressure);
//! - [`ShardSim::steal`]/[`ShardSim::inject`] move *queued-but-unstarted*
//!   jobs between shards — the work-stealing primitive of a fleet load
//!   balancer;
//! - [`ShardSim::drain_finished`] yields completed [`JobRecord`]s in
//!   completion order.
//!
//! Event ordering: completions retire before same-cycle arrivals (drive
//! `advance(t)` before `offer`ing an arrival at `t`), the policy
//! re-picks after every event, and host-fallback jobs serialize on the
//! virtual host server. Events are ordered by `(time, sequence)` and
//! every queue is insertion-ordered, so a shard is deterministic.
//!
//! How concurrent tenants are timed depends on the service backend:
//!
//! - Under [`ServiceBackend::Measured`] and [`ServiceBackend::Analytic`]
//!   each offload contributes a standalone (measured-solo or predicted)
//!   cycle count as its partition's busy interval; cross-tenant NoC/HBM
//!   interference is *not* modeled — the paper's first-order premise
//!   that TCDMs and the mask-addressed offload path make partitions
//!   independent.
//! - Under [`ServiceBackend::CoSimulated`] the shard drives one shared
//!   SoC session: every placed job is submitted into the same
//!   event-driven machine, tenants on disjoint partitions overlap on
//!   the real NoC switch tree, HBM bandwidth/AMO unit and the serial
//!   host core, and each job's completion time — including its
//!   contention-stretched phases, attributed in
//!   [`JobRecord::contention_cycles`] — emerges from the co-simulation.
//!   A tenant whose completion carries the observable corruption signal
//!   (`corrupt_clusters`) is re-dispatched, bounded by
//!   [`MAX_RETRIES`], the resilient offloader's default retry bound;
//!   the re-dispatch count lands in [`JobRecord::retries`].
//!
//! Each shard owns one recovery ledger ([`StrikeBoard`]): strikes,
//! threshold, the quarantined set and the quarantine log, the same type
//! the resilient offloader keeps. Corrupt completions charge strikes to
//! the CRC-flagged clusters; a cluster flagged
//! [`AUTO_QUARANTINE_STRIKES`](mpsoc_offload::AUTO_QUARANTINE_STRIKES)
//! times is quarantined mid-stream — allocator pool shrink, degraded
//! admission, measured-cache and cost-gate invalidation — and logged as
//! a typed [`QuarantineEvent`].

use std::collections::BTreeMap;

use mpsoc_noc::ClusterMask;
use mpsoc_offload::{QuarantineEvent, StrikeBoard, MAX_RETRIES};
use mpsoc_sim::Cycle;
use mpsoc_telemetry::{EventKind, EventTrace, Unit};

use crate::admission::{AdmissionController, AdmissionDecision, RejectReason};
use crate::alloc::Allocator;
use crate::calibrate::ModelTable;
use crate::cost_gate::CostGate;
use crate::error::SchedError;
use crate::job::Job;
use crate::lint_gate::LintGate;
use crate::metrics::{JobOutcome, JobRecord};
use crate::policy::{Placement, QueuedJob, SchedContext, SchedPolicy};
use crate::service::ServiceBackend;

/// What [`ShardSim::offer`] decided about one arriving job.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ShardDecision {
    /// Admitted for offload; waiting for (or already granted) clusters.
    Queued {
        /// Eq. 3 minimum partition.
        m_min: u64,
        /// Predicted runtime at `m_min` (cycles).
        predicted: f64,
    },
    /// Sent to the shard's serial host server; completes at `finish`.
    Host {
        /// Cycle the host will begin the job.
        start: u64,
        /// Cycle the host will finish it.
        finish: u64,
    },
    /// Turned away (admission or queue-depth backpressure).
    Rejected {
        /// Why.
        reason: RejectReason,
    },
}

/// The learned Eq. 1 prediction for one admitted job next to its static
/// `[best, worst]` envelope at the admission-time `M_min` — the
/// residual signal a serving front-end aggregates to detect model
/// drift (a prediction outside the envelope is provably mis-calibrated
/// for solo execution).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostCheck {
    /// Static best-case total at `M_min` (cycles).
    pub best: u64,
    /// Static worst-case total at `M_min` (cycles).
    pub worst: u64,
    /// The Eq. 1 model's predicted runtime at `M_min` (cycles).
    pub predicted: f64,
}

/// One job in flight (placed on a partition, or a scheduled host run).
#[derive(Debug, Clone, Copy)]
struct InFlight {
    job: Job,
    m_min: u64,
    predicted: f64,
    mask: ClusterMask,
    start: u64,
    m: usize,
    host: bool,
    retries: u32,
    faults: u64,
    contention: u64,
}

/// The telemetry track of a partition, keyed by its lowest cluster:
/// disjoint masks never overlap in time on one track.
fn partition_unit(mask: ClusterMask) -> Unit {
    Unit::Partition(mask.iter().next().unwrap_or(0) as u32)
}

/// The one "pool shrank" step of [`ShardSim::quarantine`] and
/// [`Engine::quarantine`](crate::Engine::quarantine): the measured
/// backend's memoized solo-run timings and the cost gate's static memos
/// were computed against a machine that no longer exists, and stale
/// entries would admit jobs on bounds the `healthy` survivors cannot
/// realize.
pub(crate) fn pool_shrank(
    backend: &mut ServiceBackend,
    cost_gate: Option<&mut CostGate>,
    healthy: usize,
) {
    backend.invalidate_measurements();
    if let Some(gate) = cost_gate {
        gate.restrict_clusters(healthy);
    }
}

/// An incremental single-machine scheduler: admission, allocation and
/// dispatch over a service backend, driven event-by-event.
pub struct ShardSim<P = Box<dyn SchedPolicy>> {
    admission: AdmissionController,
    pub(crate) backend: ServiceBackend,
    clusters: usize,
    allocator: Allocator,
    policy: P,
    queue_limit: Option<usize>,
    now: u64,
    host_free_at: u64,
    seq: u64,
    ready: Vec<QueuedJob>,
    /// Virtual-time completion events, keyed `(finish, sequence)`.
    completions: BTreeMap<(u64, u64), InFlight>,
    /// Co-simulated tenants keyed by their session job handle.
    running: BTreeMap<mpsoc_offload::JobId, InFlight>,
    finished: Vec<JobRecord>,
    backlog_cycles: f64,
    busy_cluster_cycles: u64,
    completed_jobs: u64,
    pub(crate) cost_gate: Option<CostGate>,
    last_cost_check: Option<CostCheck>,
    /// The recovery ledger: the one owner of the quarantined set (the
    /// allocator only stops granting what it names). An engine lends
    /// its ledger here for the length of a run.
    pub(crate) ledger: StrikeBoard,
    /// Static program verification, checked before the cost gate;
    /// enabled through [`Engine::enable_lint`](crate::Engine::enable_lint).
    pub(crate) lint_gate: Option<LintGate>,
    /// Arrivals, queue waits, partition occupancy, host runs,
    /// rejections, re-dispatches and quarantines; enabled through
    /// [`Engine::enable_telemetry`](crate::Engine::enable_telemetry).
    pub(crate) telemetry: EventTrace,
}

impl ShardSim {
    /// A shard over a machine of `clusters` clusters, dispatching with
    /// `policy` over `backend`.
    pub fn new(
        table: ModelTable,
        clusters: usize,
        backend: ServiceBackend,
        policy: Box<dyn SchedPolicy>,
    ) -> Self {
        let ledger = StrikeBoard::new(clusters);
        ShardSim::with_policy(table, clusters, backend, policy, ledger)
    }
}

impl<P: SchedPolicy> ShardSim<P> {
    /// A shard dispatching with any policy type over `ledger`, whose
    /// quarantined clusters are out of the pool from the start.
    pub(crate) fn with_policy(
        table: ModelTable,
        clusters: usize,
        mut backend: ServiceBackend,
        policy: P,
        ledger: StrikeBoard,
    ) -> Self {
        if let ServiceBackend::CoSimulated { offloader, .. } = &mut backend {
            offloader.begin_jobs();
        }
        let mut allocator = Allocator::new(clusters);
        allocator.retire(ledger.quarantined());
        ShardSim {
            admission: AdmissionController::new(table, clusters as u64),
            backend,
            clusters,
            allocator,
            policy,
            queue_limit: None,
            now: 0,
            host_free_at: 0,
            seq: 0,
            ready: Vec::new(),
            completions: BTreeMap::new(),
            running: BTreeMap::new(),
            finished: Vec::new(),
            backlog_cycles: 0.0,
            busy_cluster_cycles: 0,
            completed_jobs: 0,
            cost_gate: None,
            last_cost_check: None,
            ledger,
            lint_gate: None,
            telemetry: EventTrace::disabled(),
        }
    }

    /// Retires `mask` from this shard's pool mid-stream — the
    /// incremental counterpart of [`Engine::quarantine`]. The ledger
    /// logs each newly retired cluster as a [`QuarantineEvent`], the
    /// allocator stops granting the clusters (busy ones are withheld at
    /// release), admission reasons against the surviving pool (typed
    /// [`RejectReason::DegradedMachine`] rejections), and the measured
    /// backend's solo-run timings and the cost gate's static memos are
    /// dropped: both were computed against a machine that no longer
    /// exists.
    ///
    /// [`Engine::quarantine`]: crate::Engine::quarantine
    pub fn quarantine(&mut self, mask: ClusterMask) {
        let retired = self.ledger.quarantine(mask, self.now);
        self.retire_clusters(retired);
    }

    /// Takes the clusters the ledger just retired out of the pool.
    fn retire_clusters(&mut self, retired: ClusterMask) {
        if retired.is_empty() {
            return;
        }
        self.allocator.retire(retired);
        let healthy = self.healthy_clusters();
        pool_shrank(&mut self.backend, self.cost_gate.as_mut(), healthy);
        for cluster in retired.iter() {
            self.telemetry.instant(
                Cycle::new(self.now),
                Unit::SchedHost,
                EventKind::Quarantine,
                cluster as u64,
            );
        }
    }

    /// Configures automatic quarantine: a cluster is retired after
    /// `threshold` corrupt co-simulated completions flagged it (default
    /// [`AUTO_QUARANTINE_STRIKES`](mpsoc_offload::AUTO_QUARANTINE_STRIKES));
    /// `None` disables the closed loop so corruption is absorbed by
    /// re-dispatch alone.
    pub fn set_auto_quarantine(&mut self, threshold: Option<u32>) {
        self.ledger.set_threshold(threshold);
    }

    /// The clusters currently quarantined.
    pub fn quarantined(&self) -> ClusterMask {
        self.ledger.quarantined()
    }

    /// Healthy (non-quarantined) clusters — the shard's *effective*
    /// capacity, which a fleet balancer should weight by instead of the
    /// configured size.
    pub fn healthy_clusters(&self) -> usize {
        self.clusters - self.ledger.quarantined().count()
    }

    /// Takes the quarantine decisions (manual and automatic) made since
    /// the last drain, in firing order.
    pub fn drain_quarantine_events(&mut self) -> Vec<QuarantineEvent> {
        self.ledger.drain_events()
    }

    /// Enables static cost verification: offered jobs whose deadline
    /// undercuts the static best-case runtime bound are rejected with
    /// [`RejectReason::StaticInfeasible`] before Eq. 3 runs, and every
    /// queued admission records a [`CostCheck`] residual (see
    /// [`ShardSim::take_cost_check`]).
    pub fn enable_cost(&mut self, gate: CostGate) {
        self.cost_gate = Some(gate);
    }

    /// Takes the prediction-vs-static-bounds residual of the most recent
    /// queued admission, if a cost gate is enabled and the bounds were
    /// computable. Cleared on read so callers see each admission once.
    pub fn take_cost_check(&mut self) -> Option<CostCheck> {
        self.last_cost_check.take()
    }

    /// Caps the admitted-but-unstarted queue: once `limit` jobs wait,
    /// further offload admissions are rejected with
    /// [`RejectReason::QueueFull`] — the shard's backpressure signal.
    /// Host-fallback jobs bypass the cap (they occupy the host server,
    /// not the cluster queue).
    pub fn set_queue_limit(&mut self, limit: usize) {
        self.queue_limit = Some(limit);
    }

    /// Current virtual time (the latest horizon or event retired).
    pub fn now(&self) -> u64 {
        self.now
    }

    /// The machine size.
    pub fn clusters(&self) -> usize {
        self.clusters
    }

    /// Clusters currently free.
    pub fn free_clusters(&self) -> usize {
        self.allocator.free_count()
    }

    /// Admitted jobs waiting for clusters.
    pub fn queue_depth(&self) -> usize {
        self.ready.len()
    }

    /// Jobs currently occupying partitions or the host server.
    pub fn in_flight(&self) -> usize {
        self.completions.len() + self.running.len()
    }

    /// Predicted cluster-cycles of work admitted but not yet finished
    /// (queued + in flight, at the admission-time `M_min` estimate) —
    /// the load signal a fleet balancer compares across shards.
    pub fn backlog_cycles(&self) -> f64 {
        self.backlog_cycles
    }

    /// Busy cluster-cycles accumulated by retired offloads.
    pub fn busy_cluster_cycles(&self) -> u64 {
        self.busy_cluster_cycles
    }

    /// Jobs retired so far (offloaded + host).
    pub fn completed_jobs(&self) -> u64 {
        self.completed_jobs
    }

    /// The admission controller's model table.
    pub fn models(&self) -> &ModelTable {
        self.admission.table()
    }

    /// Takes every record finished since the last drain, in completion
    /// order (rejections appear at their offer time).
    pub fn drain_finished(&mut self) -> Vec<JobRecord> {
        std::mem::take(&mut self.finished)
    }

    /// Drives virtual time to `until` (inclusive): retires every
    /// completion at or before it, re-dispatching the queue after each
    /// event. `u64::MAX` means "retire everything currently in flight"
    /// without advancing the clock past the last real event.
    ///
    /// # Errors
    ///
    /// Service-backend failures; [`SchedError::SessionStalled`] can
    /// surface from [`ShardSim::drain`], not from a bounded advance.
    pub fn advance(&mut self, until: u64) -> Result<(), SchedError> {
        let _prof = mpsoc_sim::profile::scope("sched.shard.advance");
        if matches!(self.backend, ServiceBackend::CoSimulated { .. }) {
            self.advance_cosimulated(until)?;
        } else {
            while let Some(t) = self.next_completion().filter(|&t| t <= until) {
                self.retire_due(t)?;
            }
        }
        if until != u64::MAX {
            self.now = self.now.max(until);
        }
        Ok(())
    }

    /// Runs the shard dry: advances until the queue is empty and nothing
    /// is in flight.
    ///
    /// # Errors
    ///
    /// [`SchedError::SessionStalled`] when in-flight work stops making
    /// progress (a wedged co-simulated tenant under injected faults).
    pub fn drain(&mut self) -> Result<(), SchedError> {
        loop {
            let retired = self.completed_jobs;
            self.advance(u64::MAX)?;
            if self.ready.is_empty() && self.in_flight() == 0 {
                return Ok(());
            }
            if self.completed_jobs == retired {
                // Mid-stream quarantine can strand queued jobs whose
                // Eq. 3 minimum partition no longer fits the surviving
                // pool. With nothing in flight they can never start:
                // resolve them as typed degraded rejections — a served
                // "no" — instead of reporting a wedged session.
                if self.in_flight() == 0 && self.reject_stranded() {
                    continue;
                }
                return Err(SchedError::SessionStalled {
                    in_flight: self.in_flight(),
                });
            }
        }
    }

    /// Rejects queued jobs whose minimum partition exceeds the healthy
    /// pool (they were admitted before quarantine shrank the machine).
    /// Returns whether anything was resolved.
    fn reject_stranded(&mut self) -> bool {
        let stranded = self.evict_unservable();
        if stranded.is_empty() {
            return false;
        }
        for q in stranded {
            self.reject_evicted(q);
        }
        true
    }

    /// Removes and returns the queued-but-unstarted jobs whose minimum
    /// partition exceeds the healthy pool, in arrival order. Under a
    /// strict-FIFO policy such a job would otherwise wedge the queue
    /// head mid-stream: it can never start, and everything behind it
    /// waits until drain. A fleet calls this after quarantine shrinks a
    /// shard and either re-places the evicted jobs on a shard that still
    /// fits them or resolves them via [`ShardSim::reject_evicted`].
    pub fn evict_unservable(&mut self) -> Vec<QueuedJob> {
        let healthy = self.healthy_clusters() as u64;
        let mut evicted = Vec::new();
        let mut i = 0;
        while i < self.ready.len() {
            if self.ready[i].m_min > healthy {
                let q = self.ready.remove(i);
                self.backlog_cycles -= q.predicted * q.m_min as f64;
                evicted.push(q);
            } else {
                i += 1;
            }
        }
        evicted
    }

    /// Resolves an evicted (or failed-over-but-unplaceable) job as a
    /// typed [`RejectReason::DegradedMachine`] rejection against this
    /// shard's surviving pool — a served "no", counted exactly once like
    /// any other rejection.
    pub fn reject_evicted(&mut self, q: QueuedJob) {
        let healthy = self.healthy_clusters() as u64;
        self.reject(
            q.job,
            RejectReason::DegradedMachine {
                required: q.m_min,
                healthy,
            },
        );
    }

    /// Presents one arriving job (arrivals must be offered in
    /// non-decreasing time order, after `advance(job.arrival)`); decides
    /// its fate and schedules it. The returned decision is also recorded
    /// (rejections immediately, completions when they retire).
    ///
    /// # Errors
    ///
    /// Service-backend failures measuring or submitting the job.
    pub fn offer(&mut self, job: Job) -> Result<ShardDecision, SchedError> {
        let decision = self.admit(job)?;
        if matches!(decision, ShardDecision::Queued { .. }) {
            self.dispatch()?;
        }
        Ok(decision)
    }

    /// [`ShardSim::offer`] without the dispatch: a batch caller admits
    /// every arrival of one instant, then calls [`ShardSim::dispatch`]
    /// once so the policy ranks same-cycle arrivals together.
    pub(crate) fn admit(&mut self, job: Job) -> Result<ShardDecision, SchedError> {
        self.now = self.now.max(job.arrival);
        self.telemetry.instant(
            Cycle::new(self.now),
            Unit::SchedHost,
            EventKind::JobArrive,
            job.id,
        );
        let lint_errors = self
            .lint_gate
            .as_mut()
            .and_then(|gate| gate.check(&job))
            .map(|report| report.error_count() as u32);
        if let Some(errors) = lint_errors {
            return Ok(self.reject(job, RejectReason::ProgramLint { errors }));
        }
        if let Some(best) = self.cost_gate.as_mut().and_then(|gate| gate.check(&job)) {
            return Ok(self.reject(job, RejectReason::StaticInfeasible { best }));
        }
        match self
            .admission
            .admit_degraded(&job, self.healthy_clusters() as u64)
        {
            AdmissionDecision::Offload { m_min, predicted } => {
                if self
                    .queue_limit
                    .is_some_and(|limit| self.ready.len() >= limit)
                {
                    let depth = self.ready.len() as u64;
                    return Ok(self.reject(job, RejectReason::QueueFull { depth }));
                }
                self.ready.push(QueuedJob {
                    job,
                    m_min,
                    predicted,
                });
                self.backlog_cycles += predicted * m_min as f64;
                if let Some(gate) = self.cost_gate.as_mut() {
                    self.last_cost_check =
                        gate.envelope(job.kernel, job.n, m_min as usize)
                            .map(|env| CostCheck {
                                best: env.best,
                                worst: env.worst,
                                predicted,
                            });
                }
                Ok(ShardDecision::Queued { m_min, predicted })
            }
            AdmissionDecision::Host { .. } => {
                let start = self.now.max(self.host_free_at);
                let finish = start.saturating_add(self.backend.host_cycles(job.kernel, job.n)?);
                self.host_free_at = finish;
                let span =
                    self.telemetry
                        .begin(Cycle::new(start), Unit::SchedHost, EventKind::HostRun);
                self.telemetry.end(
                    Cycle::new(finish),
                    Unit::SchedHost,
                    EventKind::HostRun,
                    span,
                );
                self.completions.insert(
                    (finish, self.seq),
                    InFlight {
                        job,
                        m_min: 0,
                        predicted: 0.0,
                        mask: ClusterMask::EMPTY,
                        start,
                        m: 0,
                        host: true,
                        retries: 0,
                        faults: 0,
                        contention: 0,
                    },
                );
                self.seq += 1;
                Ok(ShardDecision::Host { start, finish })
            }
            AdmissionDecision::Reject { reason } => Ok(self.reject(job, reason)),
        }
    }

    /// Retracts the rejection record this shard just logged for
    /// `job_id`, so a balancer that re-offers the job elsewhere (and
    /// finds a taker) keeps the fleet log exactly-once. Only the *most
    /// recent* finished record is eligible — a rejection stops being
    /// retractable as soon as anything else resolves after it — and
    /// only rejections can be withdrawn. Returns whether a record was
    /// removed.
    pub fn withdraw_rejection(&mut self, job_id: u64) -> bool {
        let retractable = matches!(
            self.finished.last(),
            Some(JobRecord {
                job,
                outcome: JobOutcome::Rejected { .. },
                ..
            }) if job.id == job_id
        );
        if retractable {
            self.finished.pop();
        }
        retractable
    }

    /// Removes the most recently admitted queued-but-unstarted job for
    /// another shard to run, or `None` when the queue is empty. Stealing
    /// from the tail leaves the oldest (most slack-starved) jobs on the
    /// shard that admitted them.
    pub fn steal(&mut self) -> Option<QueuedJob> {
        let stolen = self.ready.pop()?;
        self.backlog_cycles -= stolen.predicted * stolen.m_min as f64;
        Some(stolen)
    }

    /// Accepts a job stolen from another shard: it joins the queue with
    /// its admission solution intact and competes for clusters under
    /// this shard's policy.
    ///
    /// # Errors
    ///
    /// Service-backend failures dispatching the queue.
    pub fn inject(&mut self, stolen: QueuedJob) -> Result<(), SchedError> {
        self.backlog_cycles += stolen.predicted * stolen.m_min as f64;
        self.ready.push(stolen);
        self.dispatch()
    }

    /// Logs `job` as turned away for `reason`: a served "no", recorded
    /// at once.
    fn reject(&mut self, job: Job, reason: RejectReason) -> ShardDecision {
        self.telemetry.instant(
            Cycle::new(self.now),
            Unit::SchedHost,
            EventKind::Reject,
            job.id,
        );
        self.finished.push(JobRecord {
            job,
            outcome: JobOutcome::Rejected { reason },
            contention_cycles: 0,
            retries: 0,
            faults_observed: 0,
        });
        ShardDecision::Rejected { reason }
    }

    /// Retires one finished job (host run or offload) into the log.
    fn retire(&mut self, done: InFlight, finish: u64) {
        let outcome = if done.host {
            JobOutcome::Host {
                start: done.start,
                finish,
            }
        } else {
            // Clusters quarantined while carved stay out of the pool.
            self.allocator
                .release(done.mask.without(self.ledger.quarantined()));
            self.backlog_cycles -= done.predicted * done.m_min as f64;
            self.busy_cluster_cycles = self
                .busy_cluster_cycles
                .saturating_add((finish - done.start).saturating_mul(done.m as u64));
            let part = partition_unit(done.mask);
            let span = self
                .telemetry
                .begin(Cycle::new(done.start), part, EventKind::Offload);
            self.telemetry
                .end(Cycle::new(finish), part, EventKind::Offload, span);
            JobOutcome::Offloaded {
                start: done.start,
                finish,
                m: done.m,
            }
        };
        self.completed_jobs += 1;
        self.finished.push(JobRecord {
            job: done.job,
            outcome,
            contention_cycles: done.contention,
            retries: done.retries,
            faults_observed: done.faults,
        });
    }

    /// The earliest virtual-time completion still pending.
    fn next_completion(&self) -> Option<u64> {
        self.completions.keys().next().map(|&(t, _)| t)
    }

    /// Retires every virtual-time completion due at `t` (the earliest
    /// pending one), then lets the policy re-pick.
    fn retire_due(&mut self, t: u64) -> Result<(), SchedError> {
        self.now = t;
        while self.next_completion().is_some_and(|due| due <= t) {
            let (_, done) = self
                .completions
                .pop_first()
                .expect("completion just observed");
            self.retire(done, t);
        }
        self.dispatch()
    }

    /// Lets the policy place queued jobs until it passes.
    pub(crate) fn dispatch(&mut self) -> Result<(), SchedError> {
        loop {
            let ctx = SchedContext {
                now: self.now,
                free_clusters: self.allocator.free_count(),
                total_clusters: self.healthy_clusters(),
                models: self.admission.table(),
            };
            let Some(Placement { queue_index, m }) = self.policy.pick(&self.ready, &ctx) else {
                return Ok(());
            };
            assert!(queue_index < self.ready.len(), "policy picked a ghost job");
            let queued = self.ready.remove(queue_index);
            let mask = self
                .allocator
                .carve(m)
                .unwrap_or_else(|| panic!("policy over-allocated: {m} clusters not free"));
            if queued.job.arrival < self.now {
                self.telemetry.instant(
                    Cycle::new(self.now),
                    partition_unit(mask),
                    EventKind::QueueWait,
                    self.now - queued.job.arrival,
                );
            }
            let placed = InFlight {
                job: queued.job,
                m_min: queued.m_min,
                predicted: queued.predicted,
                mask,
                start: self.now,
                m,
                host: false,
                retries: 0,
                faults: 0,
                contention: 0,
            };
            if matches!(self.backend, ServiceBackend::CoSimulated { .. }) {
                let handle = self.submit(queued.job, mask, Cycle::new(self.now))?;
                self.running.insert(handle, placed);
            } else {
                let cycles = self
                    .backend
                    .offload_cycles(queued.job.kernel, queued.job.n, mask)?;
                self.completions
                    .insert((self.now.saturating_add(cycles), self.seq), placed);
                self.seq += 1;
            }
        }
    }

    /// Submits `job` on `mask` into the shared co-simulated session,
    /// starting at `at`.
    fn submit(
        &mut self,
        job: Job,
        mask: ClusterMask,
        at: Cycle,
    ) -> Result<mpsoc_offload::JobId, SchedError> {
        let ServiceBackend::CoSimulated {
            offloader,
            seed,
            strategy,
            ..
        } = &mut self.backend
        else {
            unreachable!("session submissions require a co-simulated backend");
        };
        let (x, y) = crate::calibrate::operands(job.n, *seed ^ job.n);
        let handle = offloader.submit_at(
            job.kernel.instantiate().as_ref(),
            &x,
            &y,
            mask,
            *strategy,
            at,
        )?;
        Ok(handle)
    }

    /// The co-simulated advance loop: one shared SoC session carries
    /// every placed tenant; host-fallback completions interleave at
    /// their scheduled virtual times.
    fn advance_cosimulated(&mut self, until: u64) -> Result<(), SchedError> {
        loop {
            let next_host = self.next_completion().filter(|&t| t <= until);
            if !self.running.is_empty() {
                // Advance the session no further than the earliest
                // scheduled host completion, so host and session events
                // retire in global time order.
                let ServiceBackend::CoSimulated { offloader, .. } = &mut self.backend else {
                    unreachable!("advance_cosimulated requires a co-simulated backend");
                };
                let horizon = Cycle::new(next_host.unwrap_or(until));
                if let mpsoc_offload::SessionStep::Completed(t) = offloader.advance_jobs(horizon)? {
                    self.retire_cosimulated(*t)?;
                    self.dispatch()?;
                    continue;
                }
            }
            // No session event before the horizon: retire the host
            // completions there, or stop at the caller's bound.
            match next_host {
                Some(t) => self.retire_due(t)?,
                None => return Ok(()),
            }
        }
    }

    /// Retires (or corruption-re-dispatches) one co-simulated tenant.
    fn retire_cosimulated(&mut self, t: mpsoc_offload::TenantRun) -> Result<(), SchedError> {
        let Some(mut done) = self.running.remove(&t.job) else {
            return Err(SchedError::UnknownCompletion { job: t.job });
        };
        let finish = t.finished_at.as_u64();
        self.now = self.now.max(finish);
        done.faults += t.faults_injected;
        done.contention += t.contention.total_cycles();
        if t.corrupt_clusters != 0 {
            // Strike accounting on every corrupt completion — including
            // a final attempt whose retry budget is exhausted — so a
            // flaky cluster is diagnosed even while re-dispatch keeps
            // absorbing its output. Crossing the hysteresis threshold
            // quarantines the cluster mid-stream, with no external
            // `quarantine` call involved.
            let fire = self
                .ledger
                .record(ClusterMask::from_bits(t.corrupt_clusters), self.now);
            self.retire_clusters(fire);
            if done.retries < MAX_RETRIES {
                // Observable corruption: re-dispatch on the same
                // partition with fresh fault dice, charging the retry to
                // the record.
                done.retries += 1;
                self.telemetry.instant(
                    t.finished_at,
                    partition_unit(done.mask),
                    EventKind::Redispatch,
                    done.job.id,
                );
                let handle = self.submit(done.job, done.mask, t.finished_at)?;
                self.running.insert(handle, done);
                return Ok(());
            }
        }
        self.retire(done, finish);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::KernelId;
    use crate::policy::FifoFirstFit;

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

    fn shard(clusters: usize, backend: ServiceBackend) -> ShardSim {
        ShardSim::new(
            ModelTable::paper_defaults(),
            clusters,
            backend,
            Box::new(FifoFirstFit),
        )
    }

    #[test]
    fn queue_limit_rejects_with_queue_full() {
        // A 1-cluster machine: the first job runs, the second queues,
        // the third hits the cap.
        let table = ModelTable::paper_defaults();
        let mut s = shard(1, ServiceBackend::analytic(table));
        s.set_queue_limit(1);
        let stream = jobs(&[(0, 1024, 100_000), (0, 1024, 100_000), (0, 1024, 100_000)]);
        assert!(matches!(
            s.offer(stream[0]).unwrap(),
            ShardDecision::Queued { .. }
        ));
        assert!(matches!(
            s.offer(stream[1]).unwrap(),
            ShardDecision::Queued { .. }
        ));
        match s.offer(stream[2]).unwrap() {
            ShardDecision::Rejected {
                reason: RejectReason::QueueFull { depth },
            } => assert_eq!(depth, 1),
            other => panic!("expected QueueFull, got {other:?}"),
        }
        s.drain().expect("drain");
        let records = s.drain_finished();
        assert_eq!(records.len(), 3);
        assert_eq!(s.completed_jobs(), 2);
    }

    #[test]
    fn steal_moves_queued_work_between_shards() {
        let table = ModelTable::paper_defaults();
        // Donor: 1 cluster, so the second job queues.
        let mut donor = shard(1, ServiceBackend::analytic(table.clone()));
        let stream = jobs(&[(0, 1024, 100_000), (0, 1024, 100_000)]);
        donor.offer(stream[0]).unwrap();
        donor.offer(stream[1]).unwrap();
        assert_eq!(donor.queue_depth(), 1);
        let backlog_before = donor.backlog_cycles();

        let stolen = donor.steal().expect("queued job to steal");
        assert_eq!(stolen.job.id, 1);
        assert_eq!(donor.queue_depth(), 0);
        assert!(donor.backlog_cycles() < backlog_before);
        assert!(donor.steal().is_none(), "nothing left to steal");

        // Thief: idle 1-cluster shard runs the stolen job immediately.
        let mut thief = shard(1, ServiceBackend::analytic(table));
        thief.inject(stolen).expect("inject");
        assert_eq!(thief.queue_depth(), 0, "stolen job dispatched at once");
        thief.drain().expect("drain");
        let records = thief.drain_finished();
        assert_eq!(records.len(), 1);
        assert!(matches!(
            records[0].outcome,
            JobOutcome::Offloaded { start: 0, .. }
        ));

        donor.drain().expect("drain");
        assert_eq!(donor.completed_jobs(), 1);
    }

    #[test]
    fn backlog_tracks_admitted_unfinished_work() {
        let table = ModelTable::paper_defaults();
        let mut s = shard(2, ServiceBackend::analytic(table));
        assert_eq!(s.backlog_cycles(), 0.0);
        let stream = jobs(&[(0, 1024, 100_000), (0, 2048, 100_000)]);
        s.offer(stream[0]).unwrap();
        let after_one = s.backlog_cycles();
        assert!(after_one > 0.0);
        s.offer(stream[1]).unwrap();
        assert!(s.backlog_cycles() > after_one);
        s.drain().expect("drain");
        assert!(
            s.backlog_cycles().abs() < 1e-9,
            "drained shard owes nothing"
        );
        assert!(s.busy_cluster_cycles() > 0);
    }

    #[test]
    fn cosimulated_shard_redispatches_on_corruption() {
        let mut offloader =
            mpsoc_offload::Offloader::new(mpsoc_soc::SocConfig::with_clusters(4)).expect("soc");
        let mut plan = mpsoc_soc::FaultPlan::with_seed(31);
        plan.dma_corrupt = mpsoc_soc::SiteSpec::once_at(0);
        offloader.install_faults(plan);
        let mut s = shard(4, ServiceBackend::co_simulated(offloader, 0xBEEF));
        let stream = jobs(&[(0, 1024, 100_000)]);
        s.offer(stream[0]).unwrap();
        s.drain().expect("drain");
        let records = s.drain_finished();
        assert_eq!(records.len(), 1);
        assert_eq!(
            records[0].retries, 1,
            "corruption must cost one re-dispatch"
        );
        assert!(records[0].faults_observed >= 1);
        assert!(matches!(records[0].outcome, JobOutcome::Offloaded { .. }));
        // Hysteresis: one transient corruption is below the strike
        // threshold — the cluster survives.
        assert!(
            s.quarantined().is_empty(),
            "a single transient must not quarantine anything"
        );
        assert!(s.drain_quarantine_events().is_empty());
    }

    #[test]
    fn persistent_corruption_auto_quarantines_mid_stream() {
        // Every DMA burst corrupts: each tenant burns its full retry
        // budget (4 corrupt completions = 4 strikes on its cluster), so
        // each busy cluster crosses the 3-strike threshold and is
        // quarantined mid-stream with no explicit `quarantine` call.
        // The queued fifth job is stranded on a fully dead machine and
        // must resolve as a typed degraded rejection.
        let mut offloader =
            mpsoc_offload::Offloader::new(mpsoc_soc::SocConfig::with_clusters(4)).expect("soc");
        let mut plan = mpsoc_soc::FaultPlan::with_seed(7);
        plan.dma_corrupt = mpsoc_soc::SiteSpec::rate(1.0);
        offloader.install_faults(plan);
        let mut s = shard(4, ServiceBackend::co_simulated(offloader, 0xBEEF));
        let stream = jobs(&[(0, 1024, 100_000); 5]);
        for job in &stream {
            s.offer(*job).expect("offer");
        }
        s.drain()
            .expect("drain resolves the stranded job, not stalls");
        assert_eq!(s.healthy_clusters(), 0, "all four clusters condemned");
        let events = s.drain_quarantine_events();
        assert_eq!(events.len(), 4);
        assert!(events.iter().all(|e| e.strikes >= 3 && e.at > 0));
        let mut records = s.drain_finished();
        records.sort_by_key(|r| r.job.id);
        assert_eq!(records.len(), 5);
        let offloaded = records
            .iter()
            .filter(|r| matches!(r.outcome, JobOutcome::Offloaded { .. }))
            .count();
        assert_eq!(offloaded, 4, "in-flight tenants still complete");
        match records[4].outcome {
            JobOutcome::Rejected {
                reason: RejectReason::DegradedMachine { healthy, .. },
            } => assert_eq!(healthy, 0),
            other => panic!("expected a degraded rejection, got {other:?}"),
        }
    }

    #[test]
    fn disabled_auto_quarantine_leaves_the_pool_intact() {
        let mut offloader =
            mpsoc_offload::Offloader::new(mpsoc_soc::SocConfig::with_clusters(4)).expect("soc");
        let mut plan = mpsoc_soc::FaultPlan::with_seed(7);
        plan.dma_corrupt = mpsoc_soc::SiteSpec::rate(1.0);
        offloader.install_faults(plan);
        let mut s = shard(4, ServiceBackend::co_simulated(offloader, 0xBEEF));
        s.set_auto_quarantine(None);
        let stream = jobs(&[(0, 1024, 100_000); 5]);
        for job in &stream {
            s.offer(*job).expect("offer");
        }
        s.drain().expect("drain");
        assert_eq!(s.healthy_clusters(), 4);
        assert!(s.drain_quarantine_events().is_empty());
        assert_eq!(s.drain_finished().len(), 5, "every job still resolves");
    }

    #[test]
    fn shard_quarantine_invalidates_measured_and_cost_memos() {
        // Satellite fix: `ShardSim::quarantine` must drop the measured
        // solo-run cache and the cost gate's memos exactly like
        // `Engine::quarantine`, or a degraded shard admits on stale
        // t̂(M, N) and stale static bounds.
        let offloader =
            mpsoc_offload::Offloader::new(mpsoc_soc::SocConfig::with_clusters(4)).expect("soc");
        let mut s = shard(4, ServiceBackend::measured(offloader, 0xBEEF));
        s.enable_cost(CostGate::new(mpsoc_soc::SocConfig::with_clusters(4)));
        let stream = jobs(&[(0, 1024, 100_000)]);
        s.offer(stream[0]).unwrap();
        s.drain().expect("drain");
        let cache_len = |b: &ServiceBackend| match b {
            ServiceBackend::Measured { offload_cache, .. } => offload_cache.len(),
            _ => unreachable!(),
        };
        assert!(cache_len(&s.backend) > 0, "the run populated the cache");
        s.quarantine(ClusterMask::single(3));
        assert_eq!(cache_len(&s.backend), 0, "measured cache must drop");
        assert_eq!(
            s.cost_gate.as_ref().map(|g| g.effective_clusters()),
            Some(3),
            "cost gate must re-bound to the surviving pool"
        );
        let events = s.drain_quarantine_events();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].cluster, 3);
        assert_eq!(events[0].strikes, 0, "manual quarantine carries no strikes");
    }

    #[test]
    fn a_cluster_quarantined_while_busy_is_withheld_at_release() {
        let table = ModelTable::paper_defaults();
        let mut s = shard(2, ServiceBackend::analytic(table));
        let stream = jobs(&[(0, 1024, 100_000)]);
        s.offer(stream[0]).unwrap();
        assert_eq!(s.free_clusters(), 1, "the job holds cluster 0");
        s.quarantine(ClusterMask::single(0));
        assert_eq!(s.free_clusters(), 1, "a busy cluster stays carved");
        s.drain().expect("drain");
        assert_eq!(s.free_clusters(), 1, "release withholds cluster 0");
        assert_eq!(s.healthy_clusters(), 1);
        assert_eq!(s.completed_jobs(), 1);
    }

    #[test]
    fn eviction_unwedges_a_degraded_fifo_queue() {
        // A 2-cluster shard: a narrow filler runs on cluster 0, then a
        // deadline that only 2 clusters can meet queues an m_min=2 job.
        // Quarantining the free cluster makes that queued job
        // unservable — under strict FIFO it would wedge the queue head
        // until drain. `evict_unservable` must surgically remove it
        // (restoring the backlog ledger), leave servable work alone,
        // and `reject_evicted` must resolve it as a typed degraded
        // rejection.
        let table = ModelTable::paper_defaults();
        let t1 = table.get(KernelId::Daxpy).accel.predict(1, 16_384);
        let t2 = table.get(KernelId::Daxpy).accel.predict(2, 16_384);
        let deadline = (t2.ceil() as u64 + t1.floor() as u64) / 2;
        let mut s = shard(2, ServiceBackend::analytic(table));
        let stream = jobs(&[(0, 4096, 1_000_000), (0, 16_384, deadline)]);
        assert!(matches!(
            s.offer(stream[0]).unwrap(),
            ShardDecision::Queued { m_min: 1, .. }
        ));
        assert!(matches!(
            s.offer(stream[1]).unwrap(),
            ShardDecision::Queued { m_min: 2, .. }
        ));
        assert_eq!(s.queue_depth(), 1, "the wide job waits for both clusters");
        let backlog_before = s.backlog_cycles();

        s.quarantine(ClusterMask::single(1));
        let mut evicted = s.evict_unservable();
        assert_eq!(evicted.len(), 1);
        assert_eq!(evicted[0].job.id, 1);
        assert_eq!(evicted[0].m_min, 2);
        assert_eq!(s.queue_depth(), 0);
        assert!(
            s.backlog_cycles() < backlog_before,
            "eviction must return the job's cycles to the ledger"
        );
        assert!(
            s.evict_unservable().is_empty(),
            "eviction is idempotent once the queue fits the pool"
        );

        s.reject_evicted(evicted.pop().expect("evicted job"));
        s.drain().expect("drain");
        let mut records = s.drain_finished();
        records.sort_by_key(|r| r.job.id);
        assert_eq!(records.len(), 2);
        assert!(
            matches!(records[0].outcome, JobOutcome::Offloaded { m: 1, .. }),
            "the narrow tenant on the surviving cluster is untouched"
        );
        match records[1].outcome {
            JobOutcome::Rejected {
                reason: RejectReason::DegradedMachine { required, healthy },
            } => {
                assert_eq!(required, 2);
                assert_eq!(healthy, 1);
            }
            other => panic!("expected a degraded rejection, got {other:?}"),
        }
    }
}
