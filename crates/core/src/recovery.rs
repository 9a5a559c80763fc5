//! Self-healing offload: host watchdog, bounded re-dispatch with
//! exponential backoff, per-cluster fault attribution and quarantine.
//!
//! The recovery loop acts **only on architecturally observable
//! signals** — a completion that never arrives before the watchdog
//! budget expires, a DMA engine's CRC flag on a delivered completion,
//! per-cluster completion state — never on the fault injector's ground
//! truth log, so the same policy would work on real silicon.
//!
//! The watchdog budget is derived from the paper's Eq. 1 runtime model:
//! `budget = ⌈margin × t̂(M, N)⌉` with `t̂(M, N) = c₀ + c_mem·N +
//! c_comp·N/M`, so it scales with the job instead of being a magic
//! constant. Clusters repeatedly implicated in lost or corrupted
//! completions accumulate *strikes*; at the strike limit they are
//! quarantined and the job is re-planned on the surviving mask
//! ([`ClusterMask::without`]), falling back to host execution (or a
//! typed [`OffloadError::DegradedInfeasible`]) when the degraded
//! machine can no longer run it — the Eq. 3 decision on the survivors.
//!
//! Strikes, the quarantine threshold, the quarantined set and the log
//! of quarantine decisions live in one per-machine ledger, the
//! [`StrikeBoard`]. [`Offloader::offload_resilient`] keeps one per
//! offloader; the scheduler keeps one per shard and feeds it the CRC
//! flags of co-simulated completions. Both bound re-dispatch by the
//! same [`MAX_RETRIES`].

use mpsoc_kernels::Kernel;
use mpsoc_noc::ClusterMask;
use mpsoc_sim::Cycle;
use mpsoc_soc::{EventKind, FaultPlan};
use serde::{Deserialize, Serialize};

use crate::decision::{decide, Decision};
use crate::model::RuntimeModel;
use crate::runtime::{OffloadResult, OffloadRun, Offloader, SessionStep};
use crate::verify::VerifyReport;
use crate::{OffloadError, OffloadStrategy};

/// Tunables of the self-healing offload path.
#[derive(Debug, Clone)]
pub struct RecoveryPolicy {
    /// Watchdog budget multiplier over the Eq. 1 prediction: the host
    /// declares a dispatch lost after `⌈margin × t̂(M, N)⌉` cycles.
    pub margin: f64,
    /// Re-dispatch attempts after the initial one.
    pub max_retries: u32,
    /// Base of the exponential backoff: attempt `k` waits
    /// `backoff_base << k` cycles before re-dispatching.
    pub backoff_base: u64,
    /// Fault implications a cluster survives before quarantine.
    pub strike_limit: u32,
    /// The Eq. 1 model the watchdog budget is derived from.
    pub model: RuntimeModel,
    /// Run the kernel on the host when no healthy clusters remain (or
    /// the retry budget is exhausted); when `false` those cases return
    /// typed errors instead.
    pub host_fallback: bool,
    /// Optional deadline in cycles: when set, each re-plan runs the
    /// Eq. 3 decision on the surviving cluster count and treats
    /// `Infeasible` / `NotEnoughClusters` as degraded-machine failure.
    pub deadline: Option<u64>,
}

impl Default for RecoveryPolicy {
    fn default() -> Self {
        RecoveryPolicy {
            margin: 4.0,
            max_retries: MAX_RETRIES,
            backoff_base: 64,
            strike_limit: 2,
            model: RuntimeModel::paper(),
            host_fallback: true,
            deadline: None,
        }
    }
}

impl RecoveryPolicy {
    /// The watchdog budget for an `m`-cluster dispatch of an
    /// `n`-element job: `⌈margin × t̂(m, n)⌉`.
    pub fn watchdog_budget(&self, m: usize, n: u64) -> u64 {
        (self.margin * self.model.predict(m as u64, n)).ceil() as u64
    }
}

/// Re-dispatch attempts after the initial one: the default of
/// [`RecoveryPolicy::max_retries`] and the scheduler's bound on
/// re-dispatching a co-simulated tenant whose completion was flagged
/// corrupt.
pub const MAX_RETRIES: u32 = 3;

/// Strikes against one cluster before a scheduler's ledger quarantines
/// it. Three strikes: the first corruption is absorbed as a transient
/// by re-dispatch, the second is suspicious, the third condemns the
/// cluster.
pub const AUTO_QUARANTINE_STRIKES: u32 = 3;

/// One quarantine decision: which cluster was retired, when, and on how
/// much evidence.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct QuarantineEvent {
    /// Virtual cycle the quarantine took effect.
    pub at: u64,
    /// The cluster retired from the pool.
    pub cluster: usize,
    /// Strikes accumulated when the decision fired (0 for a manual
    /// quarantine of a cluster never implicated).
    pub strikes: u32,
}

/// The per-machine recovery ledger: strike counts, the quarantine
/// threshold, the quarantined set and the log of quarantine decisions.
///
/// One observable fault signal is weak evidence — transients exist and
/// re-dispatch absorbs them — but the *same* cluster implicated again
/// and again is a hardware diagnosis. [`StrikeBoard::record`] turns
/// implicated-cluster masks into quarantine decisions with hysteresis:
/// a cluster is condemned only once its strikes reach the threshold.
/// Every decision, automatic or manual, is logged as a typed
/// [`QuarantineEvent`], so callers see *when* and *why* capacity left
/// the pool. Each cluster is retired at most once, so the log holds at
/// most one event per cluster.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StrikeBoard {
    clusters: usize,
    threshold: Option<u32>,
    /// Per-cluster counters, allocated on the first strike: a machine
    /// that never faults never pays for them.
    strikes: Vec<u32>,
    quarantined: ClusterMask,
    events: Vec<QuarantineEvent>,
}

impl StrikeBoard {
    /// A ledger over `clusters` clusters with the default threshold
    /// [`AUTO_QUARANTINE_STRIKES`].
    pub fn new(clusters: usize) -> Self {
        StrikeBoard::with_threshold(clusters, Some(AUTO_QUARANTINE_STRIKES))
    }

    /// A ledger with an explicit threshold; `None` disables automatic
    /// quarantine (strikes still accumulate and stay observable).
    pub fn with_threshold(clusters: usize, threshold: Option<u32>) -> Self {
        StrikeBoard {
            clusters,
            threshold,
            ..StrikeBoard::default()
        }
    }

    /// Changes the threshold for subsequent [`StrikeBoard::record`]
    /// calls. Lowering it below an already-accumulated count fires on
    /// the *next* strike, not retroactively.
    pub fn set_threshold(&mut self, threshold: Option<u32>) {
        self.threshold = threshold;
    }

    /// Strikes accumulated against `cluster` so far.
    pub fn strikes(&self, cluster: usize) -> u32 {
        self.strikes.get(cluster).copied().unwrap_or(0)
    }

    /// The clusters quarantined so far.
    pub fn quarantined(&self) -> ClusterMask {
        self.quarantined
    }

    /// Every cluster of the machine minus the quarantined set.
    pub fn healthy(&self) -> ClusterMask {
        ClusterMask::first(self.clusters).without(self.quarantined)
    }

    /// Charges one strike to every cluster in `implicated` that is not
    /// already quarantined (a retired cluster's partition may still be
    /// draining; it earns nothing more). The clusters whose strikes
    /// reach the threshold are quarantined at cycle `at` and returned.
    pub fn record(&mut self, implicated: ClusterMask, at: u64) -> ClusterMask {
        let mut fire = ClusterMask::EMPTY;
        self.strikes.resize(self.clusters, 0);
        for cluster in implicated.intersection(self.healthy()).iter() {
            self.strikes[cluster] += 1;
            if self.threshold.is_some_and(|t| self.strikes[cluster] >= t) {
                fire.insert(cluster);
            }
        }
        self.quarantine(fire, at)
    }

    /// Quarantines `mask` at cycle `at` (an external decision, or a
    /// threshold crossing). Bits outside the machine and clusters
    /// already quarantined are ignored; each newly retired cluster is
    /// logged. Returns the newly retired clusters.
    pub fn quarantine(&mut self, mask: ClusterMask, at: u64) -> ClusterMask {
        let retired = mask.intersection(self.healthy());
        self.quarantined = self.quarantined.union(retired);
        for cluster in retired.iter() {
            let strikes = self.strikes(cluster);
            self.events.push(QuarantineEvent {
                at,
                cluster,
                strikes,
            });
        }
        retired
    }

    /// The quarantine decisions logged and not yet drained, in firing
    /// order.
    pub fn events(&self) -> &[QuarantineEvent] {
        &self.events
    }

    /// Takes the quarantine decisions logged since the last drain, in
    /// firing order.
    pub fn drain_events(&mut self) -> Vec<QuarantineEvent> {
        std::mem::take(&mut self.events)
    }
}

/// How one dispatch attempt ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AttemptOutcome {
    /// The job completed with no corruption flag: verified-correct.
    Success,
    /// The job completed but a DMA CRC flagged corrupted data.
    CorruptData,
    /// The watchdog budget expired with the job still in flight.
    WatchdogTimeout,
    /// The SoC went idle without delivering the completion (a wedged
    /// barrier or a cluster that never woke).
    LostCompletion,
}

/// One dispatch attempt of a resilient offload.
#[derive(Debug, Clone)]
pub struct AttemptRecord {
    /// Attempt index (0 = initial dispatch).
    pub attempt: u32,
    /// The cluster mask dispatched to.
    pub mask: ClusterMask,
    /// Watchdog budget in cycles for this attempt.
    pub watchdog_budget: u64,
    /// Cycles this attempt consumed (runtime on success/corruption,
    /// the full watchdog budget on a timeout or lost completion).
    pub spent_cycles: u64,
    /// Backoff charged before the next attempt (0 on the last).
    pub backoff_cycles: u64,
    /// How the attempt ended.
    pub outcome: AttemptOutcome,
    /// Clusters implicated by observable attribution this attempt.
    pub implicated: Vec<usize>,
}

/// Where a resilient offload's verified result came from.
#[derive(Debug, Clone)]
pub enum RecoveredResult {
    /// A (possibly re-dispatched) accelerator run succeeded.
    Offloaded(Box<OffloadRun>),
    /// The host fallback computed the result.
    Host {
        /// Host execution cycles.
        cycles: u64,
        /// The computed result.
        result: OffloadResult,
    },
}

impl RecoveredResult {
    /// The computed result, wherever it ran.
    pub fn result(&self) -> &OffloadResult {
        match self {
            RecoveredResult::Offloaded(run) => &run.result,
            RecoveredResult::Host { result, .. } => result,
        }
    }

    /// Verifies the result against the kernel's golden reference.
    pub fn verify(&self, kernel: &dyn Kernel, x: &[f64], y: &[f64]) -> VerifyReport {
        self.result().verify(kernel, x, y)
    }
}

/// The outcome of [`Offloader::offload_resilient`]: the verified result
/// plus the full recovery story.
#[derive(Debug, Clone)]
pub struct ResilientReport {
    /// The result and where it ran.
    pub result: RecoveredResult,
    /// Every dispatch attempt, in order.
    pub attempts: Vec<AttemptRecord>,
    /// End-to-end accounted cycles: successful runtime plus every
    /// failed attempt's watchdog budget and backoff (and the host
    /// fallback's cycles, if taken).
    pub total_cycles: u64,
    /// The offloader's quarantine set after this call.
    pub quarantined: ClusterMask,
}

impl ResilientReport {
    /// `true` when recovery machinery was exercised (anything beyond a
    /// clean first-attempt accelerator completion).
    pub fn recovered(&self) -> bool {
        self.attempts.len() > 1 || matches!(self.result, RecoveredResult::Host { .. })
    }
}

impl Offloader {
    /// Installs a fault-injection plan into the underlying SoC (see
    /// [`mpsoc_soc::Soc::install_faults`]); [`FaultPlan::none`] restores
    /// fault-free operation.
    pub fn install_faults(&mut self, plan: FaultPlan) {
        self.soc_mut().install_faults(plan);
    }

    /// Clusters currently quarantined by the self-healing path.
    pub fn quarantined(&self) -> ClusterMask {
        self.ledger.quarantined()
    }

    /// Fault-implication strikes recorded against `cluster`.
    pub fn strike_count(&self, cluster: usize) -> u32 {
        self.ledger.strikes(cluster)
    }

    /// Adds `mask` to the quarantine set (an external policy decision,
    /// e.g. a scheduler retiring clusters after its own diagnosis).
    pub fn quarantine(&mut self, mask: ClusterMask) {
        let now = self.session_now().as_u64();
        self.ledger.quarantine(mask, now);
    }

    /// The healthy dispatch pool: every cluster of the machine minus
    /// the quarantine set.
    pub fn healthy_mask(&self) -> ClusterMask {
        self.ledger.healthy()
    }

    /// Offloads `kernel` with the full self-healing protocol: watchdog,
    /// bounded re-dispatch with exponential backoff, strike-based
    /// quarantine and re-planning on the surviving mask.
    ///
    /// Every attempt runs in a fresh session ([`Offloader::begin_jobs`]
    /// is the abort mechanism), so a wedged attempt cannot leak state
    /// into its retry; fault-site occurrence counters persist across
    /// sessions, so transient faults stay transient.
    ///
    /// # Errors
    ///
    /// - [`OffloadError::RetriesExhausted`] when `max_retries` re-plans
    ///   all fail and host fallback is disabled,
    /// - [`OffloadError::DegradedInfeasible`] when quarantine leaves no
    ///   viable machine (or the Eq. 3 deadline check fails) and host
    ///   fallback is disabled,
    /// - plus everything [`Offloader::offload_to`] can return.
    pub fn offload_resilient(
        &mut self,
        kernel: &dyn Kernel,
        x: &[f64],
        y: &[f64],
        m: usize,
        strategy: OffloadStrategy,
        policy: &RecoveryPolicy,
    ) -> Result<ResilientReport, OffloadError> {
        if m == 0 {
            return Err(OffloadError::NoClusters);
        }
        let n = y.len() as u64;
        let mut attempts: Vec<AttemptRecord> = Vec::new();
        let mut accounted: u64 = 0;
        self.ledger.set_threshold(Some(policy.strike_limit));

        for attempt in 0..=policy.max_retries {
            // Re-plan on the surviving machine.
            let healthy = self.healthy_mask();
            let m_eff = m.min(healthy.count());
            if m_eff == 0 {
                return self.finish_degraded(kernel, x, y, policy, attempts, accounted);
            }
            if let Some(t_max) = policy.deadline {
                match decide(&policy.model, n, t_max as f64, healthy.count() as u64) {
                    Decision::Offload { .. } => {}
                    Decision::Infeasible | Decision::NotEnoughClusters { .. } => {
                        return self.finish_degraded(kernel, x, y, policy, attempts, accounted);
                    }
                }
            }
            let mask: ClusterMask = healthy.iter().take(m_eff).collect();
            let budget = policy.watchdog_budget(m_eff, n);

            self.begin_jobs();
            let job = self.submit_at(kernel, x, y, mask, strategy, Cycle::ZERO)?;
            let step = self.advance_jobs(Cycle::new(budget))?;

            let (outcome, spent, implicated) = match step {
                SessionStep::Completed(t) => {
                    let spent = t.run.cycles();
                    if t.corrupt_clusters == 0 {
                        accounted += spent;
                        attempts.push(AttemptRecord {
                            attempt,
                            mask,
                            watchdog_budget: budget,
                            spent_cycles: spent,
                            backoff_cycles: 0,
                            outcome: AttemptOutcome::Success,
                            implicated: Vec::new(),
                        });
                        return Ok(ResilientReport {
                            result: RecoveredResult::Offloaded(Box::new(t.run)),
                            attempts,
                            total_cycles: accounted,
                            quarantined: self.quarantined(),
                        });
                    }
                    // The CRC flag names the corrupting clusters.
                    let implicated = mask.intersection(ClusterMask::from_bits(t.corrupt_clusters));
                    (AttemptOutcome::CorruptData, spent, implicated)
                }
                SessionStep::Horizon | SessionStep::Idle => {
                    // The host only learns of the loss when the watchdog
                    // expires, so the full budget is charged either way.
                    let lost = matches!(step, SessionStep::Idle);
                    self.soc_mut().record_recovery_event(
                        Cycle::new(budget),
                        EventKind::WatchdogFire,
                        job,
                        budget,
                    );
                    // Observable attribution: clusters of the mask that
                    // never posted their completion. A lost *credit*
                    // leaves everyone complete — nobody is implicated
                    // and the retry is plain.
                    let implicated: ClusterMask = mask
                        .iter()
                        .filter(|&c| !self.soc().cluster_completed(c))
                        .collect();
                    let outcome = if lost {
                        AttemptOutcome::LostCompletion
                    } else {
                        AttemptOutcome::WatchdogTimeout
                    };
                    (outcome, budget, implicated)
                }
            };

            // Strikes and quarantine.
            for cluster in self.ledger.record(implicated, budget).iter() {
                self.soc_mut().record_recovery_event(
                    Cycle::new(budget),
                    EventKind::Quarantine,
                    job,
                    cluster as u64,
                );
            }

            let last = attempt == policy.max_retries;
            let backoff = if last {
                0
            } else {
                policy.backoff_base << attempt
            };
            accounted += spent + backoff;
            attempts.push(AttemptRecord {
                attempt,
                mask,
                watchdog_budget: budget,
                spent_cycles: spent,
                backoff_cycles: backoff,
                outcome,
                implicated: implicated.iter().collect(),
            });
            if !last {
                self.soc_mut().record_recovery_event(
                    Cycle::new(budget + backoff),
                    EventKind::Redispatch,
                    job,
                    u64::from(attempt) + 1,
                );
            }
        }

        if policy.host_fallback {
            return self.finish_on_host(kernel, x, y, attempts, accounted);
        }
        Err(OffloadError::RetriesExhausted {
            attempts: policy.max_retries + 1,
        })
    }

    /// Degraded-machine exit: host fallback when allowed, typed error
    /// otherwise.
    fn finish_degraded(
        &mut self,
        kernel: &dyn Kernel,
        x: &[f64],
        y: &[f64],
        policy: &RecoveryPolicy,
        attempts: Vec<AttemptRecord>,
        accounted: u64,
    ) -> Result<ResilientReport, OffloadError> {
        if policy.host_fallback {
            return self.finish_on_host(kernel, x, y, attempts, accounted);
        }
        Err(OffloadError::DegradedInfeasible {
            available: self.healthy_mask().count(),
        })
    }

    fn finish_on_host(
        &mut self,
        kernel: &dyn Kernel,
        x: &[f64],
        y: &[f64],
        attempts: Vec<AttemptRecord>,
        accounted: u64,
    ) -> Result<ResilientReport, OffloadError> {
        let (cycles, result) = self.run_on_host(kernel, x, y)?;
        Ok(ResilientReport {
            result: RecoveredResult::Host { cycles, result },
            attempts,
            total_cycles: accounted + cycles,
            quarantined: self.quarantined(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpsoc_kernels::Daxpy;
    use mpsoc_soc::{SiteSpec, SocConfig};

    fn operands(n: usize) -> (Vec<f64>, Vec<f64>) {
        let x: Vec<f64> = (0..n).map(|i| (i % 89) as f64 * 0.5).collect();
        let y: Vec<f64> = (0..n).map(|i| (i % 23) as f64 - 4.0).collect();
        (x, y)
    }

    fn offloader(clusters: usize) -> Offloader {
        Offloader::new(SocConfig::with_clusters(clusters)).unwrap()
    }

    fn bits(bits: u64) -> ClusterMask {
        ClusterMask::from_bits(bits)
    }

    #[test]
    fn hysteresis_needs_threshold_strikes_on_the_same_cluster() {
        let mut board = StrikeBoard::new(4);
        // Two strikes on cluster 0 plus two on cluster 1: four
        // transients machine-wide, but no single cluster reaches three —
        // nothing fires.
        assert!(board.record(bits(0b01), 10).is_empty());
        assert!(board.record(bits(0b10), 20).is_empty());
        assert!(board.record(bits(0b01), 30).is_empty());
        assert!(board.record(bits(0b10), 40).is_empty());
        // The third strike on cluster 0 condemns exactly cluster 0.
        let fire = board.record(bits(0b01), 50);
        assert_eq!(fire, ClusterMask::single(0));
        assert_eq!(board.quarantined(), ClusterMask::single(0));
        assert_eq!(board.strikes(0), 3);
        assert_eq!(board.strikes(1), 2);
        assert_eq!(
            board.drain_events(),
            vec![QuarantineEvent {
                at: 50,
                cluster: 0,
                strikes: 3
            }]
        );
    }

    #[test]
    fn quarantined_clusters_stop_accumulating() {
        let mut board = StrikeBoard::new(2);
        board.quarantine(ClusterMask::single(0), 0);
        for _ in 0..5 {
            assert!(board.record(bits(0b01), 0).is_empty());
        }
        assert_eq!(board.strikes(0), 0, "drained partitions add no strikes");
        assert_eq!(board.events().len(), 1, "retired once, logged once");
    }

    #[test]
    fn disabled_threshold_never_fires_but_still_counts() {
        let mut board = StrikeBoard::with_threshold(2, None);
        for _ in 0..10 {
            assert!(board.record(bits(0b11), 0).is_empty());
        }
        assert_eq!(board.strikes(1), 10);
        assert!(board.quarantined().is_empty());
    }

    #[test]
    fn one_record_can_condemn_several_clusters() {
        let mut board = StrikeBoard::with_threshold(4, Some(1));
        let fire = board.record(bits(0b0110), 7);
        assert_eq!(fire.iter().collect::<Vec<_>>(), vec![1, 2]);
        assert_eq!(board.healthy(), bits(0b1001));
    }

    #[test]
    fn manual_quarantine_is_idempotent_and_clips_to_the_machine() {
        let mut board = StrikeBoard::new(4);
        let mut mask = ClusterMask::first(1);
        mask.insert(63); // outside the machine: ignored
        assert_eq!(board.quarantine(mask, 5), ClusterMask::first(1));
        assert!(board.quarantine(mask, 6).is_empty());
        assert_eq!(board.quarantined(), ClusterMask::first(1));
        assert_eq!(board.healthy().count(), 3);
        assert_eq!(
            board.events(),
            &[QuarantineEvent {
                at: 5,
                cluster: 0,
                strikes: 0
            }]
        );
    }

    #[test]
    fn fault_free_resilient_offload_is_a_plain_offload() {
        let kernel = Daxpy::new(2.0);
        let (x, y) = operands(512);
        let mut plain = offloader(4);
        let want = plain
            .offload(&kernel, &x, &y, 4, OffloadStrategy::extended())
            .unwrap();

        let mut off = offloader(4);
        let report = off
            .offload_resilient(
                &kernel,
                &x,
                &y,
                4,
                OffloadStrategy::extended(),
                &RecoveryPolicy::default(),
            )
            .unwrap();
        assert!(!report.recovered());
        assert_eq!(report.attempts.len(), 1);
        assert_eq!(report.attempts[0].outcome, AttemptOutcome::Success);
        match &report.result {
            RecoveredResult::Offloaded(run) => {
                assert_eq!(run.cycles(), want.cycles());
                assert_eq!(run.result, want.result);
            }
            other => panic!("expected an offloaded result, got {other:?}"),
        }
        assert_eq!(report.total_cycles, want.cycles());
        assert!(report.quarantined.is_empty());
    }

    #[test]
    fn single_transient_credit_loss_recovers_on_retry() {
        let kernel = Daxpy::new(1.5);
        let (x, y) = operands(256);
        let mut off = offloader(4);
        let mut plan = FaultPlan::with_seed(7);
        plan.credit_loss = SiteSpec::once_at(0);
        off.install_faults(plan);

        let report = off
            .offload_resilient(
                &kernel,
                &x,
                &y,
                4,
                OffloadStrategy::extended(),
                &RecoveryPolicy::default(),
            )
            .unwrap();
        assert!(report.recovered());
        assert_eq!(report.attempts.len(), 2);
        assert_eq!(report.attempts[0].outcome, AttemptOutcome::LostCompletion);
        // A lost credit leaves every cluster complete: nobody is
        // implicated, no strikes, no quarantine.
        assert!(report.attempts[0].implicated.is_empty());
        assert_eq!(report.attempts[1].outcome, AttemptOutcome::Success);
        assert!(report.quarantined.is_empty());
        assert!(report.result.verify(&kernel, &x, &y).passed());
        assert!(report.total_cycles > report.attempts[1].spent_cycles);
    }

    #[test]
    fn single_transient_corruption_recovers_and_flags_the_culprit() {
        let kernel = Daxpy::new(3.0);
        let (x, y) = operands(256);
        let mut off = offloader(4);
        let mut plan = FaultPlan::with_seed(11);
        plan.dma_corrupt = SiteSpec::once_at(0);
        off.install_faults(plan);

        let report = off
            .offload_resilient(
                &kernel,
                &x,
                &y,
                4,
                OffloadStrategy::extended(),
                &RecoveryPolicy::default(),
            )
            .unwrap();
        assert_eq!(report.attempts.len(), 2);
        assert_eq!(report.attempts[0].outcome, AttemptOutcome::CorruptData);
        assert_eq!(report.attempts[0].implicated.len(), 1);
        assert_eq!(report.attempts[1].outcome, AttemptOutcome::Success);
        assert!(report.result.verify(&kernel, &x, &y).passed());
    }

    #[test]
    fn dead_cluster_is_quarantined_and_the_job_replans_around_it() {
        let kernel = Daxpy::new(-1.0);
        let (x, y) = operands(512);
        let mut off = offloader(4);
        let mut plan = FaultPlan::with_seed(3);
        plan.dead_clusters = 1 << 2;
        off.install_faults(plan);

        let policy = RecoveryPolicy {
            strike_limit: 2,
            max_retries: 4,
            ..RecoveryPolicy::default()
        };
        let report = off
            .offload_resilient(&kernel, &x, &y, 4, OffloadStrategy::extended(), &policy)
            .unwrap();
        assert!(report.result.verify(&kernel, &x, &y).passed());
        // Cluster 2 was implicated on each failed attempt until its
        // strikes hit the limit, then the re-plan excluded it.
        assert!(report.quarantined.contains(2));
        assert_eq!(report.quarantined.count(), 1);
        let last = report.attempts.last().unwrap();
        assert_eq!(last.outcome, AttemptOutcome::Success);
        assert!(!last.mask.contains(2));
        assert_eq!(last.mask.count(), 3, "shrunk M on the surviving mask");
        for failed in &report.attempts[..report.attempts.len() - 1] {
            assert_eq!(failed.implicated, vec![2]);
        }
        assert_eq!(off.strike_count(2), policy.strike_limit);

        // The quarantine is sticky: a fresh offload never dispatches to
        // the dead cluster and succeeds first try.
        let again = off
            .offload_resilient(&kernel, &x, &y, 4, OffloadStrategy::extended(), &policy)
            .unwrap();
        assert!(!again.recovered());
        assert!(!again.attempts[0].mask.contains(2));
    }

    #[test]
    fn fully_dead_machine_falls_back_to_the_host() {
        let kernel = Daxpy::new(0.5);
        let (x, y) = operands(128);
        let mut off = offloader(2);
        let mut plan = FaultPlan::with_seed(5);
        plan.dead_clusters = 0b11;
        off.install_faults(plan);

        let policy = RecoveryPolicy {
            strike_limit: 1,
            max_retries: MAX_RETRIES,
            ..RecoveryPolicy::default()
        };
        let report = off
            .offload_resilient(&kernel, &x, &y, 2, OffloadStrategy::extended(), &policy)
            .unwrap();
        assert!(matches!(report.result, RecoveredResult::Host { .. }));
        assert!(report.result.verify(&kernel, &x, &y).passed());
        assert_eq!(report.quarantined.count(), 2);

        // With fallback disabled the same situation is a typed error.
        let mut strict = offloader(2);
        let mut plan = FaultPlan::with_seed(5);
        plan.dead_clusters = 0b11;
        strict.install_faults(plan);
        let err = strict
            .offload_resilient(
                &kernel,
                &x,
                &y,
                2,
                OffloadStrategy::extended(),
                &RecoveryPolicy {
                    host_fallback: false,
                    ..policy
                },
            )
            .unwrap_err();
        assert!(matches!(err, OffloadError::DegradedInfeasible { .. }));
    }

    #[test]
    fn deadline_infeasible_on_degraded_machine_is_typed() {
        let kernel = Daxpy::new(1.0);
        let (x, y) = operands(1024);
        let mut off = offloader(8);
        let mut plan = FaultPlan::with_seed(9);
        plan.dead_clusters = 0b1111_1110; // only cluster 0 survives
        off.install_faults(plan);
        let policy = RecoveryPolicy {
            strike_limit: 1,
            max_retries: 7,
            host_fallback: false,
            // Feasible on 8 clusters, infeasible on 1 (Eq. 3).
            deadline: Some(RuntimeModel::paper().predict(4, 1024).ceil() as u64),
            ..RecoveryPolicy::default()
        };
        let err = off
            .offload_resilient(&kernel, &x, &y, 8, OffloadStrategy::extended(), &policy)
            .unwrap_err();
        assert!(matches!(err, OffloadError::DegradedInfeasible { .. }));
    }

    #[test]
    fn every_fault_kind_ends_in_success_or_typed_error() {
        let kernel = Daxpy::new(2.5);
        let (x, y) = operands(256);
        for kind_idx in 0..mpsoc_soc::FaultKind::SITES.len() {
            let kind = mpsoc_soc::FaultKind::SITES[kind_idx];
            let mut off = offloader(4);
            let mut plan = FaultPlan::with_seed(13 + kind_idx as u64);
            *match kind {
                mpsoc_soc::FaultKind::DispatchDrop => &mut plan.dispatch_drop,
                mpsoc_soc::FaultKind::DispatchDup => &mut plan.dispatch_dup,
                mpsoc_soc::FaultKind::WakeLoss => &mut plan.wake_loss,
                mpsoc_soc::FaultKind::CreditLoss => &mut plan.credit_loss,
                mpsoc_soc::FaultKind::DmaCorrupt => &mut plan.dma_corrupt,
                mpsoc_soc::FaultKind::DmaStall => &mut plan.dma_stall,
                mpsoc_soc::FaultKind::AmoDrop => &mut plan.amo_drop,
                _ => unreachable!("SITES holds only per-occurrence sites"),
            } = SiteSpec::once_at(0);
            plan.dma_stall_cycles = 400;
            off.install_faults(plan);
            let report = off
                .offload_resilient(
                    &kernel,
                    &x,
                    &y,
                    4,
                    OffloadStrategy::extended(),
                    &RecoveryPolicy::default(),
                )
                .unwrap_or_else(|e| panic!("{kind}: {e}"));
            assert!(
                report.result.verify(&kernel, &x, &y).passed(),
                "{kind}: wrong result"
            );
        }
    }
}
