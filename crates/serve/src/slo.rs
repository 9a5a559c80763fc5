//! Fleet SLO accounting: one serializable summary per (fleet, run).
//!
//! The serving SLO here is latency-against-deadline: a job *attains* its
//! SLO when it completes by its submission-relative deadline. Rejected
//! jobs (admission or backpressure) count against attainment — turning
//! work away is a served "no", not a free pass.
//!
//! [`FleetSlo::from_fleet`] reads the fleet's per-shard
//! [`StatsRegistry`](mpsoc_sim::stats::StatsRegistry)s and nothing else
//! that grows with the jobs served: totals are sums over shards,
//! `deadline_met` is completions minus the `serve.deadline_missed`
//! counter, and `makespan` is the running max the fleet keeps. Fleet
//! quantiles come from the exact merge of the per-shard log-bucketed
//! histograms, so fleet p50/p99 carry the same 1/16 relative-error bound
//! as any single shard's. A summary, and so every `GetStats` poll, costs
//! O(shards).

use serde::{Deserialize, Serialize};

use crate::fleet::{Fleet, ShardState};
use mpsoc_sim::stats::{Histogram, Summary};

/// Per-shard slice of the fleet summary.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ShardSlo {
    /// Shard index.
    pub shard: u32,
    /// Jobs this shard accepted (offload or host).
    pub accepted: u64,
    /// Jobs this shard rejected.
    pub rejected: u64,
    /// Rejections specifically from queue-depth backpressure.
    pub queue_full: u64,
    /// Completed cluster offloads.
    pub offloaded: u64,
    /// Completed host-fallback runs.
    pub host_runs: u64,
    /// Queued jobs stolen *from* this shard.
    pub steals_out: u64,
    /// Queued jobs stolen *into* this shard.
    pub steals_in: u64,
    /// Health at summary time (`"healthy"` / `"degraded"` / `"dead"`).
    pub state: String,
    /// Clusters auto-quarantined (or manually retired) on this shard.
    pub quarantined_clusters: u64,
    /// Queued jobs evacuated from this shard after it died.
    pub failovers: u64,
    /// Queue-full rejections redirected *away* from this shard that
    /// found a taker.
    pub redirects: u64,
    /// Median completion latency (cycles; `None` when nothing
    /// completed — `Some(0)` would be indistinguishable from a real
    /// zero-cycle completion).
    pub p50: Option<u64>,
    /// 99th-percentile completion latency (cycles; `None` when nothing
    /// completed).
    pub p99: Option<u64>,
    /// Busy cluster-cycles over capacity × fleet makespan.
    pub utilization: f64,
}

/// The fleet-wide SLO summary of one serving run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FleetSlo {
    /// Placement policy name.
    pub placement: String,
    /// Shard count.
    pub shards: u64,
    /// Clusters per shard.
    pub clusters_per_shard: u64,
    /// Jobs offered to the fleet.
    pub submitted: u64,
    /// Jobs that completed (offload + host).
    pub completed: u64,
    /// Completed cluster offloads.
    pub offloaded: u64,
    /// Completed host-fallback runs.
    pub host_runs: u64,
    /// Jobs rejected (all reasons).
    pub rejected: u64,
    /// Rejections from queue-depth backpressure.
    pub queue_full: u64,
    /// Work-stealing transfers.
    pub steals: u64,
    /// Corruption re-dispatches across the fleet.
    pub retries: u64,
    /// Clusters quarantined across the fleet.
    pub quarantined_clusters: u64,
    /// Shards with every cluster quarantined at summary time.
    pub dead_shards: u64,
    /// Jobs evacuated from dead shards to survivors.
    pub failovers: u64,
    /// Queue-full rejections that found a taker on another shard.
    pub redirects: u64,
    /// Completed jobs that met their deadline.
    pub deadline_met: u64,
    /// `deadline_met / submitted` — rejections count against SLO.
    pub attainment: f64,
    /// Fleet median completion latency (cycles; `None` when nothing
    /// completed anywhere — e.g. every job rejected).
    pub p50: Option<u64>,
    /// Fleet 99th-percentile completion latency (cycles; `None` when
    /// nothing completed anywhere).
    pub p99: Option<u64>,
    /// Mean completion latency (cycles).
    pub mean_latency: f64,
    /// Last completion cycle across the fleet.
    pub makespan: u64,
    /// Per-shard breakdowns.
    pub per_shard: Vec<ShardSlo>,
}

impl FleetSlo {
    /// Summarizes a fleet after (or during) a run. Reads only the
    /// per-shard registries and the fleet's running makespan, so a
    /// summary costs O(shards), not O(jobs served).
    pub fn from_fleet(fleet: &Fleet) -> Self {
        let config = fleet.config();
        let stats = fleet.shard_stats();
        let total = |name: &str| stats.iter().map(|s| s.counter(name)).sum::<u64>();
        let makespan = fleet.makespan();
        let capacity = (config.clusters_per_shard as u64) * makespan;
        // Fleet latency: the shard series merged in shard order. The
        // bucket merge is exact, and the summary fold adds the shard
        // sums in a fixed order, so the mean is bit-stable.
        let mut latency = Histogram::new();
        let mut latency_summary = Summary::new();
        let mut per_shard = Vec::with_capacity(stats.len());
        for (i, reg) in stats.iter().enumerate() {
            let shard_hist = reg.histogram("serve.latency");
            latency.merge(&shard_hist);
            latency_summary.merge(&reg.summary("serve.latency"));
            per_shard.push(ShardSlo {
                shard: i as u32,
                accepted: reg.counter("serve.accepted"),
                rejected: reg.counter("serve.rejected"),
                queue_full: reg.counter("serve.queue_full"),
                offloaded: reg.counter("serve.offloaded"),
                host_runs: reg.counter("serve.host_runs"),
                steals_out: reg.counter("serve.steals_out"),
                steals_in: reg.counter("serve.steals_in"),
                state: fleet.shard_state(i).name().to_owned(),
                quarantined_clusters: reg.counter("serve.health.quarantined_clusters"),
                failovers: reg.counter("serve.health.failovers"),
                redirects: reg.counter("serve.health.redirects"),
                p50: shard_hist.p50(),
                p99: shard_hist.p99(),
                utilization: if capacity == 0 {
                    0.0
                } else {
                    fleet.shard(i).busy_cluster_cycles() as f64 / capacity as f64
                },
            });
        }
        let submitted = fleet.submitted();
        let offloaded = total("serve.offloaded");
        let host_runs = total("serve.host_runs");
        let completed = offloaded + host_runs;
        // Every completion passes through `Fleet::collect`, which counts
        // the ones that missed; rejections never miss.
        let deadline_met = completed - total("serve.deadline_missed");
        FleetSlo {
            placement: config.placement.name().to_owned(),
            shards: config.shards as u64,
            clusters_per_shard: config.clusters_per_shard as u64,
            submitted,
            completed,
            offloaded,
            host_runs,
            rejected: total("serve.rejected"),
            queue_full: total("serve.queue_full"),
            steals: total("serve.steals_in"),
            retries: total("serve.retries"),
            quarantined_clusters: total("serve.health.quarantined_clusters"),
            dead_shards: (0..config.shards)
                .filter(|&i| fleet.shard_state(i) == ShardState::Dead)
                .count() as u64,
            failovers: total("serve.health.failovers"),
            redirects: total("serve.health.redirects"),
            deadline_met,
            attainment: if submitted == 0 {
                1.0
            } else {
                deadline_met as f64 / submitted as f64
            },
            p50: latency.p50(),
            p99: latency.p99(),
            mean_latency: latency_summary.mean().unwrap_or(0.0),
            makespan,
            per_shard,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fleet::{FleetConfig, PlacementPolicy, ALL_PLACEMENTS};
    use mpsoc_noc::ClusterMask;
    use mpsoc_sched::{JobOutcome, KernelId, ModelTable};
    use proptest::prelude::*;

    /// The brute-force reference: `(deadline_met, makespan)` from a scan
    /// over every record the fleet resolved.
    fn scan(fleet: &Fleet) -> (u64, u64) {
        let completions = || {
            fleet
                .completed()
                .iter()
                .filter(|fr| !matches!(fr.record.outcome, JobOutcome::Rejected { .. }))
        };
        let deadline_met = completions()
            .filter(|fr| !fr.record.missed_deadline())
            .count() as u64;
        let makespan = completions()
            .filter_map(|fr| match fr.record.outcome {
                JobOutcome::Offloaded { finish, .. } | JobOutcome::Host { finish, .. } => {
                    Some(finish)
                }
                JobOutcome::Rejected { .. } => None,
            })
            .max()
            .unwrap_or(0);
        (deadline_met, makespan)
    }

    /// The fleet latency series recorded by one central observer, in
    /// resolution order.
    fn central_latency(fleet: &Fleet) -> (Histogram, Summary) {
        let mut h = Histogram::new();
        let mut s = Summary::new();
        for l in fleet
            .completed()
            .iter()
            .filter_map(|fr| fr.record.latency())
        {
            h.record(l);
            s.record(l as f64);
        }
        (h, s)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// `deadline_met` and `makespan` come from counters and a running
        /// max, fleet quantiles from a shard-order merge; all must equal
        /// a scan of the resolved records, mid-run and after the drain,
        /// through quarantine, failover, stealing and redirects.
        #[test]
        fn summary_matches_a_scan_of_the_records(
            sizes in (1usize..4, 1usize..4, 1usize..5),
            policy in (0usize..3, 0u32..3, any::<bool>(), any::<bool>()),
            jobs in prop::collection::vec((0usize..7, 0u64..6, 0u64..4, 0u64..1_500), 1..60),
            quarantine_at in 0usize..60,
        ) {
            let (shards, clusters, queue_limit) = sizes;
            let (placement, redirect_budget, steal, failover) = policy;
            let mut f = Fleet::analytic(
                FleetConfig {
                    shards,
                    clusters_per_shard: clusters,
                    queue_limit,
                    placement: ALL_PLACEMENTS[placement],
                    steal,
                    redirect_budget,
                    failover,
                },
                &ModelTable::paper_defaults(),
            );
            let mut now = 0u64;
            for (k, &(kernel, size, slack, gap)) in jobs.iter().enumerate() {
                if k == quarantine_at {
                    f.quarantine_shard(k % shards, ClusterMask::single(k % clusters));
                }
                now += gap;
                let n = 64u64 << (2 * size);
                // From hopeless to generous deadlines.
                let deadline = [300, 6_000, 60_000, 2_000_000][slack as usize];
                f.submit(KernelId::ALL[kernel], n, deadline, now).expect("submit");
                if k % 7 == 3 {
                    let slo = FleetSlo::from_fleet(&f);
                    prop_assert_eq!((slo.deadline_met, slo.makespan), scan(&f));
                }
            }
            f.drain().expect("drain");
            let slo = FleetSlo::from_fleet(&f);
            prop_assert_eq!((slo.deadline_met, slo.makespan), scan(&f));
            let (hist, summary) = central_latency(&f);
            prop_assert_eq!(slo.p50, hist.p50());
            prop_assert_eq!(slo.p99, hist.p99());
            prop_assert_eq!(slo.mean_latency, summary.mean().unwrap_or(0.0));
            prop_assert_eq!(slo.completed + slo.rejected, slo.submitted);
        }
    }

    #[test]
    fn the_straggler_tail_survives_the_merge() {
        // Round-robin over four shards: three serve small jobs, shard 3
        // serves huge ones. The fleet p99 must come from shard 3's tail
        // even though three quarters of the samples are fast, and the
        // fleet p50 from the fast shards.
        let mut f = Fleet::analytic(
            FleetConfig {
                shards: 4,
                clusters_per_shard: 4,
                queue_limit: 64,
                placement: PlacementPolicy::RoundRobin,
                steal: false,
                redirect_budget: 0,
                failover: false,
            },
            &ModelTable::paper_defaults(),
        );
        for i in 0..80u64 {
            let n = if i % 4 == 3 { 65_536 } else { 1024 };
            f.submit(KernelId::Daxpy, n, 10_000_000, i * 100_000)
                .expect("submit");
        }
        f.drain().expect("drain");
        let slo = FleetSlo::from_fleet(&f);
        assert_eq!(slo.completed, 80);
        let slow = &slo.per_shard[3];
        let fast_p99 = slo.per_shard[..3]
            .iter()
            .map(|s| s.p99.expect("fast shards complete"))
            .max();
        assert!(
            slo.p99 >= slow.p50 && slo.p99 > fast_p99,
            "tail must survive the merge: {:?} vs slow p50 {:?}",
            slo.p99,
            slow.p50
        );
        // Quantiles report a bucket's upper bound, so the merged median
        // sits in the fast shards' bucket, far below the slow shard.
        assert!(slo.p50 < slow.p50, "the median stays with the fast shards");
    }

    #[test]
    fn per_shard_breakdowns_add_up_to_the_fleet() {
        let mut f = Fleet::analytic(
            FleetConfig {
                shards: 4,
                clusters_per_shard: 4,
                queue_limit: 4,
                placement: PlacementPolicy::RoundRobin,
                steal: true,
                redirect_budget: 0,
                failover: false,
            },
            &ModelTable::paper_defaults(),
        );
        for i in 0..16u64 {
            f.submit(KernelId::Daxpy, 1024, 100_000, i * 1000)
                .expect("submit");
        }
        f.drain().expect("drain");
        let slo = FleetSlo::from_fleet(&f);
        assert_eq!(slo.completed, 16);
        for s in &slo.per_shard {
            assert_eq!(s.accepted, 4, "round-robin spreads evenly");
            assert_eq!(s.offloaded + s.host_runs, 4);
            assert!(s.p50.is_some() && s.p99.is_some());
        }
        // The report's counter list carries the same breakdown under
        // `shard<i>.` names next to the fleet totals, name-sorted.
        let counters = f.counters();
        assert!(counters.windows(2).all(|w| w[0].0 < w[1].0));
        let get = |name: &str| counters.iter().find(|(k, _)| k == name).map(|(_, v)| *v);
        assert_eq!(get("serve.accepted"), Some(16));
        for i in 0..4 {
            assert_eq!(get(&format!("shard{i}.serve.accepted")), Some(4));
        }
        assert_eq!(
            slo.per_shard.iter().map(|s| s.offloaded).sum::<u64>(),
            slo.offloaded
        );
    }

    #[test]
    fn slo_accounting_balances() {
        let mut f = Fleet::analytic(
            FleetConfig {
                shards: 2,
                clusters_per_shard: 2,
                queue_limit: 2,
                placement: PlacementPolicy::LeastLoaded,
                steal: true,
                redirect_budget: 0,
                failover: false,
            },
            &ModelTable::paper_defaults(),
        );
        for i in 0..40u64 {
            f.submit(KernelId::Daxpy, 2048, 20_000, i * 50)
                .expect("submit");
        }
        f.drain().expect("drain");
        let slo = FleetSlo::from_fleet(&f);
        assert_eq!(slo.submitted, 40);
        assert_eq!(slo.completed + slo.rejected, 40);
        assert_eq!(slo.offloaded + slo.host_runs, slo.completed);
        assert!(slo.attainment <= 1.0);
        assert!(slo.makespan > 0);
        assert_eq!(slo.per_shard.len(), 2);
        let shard_accepts: u64 = slo.per_shard.iter().map(|s| s.accepted).sum();
        assert_eq!(shard_accepts + slo.rejected, 40);
        if slo.completed > 0 {
            assert!(slo.p99.expect("completions imply p99") >= slo.p50.expect("p50"));
            assert!(slo.per_shard.iter().any(|s| s.utilization > 0.0));
        }
    }

    #[test]
    fn empty_shard_merges_as_none_not_zero() {
        // Round-robin over 2 shards with a single job: shard 0 serves
        // it, shard 1 never sees work. The idle shard must report
        // `None` quantiles — not a fake 0-cycle latency — and the
        // fleet-level merge must equal the busy shard's view.
        let mut f = Fleet::analytic(
            FleetConfig {
                shards: 2,
                clusters_per_shard: 4,
                queue_limit: 8,
                placement: PlacementPolicy::RoundRobin,
                steal: false,
                redirect_budget: 0,
                failover: false,
            },
            &ModelTable::paper_defaults(),
        );
        f.submit(KernelId::Daxpy, 4096, 50_000, 0).expect("submit");
        f.drain().expect("drain");
        let slo = FleetSlo::from_fleet(&f);
        assert_eq!(slo.completed, 1);
        let busy = &slo.per_shard[0];
        let idle = &slo.per_shard[1];
        assert!(busy.p50.is_some() && busy.p99.is_some());
        assert_eq!(idle.p50, None);
        assert_eq!(idle.p99, None);
        assert_eq!(idle.utilization, 0.0);
        // Merging the empty shard's histogram must not disturb the
        // fleet quantiles.
        assert_eq!(slo.p50, busy.p50);
        assert_eq!(slo.p99, busy.p99);
    }

    #[test]
    fn all_rejections_yield_zero_attainment_and_no_quantiles() {
        // Deadline 300 is below the Daxpy offload floor (c0 + c_mem·N)
        // and the host line, so every job rejects as Infeasible.
        let mut f = Fleet::analytic(
            FleetConfig {
                shards: 2,
                clusters_per_shard: 2,
                queue_limit: 4,
                placement: PlacementPolicy::LeastLoaded,
                steal: true,
                redirect_budget: 0,
                failover: false,
            },
            &ModelTable::paper_defaults(),
        );
        for i in 0..10u64 {
            f.submit(KernelId::Daxpy, 1024, 300, i * 10)
                .expect("submit");
        }
        f.drain().expect("drain");
        let slo = FleetSlo::from_fleet(&f);
        assert_eq!(slo.submitted, 10);
        assert_eq!(slo.completed, 0);
        assert_eq!(slo.rejected, 10);
        // Nothing was served: attainment is a hard 0, not 0/0 = NaN …
        assert_eq!(slo.attainment, 0.0);
        // … and latency quantiles are absent, not zero.
        assert_eq!(slo.p50, None);
        assert_eq!(slo.p99, None);
        assert_eq!(slo.makespan, 0);
        assert!(slo
            .per_shard
            .iter()
            .all(|s| s.p50.is_none() && s.p99.is_none()));
    }
}
