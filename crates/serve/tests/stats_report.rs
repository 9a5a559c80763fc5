//! A golden stats report: one fixed fleet history whose `GetStats`
//! answers are pinned by digest, taken over the encoded
//! `Response::Stats` frames. Where `golden_stream.rs` pins the order of
//! a session's job responses, this pins every number a scrape sees:
//! fleet totals, the `shard<i>.`-prefixed breakdowns, the per-kind
//! rejection counters and the SLO summary. The history packs in every
//! counter family the fleet writes:
//!
//! - cost gates (`serve.cost.*`, `serve.reject.static_infeasible`);
//! - a queue-full job that a redirect places on another shard;
//! - a dead shard whose queue fails over to the survivors;
//! - a degraded (partly quarantined) shard;
//! - several rejection kinds, `queue_full` among them;
//! - polls mid-run and after the closing drain.

use mpsoc_noc::ClusterMask;
use mpsoc_sched::{KernelId, ModelTable};
use mpsoc_serve::{
    encode, ClientScript, Daemon, Fleet, FleetConfig, PlacementPolicy, Response, StatsReport,
};

/// FNV-1a over `frames`, each prefixed by its length (little-endian
/// `u64`).
fn frame_digest(frames: &[Vec<u8>]) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for bytes in frames {
        for &b in (bytes.len() as u64).to_le_bytes().iter().chain(bytes) {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    format!("{h:016x}")
}

/// The fleet history up to the daemon: submissions straight into the
/// fleet, with quarantines in between that only the fleet can apply.
fn fleet() -> Fleet {
    let mut f = Fleet::analytic(
        FleetConfig {
            shards: 3,
            clusters_per_shard: 2,
            queue_limit: 2,
            placement: PlacementPolicy::RoundRobin,
            steal: false,
            redirect_budget: 1,
            failover: true,
        },
        &ModelTable::paper_defaults(),
    );
    f.enable_cost_gates();
    // Round-robin at t = 0: heavy offloads on shards 0 and 2, host-sized
    // jobs on shard 1, so shard 0 and 2 fill their queues and a
    // queue-full job redirects to shard 1.
    for k in 0..15u64 {
        let n = if k % 3 == 1 { 64 } else { 8192 };
        f.submit(KernelId::Daxpy, n, 2_000_000, 0).expect("submit");
    }
    // A one-cycle deadline undercuts every static best case.
    f.submit(KernelId::Daxpy, 4096, 1, 10).expect("submit");
    // Shard 0 dies with its queue full: failover moves it.
    f.quarantine_shard(0, ClusterMask::first(2));
    // Shard 2 loses one cluster.
    f.quarantine_shard(2, ClusterMask::single(1));
    f
}

fn script() -> ClientScript {
    let kernels = KernelId::ALL;
    let mut s = ClientScript::new();
    s.poll_stats_at(20);
    // Mixed kernels and sizes on the two live shards.
    for i in 0..24u64 {
        let n = [64, 1024, 4096, 16_384][(i % 4) as usize];
        s.submit_at(100 + i * 700, i, kernels[(i % 7) as usize], n, 600_000);
        if i % 8 == 7 {
            s.poll_stats_at(100 + i * 700);
        }
    }
    // Same-cycle offloads with deadlines that only the first ones on
    // each shard can meet: the ones queued behind them miss.
    for j in 0..6u64 {
        s.submit_at(30_000, 50 + j, KernelId::Daxpy, 4_096, 6_000);
    }
    // Spaced-out jobs whose deadlines need wide partitions or undercut
    // the static bounds: `not_enough_clusters` on the healthy 2-cluster
    // shard, `static_infeasible` on the degraded one.
    let tight = [
        (16_384, 8_000),
        (65_536, 12_000),
        (1_024, 300),
        (4_096, 2_000),
    ];
    for (j, (n, deadline)) in tight.into_iter().flat_map(|t| [t, t]).enumerate() {
        let j = j as u64;
        s.submit_at(40_000 + j * 50_000, 100 + j, KernelId::Daxpy, n, deadline);
    }
    s
}

#[test]
fn golden_stats_reports_are_pinned() {
    let mut daemon = Daemon::new(fleet());
    let logs = daemon.run(&[script()]).expect("run");
    let mut reports: Vec<StatsReport> = logs[0]
        .responses()
        .expect("decode")
        .into_iter()
        .filter_map(|r| match r {
            Response::Stats { report } => Some(report),
            _ => None,
        })
        .collect();
    assert_eq!(reports.len(), 4, "every GetStats is answered");
    reports.push(daemon.stats_report(1_000_000));
    let last = reports.last().expect("final report");
    // The history still reaches every counter family the digest is
    // meant to guard; a change that loses one must fail here, not pass
    // silently.
    let counter = |name: &str| {
        last.counters
            .iter()
            .find(|(k, _)| k == name)
            .map_or(0, |(_, v)| *v)
    };
    assert!(counter("serve.cost.checked") > 0, "cost gates audit");
    assert!(counter("serve.reject.static_infeasible") > 0);
    assert!(counter("serve.health.redirects") > 0, "a redirect succeeds");
    assert!(
        counter("serve.health.failovers") > 0,
        "a dead shard fails over"
    );
    assert!(counter("serve.deadline_missed") > 0, "a completion misses");
    assert!(
        last.counters
            .iter()
            .any(|(k, _)| k == "shard1.serve.retries"),
        "zero-valued counters a shard registered are reported"
    );
    assert!(last.reject_reasons.len() >= 3, "{:?}", last.reject_reasons);
    assert_eq!(last.slo.dead_shards, 1);
    let states: Vec<&str> = last
        .slo
        .per_shard
        .iter()
        .map(|s| s.state.as_str())
        .collect();
    assert_eq!(states, ["dead", "healthy", "degraded"]);

    let frames: Vec<Vec<u8>> = reports
        .into_iter()
        .map(|report| encode(&Response::Stats { report }))
        .collect();
    assert_eq!(frame_digest(&frames), "693a203b8f65edc8");
}
