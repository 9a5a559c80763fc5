//! A golden daemon run: one fixed multi-session script whose session
//! byte streams are pinned by digest. The daemon frames each response
//! once the virtual-time watermark has passed it instead of sorting the
//! whole run at the end, and the two must agree byte for byte. The
//! script packs in everything that stresses that ordering:
//!
//! - same-cycle arrivals, within one session and across sessions;
//! - below-break-even jobs that run on the host;
//! - long offloads whose completions land past many later arrivals;
//! - a burst that overflows the shard queues (`QueueFull`);
//! - `GetStats` polls in between.
//!
//! A watermark that frames a response too early reorders a session's
//! stream and changes the digest.

use mpsoc_sched::{KernelId, ModelTable, RejectReason};
use mpsoc_serve::{ClientScript, Daemon, Fleet, FleetConfig, PlacementPolicy, Response};

/// FNV-1a over every session's outbound stream, each prefixed by its
/// length (little-endian `u64`), in session order.
fn stream_digest(streams: &[Vec<u8>]) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for bytes in streams {
        for &b in (bytes.len() as u64).to_le_bytes().iter().chain(bytes) {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    format!("{h:016x}")
}

fn scripts() -> Vec<ClientScript> {
    let kernels = KernelId::ALL;
    // Session 0: a burst of large jobs at t = 0 that overflows both
    // shards' queues, a host-sized job in the same cycle, then a tail
    // of mixed jobs while the burst is still running.
    let mut burst = ClientScript::new();
    for i in 0..9 {
        burst.submit_at(0, i, KernelId::Daxpy, 16_384, 2_000_000);
    }
    burst.submit_at(0, 9, KernelId::Daxpy, 64, 100_000);
    burst.poll_stats_at(0);
    for i in 10..30u64 {
        let n = [64, 512, 2048, 8192][(i % 4) as usize];
        burst.submit_at(i * 1_000, i, kernels[(i % 7) as usize], n, 400_000);
    }
    burst.poll_stats_at(30_000);

    // Session 1: arrivals in the same cycles as session 0's, host-sized
    // and small offloads interleaved, with a poll in the middle.
    let mut mixed = ClientScript::new();
    for i in 0..24u64 {
        let t = (i / 2) * 1_400;
        let n = if i % 3 == 0 { 64 } else { 1024 << (i % 4) };
        mixed.submit_at(t, 100 + i, kernels[(i % 5) as usize], n, 150_000);
        if i == 9 {
            // After job 109's host run finishes, before any later
            // arrival has advanced the fleet past it.
            mixed.poll_stats_at(t + 500);
        }
    }

    // Session 2: sparse long jobs whose completions land past many of
    // the other sessions' arrivals, and a final poll after them all.
    let mut sparse = ClientScript::new();
    for i in 0..6u64 {
        sparse.submit_at(
            12_000 + i * 2_500,
            200 + i,
            KernelId::Daxpy,
            32_768,
            5_000_000,
        );
    }
    sparse.poll_stats_at(26_500);
    vec![burst, mixed, sparse]
}

fn daemon() -> Daemon {
    Daemon::new(Fleet::analytic(
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
    ))
}

#[test]
fn golden_daemon_streams_are_pinned() {
    let scripts = scripts();
    let logs = daemon().run(&scripts).expect("run");
    let responses: Vec<Vec<Response>> = logs
        .iter()
        .map(|l| l.responses().expect("decode"))
        .collect();
    let all = || responses.iter().flatten();

    // The script still exercises every case the digest is meant to
    // guard; a change that loses one must fail here, not pass silently.
    let polls = all()
        .filter(|r| matches!(r, Response::Stats { .. }))
        .count();
    assert_eq!(polls, 4, "every GetStats is answered");
    assert!(
        all().any(|r| matches!(r, Response::JobComplete { on_host: true, .. })),
        "a below-break-even job runs on the host"
    );
    assert!(
        all().any(|r| matches!(
            r,
            Response::JobRejected {
                reason: RejectReason::QueueFull { .. },
                ..
            }
        )),
        "the burst overflows a queue"
    );
    let last_send = scripts
        .iter()
        .flat_map(|s| s.sends.iter().map(|&(t, _)| t))
        .max()
        .expect("sends");
    let overlapping = all()
        .filter(|r| {
            matches!(r, Response::JobComplete { start, finish, .. }
                if scripts.iter().flat_map(|s| &s.sends).any(|&(t, _)| *start < t && t < *finish))
        })
        .count();
    assert!(
        overlapping > 10,
        "completions land past later arrivals ({overlapping})"
    );
    assert!(
        all().any(|r| matches!(r, Response::JobComplete { finish, .. } if *finish > last_send)),
        "some completions are only framed after the closing drain"
    );
    // Every session's stream is in virtual-time order of completion.
    for rs in &responses {
        let finishes: Vec<u64> = rs
            .iter()
            .filter_map(|r| match r {
                Response::JobComplete { finish, .. } => Some(*finish),
                _ => None,
            })
            .collect();
        assert!(finishes.windows(2).all(|w| w[0] <= w[1]));
    }

    let streams: Vec<Vec<u8>> = logs.into_iter().map(|l| l.outbound).collect();
    assert_eq!(stream_digest(&streams), "aeb834c100aa1559");
}
