//! Whole-daemon properties at the edges of virtual time: arrivals near
//! `u64::MAX`, problem sizes up to 2^40 and deadlines up to `u64::MAX`,
//! served by random analytic fleets. Whatever a client sends, the
//! daemon must not panic or wrap its clock, and every session stream
//! must stay well formed:
//!
//! - exactly one verdict (`JobRejected` or `JobComplete`) per job;
//! - a job's `JobAccepted` is framed before its `JobComplete`;
//! - `start ≤ finish`;
//! - `deadline_met ⇔ finish ≤ arrival.saturating_add(deadline)`.

use std::collections::BTreeMap;

use mpsoc_sched::{KernelId, ModelTable};
use mpsoc_serve::{
    ClientScript, Daemon, Fleet, FleetConfig, PlacementPolicy, Request, Response, SessionLog,
};
use proptest::prelude::*;

/// An arrival cycle: near the end of time for a third of the jobs,
/// small otherwise.
fn arrival(sel: u8, raw: u64) -> u64 {
    match sel % 3 {
        0 => u64::MAX - raw % 10_000,
        _ => raw % 1_000_000,
    }
}

/// A problem size in `1..=2^40`: uniform, small, or a power of two.
fn size(sel: u8, raw: u64) -> u64 {
    match sel % 3 {
        0 => 1 + raw % (1 << 40),
        1 => 1 + raw % 65_536,
        _ => 1 << (raw % 41),
    }
}

/// A relative deadline: near `u64::MAX`, tight, or anything.
fn deadline(sel: u8, raw: u64) -> u64 {
    match sel % 3 {
        0 => u64::MAX - raw % 1_000,
        1 => raw % 1_000_000,
        _ => raw,
    }
}

/// Checks one session's decoded stream against its script.
fn check_session(script: &ClientScript, log: &SessionLog) -> Result<(), TestCaseError> {
    let responses = log.responses().expect("the daemon frames valid responses");
    // client_job → (arrival, deadline) from the script.
    let submitted: BTreeMap<u64, (u64, u64)> = script
        .sends
        .iter()
        .filter_map(|&(t, ref request)| match *request {
            Request::SubmitJob {
                client_job,
                deadline,
                ..
            } => Some((client_job, (t, deadline))),
            Request::GetStats => None,
        })
        .collect();
    let mut accepted_at: BTreeMap<u64, usize> = BTreeMap::new();
    let mut verdicts: BTreeMap<u64, u32> = BTreeMap::new();
    for (i, response) in responses.iter().enumerate() {
        match *response {
            Response::JobAccepted { client_job, .. } => {
                prop_assert!(
                    accepted_at.insert(client_job, i).is_none(),
                    "job {} accepted twice",
                    client_job
                );
            }
            Response::JobRejected { client_job, .. } => {
                *verdicts.entry(client_job).or_default() += 1;
            }
            Response::JobComplete {
                client_job,
                start,
                finish,
                deadline_met,
                ..
            } => {
                *verdicts.entry(client_job).or_default() += 1;
                prop_assert!(
                    accepted_at.get(&client_job).is_some_and(|&a| a < i),
                    "job {} completed before it was accepted",
                    client_job
                );
                prop_assert!(
                    start <= finish,
                    "job {}: {} > {}",
                    client_job,
                    start,
                    finish
                );
                let (arrival, deadline) = submitted[&client_job];
                prop_assert_eq!(deadline_met, finish <= arrival.saturating_add(deadline));
            }
            Response::Stats { .. } => {}
        }
    }
    for job in submitted.keys() {
        prop_assert_eq!(verdicts.get(job).copied(), Some(1), "job {}", job);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn extreme_requests_keep_every_stream_well_formed(
        shards in 1usize..=3,
        clusters in 1usize..=4,
        queue_limit in 1usize..=8,
        placement in 0usize..3,
        steal in any::<bool>(),
        jobs in prop::collection::vec(
            ((0usize..3, any::<u8>()), (any::<u64>(), any::<u64>()), (any::<u64>(), 0usize..7)),
            1..24,
        ),
    ) {
        let mut sends: Vec<_> = jobs
            .iter()
            .enumerate()
            .map(|(i, &((session, sel), (t, n), (d, kernel)))| {
                let n = size(sel / 3, n);
                (session, arrival(sel, t), i as u64, KernelId::ALL[kernel], n, deadline(sel / 9, d))
            })
            .collect();
        // Each session's sends are non-decreasing in time.
        sends.sort_by_key(|&(session, t, id, ..)| (session, t, id));
        let mut scripts = vec![ClientScript::new(); 3];
        for (session, t, id, kernel, n, d) in sends {
            scripts[session].submit_at(t, id, kernel, n, d);
        }
        let config = FleetConfig {
            shards,
            clusters_per_shard: clusters,
            queue_limit,
            placement: [
                PlacementPolicy::RoundRobin,
                PlacementPolicy::LeastLoaded,
                PlacementPolicy::ModelGuided,
            ][placement],
            steal,
            redirect_budget: 1,
            failover: false,
        };
        let mut daemon = Daemon::new(Fleet::analytic(config, &ModelTable::paper_defaults()));
        let logs = daemon.run(&scripts).expect("an analytic fleet serves every request");
        for (script, log) in scripts.iter().zip(&logs) {
            check_session(script, log)?;
        }
    }
}

/// One request at the end of time: the job runs with its clock pinned
/// at `u64::MAX` instead of wrapping to an early finish framed before
/// its acceptance.
#[test]
fn a_request_at_the_end_of_time_completes_in_order() {
    let mut script = ClientScript::new();
    script.submit_at(u64::MAX - 5, 0, KernelId::Daxpy, 1024, 1000);
    let config = FleetConfig {
        shards: 1,
        clusters_per_shard: 4,
        queue_limit: 4,
        placement: PlacementPolicy::LeastLoaded,
        steal: false,
        redirect_budget: 0,
        failover: false,
    };
    let mut daemon = Daemon::new(Fleet::analytic(config, &ModelTable::paper_defaults()));
    let logs = daemon.run(&[script]).expect("run");
    let responses = logs[0].responses().expect("decode");
    assert!(matches!(responses[0], Response::JobAccepted { .. }));
    match responses[1] {
        Response::JobComplete {
            start,
            finish,
            deadline_met,
            ..
        } => {
            assert_eq!(start, u64::MAX - 5);
            assert_eq!(finish, u64::MAX);
            // The absolute deadline saturates at the same ceiling.
            assert!(deadline_met);
        }
        ref other => panic!("expected a completion, got {other:?}"),
    }
}
