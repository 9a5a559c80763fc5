//! The serving daemon: one event loop multiplexing many client sessions
//! over in-process duplex pipes onto the shard fleet.
//!
//! A client is a *script* — a list of `(virtual time, Request)` sends,
//! non-decreasing in time — because determinism is the contract: the
//! same scripts against the same fleet seed must produce byte-identical
//! response streams. The loop merges all clients' sends into one global
//! time order (ties broken by session index, then send order), moves the
//! encoded bytes through each session's [`Duplex`], decodes frames
//! incrementally, and drives the fleet:
//!
//! - `SubmitJob` → [`Fleet::submit`] at the send's virtual time; the
//!   verdict returns immediately as `JobAccepted` / `JobRejected`.
//! - Completions surface whenever the fleet advances; each becomes a
//!   `JobComplete` at its finish time, delivered to the session that
//!   submitted the job.
//!
//! Responses are stamped `(virtual time, emission sequence)` and wait,
//! ordered by that stamp, until they are final: after each `SubmitJob` at time `t`
//! the fleet has advanced to `t`, so nothing found later can be stamped
//! before `t`, and every pending response stamped before that watermark
//! is framed in stamp order. The rest is framed after the closing drain.
//! A session's outbound stream is therefore in virtual-time order even
//! though completions are discovered lazily, and it is byte-identical to
//! sorting the whole run's responses at the end — without holding them
//! all. The daemon never blocks: clients that send garbage get a typed
//! [`ServeError::Decode`] naming their session, not a hang.

use std::collections::BTreeMap;
use std::fmt;

use mpsoc_sched::{JobOutcome, SchedError, ShardDecision};

use crate::fleet::Fleet;
use crate::proto::{Request, Response, StatsReport};
use crate::slo::FleetSlo;
use crate::transport::Duplex;
use crate::wire::{encode, DecodeError, Decoder};

/// One scripted client session: timed protocol sends.
#[derive(Debug, Clone, Default)]
pub struct ClientScript {
    /// `(virtual time, request)` pairs, non-decreasing in time.
    pub sends: Vec<(u64, Request)>,
}

impl ClientScript {
    /// An empty script.
    pub fn new() -> Self {
        ClientScript::default()
    }

    /// Appends a submission at `time`.
    pub fn submit_at(
        &mut self,
        time: u64,
        client_job: u64,
        kernel: mpsoc_sched::KernelId,
        n: u64,
        deadline: u64,
    ) -> &mut Self {
        self.sends.push((
            time,
            Request::SubmitJob {
                client_job,
                kernel,
                n,
                deadline,
            },
        ));
        self
    }

    /// Appends a live-statistics poll at `time`.
    pub fn poll_stats_at(&mut self, time: u64) -> &mut Self {
        self.sends.push((time, Request::GetStats));
        self
    }
}

/// What one serving run produced for one session.
#[derive(Debug, Clone, Default)]
pub struct SessionLog {
    /// The framed response byte stream (decode with
    /// [`SessionLog::responses`]).
    pub outbound: Vec<u8>,
}

impl SessionLog {
    /// Decodes the outbound stream back into typed responses.
    ///
    /// # Errors
    ///
    /// [`DecodeError`] if the stream is corrupt (a daemon bug, not a
    /// client condition).
    pub fn responses(&self) -> Result<Vec<Response>, DecodeError> {
        let mut dec = Decoder::new();
        dec.push(&self.outbound);
        let mut out = Vec::new();
        while let Some(r) = dec.next_message::<Response>()? {
            out.push(r);
        }
        dec.finish()?;
        Ok(out)
    }
}

/// Daemon failure: a scheduling error or a client's undecodable bytes.
#[derive(Debug)]
pub enum ServeError {
    /// The fleet failed (service backend error, stalled session).
    Sched(SchedError),
    /// A session's inbound byte stream failed to decode.
    Decode {
        /// Which session sent the bytes.
        session: usize,
        /// What was wrong with them.
        error: DecodeError,
    },
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Sched(e) => write!(f, "fleet error: {e}"),
            ServeError::Decode { session, error } => {
                write!(f, "session {session}: {error}")
            }
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Sched(e) => Some(e),
            ServeError::Decode { error, .. } => Some(error),
        }
    }
}

impl From<SchedError> for ServeError {
    fn from(e: SchedError) -> Self {
        ServeError::Sched(e)
    }
}

/// Responses emitted but not yet framed, ordered by
/// `(virtual time, emit seq)`: [`Daemon::run`] releases them to the
/// sessions' pipes as the virtual-time watermark passes them.
#[derive(Default)]
struct Outbox {
    pending: BTreeMap<(u64, u64), (usize, Response)>,
    seq: u64,
    /// Virtual time of the last framed response.
    framed: u64,
}

impl Outbox {
    /// Queues `response` for `session`, stamped `time`.
    fn emit(&mut self, time: u64, session: usize, response: Response) {
        debug_assert!(
            time >= self.framed,
            "response stamped {time} is older than one already framed at {}",
            self.framed
        );
        self.pending.insert((time, self.seq), (session, response));
        self.seq += 1;
    }

    /// Frames, in `(time, seq)` order, every pending response stamped
    /// before `watermark` (`None`: every pending response).
    fn frame(&mut self, watermark: Option<u64>, pipes: &mut [Duplex]) {
        while let Some(entry) = self.pending.first_entry() {
            let time = entry.key().0;
            if watermark.is_some_and(|w| time >= w) {
                break;
            }
            let (session, response) = entry.remove();
            self.framed = time;
            pipes[session].server_send(&encode(&response));
        }
    }
}

/// The serving daemon: fleet + per-session transports.
pub struct Daemon {
    fleet: Fleet,
}

impl Daemon {
    /// A daemon over `fleet`.
    pub fn new(fleet: Fleet) -> Self {
        Daemon { fleet }
    }

    /// The fleet (for SLO summaries after a run).
    pub fn fleet(&self) -> &Fleet {
        &self.fleet
    }

    /// Runs the scripts to completion and returns one [`SessionLog`] per
    /// script (same order).
    ///
    /// # Errors
    ///
    /// [`ServeError`] on fleet failures or undecodable client bytes.
    pub fn run(&mut self, scripts: &[ClientScript]) -> Result<Vec<SessionLog>, ServeError> {
        let _prof = mpsoc_sim::profile::scope("serve.daemon.run");
        // Merge all sends into (time, session, send index) order.
        let mut events: Vec<(u64, usize, usize)> = Vec::new();
        for (session, script) in scripts.iter().enumerate() {
            assert!(
                script.sends.windows(2).all(|w| w[0].0 <= w[1].0),
                "client script must be non-decreasing in time"
            );
            for (idx, &(t, _)) in script.sends.iter().enumerate() {
                events.push((t, session, idx));
            }
        }
        events.sort();

        let mut pipes: Vec<Duplex> = scripts.iter().map(|_| Duplex::new()).collect();
        let mut decoders: Vec<Decoder> = scripts.iter().map(|_| Decoder::new()).collect();
        // Fleet job id → (session, client_job): the daemon's private
        // mapping between wire identity and fleet identity. Fleet ids
        // count up from 0, so a vector indexed by id holds it; rejected
        // jobs (and earlier runs' jobs) leave `None`.
        let mut origin: Vec<Option<(usize, u64)>> = Vec::new();
        let mut outbox = Outbox::default();
        let mut collected = 0usize;

        for (t, session, idx) in events {
            // The "wire": the client's encoded frame crosses its pipe
            // now; the daemon drains and decodes incrementally.
            let (_, request) = scripts[session].sends[idx];
            pipes[session].client_send(&encode(&request));
            decoders[session].push(pipes[session].server_drain().as_slice());
            loop {
                let decoded = decoders[session]
                    .next_message::<Request>()
                    .map_err(|error| ServeError::Decode { session, error })?;
                let Some(decoded) = decoded else {
                    break;
                };
                match decoded {
                    Request::SubmitJob {
                        client_job,
                        kernel,
                        n,
                        deadline,
                    } => {
                        let fleet_job = self.next_fleet_job_id() as usize;
                        let (shard, decision) = self.fleet.submit(kernel, n, deadline, t)?;
                        let verdict = match decision {
                            ShardDecision::Queued { .. } | ShardDecision::Host { .. } => {
                                if origin.len() <= fleet_job {
                                    origin.resize(fleet_job + 1, None);
                                }
                                origin[fleet_job] = Some((session, client_job));
                                Response::JobAccepted { client_job, shard }
                            }
                            ShardDecision::Rejected { reason } => {
                                Response::JobRejected { client_job, reason }
                            }
                        };
                        outbox.emit(t, session, verdict);
                        // Completions the submit's advance uncovered.
                        Self::collect_completions(
                            &self.fleet,
                            &mut collected,
                            &origin,
                            &mut outbox,
                        );
                        // The watermark. `Fleet::submit` advanced every
                        // shard to `t` before offering the job, retiring
                        // every completion due at or before `t`. What is
                        // still in flight — offloads and host runs alike,
                        // which wait in their shard's completion queue
                        // until they retire — finishes at or after the
                        // shard clock, now `≥ t`, and later sends are not
                        // earlier than `t`. So every response found from
                        // here on is stamped `≥ t`, and the ones stamped
                        // before `t` are final in `(time, seq)` order.
                        outbox.frame(Some(t), &mut pipes);
                    }
                    // Stats polls are read-only: they snapshot the fleet
                    // *as of the last submission's advance* and never
                    // move virtual time, touch placement state, or
                    // trigger stealing — so a job stream replays
                    // byte-identically with or without polls.
                    Request::GetStats => {
                        let report = self.stats_report(t);
                        outbox.emit(t, session, Response::Stats { report });
                    }
                }
            }
        }

        self.fleet.drain()?;
        Self::collect_completions(&self.fleet, &mut collected, &origin, &mut outbox);
        outbox.frame(None, &mut pipes);
        Ok(pipes
            .into_iter()
            .map(|mut p| SessionLog {
                outbound: p.client_drain(),
            })
            .collect())
    }

    /// The fleet job id the *next* submission will get (fleet ids are
    /// sequential from 0).
    fn next_fleet_job_id(&self) -> u64 {
        self.fleet.submitted()
    }

    /// A [`StatsReport`] snapshot of the fleet as it stands, stamped
    /// with virtual time `time`. Read-only: building a report never
    /// advances the fleet, so it is safe to call mid-run (it is exactly
    /// what [`Request::GetStats`] gets) or after a drain.
    pub fn stats_report(&self, time: u64) -> StatsReport {
        let slo = FleetSlo::from_fleet(&self.fleet);
        let counters = self.fleet.counters();
        let reject_reasons = counters
            .iter()
            .filter_map(|(name, value)| {
                name.strip_prefix("serve.reject.")
                    .map(|kind| (kind.to_owned(), *value))
            })
            .collect();
        StatsReport {
            time,
            slo,
            reject_reasons,
            counters,
        }
    }

    /// Emits `JobComplete` for fleet records not yet reported.
    fn collect_completions(
        fleet: &Fleet,
        collected: &mut usize,
        origin: &[Option<(usize, u64)>],
        outbox: &mut Outbox,
    ) {
        let records = fleet.completed();
        while *collected < records.len() {
            let fr = &records[*collected];
            *collected += 1;
            let (start, finish, on_host) = match fr.record.outcome {
                JobOutcome::Offloaded { start, finish, .. } => (start, finish, false),
                JobOutcome::Host { start, finish } => (start, finish, true),
                // Rejections were answered at submit time.
                JobOutcome::Rejected { .. } => continue,
            };
            let Some(&Some((session, client_job))) = origin.get(fr.record.job.id as usize) else {
                continue;
            };
            outbox.emit(
                finish,
                session,
                Response::JobComplete {
                    client_job,
                    shard: fr.shard,
                    start,
                    finish,
                    on_host,
                    deadline_met: !fr.record.missed_deadline(),
                    retries: fr.record.retries,
                },
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fleet::{FleetConfig, PlacementPolicy};
    use mpsoc_sched::{KernelId, ModelTable, RejectReason};

    fn daemon(shards: usize, queue_limit: usize) -> Daemon {
        Daemon::new(Fleet::analytic(
            FleetConfig {
                shards,
                clusters_per_shard: 2,
                queue_limit,
                placement: PlacementPolicy::LeastLoaded,
                steal: true,
                redirect_budget: 0,
                failover: false,
            },
            &ModelTable::paper_defaults(),
        ))
    }

    #[test]
    fn one_client_gets_accept_then_complete() {
        let mut script = ClientScript::new();
        script.submit_at(0, 77, KernelId::Daxpy, 1024, 100_000);
        let logs = daemon(2, 8).run(&[script]).expect("run");
        let responses = logs[0].responses().expect("decode");
        assert_eq!(responses.len(), 2);
        assert!(matches!(
            responses[0],
            Response::JobAccepted { client_job: 77, .. }
        ));
        match &responses[1] {
            Response::JobComplete {
                client_job,
                deadline_met,
                on_host,
                finish,
                ..
            } => {
                assert_eq!(*client_job, 77);
                assert!(deadline_met);
                assert!(!on_host);
                assert!(*finish > 0);
            }
            other => panic!("expected JobComplete, got {other:?}"),
        }
    }

    #[test]
    fn sessions_are_isolated_and_complete_in_time_order() {
        let mut a = ClientScript::new();
        a.submit_at(0, 1, KernelId::Daxpy, 4096, 1_000_000);
        a.submit_at(10, 2, KernelId::Daxpy, 1024, 1_000_000);
        let mut b = ClientScript::new();
        b.submit_at(5, 1, KernelId::Daxpy, 256, 1_000_000);
        let logs = daemon(2, 8).run(&[a, b]).expect("run");
        let ra = logs[0].responses().expect("decode");
        let rb = logs[1].responses().expect("decode");
        // Each session sees only its own jobs, accepts and completes.
        assert_eq!(ra.len(), 4);
        assert_eq!(rb.len(), 2);
        assert!(rb.iter().all(|r| r.client_job() == Some(1)));
        // Outbound streams are time-ordered: completions carry finish
        // times; every accept precedes its job's completion.
        let complete_pos = |rs: &[Response], cj: u64| {
            rs.iter()
                .position(
                    |r| matches!(r, Response::JobComplete { client_job, .. } if *client_job == cj),
                )
                .expect("completion present")
        };
        let accept_pos = |rs: &[Response], cj: u64| {
            rs.iter()
                .position(
                    |r| matches!(r, Response::JobAccepted { client_job, .. } if *client_job == cj),
                )
                .expect("accept present")
        };
        assert!(accept_pos(&ra, 1) < complete_pos(&ra, 1));
        assert!(accept_pos(&ra, 2) < complete_pos(&ra, 2));
    }

    #[test]
    fn backpressure_surfaces_as_job_rejected() {
        let mut script = ClientScript::new();
        for i in 0..20 {
            script.submit_at(0, i, KernelId::Daxpy, 4096, 1_000_000);
        }
        let logs = daemon(1, 2).run(&[script]).expect("run");
        let responses = logs[0].responses().expect("decode");
        let rejected = responses
            .iter()
            .filter(|r| {
                matches!(
                    r,
                    Response::JobRejected {
                        reason: RejectReason::QueueFull { .. },
                        ..
                    }
                )
            })
            .count();
        assert!(rejected > 0, "saturation must reject over the wire");
        let accepted = responses
            .iter()
            .filter(|r| matches!(r, Response::JobAccepted { .. }))
            .count();
        let completed = responses
            .iter()
            .filter(|r| matches!(r, Response::JobComplete { .. }))
            .count();
        assert_eq!(accepted, completed, "every accepted job completes");
        assert_eq!(accepted + rejected, 20);
    }

    #[test]
    fn daemon_runs_are_byte_identical() {
        let scripts = || {
            let mut a = ClientScript::new();
            let mut b = ClientScript::new();
            for i in 0..30u64 {
                a.submit_at(i * 100, i, KernelId::Daxpy, 256 << (i % 4), 50_000);
                b.submit_at(i * 130, i, KernelId::Daxpy, 512 << (i % 3), 80_000);
            }
            vec![a, b]
        };
        let run = || daemon(3, 4).run(&scripts()).expect("run");
        let x = run();
        let y = run();
        assert_eq!(x.len(), y.len());
        for (lx, ly) in x.iter().zip(&y) {
            assert_eq!(lx.outbound, ly.outbound, "byte-identical replay");
        }
    }

    #[test]
    fn stats_polls_do_not_perturb_virtual_time() {
        // The same job stream, with and without interleaved GetStats
        // polls, must produce byte-identical job responses: polls are
        // read-only and never advance the fleet.
        let script = |with_polls: bool| {
            let mut s = ClientScript::new();
            for i in 0..20u64 {
                s.submit_at(i * 80, i, KernelId::Daxpy, 256 << (i % 4), 40_000);
                if with_polls && i % 3 == 0 {
                    s.poll_stats_at(i * 80);
                }
            }
            s
        };
        let run = |with_polls: bool| {
            let logs = daemon(2, 4).run(&[script(with_polls)]).expect("run");
            logs[0].responses().expect("decode")
        };
        let plain = run(false);
        let polled = run(true);
        let polls = polled
            .iter()
            .filter(|r| matches!(r, Response::Stats { .. }))
            .count();
        assert_eq!(polls, 7, "each GetStats is answered");
        let job_only: Vec<Response> = polled
            .into_iter()
            .filter(|r| r.client_job().is_some())
            .collect();
        // Byte-identity, not just structural equality: re-encode both
        // job-response streams and compare the frames.
        let enc = |rs: &[Response]| -> Vec<u8> { rs.iter().flat_map(encode).collect() };
        assert_eq!(enc(&job_only), enc(&plain));
    }

    #[test]
    fn stats_poll_after_drain_matches_fleet_slo_exactly() {
        use crate::slo::FleetSlo;
        let mut d = daemon(2, 4);
        let mut jobs = ClientScript::new();
        for i in 0..25u64 {
            jobs.submit_at(i * 60, i, KernelId::Daxpy, 512 << (i % 3), 30_000);
        }
        d.run(&[jobs]).expect("first batch");
        // Second batch: a lone poll against the drained fleet. Its
        // report must equal a direct FleetSlo summary, field for field.
        let mut poll = ClientScript::new();
        poll.poll_stats_at(2_000);
        let logs = d.run(&[poll]).expect("poll batch");
        let responses = logs[0].responses().expect("decode");
        assert_eq!(responses.len(), 1);
        let Response::Stats { report } = &responses[0] else {
            panic!("expected Stats, got {:?}", responses[0]);
        };
        let direct = FleetSlo::from_fleet(d.fleet());
        assert_eq!(report.slo, direct);
        assert_eq!(report.slo.p50, direct.p50);
        assert_eq!(report.slo.p99, direct.p99);
        assert_eq!(report.time, 2_000);
        // Counters in the report are name-sorted and include the
        // per-reason rejection family when rejections happened.
        assert!(report.counters.windows(2).all(|w| w[0].0 < w[1].0));
        let rejected = report
            .counters
            .iter()
            .find(|(k, _)| k == "serve.rejected")
            .map_or(0, |(_, v)| *v);
        let by_reason: u64 = report.reject_reasons.iter().map(|(_, v)| v).sum();
        assert_eq!(by_reason, rejected, "reason breakdown sums to total");
    }
}
