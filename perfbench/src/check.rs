//! Output checks and the simulated-time metrics taken from the client's
//! own view of its responses.
//!
//! A job *fails* when it is rejected, left without a verdict, or any
//! check on its responses fails. Rejections are outcomes, not protocol
//! violations; every other failure is also recorded as a violation,
//! which makes the run incorrect.

use std::collections::BTreeMap;

use mpsoc_sched::{Job, JobOutcome, JobRecord};
use mpsoc_serve::{ClientScript, Request, Response};

/// One job as its client saw it.
#[derive(Debug, Clone, Copy, Default)]
struct Seen {
    send: u64,
    deadline: u64,
    verdicts: u32,
    accepted: bool,
    completes: u32,
    start: u64,
    finish: u64,
    met: bool,
    failed: bool,
}

/// The checked result of one workload run.
#[derive(Debug, Clone, Default)]
pub struct Checked {
    /// Jobs submitted.
    pub jobs: u64,
    /// Jobs rejected, without a verdict, or failing a check.
    pub failed_jobs: u64,
    /// Jobs rejected by the machine, by reason
    /// (`RejectReason::counter_key`).
    pub rejections: BTreeMap<&'static str, u64>,
    /// `GetStats` polls sent and answered.
    pub polls: u64,
    pub polls_answered: u64,
    /// Completed jobs that met their deadline.
    pub met: u64,
    /// `finish − send` per job; `None` when refused or unanswered.
    pub latencies: Vec<Option<u64>>,
    /// `start − send` per completed job.
    pub queue_waits: Vec<u64>,
    /// Every broken check, in the order found.
    pub violations: Vec<String>,
}

impl Checked {
    /// Operations attempted: job submissions and stats polls.
    pub fn attempted(&self) -> u64 {
        self.jobs + self.polls
    }

    /// Operations failed: failing jobs and unanswered polls.
    pub fn failed(&self) -> u64 {
        self.failed_jobs + self.polls.saturating_sub(self.polls_answered)
    }

    pub fn rejected(&self) -> u64 {
        self.rejections.values().sum()
    }

    pub fn correct(&self) -> bool {
        self.violations.is_empty()
    }

    pub fn attainment(&self) -> f64 {
        self.met as f64 / self.jobs as f64
    }

    pub fn failed_share(&self) -> f64 {
        self.failed_jobs as f64 / self.jobs as f64
    }

    /// Nearest-rank latency quantile over all submitted jobs, refused
    /// and unanswered ones counting as infinite (`None`).
    pub fn latency_quantile(&self, q: f64) -> Option<u64> {
        let mut sorted = self.latencies.clone();
        sorted.sort_by_key(|l| l.unwrap_or(u64::MAX));
        nearest_rank(&sorted, q).flatten()
    }

    /// Pools another stream's results into this one.
    pub fn merge(&mut self, other: &Checked) {
        self.jobs += other.jobs;
        self.failed_jobs += other.failed_jobs;
        for (reason, n) in &other.rejections {
            *self.rejections.entry(reason).or_default() += n;
        }
        self.polls += other.polls;
        self.polls_answered += other.polls_answered;
        self.met += other.met;
        self.latencies.extend_from_slice(&other.latencies);
        self.queue_waits.extend_from_slice(&other.queue_waits);
        self.violations.extend_from_slice(&other.violations);
    }

    fn absorb(&mut self, seen: impl Iterator<Item = Seen>) {
        for s in seen {
            self.jobs += 1;
            let completed = s.accepted && s.completes == 1;
            if completed && !s.failed {
                self.latencies.push(Some(s.finish - s.send));
                self.queue_waits.push(s.start - s.send);
                self.met += u64::from(s.met);
            } else {
                self.latencies.push(None);
                self.failed_jobs += 1;
            }
        }
    }
}

/// The element at nearest rank `⌈q·n⌉` of a sorted slice.
pub fn nearest_rank<T: Copy>(sorted: &[T], q: f64) -> Option<T> {
    if sorted.is_empty() {
        return None;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Checks every session's decoded responses against its script.
pub fn served(scripts: &[ClientScript], streams: &[Vec<Response>]) -> Checked {
    let mut out = Checked::default();
    if scripts.len() != streams.len() {
        out.violations.push(format!(
            "{} scripts but {} response streams",
            scripts.len(),
            streams.len()
        ));
    }
    for (session, (script, stream)) in scripts.iter().zip(streams).enumerate() {
        let mut jobs: BTreeMap<u64, Seen> = BTreeMap::new();
        for &(send, request) in &script.sends {
            match request {
                Request::SubmitJob {
                    client_job,
                    deadline,
                    ..
                } => {
                    jobs.insert(
                        client_job,
                        Seen {
                            send,
                            deadline,
                            ..Seen::default()
                        },
                    );
                }
                Request::GetStats => out.polls += 1,
            }
        }
        let mut clock = 0u64;
        let violation = |out: &mut Checked, seen: Option<&mut Seen>, what: String| {
            out.violations.push(format!("session {session}: {what}"));
            if let Some(s) = seen {
                s.failed = true;
            }
        };
        for response in stream {
            let time = match response {
                Response::Stats { report } => {
                    out.polls_answered += 1;
                    report.time
                }
                Response::JobAccepted { client_job, .. }
                | Response::JobRejected { client_job, .. } => {
                    let Some(s) = jobs.get_mut(client_job) else {
                        violation(
                            &mut out,
                            None,
                            format!("verdict for unknown job {client_job}"),
                        );
                        continue;
                    };
                    s.verdicts += 1;
                    if s.verdicts > 1 {
                        violation(
                            &mut out,
                            Some(&mut *s),
                            format!("job {client_job}: second verdict"),
                        );
                    }
                    if s.completes > 0 {
                        violation(
                            &mut out,
                            Some(&mut *s),
                            format!("job {client_job}: complete before its accept"),
                        );
                    }
                    match response {
                        Response::JobRejected { reason, .. } => {
                            *out.rejections.entry(reason.counter_key()).or_default() += 1;
                        }
                        _ => s.accepted = true,
                    }
                    s.send
                }
                Response::JobComplete {
                    client_job,
                    start,
                    finish,
                    deadline_met,
                    ..
                } => {
                    let Some(s) = jobs.get_mut(client_job) else {
                        violation(
                            &mut out,
                            None,
                            format!("complete for unknown job {client_job}"),
                        );
                        continue;
                    };
                    s.completes += 1;
                    s.start = *start;
                    s.finish = *finish;
                    s.met = *deadline_met;
                    if !s.accepted {
                        violation(
                            &mut out,
                            Some(&mut *s),
                            format!("job {client_job}: complete without a prior accept"),
                        );
                    }
                    if s.completes > 1 {
                        violation(
                            &mut out,
                            Some(&mut *s),
                            format!("job {client_job}: second complete"),
                        );
                    }
                    if !(s.send <= *start && start <= finish) {
                        let send = s.send;
                        violation(
                            &mut out,
                            Some(&mut *s),
                            format!(
                                "job {client_job}: send {send} start {start} finish {finish} out of order"
                            ),
                        );
                    }
                    if *deadline_met != (*finish <= s.send.saturating_add(s.deadline)) {
                        violation(
                            &mut out,
                            Some(&mut *s),
                            format!("job {client_job}: deadline_met={deadline_met} is false"),
                        );
                    }
                    *finish
                }
            };
            if time < clock {
                let seen = response.client_job().and_then(|j| jobs.get_mut(&j));
                violation(
                    &mut out,
                    seen,
                    format!("stream goes back in time: {time} after {clock}"),
                );
            }
            clock = clock.max(time);
        }
        for (client_job, s) in &mut jobs {
            if s.verdicts == 0 {
                violation(
                    &mut out,
                    Some(&mut *s),
                    format!("job {client_job}: no verdict"),
                );
            } else if s.accepted && s.completes == 0 {
                violation(
                    &mut out,
                    Some(&mut *s),
                    format!("job {client_job}: accepted, never completed"),
                );
            }
        }
        out.absorb(jobs.into_values());
    }
    if out.polls_answered != out.polls {
        out.violations.push(format!(
            "{} GetStats sent, {} answered",
            out.polls, out.polls_answered
        ));
    }
    out
}

/// Checks a batch run's records against the jobs it was given: exactly
/// one record per job id, carrying the job unchanged, with
/// `arrival ≤ start ≤ finish`.
pub fn batch(jobs: &[Job], records: &[JobRecord]) -> Checked {
    let mut out = Checked::default();
    let mut seen: Vec<Seen> = jobs
        .iter()
        .map(|j| Seen {
            send: j.arrival,
            deadline: j.deadline,
            ..Seen::default()
        })
        .collect();
    for r in records {
        let id = r.job.id;
        let Some(s) = usize::try_from(id).ok().and_then(|i| seen.get_mut(i)) else {
            out.violations.push(format!("record for unknown job {id}"));
            continue;
        };
        s.verdicts += 1;
        if s.verdicts > 1 {
            s.failed = true;
            out.violations.push(format!("job {id}: second record"));
        }
        if r.job != jobs[id as usize] {
            s.failed = true;
            out.violations
                .push(format!("job {id}: record carries a different job"));
        }
        match r.outcome {
            JobOutcome::Offloaded { start, finish, .. } | JobOutcome::Host { start, finish } => {
                s.accepted = true;
                s.completes = 1;
                s.start = start;
                s.finish = finish;
                s.met = !r.missed_deadline();
                if !(s.send <= start && start <= finish) {
                    s.failed = true;
                    out.violations.push(format!(
                        "job {id}: arrival {} start {start} finish {finish} out of order",
                        s.send
                    ));
                }
            }
            JobOutcome::Rejected { reason } => {
                *out.rejections.entry(reason.counter_key()).or_default() += 1;
            }
        }
    }
    for (id, s) in seen.iter_mut().enumerate() {
        if s.verdicts == 0 {
            s.failed = true;
            out.violations.push(format!("job {id}: no record"));
        }
    }
    out.absorb(seen.into_iter());
    out
}

/// FNV-1a over a byte stream: a stable digest for byte-identity claims.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

/// Digest of every session's outbound byte stream, in session order.
pub fn stream_digest<'a>(outbound: impl Iterator<Item = &'a [u8]>) -> String {
    let mut d = Digest::default();
    for bytes in outbound {
        d.update(&(bytes.len() as u64).to_le_bytes());
        d.update(bytes);
    }
    d.hex()
}

/// Digest of a batch run's records in canonical JSON.
pub fn records_digest(records: &[JobRecord]) -> String {
    let mut d = Digest::default();
    d.update(
        serde_json::to_string(&records)
            .expect("records serialize")
            .as_bytes(),
    );
    d.hex()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpsoc_sched::{KernelId, RejectReason};

    fn script() -> ClientScript {
        let mut s = ClientScript::new();
        s.submit_at(10, 0, KernelId::Daxpy, 1024, 100);
        s.submit_at(20, 1, KernelId::Daxpy, 1024, 100);
        s.poll_stats_at(20);
        s
    }

    fn accept(j: u64) -> Response {
        Response::JobAccepted {
            client_job: j,
            shard: 0,
        }
    }

    fn complete(j: u64, start: u64, finish: u64, deadline_met: bool) -> Response {
        Response::JobComplete {
            client_job: j,
            shard: 0,
            start,
            finish,
            on_host: false,
            deadline_met,
            retries: 0,
        }
    }

    fn stats(time: u64) -> Response {
        use mpsoc_sched::ModelTable;
        use mpsoc_serve::{Fleet, FleetConfig, FleetSlo, PlacementPolicy, StatsReport};
        let fleet = Fleet::analytic(
            FleetConfig {
                shards: 1,
                clusters_per_shard: 1,
                queue_limit: 1,
                placement: PlacementPolicy::RoundRobin,
                steal: false,
                redirect_budget: 0,
                failover: false,
            },
            &ModelTable::paper_defaults(),
        );
        Response::Stats {
            report: StatsReport {
                time,
                slo: FleetSlo::from_fleet(&fleet),
                reject_reasons: Vec::new(),
                counters: Vec::new(),
            },
        }
    }

    fn good() -> Vec<Response> {
        vec![
            accept(0),
            accept(1),
            stats(20),
            complete(0, 15, 90, true),
            complete(1, 30, 150, false),
        ]
    }

    #[test]
    fn a_well_formed_stream_passes() {
        let c = served(&[script()], &[good()]);
        assert!(c.correct(), "{:?}", c.violations);
        assert_eq!((c.jobs, c.failed_jobs, c.met), (2, 0, 1));
        assert_eq!(c.latencies, vec![Some(80), Some(130)]);
        assert_eq!(c.queue_waits, vec![5, 10]);
        assert_eq!(c.latency_quantile(0.5), Some(80));
        assert_eq!(c.attempted(), 3);
        assert_eq!(c.failed(), 0);
    }

    #[test]
    fn a_complete_before_its_accept_is_rejected() {
        let stream = vec![
            complete(0, 15, 15, true),
            accept(0),
            accept(1),
            stats(20),
            complete(1, 30, 150, false),
        ];
        let c = served(&[script()], &[stream]);
        assert!(!c.correct());
        assert_eq!(c.failed_jobs, 1);
        assert!(c
            .violations
            .iter()
            .any(|v| v.contains("without a prior accept")));
    }

    #[test]
    fn a_missing_verdict_is_rejected() {
        let stream = vec![accept(0), stats(20), complete(0, 15, 90, true)];
        let c = served(&[script()], &[stream]);
        assert!(!c.correct());
        assert_eq!(c.failed_jobs, 1);
        assert_eq!(
            c.latency_quantile(1.0),
            None,
            "unanswered counts as infinite"
        );
        assert!(c.violations.iter().any(|v| v.contains("job 1: no verdict")));
    }

    #[test]
    fn a_lying_deadline_flag_is_rejected() {
        let mut stream = good();
        stream[4] = complete(1, 30, 150, true);
        let c = served(&[script()], &[stream]);
        assert!(!c.correct());
        assert!(c
            .violations
            .iter()
            .any(|v| v.contains("deadline_met=true is false")));
    }

    #[test]
    fn an_unanswered_poll_and_time_travel_are_rejected() {
        let stream = vec![
            accept(0),
            accept(1),
            complete(1, 30, 150, false),
            complete(0, 15, 90, true),
        ];
        let c = served(&[script()], &[stream]);
        assert!(c.violations.iter().any(|v| v.contains("back in time")));
        assert!(c.violations.iter().any(|v| v.contains("GetStats")));
        assert_eq!(c.failed(), 2, "one job and one poll");
    }

    #[test]
    fn rejections_fail_the_job_but_not_the_run() {
        let stream = vec![
            accept(0),
            Response::JobRejected {
                client_job: 1,
                reason: RejectReason::QueueFull { depth: 1 },
            },
            stats(20),
            complete(0, 15, 90, true),
        ];
        let c = served(&[script()], &[stream]);
        assert!(c.correct(), "{:?}", c.violations);
        assert_eq!((c.rejected(), c.failed_jobs), (1, 1));
        assert_eq!(c.rejections["queue_full"], 1);
        assert_eq!(c.failed_share(), 0.5);
    }

    #[test]
    fn batch_records_must_cover_every_job_once() {
        let job = |id| Job {
            id,
            kernel: KernelId::Daxpy,
            n: 256,
            arrival: id * 10,
            deadline: 50,
        };
        let jobs = vec![job(0), job(1)];
        let rec = |id| JobRecord {
            job: job(id),
            outcome: JobOutcome::Host {
                start: id * 10,
                finish: id * 10 + 40,
            },
            contention_cycles: 0,
            retries: 0,
            faults_observed: 0,
        };
        assert!(batch(&jobs, &[rec(0), rec(1)]).correct());
        let dup = batch(&jobs, &[rec(0), rec(0)]);
        assert!(dup.violations.iter().any(|v| v.contains("second record")));
        assert!(dup
            .violations
            .iter()
            .any(|v| v.contains("job 1: no record")));
    }

    #[test]
    fn digests_see_every_byte() {
        let a = stream_digest([b"ab".as_slice(), b"c".as_slice()].into_iter());
        let b = stream_digest([b"a".as_slice(), b"bc".as_slice()].into_iter());
        assert_ne!(a, b, "session boundaries are part of the digest");
    }
}
