//! Property tests for the wire codec: encode→decode identity over
//! randomized protocol messages, under randomized delivery chunking,
//! plus a no-panic property on adversarial byte streams. The targeted
//! adversarial cases (bad magic, bad version, oversized, truncated,
//! malformed JSON) are unit-tested in `wire.rs`; these properties cover
//! the combinatorial space around them, including the decoder's read
//! cursor: strict prefixes and arbitrary push/pop interleavings.

use mpsoc_sched::{KernelId, RejectReason};
use mpsoc_serve::wire::HEADER_LEN;
use mpsoc_serve::{
    encode, DecodeError, Decoder, FleetSlo, Request, Response, ShardSlo, StatsReport,
};
use proptest::prelude::*;

/// Deterministically maps free u64 dice onto a `Request`. Every 5th
/// roll of `kernel` becomes a `GetStats` poll instead of a submission.
fn request_from(dice: (u64, u64, u64, u64)) -> Request {
    let (client_job, kernel, n, deadline) = dice;
    if kernel % 5 == 4 {
        return Request::GetStats;
    }
    Request::SubmitJob {
        client_job,
        kernel: KernelId::ALL[(kernel % KernelId::ALL.len() as u64) as usize],
        n: 1 + n % 1_000_000,
        deadline: 1 + deadline % 10_000_000,
    }
}

/// Deterministically maps free u64 dice onto a `StatsReport`,
/// exercising `None`/`Some` quantiles, empty and populated shard lists,
/// and the counter vectors.
fn stats_report_from(dice: (u64, u64, u64)) -> StatsReport {
    let (a, b, c) = dice;
    let shards = a % 4;
    let per_shard = (0..shards)
        .map(|i| ShardSlo {
            shard: i as u32,
            accepted: b.rotate_left(i as u32) % 1000,
            rejected: c % 100,
            queue_full: c % 10,
            offloaded: b % 500,
            host_runs: b % 7,
            steals_out: a % 5,
            steals_in: c % 5,
            state: ["healthy", "degraded", "dead"][((a ^ i) % 3) as usize].to_owned(),
            quarantined_clusters: c % 4,
            failovers: b % 6,
            redirects: a % 6,
            p50: if (b ^ i) % 2 == 0 {
                Some(b % 100_000)
            } else {
                None
            },
            p99: if (c ^ i) % 2 == 0 {
                Some(c % 900_000)
            } else {
                None
            },
            utilization: (b % 8) as f64 / 8.0,
        })
        .collect();
    let slo = FleetSlo {
        placement: ["round_robin", "least_loaded", "model_guided"][(a % 3) as usize].to_owned(),
        shards,
        clusters_per_shard: 1 + b % 16,
        submitted: a % 10_000,
        completed: b % 10_000,
        offloaded: b % 5_000,
        host_runs: b % 11,
        rejected: c % 1_000,
        queue_full: c % 100,
        steals: a % 50,
        retries: a % 3,
        quarantined_clusters: c % 16,
        dead_shards: a % 4,
        failovers: b % 40,
        redirects: c % 40,
        deadline_met: b % 9_000,
        attainment: (a % 9) as f64 / 8.0,
        p50: if a % 2 == 0 { Some(a % 70_000) } else { None },
        p99: if b % 2 == 0 { Some(b % 800_000) } else { None },
        mean_latency: (c % 100_000) as f64 / 4.0,
        makespan: c % 10_000_000,
        per_shard,
    };
    StatsReport {
        time: a,
        slo,
        reject_reasons: [
            "degraded_machine",
            "infeasible",
            "not_enough_clusters",
            "program_lint",
            "queue_full",
        ]
        .iter()
        .take((b % 6) as usize)
        .map(|k| ((*k).to_owned(), c % 77))
        .collect(),
        counters: (0..a % 5)
            .map(|i| (format!("serve.counter_{i}"), b.wrapping_add(i)))
            .collect(),
    }
}

/// Deterministically maps free u64 dice onto a `Response`, exercising
/// every variant and every `RejectReason`.
fn response_from(dice: (u64, u64, u64, u64, u64)) -> Response {
    let (variant, client_job, a, b, c) = dice;
    match variant % 3 {
        0 => Response::JobAccepted {
            client_job,
            shard: (a % 64) as u32,
        },
        1 => Response::JobRejected {
            client_job,
            reason: match a % 5 {
                0 => RejectReason::Infeasible,
                1 => RejectReason::NotEnoughClusters { required: b },
                2 => RejectReason::ProgramLint {
                    errors: (b % 100) as u32,
                },
                3 => RejectReason::DegradedMachine {
                    required: b,
                    healthy: c,
                },
                _ => RejectReason::QueueFull { depth: b },
            },
        },
        _ => Response::JobComplete {
            client_job,
            shard: (a % 64) as u32,
            start: b,
            finish: b + c % 1_000_000,
            on_host: c % 2 == 0,
            deadline_met: b % 2 == 0,
            retries: (c % 4) as u32,
        },
    }
}

proptest! {
    /// One encoded request decodes back to itself.
    #[test]
    fn request_round_trips(
        client_job in any::<u64>(),
        kernel in any::<u64>(),
        n in any::<u64>(),
        deadline in any::<u64>(),
    ) {
        let msg = request_from((client_job, kernel, n, deadline));
        let mut dec = Decoder::new();
        dec.push(&encode(&msg));
        let got = dec.next_message::<Request>().unwrap();
        prop_assert_eq!(got, Some(msg));
        prop_assert_eq!(dec.next_message::<Request>().unwrap(), None);
        prop_assert!(dec.finish().is_ok());
    }

    /// One encoded response decodes back to itself, across all variants
    /// and reject reasons.
    #[test]
    fn response_round_trips(
        variant in any::<u64>(),
        client_job in any::<u64>(),
        a in any::<u64>(),
        b in any::<u64>(),
        c in any::<u64>(),
    ) {
        let msg = response_from((variant, client_job, a, b, c));
        let mut dec = Decoder::new();
        dec.push(&encode(&msg));
        let got = dec.next_message::<Response>().unwrap();
        prop_assert_eq!(got, Some(msg));
        prop_assert!(dec.finish().is_ok());
    }

    /// A whole stream of messages survives arbitrary re-chunking: the
    /// decoder reassembles exactly the sent sequence no matter how the
    /// bytes are split in transit.
    #[test]
    fn chunked_streams_round_trip(
        seeds in prop::collection::vec(any::<u64>(), 1..8),
        chunk in 1usize..32,
    ) {
        let msgs: Vec<Response> = seeds
            .iter()
            .map(|&s| response_from((s, s ^ 0x9e37, s >> 3, s >> 7, s >> 11)))
            .collect();
        let stream: Vec<u8> = msgs.iter().flat_map(encode).collect();
        let mut dec = Decoder::new();
        let mut got = Vec::new();
        for piece in stream.chunks(chunk) {
            dec.push(piece);
            while let Some(m) = dec.next_message::<Response>().unwrap() {
                got.push(m);
            }
        }
        prop_assert_eq!(got, msgs);
        prop_assert!(dec.finish().is_ok());
    }

    /// Every strict prefix of a valid frame — read after a frame that
    /// was already consumed, so the decoder's cursor sits mid-buffer —
    /// is "need more bytes", never a message or an error, and a stream
    /// that ends there is `Truncated` by exactly the missing byte count
    /// (of the header while it is incomplete, else of the frame). The
    /// rest of the frame then yields the message.
    #[test]
    fn strict_prefixes_wait_then_truncate(
        variant in any::<u64>(),
        client_job in any::<u64>(),
        a in any::<u64>(),
        b in any::<u64>(),
        c in any::<u64>(),
    ) {
        let lead = response_from((variant ^ 1, client_job >> 1, b, c, a));
        let msg = response_from((variant, client_job, a, b, c));
        let frame = encode(&msg);
        for cut in 1..frame.len() {
            let mut dec = Decoder::new();
            dec.push(&encode(&lead));
            dec.push(&frame[..cut]);
            prop_assert_eq!(dec.next_message::<Response>().unwrap(), Some(lead.clone()));
            prop_assert_eq!(dec.next_message::<Response>().unwrap(), None);
            prop_assert_eq!(dec.buffered(), cut);
            let missing = if cut < HEADER_LEN {
                HEADER_LEN - cut
            } else {
                frame.len() - cut
            };
            prop_assert_eq!(
                dec.finish(),
                Err(DecodeError::Truncated { buffered: cut, missing })
            );
            dec.push(&frame[cut..]);
            prop_assert_eq!(dec.next_message::<Response>().unwrap(), Some(msg.clone()));
            prop_assert_eq!(dec.buffered(), 0);
            prop_assert!(dec.finish().is_ok());
        }
    }

    /// Any interleaving of `push` and `next_message` over a multi-frame
    /// stream decodes the same messages as one whole push, and after
    /// every step `buffered()` is exactly the bytes pushed minus the
    /// bytes of the frames consumed — whenever the decoder compacts.
    #[test]
    fn interleaved_push_and_pop_match_one_push(
        seeds in prop::collection::vec(any::<u64>(), 1..24),
        steps in prop::collection::vec((1usize..600, 0usize..4), 1..16),
    ) {
        let msgs: Vec<Response> = seeds
            .iter()
            .map(|&s| response_from((s, s ^ 0x9e37, s >> 3, s >> 7, s >> 11)))
            .collect();
        let frames: Vec<Vec<u8>> = msgs.iter().map(encode).collect();
        let stream = frames.concat();

        let mut whole = Decoder::new();
        whole.push(&stream);
        let mut expected = Vec::new();
        while let Some(m) = whole.next_message::<Response>().unwrap() {
            expected.push(m);
        }
        prop_assert_eq!(&expected, &msgs);

        let mut dec = Decoder::new();
        let mut got: Vec<Response> = Vec::new();
        let (mut pushed, mut consumed) = (0usize, 0usize);
        for &(chunk, pops) in steps.iter().cycle() {
            if pushed == stream.len() {
                break;
            }
            let end = (pushed + chunk).min(stream.len());
            dec.push(&stream[pushed..end]);
            pushed = end;
            prop_assert_eq!(dec.buffered(), pushed - consumed);
            for _ in 0..pops {
                let Some(m) = dec.next_message::<Response>().unwrap() else {
                    break;
                };
                consumed += frames[got.len()].len();
                got.push(m);
                prop_assert_eq!(dec.buffered(), pushed - consumed);
            }
        }
        while let Some(m) = dec.next_message::<Response>().unwrap() {
            consumed += frames[got.len()].len();
            got.push(m);
            prop_assert_eq!(dec.buffered(), pushed - consumed);
        }
        prop_assert_eq!(got, msgs);
        prop_assert_eq!(dec.buffered(), 0);
        prop_assert!(dec.finish().is_ok());
    }

    /// A `Stats` response — the largest, most deeply nested message in
    /// the vocabulary — round-trips across `None`/`Some` quantiles,
    /// empty and populated shard lists, and both counter vectors.
    #[test]
    fn stats_report_round_trips(
        a in any::<u64>(),
        b in any::<u64>(),
        c in any::<u64>(),
    ) {
        let msg = Response::Stats { report: stats_report_from((a, b, c)) };
        let mut dec = Decoder::new();
        dec.push(&encode(&msg));
        let got = dec.next_message::<Response>().unwrap();
        prop_assert_eq!(got, Some(msg));
        prop_assert!(dec.finish().is_ok());
    }

    /// A well-framed payload of arbitrary bytes — valid magic, version
    /// and length, garbage JSON — never panics typed decoding, for
    /// either direction of the v2 vocabulary. It decodes or it returns
    /// a typed error.
    #[test]
    fn framed_garbage_never_panics_typed_decode(
        payload in prop::collection::vec(any::<u8>(), 0..96),
    ) {
        // Hand-build the frame around the garbage so only the payload
        // is adversarial: 2-byte magic "MJ", version, u32 LE length.
        let mut frame = Vec::with_capacity(7 + payload.len());
        frame.extend_from_slice(b"MJ");
        frame.push(mpsoc_serve::PROTOCOL_VERSION);
        frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        frame.extend_from_slice(&payload);

        let mut dec = Decoder::new();
        dec.push(&frame);
        let _ = dec.next_message::<Request>();
        let mut dec = Decoder::new();
        dec.push(&frame);
        let _ = dec.next_message::<Response>();
    }

    /// Adversarial bytes never panic the decoder: any junk either yields
    /// frames, a typed error, or a truncation report.
    #[test]
    fn arbitrary_bytes_never_panic(
        bytes in prop::collection::vec(any::<u8>(), 0..64),
        chunk in 1usize..16,
    ) {
        let mut dec = Decoder::new();
        let mut errored = false;
        for piece in bytes.chunks(chunk) {
            dec.push(piece);
            loop {
                match dec.next_frame() {
                    Ok(Some(_)) => {}
                    Ok(None) => break,
                    Err(_) => {
                        errored = true;
                        break;
                    }
                }
            }
            if errored {
                break;
            }
        }
        if !errored {
            // Whatever is left is either a clean boundary or a typed
            // truncation — finish() never panics either way.
            let _ = dec.finish();
        }
    }
}
