//! A real-socket front door over the daemon, std-only.
//!
//! The studies and the daemon tests run on the deterministic in-process
//! transport; this module lets a real client poke the daemon over
//! loopback. It deliberately trades fidelity for simplicity: connections
//! are served one at a time, each request (a `SubmitJob` or a
//! `GetStats` poll) is scripted at a virtual time equal to its order of
//! arrival times a fixed tick, and the connection's jobs are drained to
//! completion before the responses are written back — request/response
//! over TCP, not a cycle-accurate wire model.
//!
//! Nothing else in the crate depends on it.

use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream, ToSocketAddrs};

use crate::daemon::{ClientScript, Daemon, ServeError};
use crate::proto::Request;
use crate::wire::{encode, DecodeError, Decoder};

/// Virtual cycles between consecutive requests on one connection.
const TICK: u64 = 1_000;

/// A blocking one-connection-at-a-time TCP front door over a daemon.
pub struct TcpServer {
    listener: TcpListener,
}

impl TcpServer {
    /// Binds to `addr`.
    ///
    /// # Errors
    ///
    /// Propagates the bind failure.
    pub fn bind(addr: impl ToSocketAddrs) -> std::io::Result<Self> {
        Ok(TcpServer {
            listener: TcpListener::bind(addr)?,
        })
    }

    /// The bound local address.
    ///
    /// # Errors
    ///
    /// Propagates the lookup failure.
    pub fn local_addr(&self) -> std::io::Result<std::net::SocketAddr> {
        self.listener.local_addr()
    }

    /// Serves `connections` connections, then returns. Each connection's
    /// request frames are read until EOF, replayed through `daemon` as
    /// one scripted session, and the response frames written back.
    ///
    /// # Errors
    ///
    /// I/O failures; decode failures and fleet errors are reported as
    /// `io::ErrorKind::InvalidData` with the typed error's message.
    pub fn serve(&self, daemon: &mut Daemon, connections: usize) -> std::io::Result<()> {
        for _ in 0..connections {
            let (stream, _) = self.listener.accept()?;
            handle(stream, daemon)?;
        }
        Ok(())
    }
}

fn invalid(e: impl std::fmt::Display) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string())
}

fn handle(mut stream: TcpStream, daemon: &mut Daemon) -> std::io::Result<()> {
    let mut decoder = Decoder::new();
    let mut buf = [0u8; 4096];
    let mut script = ClientScript::new();
    let mut when = 0u64;
    loop {
        let n = stream.read(&mut buf)?;
        if n == 0 {
            break;
        }
        decoder.push(&buf[..n]);
        while let Some(request) = decoder.next_message::<Request>().map_err(invalid)? {
            script.sends.push((when, request));
            when += TICK;
        }
    }
    decoder.finish().map_err(invalid)?;
    let logs = daemon.run(&[script]).map_err(|e: ServeError| invalid(e))?;
    stream.write_all(&logs[0].outbound)?;
    Ok(())
}

/// A minimal blocking client for the TCP front door: sends every
/// request, half-closes, and reads all responses.
///
/// # Errors
///
/// I/O failures; undecodable responses surface as
/// `io::ErrorKind::InvalidData`.
pub fn roundtrip(
    addr: impl ToSocketAddrs,
    requests: &[Request],
) -> std::io::Result<Vec<crate::proto::Response>> {
    let mut stream = TcpStream::connect(addr)?;
    for r in requests {
        stream.write_all(&encode(r))?;
    }
    stream.shutdown(std::net::Shutdown::Write)?;
    let mut bytes = Vec::new();
    stream.read_to_end(&mut bytes)?;
    let mut dec = Decoder::new();
    dec.push(&bytes);
    let mut out = Vec::new();
    while let Some(r) = dec
        .next_message::<crate::proto::Response>()
        .map_err(invalid)?
    {
        out.push(r);
    }
    dec.finish().map_err(|e: DecodeError| invalid(e))?;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fleet::{Fleet, FleetConfig, PlacementPolicy};
    use crate::proto::Response;
    use mpsoc_sched::{KernelId, ModelTable};

    #[test]
    fn tcp_round_trip_serves_one_connection() {
        let server = TcpServer::bind("127.0.0.1:0").expect("bind");
        let addr = server.local_addr().expect("addr");
        let handle = std::thread::spawn(move || {
            let mut daemon = Daemon::new(Fleet::analytic(
                FleetConfig {
                    shards: 2,
                    clusters_per_shard: 2,
                    queue_limit: 8,
                    placement: PlacementPolicy::LeastLoaded,
                    steal: true,
                    redirect_budget: 0,
                    failover: false,
                },
                &ModelTable::paper_defaults(),
            ));
            server.serve(&mut daemon, 1).expect("serve");
        });
        let responses = roundtrip(
            addr,
            &[
                Request::SubmitJob {
                    client_job: 5,
                    kernel: KernelId::Daxpy,
                    n: 1024,
                    deadline: 100_000,
                },
                Request::GetStats,
            ],
        )
        .expect("roundtrip");
        handle.join().expect("server thread");
        assert_eq!(responses.len(), 3);
        assert!(matches!(
            responses[0],
            Response::JobAccepted { client_job: 5, .. }
        ));
        // The poll is scripted one tick after the submit.
        let report = responses
            .iter()
            .find_map(|r| match r {
                Response::Stats { report } => Some(report),
                _ => None,
            })
            .expect("the poll is answered");
        assert_eq!(report.time, TICK);
        assert_eq!(report.slo.submitted, 1);
        assert!(responses
            .iter()
            .any(|r| matches!(r, Response::JobComplete { client_job: 5, .. })));
    }
}
