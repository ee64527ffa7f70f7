//! `wire_closed`: the TCP front door on loopback, two persistent clients
//! in **closed loop** against tenant `gold`. Queue depth never exceeds
//! two and batches are size one, so codec, socket reads/writes and the
//! four thread hand-offs dominate and the model is a small share. It is
//! the same `serve::tenant` path as `serve_open` used the opposite way
//! (no coalescing): a batching-window trick that helps one must not cost
//! the other.

use std::path::Path;
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use qpp::{ExecutedQuery, Method};
use serve::{Client, NetConfig, NetServer, NetStatsSnapshot, Request};

use crate::fixture::{Fixture, Sizes};
use crate::harness::{Check, RoundRaw, Verified, Workload};
use crate::serving::{verify_against_library, Served, TENANTS};
use crate::span::{Tracer, ROOT};
use crate::stream::method_of;

/// Closed-loop connections (≤ `nproc` on the reference host).
pub const CLIENTS: usize = 2;

/// State of the `wire_closed` workload.
pub struct WireClosed {
    fx: Fixture,
    served: Served,
    net: NetServer,
    clients: Vec<Client>,
    requests: usize,
}

/// A request about `query`, addressed to `gold`, without a deadline.
fn gold_request(id: u64, method: Method, query: &ExecutedQuery) -> Request {
    Request {
        id,
        tenant: TENANTS[0].to_string(),
        method,
        deadline_micros: None,
        query: query.clone(),
    }
}

/// The request for stream position `id`.
pub fn request_for(fx: &Fixture, id: u64) -> Request {
    gold_request(id, method_of(id), fx.request(id))
}

impl Workload for WireClosed {
    const NAME: &'static str = "wire_closed";
    const LIMIT: Duration = Duration::from_millis(1);

    fn work_per_op(_: &Sizes) -> u64 {
        1
    }

    fn set_up(sizes: &Sizes, seed: u64, dir: &Path) -> WireClosed {
        let fx = Fixture::build(sizes, seed);
        let served = Served::start(&fx, dir);
        let net = NetServer::bind(
            "127.0.0.1:0",
            Arc::clone(&served.server),
            NetConfig::default(),
        )
        .expect("loopback bind");
        let clients = (0..CLIENTS)
            .map(|_| Client::connect(net.local_addr()).expect("loopback connect"))
            .collect();
        WireClosed {
            fx,
            served,
            net,
            clients,
            requests: sizes.wire_requests,
        }
    }

    fn context(&self) -> String {
        format!(
            "{CLIENTS} closed-loop connections, net workers={}, server workers={}",
            NetConfig::default().max_connections,
            ml::par::resolve_workers(None)
        )
    }

    fn round<T: Tracer + Send>(&mut self, round: usize, tracer: &mut T) -> RoundRaw {
        let n = self.requests;
        let fx = &self.fx;
        let first = (round * n * CLIENTS) as u64;
        let barrier = Barrier::new(CLIENTS);
        let mut forks: Vec<T> = (0..CLIENTS).map(|_| tracer.fork()).collect();
        let per_client: Vec<(Duration, Vec<u64>)> = std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .clients
                .iter_mut()
                .zip(forks.iter_mut())
                .enumerate()
                .map(|(c, (client, trace))| {
                    let barrier = &barrier;
                    scope.spawn(move || {
                        let mut latencies = Vec::with_capacity(n);
                        barrier.wait();
                        let started = Instant::now();
                        for k in 0..n {
                            let id = first + (k * CLIENTS + c) as u64;
                            let request = request_for(fx, id);
                            let t = Instant::now();
                            let span = trace.enter("serve.net.request", ROOT, id);
                            let answer = client.request(request);
                            trace.exit(span);
                            if matches!(answer, Ok(Ok(_))) {
                                latencies.push(t.elapsed().as_nanos() as u64);
                            }
                        }
                        (started.elapsed(), latencies)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread"))
                .collect()
        });
        for fork in forks {
            tracer.absorb(fork);
        }
        RoundRaw {
            wall: per_client
                .iter()
                .map(|(wall, _)| *wall)
                .max()
                .unwrap_or_default(),
            attempted: (n * CLIENTS) as u64,
            ok_latencies_ns: per_client.into_iter().flat_map(|(_, l)| l).collect(),
            gen_late_ns: Vec::new(),
        }
    }

    fn verify(&mut self) -> Verified {
        let (fx, reference) = (&self.fx, &self.served.reference);
        let client = &mut self.clients[0];
        let mut next_id = u64::MAX / 2;
        let mut verified = verify_against_library(fx, reference, "Client::request", |q, m| {
            next_id += 1;
            client
                .request(gold_request(next_id, m, q))
                .unwrap_or(Err(qpp::QppError::Internal("transport error")))
        });
        let server = &self.served.server;
        let in_process =
            verify_against_library(fx, reference, "TenantServer::predict (gold)", |q, m| {
                server.predict(TENANTS[0], q.clone(), m, None)
            });
        verified.checks.extend(in_process.checks);
        verified
    }

    fn tear_down(mut self) -> Vec<Check> {
        drop(std::mem::take(&mut self.clients));
        let ledger = self.net.shutdown();
        let mut checks = vec![
            Check::new("NetStatsSnapshot reconciles", ledger.reconciles()),
            Check::new("no session panicked", ledger.session_panics == 0),
        ];
        drop(self.net);
        checks.extend(self.served.shut_down());
        checks
    }
}

impl WireClosed {
    /// The front door's live counters (per-layer readings).
    pub fn net_stats(&self) -> NetStatsSnapshot {
        self.net.stats()
    }

    /// The bound loopback address.
    pub fn addr(&self) -> std::net::SocketAddr {
        self.net.local_addr()
    }

    /// The inputs, the in-process server behind the door, and one
    /// connected client — what the traced staircase replay drives.
    pub fn parts(&mut self) -> (&Fixture, &Served, &mut Client) {
        (&self.fx, &self.served, &mut self.clients[0])
    }
}
