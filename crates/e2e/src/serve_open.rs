//! `serve_open`: the in-process `TenantServer` under an **open-loop**
//! bursty arrival schedule. Admission, the weighted-fair lanes, batch
//! coalescing, deadline tiering and the stats ledger do the work; codec
//! and net do none; the model is a minority share.

use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use engine::faults::ArrivalPattern;
use serve::ServeStatsSnapshot;

use crate::fixture::{Fixture, Sizes};
use crate::harness::{Check, RoundRaw, Verified, Workload};
use crate::serving::{verify_against_library, Served, TENANTS};
use crate::span::{Tracer, ROOT};
use crate::stream::{latency_from_due, method_of, tenant_index, tenant_of, wait_until};

/// Deadline carried by every request.
const DEADLINE: Duration = Duration::from_millis(50);

/// Requests per burst of the arrival schedule.
const BURST: usize = 32;

/// Most requests of one tenant the generator keeps in flight, under the
/// default 64-deep tenant lane. The schedule is open loop up to here: a
/// generator that a host stall put behind would otherwise submit its whole
/// backlog at once, overflow the lane and have the excess refused. Waiting
/// for room is charged to the request, whose latency runs from its due time.
const WINDOW: u64 = 48;

/// State of the `serve_open` workload.
pub struct ServeOpen {
    fx: Fixture,
    served: Served,
    seed: u64,
    rate: f64,
    requests: usize,
}

impl Workload for ServeOpen {
    const NAME: &'static str = "serve_open";
    const LIMIT: Duration = Duration::from_millis(2);

    fn work_per_op(_: &Sizes) -> u64 {
        1
    }

    fn set_up(sizes: &Sizes, seed: u64, dir: &Path) -> ServeOpen {
        let fx = Fixture::build(sizes, seed);
        let served = Served::start(&fx, dir);
        ServeOpen {
            fx,
            served,
            seed,
            rate: sizes.open_rate,
            requests: sizes.open_requests,
        }
    }

    fn context(&self) -> String {
        format!(
            "1 generator + 1 collector thread, {} req/s in bursts of {BURST}, server workers={}",
            self.rate,
            ml::par::resolve_workers(None)
        )
    }

    fn round<T: Tracer + Send>(&mut self, round: usize, tracer: &mut T) -> RoundRaw {
        let n = self.requests;
        let offsets = ArrivalPattern::Bursty {
            burst: BURST,
            seed: self.seed.wrapping_add(round as u64),
        }
        .arrival_offsets(n, self.rate);
        let first = (round * n) as u64;
        let (fx, server) = (&self.fx, &self.served.server);
        let mut collector_trace = tracer.fork();
        let (tx, rx) = mpsc::channel();
        // Answers the collector has seen, per tenant: what the generator's
        // in-flight window counts against.
        let done = [AtomicU64::new(0), AtomicU64::new(0)];
        // The first arrival is due a little after the threads exist.
        let start = Instant::now() + Duration::from_millis(2);
        let (gen_late_ns, (ok_latencies_ns, finished)) = std::thread::scope(|scope| {
            let collector = scope.spawn(|| {
                let mut latencies = Vec::with_capacity(n);
                let mut finished = start;
                for (id, due, pending) in rx {
                    let pending: Result<serve::PendingPrediction, qpp::QppError> = pending;
                    let span = collector_trace.enter("serve.tenant.wait", ROOT, id);
                    // A request the server refused or let expire is asked
                    // again, without a deadline, as a client would: it is
                    // answered late (and misses its SLO) instead of never.
                    let answer = pending.and_then(|p| p.wait()).or_else(|_| {
                        server.predict(tenant_of(id), fx.request(id).clone(), method_of(id), None)
                    });
                    collector_trace.exit(span);
                    finished = Instant::now();
                    done[tenant_index(id)].fetch_add(1, Ordering::Release);
                    if answer.is_ok() {
                        latencies.push(latency_from_due(due, finished).as_nanos() as u64);
                    }
                }
                (latencies, finished)
            });
            let mut late = Vec::with_capacity(n);
            let mut sent = [0u64; 2];
            for (k, offset) in offsets.iter().enumerate() {
                let id = first + k as u64;
                let due = start + Duration::from_secs_f64(*offset);
                let mut lateness = wait_until(due);
                let tenant = tenant_index(id);
                while sent[tenant] - done[tenant].load(Ordering::Acquire) >= WINDOW {
                    std::thread::yield_now();
                    lateness = due.elapsed();
                }
                sent[tenant] += 1;
                late.push(lateness.as_nanos() as u64);
                let span = tracer.enter("serve.tenant.submit", ROOT, id);
                let pending = server.submit(
                    TENANTS[tenant],
                    fx.request(id).clone(),
                    method_of(id),
                    Some(DEADLINE),
                );
                tracer.exit(span);
                tx.send((id, due, pending))
                    .expect("collector outlives the generator");
            }
            drop(tx);
            (late, collector.join().expect("collector thread"))
        });
        tracer.absorb(collector_trace);
        RoundRaw {
            wall: finished - start,
            attempted: n as u64,
            ok_latencies_ns,
            gen_late_ns,
        }
    }

    fn verify(&mut self) -> Verified {
        let server = &self.served.server;
        let reference = &self.served.reference;
        let mut verified = verify_against_library(
            &self.fx,
            reference,
            "TenantServer::predict (gold)",
            |q, m| server.predict(TENANTS[0], q.clone(), m, None),
        );
        let bronze = verify_against_library(
            &self.fx,
            reference,
            "TenantServer::predict (bronze)",
            |q, m| server.predict(TENANTS[1], q.clone(), m, None),
        );
        verified.checks.extend(bronze.checks);
        verified
    }

    fn tear_down(self) -> Vec<Check> {
        self.served.shut_down()
    }
}

impl ServeOpen {
    /// Both tenants' serving ledgers (per-layer readings).
    pub fn stats(&self) -> Vec<ServeStatsSnapshot> {
        TENANTS
            .iter()
            .map(|t| self.served.server.stats(t).expect("tenant exists"))
            .collect()
    }
}
