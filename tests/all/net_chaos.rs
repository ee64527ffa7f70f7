//! Seeded network chaos against the TCP front door, end to end
//! (DESIGN.md §11): a noisy client drives `NetFaultPlan`-scripted wire
//! faults — partial writes with mid-frame stalls, mid-frame disconnects,
//! byte-corrupted frames, stalled readers — interleaved with a clean
//! quiet-tenant client, and
//!
//! 1. the quiet tenant's responses are bit-identical to a fault-free
//!    run of the same request sequence,
//! 2. no worker thread dies: every session panic would be counted, and
//!    the front door still serves fresh connections after the chaos,
//! 3. shutdown — with three clients still mid-burst — reconciles exactly,
//!    at both layers: the front door's
//!    `accepted == served + shed + missed + aborted`, and the tenant
//!    server's per-tenant `accepted == served + deadline_missed`.

use crate::support::{quiet_sim, registry_over, spec, TempDir};
use engine::Catalog;
use qpp::{ExecutedQuery, Method, QueryDataset};
use rng::StdRng;
use serve::tenant::{TenantServeConfig, TenantServer};
use serve::{Client, Frame, NetConfig, NetServer, Request};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::Duration;
use tpch::Workload;

/// The network fault decisions for one wire frame, fully determined by
/// the [`NetFaultPlan`], the frame id, and the frame length.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NetFaultOutcome {
    /// Split the frame's write at this byte offset and pause between the
    /// two halves (a client flushing a partial frame, then stalling).
    /// `None` = the frame is written in one piece.
    pub partial_write_at: Option<usize>,
    /// Close the connection after writing this many bytes of the frame —
    /// a mid-frame disconnect. Offsets are strictly inside the frame, so
    /// the receiver always observes a truncated frame, never a clean
    /// close. `None` = no disconnect.
    pub disconnect_at: Option<usize>,
    /// XOR the frame byte at `.0` with the (non-zero) mask `.1` before
    /// writing — a corrupted frame the receiver must reject without
    /// dying. `None` = the frame goes out intact.
    pub corrupt_at: Option<(usize, u8)>,
    /// Seconds the client stalls *between* the split halves of a partial
    /// write, and before reading its reply — the slow-client behaviour a
    /// slowloris-evicting server must bound. 0.0 = no stall.
    pub stall_secs: f64,
}

/// A seeded, deterministic fault-injection policy for the *wire* layer
/// (the networked front door), mirroring `engine::faults::FaultPlan`'s
/// contract: the same (plan, frame id, frame length) triple always yields
/// the same faults, so network-chaos e2e tests are exactly reproducible.
///
/// Probabilities are per frame. A frame draws at most one of
/// {partial write, disconnect, corruption} (checked in that order), plus
/// an independent stall decision, so outcomes compose without the
/// injection layers masking each other.
#[derive(Debug, Clone, PartialEq)]
pub struct NetFaultPlan {
    /// Probability that a frame's write is split with a pause in between.
    pub partial_write_prob: f64,
    /// Probability that the connection drops mid-frame.
    pub disconnect_prob: f64,
    /// Probability that one frame byte is corrupted in flight.
    pub corrupt_prob: f64,
    /// Probability that the client stalls (slow writer/reader).
    pub stall_prob: f64,
    /// Stall duration in seconds when a stall fires (values below 0 are
    /// treated as 0).
    pub stall_secs: f64,
    /// Fault-stream seed, decorrelated from the serving-layer streams.
    pub seed: u64,
}

impl NetFaultPlan {
    /// A plan that injects nothing: every frame arrives intact, in one
    /// piece, from a prompt client.
    pub fn none() -> NetFaultPlan {
        NetFaultPlan {
            partial_write_prob: 0.0,
            disconnect_prob: 0.0,
            corrupt_prob: 0.0,
            stall_prob: 0.0,
            stall_secs: 0.02,
            seed: 0,
        }
    }

    /// The fault decisions for the frame identified by `frame_id`, which
    /// is `frame_len` bytes long on the wire. Deterministic: the same
    /// (plan, frame_id, frame_len) triple always returns the same
    /// outcome. Frames shorter than two bytes cannot be meaningfully
    /// split, truncated, or corrupted mid-frame and draw no byte faults.
    pub fn decide(&self, frame_id: u64, frame_len: usize) -> NetFaultOutcome {
        let mut rng = StdRng::seed_from_u64(
            self.seed ^ frame_id.wrapping_mul(0xD6E8_FEB8_6659_FD93) ^ 0x3E_7C0,
        );
        let partial = rng.gen_f64() < self.partial_write_prob;
        let disconnect = rng.gen_f64() < self.disconnect_prob;
        let corrupt = rng.gen_f64() < self.corrupt_prob;
        let stall = rng.gen_f64() < self.stall_prob;
        // Draw the offsets and mask unconditionally so the decision of
        // *whether* a fault fires never perturbs the stream feeding
        // *where* it lands (same idiom as FaultPlan::decide).
        let split_off = if frame_len >= 2 {
            rng.gen_range(1..frame_len)
        } else {
            0
        };
        let cut_off = if frame_len >= 2 {
            rng.gen_range(1..frame_len)
        } else {
            0
        };
        let corrupt_off = if frame_len >= 2 {
            rng.gen_range(0..frame_len)
        } else {
            0
        };
        let mask = rng.gen_range(1u8..=255);
        let byte_faults_possible = frame_len >= 2;
        NetFaultOutcome {
            partial_write_at: (partial && byte_faults_possible).then_some(split_off),
            disconnect_at: (disconnect && !partial && byte_faults_possible).then_some(cut_off),
            corrupt_at: (corrupt && !partial && !disconnect && byte_faults_possible)
                .then_some((corrupt_off, mask)),
            stall_secs: if stall { self.stall_secs.max(0.0) } else { 0.0 },
        }
    }
}

impl Default for NetFaultPlan {
    fn default() -> Self {
        NetFaultPlan::none()
    }
}

fn request_frame(id: u64, tenant: &str, query: &ExecutedQuery) -> Vec<u8> {
    Frame::Request(Request {
        id,
        tenant: tenant.to_string(),
        method: Method::PlanLevel,
        deadline_micros: None,
        query: query.clone(),
    })
    .encode()
}

/// One quiet-tenant request over the wire; returns the prediction's raw
/// bits after checking the reply id echoes the request id.
fn quiet_call(client: &mut Client, id: u64, query: &ExecutedQuery) -> u64 {
    let frame = Frame::Request(Request {
        id,
        tenant: "quiet".to_string(),
        method: Method::PlanLevel,
        deadline_micros: None,
        query: query.clone(),
    });
    match client.call(&frame).expect("quiet transport") {
        Frame::Response(r) => {
            assert_eq!(r.id, id, "reply id must echo the request id");
            r.prediction.value.to_bits()
        }
        other => panic!("quiet request {id} answered with {other:?}"),
    }
}

/// Replays one noisy frame under its scripted fault outcome. Fresh
/// connection per frame, so a mid-frame disconnect hurts only itself.
fn noisy_chaos_frame(addr: SocketAddr, bytes: &[u8], plan: &NetFaultPlan, frame_id: u64) {
    let outcome = plan.decide(frame_id, bytes.len());
    let stall = Duration::from_secs_f64(outcome.stall_secs);
    let mut stream = TcpStream::connect(addr).expect("noisy connect");
    let _ = stream.set_nodelay(true);
    // Corrupting the length field can leave the server waiting for bytes
    // that never come (it evicts us on its read deadline, sending no
    // reply), so every reply read is bounded.
    let _ = stream.set_read_timeout(Some(Duration::from_secs(2)));

    if let Some(cut) = outcome.disconnect_at {
        let _ = stream.write_all(&bytes[..cut]);
        return; // dropping the stream is the mid-frame disconnect
    }
    let mut wire = bytes.to_vec();
    if let Some((offset, mask)) = outcome.corrupt_at {
        wire[offset] ^= mask;
    }
    if let Some(split) = outcome.partial_write_at {
        stream.write_all(&wire[..split]).expect("first half");
        stream.flush().expect("flush");
        std::thread::sleep(stall);
        let _ = stream.write_all(&wire[split..]);
    } else {
        stream.write_all(&wire).expect("whole frame");
        if !stall.is_zero() {
            // A stalled reader: the reply sits in our receive buffer
            // while the server has long moved on.
            std::thread::sleep(stall);
        }
    }
    // Best-effort reply read; corrupted frames may earn a typed
    // malformed-frame error, an eviction, or a different prediction —
    // the assertions live on the quiet tenant and the final ledgers.
    let mut reply = [0u8; 4096];
    let _ = stream.read(&mut reply);
}

#[test]
fn seeded_wire_chaos_spares_the_quiet_tenant_and_reconciles_exactly() {
    let catalog = Catalog::new(0.1, 1);
    let ds = QueryDataset::execute(
        &catalog,
        &Workload::generate(&[1, 6, 14], 6, 0.1, 7),
        &quiet_sim(),
        11,
        f64::INFINITY,
    );
    let queries: Vec<ExecutedQuery> = ds.queries.clone();
    let dirs = [
        TempDir::new("netchaos-quiet"),
        TempDir::new("netchaos-noisy"),
    ];
    let [quiet_registry, noisy_registry] = dirs.each_ref().map(|dir| registry_over(&ds, dir));
    let net_config = NetConfig {
        max_connections: 4,
        // Short read deadline so slowloris eviction is cheap to trigger.
        read_timeout: Duration::from_millis(200),
        write_timeout: Duration::from_secs(1),
        drain: Duration::from_secs(2),
    };
    let rounds = 30usize;

    // Fault-free baseline: the quiet tenant's bit-exact answers.
    let server = Arc::new(TenantServer::start(
        vec![
            spec("quiet", &quiet_registry),
            spec("noisy", &noisy_registry),
        ],
        TenantServeConfig::default(),
    ));
    let baseline: Vec<u64> = {
        let mut net =
            NetServer::bind(("127.0.0.1", 0), Arc::clone(&server), net_config.clone()).unwrap();
        let mut client = Client::connect(net.local_addr()).expect("baseline connect");
        let bits = (0..rounds)
            .map(|i| quiet_call(&mut client, i as u64, &queries[i % queries.len()]))
            .collect();
        drop(client);
        let snap = net.shutdown();
        assert!(snap.reconciles(), "baseline ledger must balance: {snap:?}");
        assert_eq!(snap.served, rounds as u64);
        assert_eq!(snap.session_panics, 0);
        bits
    };

    // Chaos run: same quiet sequence, now interleaved with a seeded
    // noisy fault stream on fresh connections.
    let mut net =
        NetServer::bind(("127.0.0.1", 0), Arc::clone(&server), net_config.clone()).unwrap();
    let addr = net.local_addr();
    let plan = NetFaultPlan {
        partial_write_prob: 0.3,
        disconnect_prob: 0.25,
        corrupt_prob: 0.25,
        stall_prob: 0.3,
        stall_secs: 0.03,
        seed: 17,
    };
    let mut quiet_client = Client::connect(addr).expect("quiet connect");
    let mut chaos_bits = Vec::with_capacity(rounds);
    for i in 0..rounds {
        let noisy = request_frame(1_000 + i as u64, "noisy", &queries[(i * 7) % queries.len()]);
        noisy_chaos_frame(addr, &noisy, &plan, i as u64);
        chaos_bits.push(quiet_call(
            &mut quiet_client,
            i as u64,
            &queries[i % queries.len()],
        ));
    }
    assert_eq!(
        chaos_bits, baseline,
        "quiet tenant's answers must be bit-identical under wire chaos"
    );

    // A slowloris: starts a frame, then stalls past the read deadline.
    // The server must evict it rather than hold a worker hostage.
    {
        let mut slow = TcpStream::connect(addr).expect("slowloris connect");
        slow.write_all(b"QPW").expect("partial header");
        std::thread::sleep(Duration::from_millis(600));
        let _ = slow.write_all(b"1");
        let mut buf = [0u8; 16];
        let _ = slow.set_read_timeout(Some(Duration::from_secs(2)));
        let n = slow.read(&mut buf).unwrap_or(0);
        assert_eq!(n, 0, "the evicted connection must be closed, not answered");
    }

    // A garbage header on a fresh connection earns a typed malformed
    // reply (best-effort) and a close — never a worker death.
    {
        let mut garbage = TcpStream::connect(addr).expect("garbage connect");
        garbage
            .write_all(b"HTTP/1.1 GET /predict\r\n")
            .expect("garbage write");
        let _ = garbage.set_read_timeout(Some(Duration::from_secs(2)));
        let mut reply = Vec::new();
        let _ = garbage.read_to_end(&mut reply);
        let frame = Frame::decode(&reply, serve::DEFAULT_MAX_FRAME)
            .expect("garbage earns a well-formed error frame");
        match frame {
            Frame::Error(e) => {
                assert_eq!(e.error, qpp::QppError::Internal("malformed request frame"));
            }
            other => panic!("expected a typed error, got {other:?}"),
        }
    }

    // A valid envelope with a non-request kind keeps the connection: the
    // same session must answer the error *and* then serve a request.
    {
        let mut client = Client::connect(addr).expect("post-chaos connect");
        let bogus = Frame::Response(serve::Response {
            id: 9,
            prediction: qpp::Prediction {
                value: 1.0,
                method_used: qpp::PredictionTier::PlanLevel,
                degraded: false,
            },
        });
        match client.call(&bogus).expect("bogus kind transport") {
            Frame::Error(e) => {
                assert_eq!(e.error, qpp::QppError::Internal("malformed request frame"));
            }
            other => panic!("expected a typed error, got {other:?}"),
        }
        let bits = quiet_call(&mut client, 0, &queries[0]);
        assert_eq!(bits, baseline[0], "the session survived the bad frame");
    }

    drop(quiet_client);
    let snap = net.shutdown();
    assert_eq!(
        snap.session_panics, 0,
        "no worker session may panic: {snap:?}"
    );
    assert!(
        snap.conns_evicted >= 1,
        "the slowloris must be evicted: {snap:?}"
    );
    assert!(snap.malformed_frames >= 2, "garbage + bogus kind: {snap:?}");
    assert!(
        snap.reconciles(),
        "front-door ledger must balance exactly: {snap:?}"
    );
    // Chaos adds the quiet calls plus every noisy frame that survived
    // its faults intact enough to decode as a request.
    assert!(snap.accepted > rounds as u64, "{snap:?}");

    // Drain under load, on a front door of its own so that every count is
    // this burst's: three persistent clients are mid-burst when it shuts
    // down. A client gets its reply or a closed connection, and every
    // request a session took leaves by exactly one exit.
    let mut net = NetServer::bind(("127.0.0.1", 0), Arc::clone(&server), net_config).unwrap();
    let addr = net.local_addr();
    let airborne = 60u64;
    let (first_reply, first_replies) = std::sync::mpsc::channel();
    let loaders: Vec<_> = (0..3)
        .map(|_| {
            let queries = queries.clone();
            let first_reply = first_reply.clone();
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).expect("loader connect");
                let mut delivered = 0u64;
                for i in 0.. {
                    let request = Request {
                        id: i as u64,
                        tenant: "quiet".to_string(),
                        method: Method::PlanLevel,
                        deadline_micros: None,
                        query: queries[i % queries.len()].clone(),
                    };
                    // A typed refusal leaves by `shed` or `missed`; a
                    // transport error is the drain closing the session.
                    match client.request(request) {
                        Ok(reply) => {
                            if i == 0 {
                                first_reply.send(()).expect("the test is waiting");
                            }
                            delivered += u64::from(reply.is_ok());
                        }
                        Err(_) => break,
                    }
                }
                delivered
            })
        })
        .collect();
    // The plug is pulled on a count, not a sleep: every client has a
    // session and the burst is in flight.
    for _ in 0..3 {
        first_replies
            .recv()
            .expect("a loader died before its first reply");
    }
    while net.stats().served < airborne {
        std::thread::yield_now();
    }
    let snap = net.shutdown();
    let delivered: u64 = loaders
        .into_iter()
        .map(|h| h.join().expect("loader thread"))
        .sum();
    assert!(
        snap.reconciles(),
        "drain ledger must balance exactly: {snap:?}"
    );
    assert!(snap.served >= airborne, "{snap:?}");
    assert_eq!(
        snap.served, delivered,
        "a served request is one whose reply the peer received: {snap:?}"
    );
    assert_eq!(snap.session_panics, 0, "{snap:?}");

    // The tenant server's own ledgers balance too, per tenant.
    let report = server.shutdown();
    assert!(
        report.reconciles(),
        "tenant ledgers must balance: {:?}",
        report
            .tenants
            .iter()
            .map(|(n, s)| (n.clone(), s.submitted, s.served, s.deadline_missed))
            .collect::<Vec<_>>()
    );
}

/// The accept backlog's two exits: a connection that finds it full reads
/// one typed `Overloaded` frame and EOF, and one still queued at shutdown
/// is closed unread.
#[test]
fn a_full_backlog_refuses_with_a_typed_frame_and_shutdown_closes_the_queued() {
    let server = Arc::new(TenantServer::start(
        Vec::new(),
        TenantServeConfig::default(),
    ));
    let mut net = NetServer::bind(
        ("127.0.0.1", 0),
        server,
        NetConfig {
            max_connections: 1,
            // The silent session's idle budget (20x) outlives the test.
            read_timeout: Duration::from_secs(2),
            ..NetConfig::default()
        },
    )
    .unwrap();
    let addr = net.local_addr();
    // The one worker's session: a client that never sends a byte.
    let held = TcpStream::connect(addr).expect("held connect");
    while net.stats().conns_accepted < 1 {
        std::thread::yield_now();
    }
    // One worker plus 32 backlog slots hold at most 33 of these 35.
    let mut conns: Vec<(TcpStream, Vec<u8>, bool)> = (0..34)
        .map(|_| {
            let stream = TcpStream::connect(addr).expect("backlog connect");
            stream.set_nonblocking(true).unwrap();
            (stream, Vec::new(), false)
        })
        .collect();
    while net.stats().conns_accepted < 35 {
        std::thread::yield_now();
    }
    // Each refusal is counted before its frame is written: poll until as
    // many connections reached EOF as the ledger counts refusals.
    let started = std::time::Instant::now();
    loop {
        for (stream, bytes, eof) in conns.iter_mut().filter(|c| !c.2) {
            let mut buf = [0u8; 256];
            loop {
                match stream.read(&mut buf) {
                    Ok(0) => {
                        *eof = true;
                        break;
                    }
                    Ok(n) => bytes.extend_from_slice(&buf[..n]),
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                    Err(e) => panic!("a refused or queued connection errored: {e}"),
                }
            }
        }
        let closed = conns.iter().filter(|c| c.2).count() as u64;
        if closed == net.stats().conns_refused {
            break;
        }
        assert!(
            started.elapsed() < Duration::from_secs(10),
            "refusals never arrived"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    let refused: Vec<&Vec<u8>> = conns.iter().filter(|c| c.2).map(|c| &c.1).collect();
    assert!(
        !refused.is_empty(),
        "35 connections must overflow one worker + 32 slots"
    );
    assert_eq!(net.stats().conns_refused, refused.len() as u64);
    for bytes in &refused {
        // `decode` refuses trailing bytes: exactly one frame arrived.
        match Frame::decode(bytes, serve::DEFAULT_MAX_FRAME).expect("one whole frame") {
            Frame::Error(e) => {
                assert_eq!(e.error, qpp::QppError::Overloaded { queue_depth: 32 });
            }
            other => panic!("a refusal must be a typed error, got {other:?}"),
        }
    }

    let snap = net.shutdown();
    conns.push((held, Vec::new(), false));
    for (stream, bytes, _) in conns.iter_mut().filter(|c| !c.2) {
        assert!(bytes.is_empty(), "a queued connection was answered");
        stream.set_nonblocking(false).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(2)))
            .unwrap();
        stream
            .read_to_end(bytes)
            .expect("queued connection closes cleanly");
        assert!(
            bytes.is_empty(),
            "a queued connection was answered at shutdown"
        );
    }
    assert_eq!(snap.conns_accepted, 35, "{snap:?}");
    assert_eq!(snap.accepted, 0, "no request was read: {snap:?}");
    assert!(snap.reconciles(), "{snap:?}");
    assert_eq!(snap.session_panics, 0, "{snap:?}");
}

#[test]
fn net_faults_are_deterministic_and_none_is_inert() {
    let none = NetFaultPlan::none();
    for id in 0..200 {
        let o = none.decide(id, 64);
        assert_eq!(o.partial_write_at, None);
        assert_eq!(o.disconnect_at, None);
        assert_eq!(o.corrupt_at, None);
        assert_eq!(o.stall_secs, 0.0);
    }
    let plan = NetFaultPlan {
        partial_write_prob: 0.3,
        disconnect_prob: 0.3,
        corrupt_prob: 0.3,
        stall_prob: 0.3,
        stall_secs: 0.01,
        seed: 23,
    };
    for id in 0..100 {
        assert_eq!(plan.decide(id, 128), plan.decide(id, 128));
    }
}

#[test]
fn net_fault_offsets_stay_inside_the_frame_and_exclude_each_other() {
    let plan = NetFaultPlan {
        partial_write_prob: 0.4,
        disconnect_prob: 0.4,
        corrupt_prob: 0.4,
        stall_prob: 0.2,
        stall_secs: 0.005,
        seed: 31,
    };
    for frame_len in [2usize, 9, 64, 4096] {
        for id in 0..500 {
            let o = plan.decide(id, frame_len);
            let fired = o.partial_write_at.is_some() as usize
                + o.disconnect_at.is_some() as usize
                + o.corrupt_at.is_some() as usize;
            assert!(fired <= 1, "byte faults must be mutually exclusive");
            if let Some(at) = o.partial_write_at {
                assert!(at >= 1 && at < frame_len, "split at {at} of {frame_len}");
            }
            if let Some(at) = o.disconnect_at {
                assert!(at >= 1 && at < frame_len, "cut at {at} of {frame_len}");
            }
            if let Some((at, mask)) = o.corrupt_at {
                assert!(at < frame_len, "corrupt at {at} of {frame_len}");
                assert_ne!(mask, 0, "a zero XOR mask corrupts nothing");
            }
            if o.stall_secs > 0.0 {
                assert_eq!(o.stall_secs, 0.005);
            }
        }
    }
    // Degenerate frames draw no byte faults at all.
    for id in 0..200 {
        let o = plan.decide(id, 1);
        assert_eq!(o.partial_write_at, None);
        assert_eq!(o.disconnect_at, None);
        assert_eq!(o.corrupt_at, None);
    }
}

#[test]
fn net_fault_rates_match_probabilities() {
    let plan = NetFaultPlan {
        partial_write_prob: 0.2,
        disconnect_prob: 0.1,
        corrupt_prob: 0.1,
        stall_prob: 0.15,
        stall_secs: 0.001,
        seed: 41,
    };
    let n = 4000;
    let (mut partial, mut cut, mut corrupt, mut stalls) = (0, 0, 0, 0);
    for id in 0..n {
        let o = plan.decide(id, 256);
        partial += o.partial_write_at.is_some() as usize;
        cut += o.disconnect_at.is_some() as usize;
        corrupt += o.corrupt_at.is_some() as usize;
        stalls += (o.stall_secs > 0.0) as usize;
    }
    let frac = |k: usize| k as f64 / n as f64;
    assert!(
        (frac(partial) - 0.2).abs() < 0.03,
        "partial {}",
        frac(partial)
    );
    // Disconnect and corruption yield to earlier faults, so their
    // observed rates are scaled by the survivors of the draw order.
    assert!((frac(cut) - 0.1 * 0.8).abs() < 0.03, "cut {}", frac(cut));
    assert!(
        (frac(corrupt) - 0.1 * 0.8 * 0.9).abs() < 0.03,
        "corrupt {}",
        frac(corrupt)
    );
    assert!(
        (frac(stalls) - 0.15).abs() < 0.03,
        "stalls {}",
        frac(stalls)
    );
}
