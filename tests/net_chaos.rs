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

use engine::faults::NetFaultPlan;
use engine::{Catalog, Simulator};
use qpp::{ExecutedQuery, Method, ModelRegistry, QppConfig, QppPredictor, QueryDataset};
use serve::tenant::{TenantBudget, TenantServeConfig, TenantServer, TenantSpec};
use serve::{Client, Frame, NetConfig, NetServer, Request};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;
use tpch::Workload;

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("qpp-netchaos-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn registry_over(ds: &QueryDataset, tag: &str) -> Arc<ModelRegistry> {
    let refs: Vec<&ExecutedQuery> = ds.queries.iter().collect();
    let predictor = QppPredictor::train(&refs, QppConfig::default()).expect("training");
    Arc::new(
        ModelRegistry::create(temp_dir(tag), predictor, QppConfig::default()).expect("registry"),
    )
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
    let sim = Simulator::with_config(engine::SimConfig {
        additive_noise_secs: 0.05,
        ..engine::SimConfig::default()
    });
    let catalog = Catalog::new(0.1, 1);
    let ds = QueryDataset::execute(
        &catalog,
        &Workload::generate(&[1, 6, 14], 6, 0.1, 7),
        &sim,
        11,
        f64::INFINITY,
    );
    let queries: Vec<ExecutedQuery> = ds.queries.clone();
    let quiet_registry = registry_over(&ds, "quiet");
    let noisy_registry = registry_over(&ds, "noisy");
    let spec = |name: &str, registry: &Arc<ModelRegistry>| TenantSpec {
        name: name.to_string(),
        registry: Arc::clone(registry),
        budget: TenantBudget::default(),
    };
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
        vec![spec("quiet", &quiet_registry), spec("noisy", &noisy_registry)],
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
        garbage.write_all(b"HTTP/1.1 GET /predict\r\n").expect("garbage write");
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
    assert_eq!(snap.session_panics, 0, "no worker session may panic: {snap:?}");
    assert!(snap.conns_evicted >= 1, "the slowloris must be evicted: {snap:?}");
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

    let _ = std::fs::remove_dir_all(temp_dir("quiet"));
    let _ = std::fs::remove_dir_all(temp_dir("noisy"));
}
