//! Property tests for the `QPPWIRE-v2` codec (DESIGN.md §11): round-trip
//! identity for every frame kind — requests via the canonical-bytes
//! identity (`encode(decode(bytes)) == bytes`), responses and error
//! frames via full value equality — and the decode-never-panics
//! guarantee over arbitrary byte strings and single-byte mutations of
//! valid frames.

use engine::catalog::Catalog;
use engine::faults::ExecError;
use engine::planner::Planner;
use engine::sim::Simulator;
use ml::MlError;
use qpp::{ExecutedQuery, Method, PlanOrdering, Prediction, QppError, ALL_TIERS};
use rng::StdRng;
use serve::{ErrorFrame, Frame, Request, Response, DEFAULT_MAX_FRAME};
use std::sync::OnceLock;
use tpch::templates;

/// A small pool of real executed queries, one per supported template,
/// built once: request payload variety comes from the pool index and the
/// drawn envelope fields layered on top.
fn query_pool() -> &'static Vec<ExecutedQuery> {
    static POOL: OnceLock<Vec<ExecutedQuery>> = OnceLock::new();
    POOL.get_or_init(|| {
        let catalog = Catalog::new(0.1, 1);
        let planner = Planner::new(&catalog);
        templates::ALL_TEMPLATES
            .iter()
            .map(|&template| {
                let mut rng = StdRng::seed_from_u64(41 + template as u64);
                let planned = planner.plan(&templates::instantiate(template, 0.1, &mut rng));
                let trace = Simulator::new().execute(&planned, 0.1, template as u64);
                ExecutedQuery {
                    template,
                    plan: planned.plan,
                    truth: planned.truth,
                    trace,
                }
            })
            .collect()
    })
}

fn method_from_index(i: usize) -> Method {
    match i % 5 {
        0 => Method::PlanLevel,
        1 => Method::OperatorLevel,
        2 => Method::Hybrid(PlanOrdering::SizeBased),
        3 => Method::Hybrid(PlanOrdering::FrequencyBased),
        _ => Method::Hybrid(PlanOrdering::ErrorBased),
    }
}

/// One representative of every `QppError` variant, parameterized so the
/// payload fields vary across cases.
fn error_from(selector: usize, n: u64, x: f64, s: &str) -> QppError {
    match selector % 15 {
        0 => QppError::Ml(MlError::ShapeMismatch {
            expected: n as usize,
            got: (n / 3) as usize,
        }),
        1 => QppError::Ml(MlError::EmptyDataset),
        2 => QppError::Ml(MlError::NotPositiveDefinite),
        3 => QppError::Ml(MlError::InvalidParameter("ridge must be non-negative")),
        4 => QppError::Ml(MlError::NonFiniteData),
        5 => QppError::Ml(MlError::DidNotConverge {
            iterations: n as usize,
        }),
        6 => QppError::Exec(ExecError::Aborted { progress: x }),
        7 => QppError::Exec(ExecError::Timeout {
            budget_secs: x,
            needed_secs: x * 4.0,
        }),
        8 => QppError::NoTrainingData,
        9 => QppError::InvalidSnapshot(s.to_string()),
        10 => QppError::Io(s.to_string()),
        11 => QppError::Internal("unknown tenant"),
        12 => QppError::Overloaded {
            queue_depth: n as usize,
        },
        13 => QppError::TenantOverloaded {
            tenant: s.to_string(),
        },
        _ => QppError::DeadlineExceeded { budget_secs: x },
    }
}

fn request_roundtrips(
    id: u64,
    tenant: &str,
    method_i: usize,
    deadline: Option<u64>,
    pool_i: usize,
) {
    let pool = query_pool();
    let req = Request {
        id,
        tenant: tenant.to_string(),
        method: method_from_index(method_i),
        deadline_micros: deadline,
        query: pool[pool_i % pool.len()].clone(),
    };
    let bytes = Frame::Request(req).encode();
    let back = Frame::decode(&bytes, DEFAULT_MAX_FRAME).expect("valid request frame decodes");
    assert!(matches!(back, Frame::Request(_)));
    // One canonical form: re-encoding the decoded frame reproduces the
    // input bytes exactly, which pins every field (floats bit-for-bit).
    assert_eq!(back.encode(), bytes);
}

fn response_roundtrips(id: u64, value_bits: u64, tier_i: usize, degraded: bool) {
    let resp = Response {
        id,
        prediction: Prediction {
            // From raw bits so NaNs and infinities are drawn too; the
            // wire carries bits, so even NaN payloads must survive.
            value: f64::from_bits(value_bits),
            method_used: ALL_TIERS[tier_i % ALL_TIERS.len()],
            degraded,
        },
    };
    let bytes = Frame::Response(resp).encode();
    match Frame::decode(&bytes, DEFAULT_MAX_FRAME).expect("valid response frame decodes") {
        Frame::Response(back) => {
            assert_eq!(back.id, resp.id);
            assert_eq!(
                back.prediction.value.to_bits(),
                resp.prediction.value.to_bits()
            );
            assert_eq!(back.prediction.method_used, resp.prediction.method_used);
            assert_eq!(back.prediction.degraded, resp.prediction.degraded);
        }
        other => panic!("wrong frame kind {other:?}"),
    }
}

fn error_roundtrips(id: u64, err: QppError) {
    let frame = Frame::Error(ErrorFrame {
        id,
        error: err.clone(),
    });
    let bytes = frame.encode();
    match Frame::decode(&bytes, DEFAULT_MAX_FRAME).expect("valid error frame decodes") {
        Frame::Error(back) => {
            assert_eq!(back.id, id);
            assert_eq!(back.error, err);
            assert_eq!(back.error.wire_code(), err.wire_code());
        }
        other => panic!("wrong frame kind {other:?}"),
    }
}

/// A string of `len` characters drawn from `alphabet`.
fn string_of(rng: &mut StdRng, alphabet: &[u8], len: std::ops::RangeInclusive<usize>) -> String {
    (0..rng.gen_range(len))
        .map(|_| alphabet[rng.gen_range(0..alphabet.len())] as char)
        .collect()
}

/// Every request frame round-trips to its canonical bytes: first every
/// template under every method, then drawn ids, tenant names
/// (`[a-z][a-z0-9_-]{0,24}`), methods, deadlines and templates.
#[test]
fn request_frames_round_trip() {
    let mut rng = StdRng::seed_from_u64(0xC0DEC);
    for i in 0..query_pool().len() * 5 {
        let deadline = (i % 3 != 0).then(|| rng.next_u64());
        request_roundtrips(rng.next_u64(), &format!("tenant-{i}"), i, deadline, i / 5);
    }
    rng::cases(32, |rng| {
        let tenant = string_of(rng, b"abcdefghijklmnopqrstuvwxyz", 1..=1)
            + &string_of(rng, b"abcdefghijklmnopqrstuvwxyz0123456789_-", 0..=24);
        let deadline = rng.gen_bool(0.5).then(|| rng.next_u64());
        request_roundtrips(
            rng.next_u64(),
            &tenant,
            rng.gen_range(0usize..5),
            deadline,
            rng.gen_range(0..usize::MAX),
        );
    });
}

/// Every response frame round-trips with bit-exact floats — the value is
/// drawn from raw bits, so NaNs and infinities are covered — first for
/// every tier, degraded and not, then for drawn tiers.
#[test]
fn response_frames_round_trip() {
    let mut rng = StdRng::seed_from_u64(0xC0DEC);
    for i in 0..ALL_TIERS.len() * 2 {
        response_roundtrips(rng.next_u64(), rng.next_u64(), i / 2, i % 2 == 0);
    }
    response_roundtrips(7, f64::NAN.to_bits(), 0, true);
    response_roundtrips(7, f64::NEG_INFINITY.to_bits(), 0, false);
    rng::cases(32, |rng| {
        response_roundtrips(
            rng.next_u64(),
            rng.next_u64(),
            rng.gen_range(0..usize::MAX),
            rng.gen_bool(0.5),
        );
    });
}

/// Every error variant round-trips variant-exactly with its stable wire
/// code: first each variant in turn, then drawn variants and payload
/// fields (messages are printable ASCII, `[ -~]{0,48}`).
#[test]
fn error_frames_round_trip() {
    let printable: Vec<u8> = (b' '..=b'~').collect();
    let mut rng = StdRng::seed_from_u64(0xC0DEC);
    for selector in 0..15 {
        let n = rng.gen_range(0..100_000);
        let x = rng.gen_range(0.0..1e6);
        error_roundtrips(rng.next_u64(), error_from(selector, n, x, "peer"));
    }
    rng::cases(32, |rng| {
        let selector = rng.gen_range(0..usize::MAX);
        let n = rng.gen_range(0u64..100_000);
        let x = rng.gen_range(0.0f64..1e6);
        let s = string_of(rng, &printable, 0..=48);
        error_roundtrips(rng.next_u64(), error_from(selector, n, x, &s));
    });
}

/// `Frame::decode` never panics on arbitrary byte strings: every outcome
/// is `Ok` or a typed `DecodeError`. Lengths are skewed toward
/// header-sized prefixes.
#[test]
fn decode_never_panics_on_arbitrary_bytes() {
    let req = Request {
        id: 0,
        tenant: String::new(),
        method: Method::PlanLevel,
        deadline_micros: None,
        query: query_pool()[0].clone(),
    };
    let magic = Frame::Request(req).encode()[..4].to_vec();
    rng::cases(10_000, |rng| {
        let len = if rng.gen_bool(0.5) {
            rng.gen_range(0..32)
        } else {
            rng.gen_range(0..2048)
        };
        let mut bytes: Vec<u8> = (0..len).map(|_| rng.gen_range(0u8..=255)).collect();
        // Half the cases start with a valid frame's magic so decode gets
        // past the first gate and into the payload parsers.
        if rng.gen_bool(0.5) && len >= 4 {
            bytes[..4].copy_from_slice(&magic);
        }
        let _ = Frame::decode(&bytes, DEFAULT_MAX_FRAME);
    });
}

/// A valid request frame with one byte corrupted.
fn mutated_frame(rng: &mut StdRng) -> Vec<u8> {
    let pool = query_pool();
    let req = Request {
        id: rng.next_u64(),
        tenant: "mutant".to_string(),
        method: method_from_index(rng.gen_range(0usize..5)),
        deadline_micros: Some(250_000),
        query: pool[rng.gen_range(0..pool.len())].clone(),
    };
    let mut bytes = Frame::Request(req).encode();
    let at = rng.gen_range(0..bytes.len());
    bytes[at] ^= rng.gen_range(1u8..=255);
    bytes
}

/// Nor on single-byte corruptions of valid frames — the adversarial
/// neighborhood a seeded chaos run actually visits.
#[test]
fn decode_never_panics_on_mutated_valid_frames() {
    rng::cases(2_000, |rng| {
        let _ = Frame::decode(&mutated_frame(rng), DEFAULT_MAX_FRAME);
    });
}

/// Freezes the first mutated frames of the property above (the ones
/// `rng::cases` draws first, as many as fit in 64 KiB) into
/// `tests/data/codec_corpus.bin`, each behind its `u32` little-endian
/// length; the root suite `tests/codec_corpus.rs` replays the file in
/// tier-1. Run on purpose, after a wire-format change:
///
/// ```text
/// cargo test -p qpp-serve --test codec_props -- --ignored freeze_corpus
/// ```
#[test]
#[ignore = "rewrites tests/data/codec_corpus.bin"]
fn freeze_corpus() {
    const BUDGET: usize = 64 << 10;
    let frames = std::cell::RefCell::new(Vec::new());
    // Case `i` is seeded alike whatever the count: a prefix of the property's.
    rng::cases(64, |rng| frames.borrow_mut().push(mutated_frame(rng)));
    let mut corpus = Vec::new();
    for frame in frames.into_inner() {
        if corpus.len() + 4 + frame.len() > BUDGET {
            break;
        }
        corpus.extend_from_slice(&(frame.len() as u32).to_le_bytes());
        corpus.extend_from_slice(&frame);
    }
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../tests/data/codec_corpus.bin"
    );
    std::fs::write(path, corpus).expect("writes the corpus");
}
