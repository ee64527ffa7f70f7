//! Every plan the planner builds, executed and rendered, is frozen.
//!
//! For each TPC-H template at scale factors 0.1, 1 and 10 and parameter
//! seeds 0, 1 and 2, `tests/data/plan_equivalence.txt` holds two digests:
//! the `EXPLAIN ANALYZE` text (estimates, operator details, observed
//! start/run times and true rows) and the pre-order ground truth with the
//! trace's per-node I/O and total latency, all as IEEE-754 bits. A change
//! to how plans are stored, built or walked must leave both unchanged; a
//! change that moves a plan on purpose rewrites the file with
//! `cargo test --test all -- --ignored plan_equivalence::freeze` and shows the
//! move in its diff.
//!
//! The layout test checks, for the same plans and for every request frame
//! of the frozen codec corpus that decodes, that a plan is one pre-order
//! run of nodes: each node's subtree length is one plus its children's,
//! and its children tile the nodes after it.

use engine::plan::{self, PlanNode};
use engine::{explain_analyze, Catalog, Planned, Planner, Simulator};
use rng::StdRng;
use serve::{Frame, DEFAULT_MAX_FRAME};
use std::fmt::Write;
use tpch::templates::{self, ALL_TEMPLATES};

const SCALE_FACTORS: [f64; 3] = [0.1, 1.0, 10.0];
const SEEDS: [u64; 3] = [0, 1, 2];
const FROZEN: &str = "tests/data/plan_equivalence.txt";

/// FNV-1a over `bytes`, continuing from `h`.
fn fnv(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
    }
    h
}

const FNV_SEED: u64 = 0xcbf2_9ce4_8422_2325;

/// Every (template, sf, seed) case with its planned query.
fn planned_cases() -> Vec<(u8, f64, u64, Planned)> {
    let mut out = Vec::new();
    for sf in SCALE_FACTORS {
        let catalog = Catalog::new(sf, 1);
        let planner = Planner::new(&catalog);
        for t in ALL_TEMPLATES {
            for seed in SEEDS {
                let mut rng = StdRng::seed_from_u64(seed);
                let spec = templates::instantiate(t, sf, &mut rng);
                out.push((t, sf, seed, planner.plan(&spec)));
            }
        }
    }
    out
}

/// One line per case: template, sf, seed, the EXPLAIN ANALYZE digest and
/// the truth-and-trace digest.
fn digests() -> String {
    let sim = Simulator::new();
    let mut out = String::new();
    for (t, sf, seed, planned) in planned_cases() {
        let trace = sim.execute(&planned, sf, seed);
        let text = explain_analyze(&planned.plan, &planned.truth, &trace);
        let mut h = FNV_SEED;
        for nt in planned.truth.iter() {
            for v in [nt.rows, nt.pages, nt.selectivity] {
                h = fnv(h, &v.to_bits().to_le_bytes());
            }
        }
        for v in trace.io_pages.iter().chain([&trace.total_secs]) {
            h = fnv(h, &v.to_bits().to_le_bytes());
        }
        let _ = writeln!(
            out,
            "{t} {sf} {seed} {:016x} {h:016x}",
            fnv(FNV_SEED, text.as_bytes())
        );
    }
    out
}

#[test]
fn plans_and_their_executions_equal_the_frozen_digests() {
    let frozen = std::fs::read_to_string(FROZEN).expect("frozen digests");
    let fresh = digests();
    for (i, (a, b)) in fresh.lines().zip(frozen.lines()).enumerate() {
        assert_eq!(a, b, "case {i} (template sf seed explain truth)");
    }
    assert_eq!(fresh.lines().count(), frozen.lines().count());
}

/// Rewrites the frozen digests from the current planner and simulator.
#[test]
#[ignore]
fn freeze() {
    std::fs::write(FROZEN, digests()).expect("write frozen digests");
}

/// Checks the pre-order layout of `plan`: every node's subtree length is
/// one plus its children's, and the children of the node at `i` start at
/// `i + 1` and end where its subtree ends.
fn assert_well_formed(plan: &[PlanNode], what: &str) {
    assert!(!plan.is_empty(), "{what}: empty plan");
    assert_eq!(plan[0].subtree_len(), plan.len(), "{what}: root length");
    for (i, node) in plan.iter().enumerate() {
        let end = i + node.subtree_len();
        assert!(end <= plan.len(), "{what}: node {i} runs past the plan");
        let mut kids = Vec::new();
        let mut at = i + 1;
        while at < end {
            assert!(plan[at].subtree_len() >= 1, "{what}: node {at} is empty");
            kids.push(at);
            at += plan[at].subtree_len();
        }
        assert_eq!(at, end, "{what}: node {i}'s children do not tile it");
        assert_eq!(
            plan::children(plan, i).collect::<Vec<_>>(),
            kids,
            "{what}: node {i}"
        );
    }
}

#[test]
fn every_planned_and_decoded_plan_is_one_preorder_run() {
    for (t, sf, seed, planned) in planned_cases() {
        let what = format!("template {t} sf {sf} seed {seed}");
        assert_well_formed(&planned.plan, &what);
        assert_eq!(planned.truth.len(), planned.plan.len(), "{what}");
    }
    let corpus: &[u8] = include_bytes!("../data/codec_corpus.bin");
    let mut rest = corpus;
    let mut plans = 0;
    while !rest.is_empty() {
        let (len, tail) = rest.split_at(4);
        let len = u32::from_le_bytes(len.try_into().unwrap()) as usize;
        let (frame, tail) = tail.split_at(len);
        if let Ok(Frame::Request(r)) = Frame::decode(frame, DEFAULT_MAX_FRAME) {
            assert_well_formed(&r.query.plan, "corpus frame");
            plans += 1;
        }
        rest = tail;
    }
    assert!(plans > 0, "no corpus frame decodes to a request");
}
