//! Training and inference, pinned to the bit.
//!
//! `tests/data/fixture_seed42.qppsnap` is the `QPPSNAP v3` snapshot of a
//! default-config predictor trained on the benchmark fixture's training
//! log (`crates/e2e`: templates 1, 3, 5, 6, 10, 12, 14 × 20 at sf 0.1,
//! `DATA_SEED` 42), and `fixture_seed42.predictions` holds what that
//! predictor says about the fixture's 700-query pool, per method, as
//! little-endian `f64` bits. Retraining must reproduce the first file byte
//! for byte and the decoded snapshot must reproduce the second, so a
//! change that moves a bit of training (Gram build, SMO scans, selection,
//! scalers) or of inference (the lane-tree kernel, featurisation) fails
//! here and names which, instead of waiting for a benchmark digit.
//!
//! `fixture_seed42.online` pins online model building (Section 4) the same
//! way: an operator-only base trained on the log without template 3, and
//! what online building says about the pool's 100 template-3 queries.
//!
//! A change that moves bits on purpose regenerates all three files with
//!
//! ```text
//! cargo test --test golden_snapshot -- --ignored regenerate
//! ```
//!
//! (the run prints, per file, whether its bytes changed; a snapshot-format
//! change rewrites only the `.qppsnap` file) and says in its description
//! why the bits moved. (The RBF kernel's `exp` is the host libm's: a
//! failure on an untouched tree after moving to another libc is that, and
//! is regenerated the same way.)

use engine::{Catalog, PlanNode, SimConfig, Simulator};
use qpp::{
    decode_snapshot, encode_snapshot, online, ExecutedQuery, HybridConfig, HybridModel,
    MaterializedModels, Method, OpLevelModel, OpModelConfig, PlanOrdering, QppConfig, QppPredictor,
    QueryDataset,
};
use std::path::PathBuf;
use tpch::Workload;

const TEMPLATES: [u8; 7] = [1, 3, 5, 6, 10, 12, 14];
const SF: f64 = 0.1;
const DATA_SEED: u64 = 42;

const METHODS: [Method; 3] = [
    Method::PlanLevel,
    Method::OperatorLevel,
    Method::Hybrid(PlanOrdering::ErrorBased),
];

fn data_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/data")
}

fn golden(name: &str) -> PathBuf {
    data_dir().join(name)
}

/// The fixture's training log and held-out pool, as `Fixture::build`
/// collects them.
fn fixture() -> (QueryDataset, QueryDataset) {
    let catalog = Catalog::new(SF, 1);
    let sim = Simulator::with_config(SimConfig {
        additive_noise_secs: 0.05,
        ..SimConfig::default()
    });
    let collect = |per_template: usize, seed: u64| {
        let workload = Workload::generate(&TEMPLATES, per_template, SF, seed);
        QueryDataset::execute(&catalog, &workload, &sim, seed, f64::INFINITY)
    };
    (collect(20, DATA_SEED), collect(100, DATA_SEED ^ 0x9001))
}

fn train(log: &QueryDataset) -> Vec<u8> {
    let refs: Vec<&ExecutedQuery> = log.queries.iter().collect();
    let predictor = QppPredictor::train(&refs, QppConfig::default()).expect("trains");
    encode_snapshot(&MaterializedModels::from_predictor(&predictor))
}

/// Every method's predictions on the pool, method-major, as bytes.
fn predictions(snapshot: &[u8], pool: &QueryDataset) -> Vec<u8> {
    let models = decode_snapshot(snapshot).expect("the golden snapshot decodes");
    let predictor = QppPredictor::from_materialized(&models, QppConfig::default());
    let refs: Vec<&ExecutedQuery> = pool.queries.iter().collect();
    METHODS
        .iter()
        .flat_map(|&method| predictor.predict_batch(&refs, method))
        .flat_map(f64::to_le_bytes)
        .collect()
}

/// The template online building meets unseen.
const UNSEEN: u8 = 3;

/// Online predictions for the pool's template-3 queries over an
/// operator-only base trained without them, as bytes; and how many of
/// those queries' models online building extended.
fn online_predictions(log: &QueryDataset, pool: &QueryDataset) -> (Vec<u8>, usize) {
    let train: Vec<&ExecutedQuery> = log
        .queries
        .iter()
        .filter(|q| q.template != UNSEEN)
        .collect();
    let op = OpLevelModel::train(&train, &OpModelConfig::default()).expect("trains");
    let base = HybridModel::operator_only(op);
    let unseen: Vec<&ExecutedQuery> = pool
        .queries
        .iter()
        .filter(|q| q.template == UNSEEN)
        .collect();
    let incoming: Vec<&[PlanNode]> = unseen.iter().map(|q| &q.plan[..]).collect();
    let built = online::build_models(&base, &train, &HybridConfig::default(), &incoming);
    let mut extended = 0;
    let mut bytes = Vec::new();
    for q in unseen {
        let views = q.views(base.op_model.source());
        let model = online::extend(&base, &built, &q.plan, &views);
        extended += usize::from(model.plan_models.len() > base.plan_models.len());
        bytes.extend(model.predict_plan(&q.plan, &views).latency.to_le_bytes());
    }
    (bytes, extended)
}

#[test]
fn online_building_reproduces_the_golden_bits() {
    let (log, pool) = fixture();
    let (got, extended) = online_predictions(&log, &pool);
    assert!(extended > 0, "no fragment model was kept and applied");
    let want = std::fs::read(golden("fixture_seed42.online")).expect("golden online predictions");
    assert_eq!(got.len(), want.len(), "100 template-3 queries x 8 bytes");
    for (at, (g, w)) in got.chunks_exact(8).zip(want.chunks_exact(8)).enumerate() {
        assert!(
            g == w,
            "online building moved a bit: template-3 query {at} reads {:?}, golden {:?}",
            f64::from_le_bytes(g.try_into().expect("8 bytes")),
            f64::from_le_bytes(w.try_into().expect("8 bytes")),
        );
    }
}

#[test]
fn retraining_and_predicting_reproduce_the_golden_bits() {
    let (log, pool) = fixture();
    assert_eq!((log.len(), pool.len()), (140, 700));
    let want_snapshot = std::fs::read(golden("fixture_seed42.qppsnap")).expect("golden snapshot");
    let got_snapshot = train(&log);
    assert!(
        got_snapshot == want_snapshot,
        "training moved a bit: the retrained snapshot ({} bytes) differs from the golden one \
         ({} bytes), first at byte {:?}",
        got_snapshot.len(),
        want_snapshot.len(),
        got_snapshot
            .iter()
            .zip(&want_snapshot)
            .position(|(a, b)| a != b)
    );

    let want = std::fs::read(golden("fixture_seed42.predictions")).expect("golden predictions");
    let got = predictions(&want_snapshot, &pool);
    assert_eq!(got.len(), want.len(), "3 methods x 700 queries x 8 bytes");
    for (at, (g, w)) in got.chunks_exact(8).zip(want.chunks_exact(8)).enumerate() {
        assert!(
            g == w,
            "inference moved a bit: {:?} on pool query {} reads {:?}, golden {:?}",
            METHODS[at / pool.len()],
            at % pool.len(),
            f64::from_le_bytes(g.try_into().expect("8 bytes")),
            f64::from_le_bytes(w.try_into().expect("8 bytes")),
        );
    }
}

/// Rewrites the three golden files from this build and reports which
/// changed; see the module docs.
#[test]
#[ignore = "writes tests/data; run by hand when bits move on purpose"]
fn regenerate() {
    use std::io::Write;
    let (log, pool) = fixture();
    let snapshot = train(&log);
    std::fs::create_dir_all(data_dir()).expect("tests/data");
    let (online, _) = online_predictions(&log, &pool);
    let files = [
        ("fixture_seed42.online", online),
        ("fixture_seed42.predictions", predictions(&snapshot, &pool)),
        ("fixture_seed42.qppsnap", snapshot),
    ];
    for (name, bytes) in files {
        let changed = std::fs::read(golden(name)).map_or(true, |old| old != bytes);
        std::fs::write(golden(name), &bytes).expect("writes a golden file");
        // Straight to stderr: the test harness captures only the print
        // macros, and this report is the point of running the test.
        let verdict = if changed { "rewritten" } else { "unchanged" };
        writeln!(std::io::stderr(), "{name}: {verdict} ({} bytes)", bytes.len())
            .expect("writes to stderr");
    }
}
