//! Training and inference, pinned to the bit.
//!
//! `tests/data/fixture_seed42.qppsnap` is the `QPPSNAP v2` snapshot of a
//! default-config predictor trained on the benchmark fixture's training
//! log (`crates/e2e`: templates 1, 3, 5, 6, 10, 12, 14 × 20 at sf 0.1,
//! `DATA_SEED` 42), and `fixture_seed42.predictions` holds what that
//! predictor says about the fixture's 700-query pool, per method, as
//! little-endian `f64` bits. Retraining must reproduce the first file byte
//! for byte and the decoded snapshot must reproduce the second, so a
//! change that moves a bit of training (Gram build, SMO scans, selection,
//! scalers) or of inference (the compiled kernel, featurisation) fails
//! here and names which, instead of waiting for a benchmark digit.
//!
//! A change that moves bits on purpose regenerates both files with
//!
//! ```text
//! cargo test --test golden_snapshot -- --ignored regenerate
//! ```
//!
//! and says in its description why the bits moved. (The RBF kernel's `exp`
//! is the host libm's: a failure on an untouched tree after moving to
//! another libc is that, and is regenerated the same way.)

use engine::{Catalog, SimConfig, Simulator};
use qpp::{
    decode_snapshot, encode_snapshot, ExecutedQuery, MaterializedModels, Method, PlanOrdering,
    QppConfig, QppPredictor, QueryDataset,
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

/// Rewrites both golden files from this build; see the module docs.
#[test]
#[ignore = "writes tests/data; run by hand when bits move on purpose"]
fn regenerate() {
    let (log, pool) = fixture();
    let snapshot = train(&log);
    std::fs::create_dir_all(data_dir()).expect("tests/data");
    std::fs::write(golden("fixture_seed42.predictions"), predictions(&snapshot, &pool))
        .expect("writes the predictions");
    std::fs::write(golden("fixture_seed42.qppsnap"), snapshot).expect("writes the snapshot");
}
