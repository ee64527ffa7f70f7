//! The self-healing model lifecycle, end to end, with numbers: train an
//! incumbent on a clean regime, inject workload drift, watch the feedback
//! loop quarantine the serving tier, shadow-retrain, and measure how much
//! of the lost accuracy the promoted model recovers.
//!
//! Prints a stage-by-stage narrative to stderr and writes a
//! machine-readable report (default `BENCH_drift.txt`) in the `BENCH-v2`
//! text form (see `qpp_bench::schema`).
//!
//! Usage: `drift_loop [OUT_PATH] [--magnitude M]`

use engine::faults::{DriftKind, DriftPlan, FaultPlan};
use qpp_bench::schema::BenchDoc;
use engine::{Catalog, Simulator};
use ml::mean_relative_error;
use qpp::{
    CollectionConfig, DriftMonitor, ExecutedQuery, Method, ModelRegistry, PlanOrdering,
    PredictionTier, QppConfig, QppPredictor, QueryDataset,
};
use tpch::Workload;

const TEMPLATES: &[u8] = &[1, 3, 6, 14];
const SF: f64 = 0.1;
const PER_TEMPLATE: usize = 10;

fn collect(seed: u64, drift: &DriftPlan) -> QueryDataset {
    let catalog = Catalog::new(SF, 1);
    let workload = Workload::generate(TEMPLATES, PER_TEMPLATE, SF, seed);
    let sim = Simulator::with_config(engine::SimConfig {
        additive_noise_secs: 0.05,
        ..engine::SimConfig::default()
    });
    QueryDataset::execute_drifted(
        &catalog,
        &workload,
        &sim,
        11,
        f64::INFINITY,
        &FaultPlan::none(),
        &CollectionConfig::trusting(),
        drift,
    )
    .0
}

fn hybrid_mre(pred: &QppPredictor, queries: &[&ExecutedQuery]) -> f64 {
    let actual: Vec<f64> = queries.iter().map(|q| q.latency()).collect();
    let est: Vec<f64> = queries
        .iter()
        .map(|q| {
            pred.predict_checked(q, Method::Hybrid(PlanOrdering::ErrorBased))
                .value
        })
        .collect();
    mean_relative_error(&actual, &est)
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let out_path = args
        .get(1)
        .filter(|a| !a.starts_with("--"))
        .cloned()
        .unwrap_or_else(|| "BENCH_drift.txt".to_string());
    let magnitude = args
        .iter()
        .position(|a| a == "--magnitude")
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(3.0);

    eprintln!("== stage 1: incumbent on the clean regime ==");
    let clean = collect(7, &DriftPlan::none());
    let clean_refs: Vec<&ExecutedQuery> = clean.queries.iter().collect();
    let incumbent = QppPredictor::train(&clean_refs, QppConfig::default()).expect("training");
    let clean_mre = hybrid_mre(&incumbent, &clean_refs);
    eprintln!("   {} queries, in-regime MRE {clean_mre:.4}", clean_refs.len());

    let dir = std::env::temp_dir().join(format!("qpp-drift-loop-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let registry =
        ModelRegistry::create(&dir, incumbent, QppConfig::default()).expect("registry create");

    eprintln!("== stage 2: data grows {magnitude}x; estimates go stale ==");
    let drift = DriftPlan {
        kind: DriftKind::DataGrowth,
        onset: 0,
        ramp: 0,
        magnitude,
        seed: 1,
    };
    let drifted = collect(21, &drift);
    let drifted_refs: Vec<&ExecutedQuery> = drifted.queries.iter().collect();
    let serving = registry.current();
    let drifted_mre = hybrid_mre(&serving, &drifted_refs);
    eprintln!(
        "   {} drifted queries, incumbent MRE {drifted_mre:.4}",
        drifted_refs.len()
    );

    eprintln!("== stage 3: feedback loop ==");
    let mut monitor = DriftMonitor::new(Some(clean_mre));
    let mut detected_after = drifted_refs.len();
    for (i, q) in drifted_refs.iter().enumerate() {
        let p = serving.predict_checked(q, Method::Hybrid(PlanOrdering::ErrorBased));
        monitor.ingest(&serving, p.method_used, p.value, q.latency());
        if monitor.any_quarantined() {
            detected_after = i + 1;
            break;
        }
    }
    let hybrid_state = monitor
        .tier(PredictionTier::Hybrid)
        .expect("hybrid tier state");
    eprintln!(
        "   hybrid tier {:?} after {detected_after} observations (cusum {:.2}, windowed MRE {:.4})",
        hybrid_state.health,
        hybrid_state.cusum,
        hybrid_state.windowed_error()
    );

    eprintln!("== stage 4: shadow retrain on the drifted window ==");
    let report = registry
        .shadow_retrain(&drifted_refs)
        .expect("shadow retrain");
    eprintln!("   {}", report.reason);
    eprintln!(
        "   promoted={} serving version v{}",
        report.promoted,
        registry.version()
    );

    eprintln!("== stage 5: recovery ==");
    let scratch = QppPredictor::train(&drifted_refs, QppConfig::default()).expect("training");
    let scratch_mre = hybrid_mre(&scratch, &drifted_refs);
    let recovered_mre = hybrid_mre(&registry.current(), &drifted_refs);
    eprintln!(
        "   promoted MRE {recovered_mre:.4} vs from-scratch {scratch_mre:.4} \
         (stale incumbent was {drifted_mre:.4})"
    );

    let mut doc = BenchDoc::new("drift_loop", 21);
    doc.note("templates", format_args!("{TEMPLATES:?}"));
    doc.note("per_template", PER_TEMPLATE);
    doc.note("magnitude", magnitude);
    doc.note("promoted", report.promoted);
    doc.note("serving_version", registry.version());
    doc.push("mre/clean_incumbent", clean_mre, "mre");
    doc.push("mre/drifted_incumbent", drifted_mre, "mre");
    doc.push("mre/promoted_on_drifted", recovered_mre, "mre");
    doc.push("mre/from_scratch_on_drifted", scratch_mre, "mre");
    doc.push("detect/queries_to_quarantine", detected_after as f64, "queries");
    doc.push("retrain/incumbent_holdout_mre", report.incumbent_error, "mre");
    doc.push("retrain/candidate_holdout_mre", report.candidate_error, "mre");
    doc.validate().expect("emitted document violates BENCH-v2");
    std::fs::write(&out_path, doc.render()).expect("write bench report");
    println!("{out_path}");
    let _ = std::fs::remove_dir_all(&dir);
}
