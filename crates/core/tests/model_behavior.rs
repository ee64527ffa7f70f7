//! Behavioral tests of the prediction models beyond the unit level:
//! canonical sub-plan matching, ablation effects, determinism.

use engine::{Catalog, SimConfig, Simulator};
use ml::metrics::mean_relative_error;
use qpp::hybrid::{train_hybrid, HybridConfig, PlanOrdering};
use qpp::op_model::{OpLevelModel, OpModelConfig};
use qpp::plan_model::{PlanLevelModel, PlanModelConfig};
use qpp::subplan::describe;
use qpp::{structure_key, ExecutedQuery, QueryDataset};
use tpch::Workload;

fn quiet_sim() -> Simulator {
    Simulator::with_config(SimConfig {
        additive_noise_secs: 0.05,
        ..SimConfig::default()
    })
}

fn dataset(templates: &[u8], per_template: usize, sf: f64, seed: u64) -> QueryDataset {
    let catalog = Catalog::new(sf, 1);
    let workload = Workload::generate(templates, per_template, sf, seed);
    QueryDataset::execute(&catalog, &workload, &quiet_sim(), 31, f64::INFINITY)
}

/// Hash-join fragments with swapped build sides share a structure key
/// (template 3 vs template 10 at 10 GB is the real-world case; here we
/// check it against actually planned trees).
#[test]
fn canonical_keys_match_across_build_orientations() {
    let ds = dataset(&[3, 10], 3, 10.0, 2);
    // Find customer⋈orders fragments in both templates.
    let mut keys_by_template: Vec<(u8, Vec<(qpp::StructureKey, String)>)> = Vec::new();
    for q in &ds.queries {
        let mut found = Vec::new();
        for i in 0..q.plan.len() {
            let n = engine::plan::subplan(&q.plan, i);
            let d = describe(n);
            if d.contains("customer") && d.contains("orders") && !d.contains("lineitem") {
                found.push((structure_key(n), d));
            }
        }
        keys_by_template.push((q.template, found));
    }
    let t3: Vec<_> = keys_by_template
        .iter()
        .filter(|(t, _)| *t == 3)
        .flat_map(|(_, k)| k.clone())
        .collect();
    let t10: Vec<_> = keys_by_template
        .iter()
        .filter(|(t, _)| *t == 10)
        .flat_map(|(_, k)| k.clone())
        .collect();
    let shared = t3.iter().any(|(k3, _)| t10.iter().any(|(k10, _)| k10 == k3));
    assert!(
        shared,
        "customer⋈orders fragments must share a key across templates:\n t3: {t3:?}\n t10: {t10:?}"
    );
}

/// Disabling start-time features changes the trained model (the DESIGN.md
/// ablation hook is live).
#[test]
fn start_time_feature_ablation_changes_predictions() {
    let ds = dataset(&[1, 3, 12], 10, 1.0, 7);
    let refs: Vec<&ExecutedQuery> = ds.queries.iter().collect();
    let with = OpLevelModel::train(&refs, &OpModelConfig::default()).unwrap();
    let without = OpLevelModel::train(
        &refs,
        &OpModelConfig {
            include_start_features: false,
            ..OpModelConfig::default()
        },
    )
    .unwrap();
    let diff = refs
        .iter()
        .map(|q| (with.predict(q) - without.predict(q)).abs())
        .sum::<f64>();
    assert!(diff > 1e-9, "masking start features must change predictions");
}

/// Training is deterministic: same data, same config, same predictions.
#[test]
fn training_is_deterministic() {
    let ds = dataset(&[3, 6, 14], 8, 1.0, 4);
    let refs: Vec<&ExecutedQuery> = ds.queries.iter().collect();
    let a = PlanLevelModel::train(&refs, &PlanModelConfig::default()).unwrap();
    let b = PlanLevelModel::train(&refs, &PlanModelConfig::default()).unwrap();
    for q in &refs {
        assert_eq!(a.predict(q), b.predict(q));
    }
    let (ha, _) = train_hybrid(
        &refs,
        OpLevelModel::train(&refs, &OpModelConfig::default()).unwrap(),
        &HybridConfig::default(),
    )
    .unwrap();
    let (hb, _) = train_hybrid(
        &refs,
        OpLevelModel::train(&refs, &OpModelConfig::default()).unwrap(),
        &HybridConfig::default(),
    )
    .unwrap();
    for q in &refs {
        assert_eq!(ha.predict(q), hb.predict(q));
    }
}

/// The actual/actual configuration beats estimate/estimate on a workload
/// with large estimation errors (Section 5.3.3's ordering).
#[test]
fn actual_features_beat_estimates_in_training() {
    let ds = dataset(&[3, 9, 13, 18], 12, 1.0, 11);
    let refs: Vec<&ExecutedQuery> = ds.queries.iter().collect();
    let folds = ml::cv::stratified_kfold(&ds.strata(), 4, 3);
    let mut rows = vec![(0.0, 0.0, 0.0); ds.len()];
    for fold in &folds {
        let train: Vec<&ExecutedQuery> = fold.train.iter().map(|&i| refs[i]).collect();
        let act = PlanLevelModel::train(
            &train,
            &PlanModelConfig {
                source: qpp::FeatureSource::Actual,
                ..PlanModelConfig::default()
            },
        )
        .unwrap();
        let est = PlanLevelModel::train(&train, &PlanModelConfig::default()).unwrap();
        for &i in &fold.test {
            let q = refs[i];
            rows[i] = (q.latency(), act.predict(q), est.predict(q));
        }
    }
    let actual: Vec<f64> = rows.iter().map(|r| r.0).collect();
    let act_preds: Vec<f64> = rows.iter().map(|r| r.1).collect();
    let est_preds: Vec<f64> = rows.iter().map(|r| r.2).collect();
    let act_err = mean_relative_error(&actual, &act_preds);
    let est_err = mean_relative_error(&actual, &est_preds);
    // Actual values can't be *much* worse; typically better.
    assert!(
        act_err <= est_err * 1.25 + 0.02,
        "actual/actual {act_err} vs estimate/estimate {est_err}"
    );
}

/// Hybrid with a size-based strategy prefers small fragments: the first
/// accepted model is among the smallest candidates.
#[test]
fn size_based_strategy_accepts_small_fragments_first() {
    let ds = dataset(&[1, 3, 5, 10, 12], 10, 1.0, 19);
    let refs: Vec<&ExecutedQuery> = ds.queries.iter().collect();
    let op = OpLevelModel::train(&refs, &OpModelConfig::default()).unwrap();
    let (_, records) = train_hybrid(
        &refs,
        op,
        &HybridConfig {
            strategy: PlanOrdering::SizeBased,
            max_iterations: 6,
            min_frequency: 4,
            ..HybridConfig::default()
        },
    )
    .unwrap();
    if let Some(first) = records.first() {
        // Size-based ordering considers 2-3 operator fragments first.
        let opens = first.description.matches('(').count();
        assert!(opens <= 4, "first candidate too big: {}", first.description);
    }
}

/// Predictions never go negative, whatever the query.
#[test]
fn predictions_are_non_negative_everywhere() {
    let ds = dataset(&[1, 6, 9, 13, 19], 6, 1.0, 23);
    let refs: Vec<&ExecutedQuery> = ds.queries.iter().collect();
    let pm = PlanLevelModel::train(&refs, &PlanModelConfig::default()).unwrap();
    let om = OpLevelModel::train(&refs, &OpModelConfig::default()).unwrap();
    let (hy, _) = train_hybrid(&refs, om.clone(), &HybridConfig::default()).unwrap();
    for q in &refs {
        assert!(pm.predict(q) >= 0.0);
        assert!(om.predict(q) >= 0.0);
        assert!(hy.predict(q) >= 0.0);
    }
}

/// Disk-I/O prediction (Section 6's multi-metric direction): the same
/// plan-level machinery predicts physical page traffic, and does so at
/// least as well as it predicts latency (I/O is less noisy).
#[test]
fn plan_level_predicts_disk_io() {
    use qpp::plan_model::TargetMetric;
    let ds = dataset(&[1, 3, 6, 12, 14], 12, 1.0, 29);
    let refs: Vec<&ExecutedQuery> = ds.queries.iter().collect();
    let folds = ml::cv::stratified_kfold(&ds.strata(), 4, 3);
    let mut rows = Vec::new();
    for fold in &folds {
        let train: Vec<&ExecutedQuery> = fold.train.iter().map(|&i| refs[i]).collect();
        let model = PlanLevelModel::train(
            &train,
            &PlanModelConfig {
                metric: TargetMetric::DiskIo,
                ..PlanModelConfig::default()
            },
        )
        .unwrap();
        assert_eq!(model.metric(), TargetMetric::DiskIo);
        for &i in &fold.test {
            rows.push((refs[i].total_io_pages(), model.predict(refs[i])));
        }
    }
    let (a, p): (Vec<f64>, Vec<f64>) = rows.into_iter().unzip();
    let err = mean_relative_error(&a, &p);
    assert!(err < 0.25, "disk-I/O prediction error = {err}");
}

/// Per-node I/O accounting sums to something sensible: scans of big
/// tables dominate; every entry is non-negative and finite.
#[test]
fn io_accounting_is_consistent() {
    let ds = dataset(&[1, 5, 9], 3, 1.0, 41);
    for q in &ds.queries {
        assert_eq!(q.trace.io_pages.len(), q.plan.len());
        for &p in q.trace.io_pages.iter() {
            assert!(p.is_finite() && p >= 0.0);
        }
        // A query scanning lineitem must read at least its heap pages once.
        if q.plan
            .iter()
            .any(|n| n.scan_table() == Some(tpch::TableId::Lineitem)
                && n.op == engine::OpType::SeqScan)
        {
            let li_pages = tpch::TableId::Lineitem.pages(1.0) as f64;
            assert!(
                q.total_io_pages() >= li_pages * 0.9,
                "t{}: io {} vs lineitem {}",
                q.template,
                q.total_io_pages(),
                li_pages
            );
        }
    }
}
