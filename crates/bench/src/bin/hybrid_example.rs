//! Section 3.4's worked example — hybrid QPP on a template-13 query.
//!
//! The paper walks one TPC-H template-13 plan (10 GB): operator-level
//! prediction errs by 114%, the Materialize sub-plan being the root cause
//! (97% error); adding one plan-level model for that sub-plan drops the
//! whole-query error to 14%. This binary reruns that story: it finds the
//! worst-predicted sub-plan of the worst-predicted template-13 query,
//! builds a plan-level model for it, and reports the before/after errors.

use ml::metrics::relative_error;
use qpp::hybrid::{train_subplan_model, HybridConfig, HybridModel};
use qpp::op_model::{OpLevelModel, OpModelConfig};
use qpp::subplan::{structure_key, subtree_at, SubplanIndex};
use qpp::{ExecutedQuery, NodeView};
use qpp_bench::{build_dataset_sized, PER_TEMPLATE};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let per_template = args
        .iter()
        .position(|a| a == "--per-template")
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(PER_TEMPLATE);

    let ds = build_dataset_sized(10.0, &tpch::FOURTEEN, per_template);
    let refs: Vec<&ExecutedQuery> = ds.queries.iter().collect();
    let op = OpLevelModel::train(&refs, &OpModelConfig::default()).expect("op-level");
    let source = op.source();
    let base = HybridModel::operator_only(op);

    // Worst-predicted template-13 query under pure operator-level models.
    let (qi, q, base_err) = refs
        .iter()
        .enumerate()
        .filter(|(_, q)| q.template == 13)
        .map(|(i, q)| {
            let pred = base.predict(q);
            (i, q, relative_error(q.latency(), pred))
        })
        .max_by(|a, b| a.2.partial_cmp(&b.2).unwrap())
        .expect("template 13 present");
    let _ = qi;

    println!("== Hybrid QPP example (template 13, 10GB) ==\n");
    println!("query latency: {:.1}s", q.latency());
    println!(
        "operator-level prediction error: {:.0}%  (paper example: 114%)",
        base_err * 100.0
    );

    // Per-node error attribution.
    let views: Vec<NodeView> = q.views(source);
    let pred = base.predict_plan(&q.plan, &views);
    let nodes = q.plan.preorder();
    let mut worst: Option<(usize, f64)> = None;
    println!("\nper-operator run-time errors:");
    for (i, np) in pred.nodes.iter().enumerate() {
        if let Some((_, run)) = np.times() {
            let actual = q.trace.timings[i].run;
            if actual <= 0.0 {
                continue;
            }
            let e = relative_error(actual, run);
            println!(
                "  [{i:>2}] {:<16} actual {:>9.2}s predicted {:>9.2}s  error {:>6.1}%",
                nodes[i].op.name(),
                actual,
                run,
                e * 100.0
            );
            // Candidate sub-plans must be proper fragments (≥ 2 ops).
            if nodes[i].node_count() >= 2 && nodes[i].node_count() < q.plan.node_count()
                && worst.map(|(_, we)| e > we).unwrap_or(true) {
                    worst = Some((i, e));
                }
        }
    }
    let (worst_idx, worst_err) = worst.expect("at least one sub-plan");
    let sub = subtree_at(&q.plan, worst_idx);
    println!(
        "\nroot cause: sub-plan rooted at [{worst_idx}] {} — error {:.0}%  (paper: the \
         Materialize sub-plan, 97%)",
        qpp::subplan::describe(sub),
        worst_err * 100.0
    );

    // Build a plan-level model for that structure from all its training
    // occurrences and re-predict.
    let key = structure_key(sub);
    let all_views: Vec<Vec<NodeView>> = refs.iter().map(|r| r.views(source)).collect();
    let plans: Vec<(u8, &engine::PlanNode)> = refs.iter().map(|r| (r.template, &r.plan)).collect();
    let index = SubplanIndex::build(&plans);
    let config = HybridConfig::default();
    let sub_model =
        train_subplan_model(key, &refs, &all_views, &index, &config).expect("sub-plan model");
    let mut hybrid = base.clone();
    hybrid.plan_models.insert(key, sub_model);
    let new_pred = hybrid.predict_plan(&q.plan, &views).latency;
    let new_err = relative_error(q.latency(), new_pred);
    println!(
        "\nhybrid (operator models + 1 plan-level sub-plan model):\n\
         prediction error: {:.0}%  (paper example: 14%)",
        new_err * 100.0
    );
    if new_err < base_err {
        println!("=> the plan-level patch recovers the composition, as in the paper");
    } else {
        println!("=> no improvement on this instance (see EXPERIMENTS.md notes)");
    }
}
