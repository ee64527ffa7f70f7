//! Behavioral tests of the planner's cost-based physical choices and the
//! simulator's mechanism inventory.

use engine::plan::{children, OpDetail, OpType, Planned};
use engine::{Catalog, Planner, SimConfig, Simulator};
use rng::StdRng;
use tpch::spec::JoinKind;

fn plan_t(template: u8, sf: f64, seed: u64) -> Planned {
    let catalog = Catalog::new(sf, 1);
    let planner = Planner::new(&catalog);
    let mut rng = StdRng::seed_from_u64(seed);
    planner.plan(&tpch::instantiate(template, sf, &mut rng))
}

/// The hash-join build side is the estimated-smaller input.
#[test]
fn hash_join_builds_on_smaller_estimated_side() {
    for t in [3u8, 5, 10, 12] {
        let plan = plan_t(t, 1.0, 9).plan;
        for (i, n) in plan.iter().enumerate() {
            if n.op == OpType::HashJoin
                && matches!(
                    n.detail,
                    OpDetail::Join {
                        kind: JoinKind::Inner,
                        ..
                    }
                )
            {
                let [probe, hash] = [0, 1].map(|k| children(&plan, i).nth(k).unwrap());
                let (probe, build) = (&plan[probe], &plan[hash + 1]);
                assert_eq!(plan[hash].op, OpType::Hash);
                let build_rows = build.est.rows;
                assert!(
                    build_rows <= probe.est.rows * 1.001,
                    "t{t}: built {build_rows} rows while probing {}",
                    probe.est.rows
                );
            }
        }
    }
}

/// A repeated scan of the same small table within one query hits the
/// buffer cache: template 8 scans NATION twice.
#[test]
fn within_query_caching_speeds_second_scan() {
    let planned = plan_t(8, 1.0, 4);
    let sim = Simulator::with_config(SimConfig {
        node_noise_sigma: 0.0,
        query_noise_sigma: 0.0,
        additive_noise_secs: 0.0,
        ..SimConfig::default()
    });
    let trace = sim.execute(&planned, 1.0, 1);
    // Collect the elapsed run time of each nation scan relative to its own
    // subtree start (the scans are leaves, so run - start ≈ service time).
    let nodes = &planned.plan[..];
    let nation_scans: Vec<f64> = nodes
        .iter()
        .zip(&trace.timings)
        .filter(|(n, _)| n.scan_table() == Some(tpch::TableId::Nation))
        .map(|(_, t)| t.run)
        .collect();
    assert!(
        nation_scans.len() >= 2,
        "template 8 should scan nation twice"
    );
    // The later scan must be at least 10x cheaper (cached pages).
    let first = nation_scans[0];
    let later = *nation_scans.last().unwrap();
    assert!(
        later < first / 10.0 || first < 1e-4,
        "first {first}, later {later}"
    );
}

/// Tiny work_mem slows spilling queries down (external sorts / batched
/// hash joins).
#[test]
fn spills_cost_time() {
    let plan = plan_t(5, 1.0, 6);
    let base_cfg = SimConfig {
        node_noise_sigma: 0.0,
        query_noise_sigma: 0.0,
        additive_noise_secs: 0.0,
        ..SimConfig::default()
    };
    let roomy = Simulator::with_config(SimConfig {
        work_mem: 1e12,
        ..base_cfg.clone()
    })
    .execute(&plan, 1.0, 1)
    .total_secs;
    let tight = Simulator::with_config(SimConfig {
        work_mem: 1024.0 * 1024.0,
        ..base_cfg
    })
    .execute(&plan, 1.0, 1)
    .total_secs;
    assert!(tight > roomy * 1.1, "tight {tight} vs roomy {roomy}");
}

/// Selective equality probes on indexed columns use the index; full-table
/// predicates do not.
#[test]
fn index_selection_depends_on_selectivity() {
    // Template 2's subquery probes partsupp by part key -> IndexScan.
    let t2 = plan_t(2, 1.0, 5).plan;
    assert!(t2.iter().any(|n| n.op == OpType::IndexScan));
    // Template 1 scans all of lineitem -> SeqScan only.
    let t1 = plan_t(1, 1.0, 5).plan;
    assert!(t1.iter().all(|n| n.op != OpType::IndexScan));
}

/// Semi joins never report more rows than their left input.
#[test]
fn semi_join_cardinality_bounds() {
    for seed in 0..5u64 {
        let Planned { plan, truth } = plan_t(4, 1.0, seed);
        for (i, n) in plan.iter().enumerate() {
            if let OpDetail::Join {
                kind: JoinKind::Semi,
                ..
            } = n.detail
            {
                // The left input is the first child, at pre-order i + 1.
                let left = &plan[i + 1];
                assert!(truth[i].rows <= truth[i + 1].rows * 1.001);
                assert!(n.est.rows <= left.est.rows * 1.001);
            }
        }
    }
}

/// EXPLAIN output parses back: every line of every template renders with
/// cost annotations.
#[test]
fn explain_covers_all_templates() {
    for t in tpch::ALL_TEMPLATES {
        let plan = plan_t(t, 0.5, 2).plan;
        let text = engine::explain(&plan);
        assert_eq!(text.lines().count(), plan.len(), "t{t}");
        for line in text.lines() {
            assert!(line.contains("cost="), "t{t}: {line}");
            assert!(line.contains("rows="), "t{t}: {line}");
        }
    }
}

/// The estimate side never sees truth values: for template 9 the LIKE
/// filter is underestimated by a large factor (the paper's snowball).
#[test]
fn t9_like_underestimation_cascades() {
    let Planned { plan, truth } = plan_t(9, 10.0, 8);
    let nodes = &plan[..];
    let part_scan = nodes
        .iter()
        .position(|n| n.scan_table() == Some(tpch::TableId::Part))
        .expect("part scan");
    let est = nodes[part_scan].est.rows;
    assert!(
        truth[part_scan].rows > est * 2.0,
        "truth {} vs est {est}",
        truth[part_scan].rows
    );
}
