//! Behavioral tests of the planner's cost-based physical choices and the
//! simulator's mechanism inventory: overlap, blocking, numeric CPU, noise
//! structure.

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

fn noiseless() -> SimConfig {
    SimConfig {
        node_noise_sigma: 0.0,
        query_noise_sigma: 0.0,
        additive_noise_secs: 0.0,
        ..SimConfig::default()
    }
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

/// I/O–CPU overlap: template 6 (scan + light aggregate) is I/O-bound, so
/// making the aggregate's transition CPU cheaper changes almost nothing —
/// it was hidden under the scan's I/O slack.
#[test]
fn cheap_cpu_hides_under_io() {
    let p = plan_t(6, 1.0, 1);
    let base = Simulator::with_config(noiseless()).execute(&p, 1.0, 0).total_secs;
    let no_agg_cpu = Simulator::with_config(SimConfig {
        agg_transition_secs: 0.0,
        numeric_op_secs: 0.0,
        ..noiseless()
    })
    .execute(&p, 1.0, 0)
    .total_secs;
    let delta = (base - no_agg_cpu) / base;
    assert!(
        delta < 0.25,
        "light aggregate CPU should mostly hide in scan I/O (delta {delta})"
    );
}

/// Template 1's heavy numeric aggregate does NOT hide: it exceeds the
/// scan's I/O and becomes the bottleneck (the paper's §5.2 example).
#[test]
fn heavy_numeric_cpu_does_not_hide() {
    let p = plan_t(1, 1.0, 1);
    let base = Simulator::with_config(noiseless()).execute(&p, 1.0, 0).total_secs;
    let no_agg_cpu = Simulator::with_config(SimConfig {
        agg_transition_secs: 0.0,
        numeric_op_secs: 0.0,
        ..noiseless()
    })
    .execute(&p, 1.0, 0)
    .total_secs;
    let delta = (base - no_agg_cpu) / base;
    assert!(
        delta > 0.3,
        "template 1's numeric arithmetic must dominate (delta {delta})"
    );
}

/// Blocking semantics: a Sort's start-time lies at or after its child's
/// run-time (it cannot emit before consuming everything).
#[test]
fn sorts_block() {
    let p = plan_t(1, 0.5, 1); // Sort on top of the aggregate
    let sim = Simulator::with_config(noiseless());
    let trace = sim.execute(&p, 0.5, 0);
    let nodes = &p.plan[..];
    for (i, n) in nodes.iter().enumerate() {
        if n.op == engine::OpType::Sort {
            // Child is at pre-order i+1.
            let child_run = trace.timings[i + 1].run;
            assert!(
                trace.timings[i].start >= child_run * 0.999,
                "sort started at {} before child finished at {}",
                trace.timings[i].start,
                child_run
            );
        }
    }
}

/// The noise decomposition: per-query noise shifts whole traces; node
/// noise decorrelates operators. Turning query noise off shrinks the
/// latency spread across seeds.
#[test]
fn noise_components_compose() {
    let p = plan_t(6, 0.5, 1);
    let spread = |cfg: SimConfig| {
        let sim = Simulator::with_config(cfg);
        let xs: Vec<f64> = (0..30).map(|s| sim.execute(&p, 0.5, s).total_secs).collect();
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / xs.len() as f64;
        var.sqrt() / mean
    };
    let full = spread(SimConfig::default());
    let quiet = spread(SimConfig {
        query_noise_sigma: 0.0,
        additive_noise_secs: 0.0,
        ..SimConfig::default()
    });
    assert!(full > quiet, "full {full} vs quiet {quiet}");
    assert!(spread(noiseless()) < 1e-12);
}

/// Absolute jitter matters relatively more for short queries: the same
/// additive noise produces a larger relative spread at SF 0.5 than SF 10
/// (the paper's 1 GB-vs-10 GB predictability gap).
#[test]
fn additive_noise_hits_small_scales_harder() {
    let rel_spread = |sf: f64| {
        let p = plan_t(6, sf, 1);
        let sim = Simulator::new();
        let xs: Vec<f64> = (0..30).map(|s| sim.execute(&p, sf, s).total_secs).collect();
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / xs.len() as f64;
        var.sqrt() / mean
    };
    let small = rel_spread(0.5);
    let large = rel_spread(10.0);
    assert!(small > large * 1.5, "small {small} vs large {large}");
}
