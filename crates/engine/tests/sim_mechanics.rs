//! Mechanism-level tests of the execution simulator: overlap, blocking,
//! numeric CPU, noise structure.

use engine::{Catalog, Planner, SimConfig, Simulator};
use rng::StdRng;

fn noiseless() -> SimConfig {
    SimConfig {
        node_noise_sigma: 0.0,
        query_noise_sigma: 0.0,
        additive_noise_secs: 0.0,
        ..SimConfig::default()
    }
}

fn plan(template: u8, sf: f64) -> engine::Planned {
    let catalog = Catalog::new(sf, 1);
    let planner = Planner::new(&catalog);
    let mut rng = StdRng::seed_from_u64(1);
    planner.plan(&tpch::instantiate(template, sf, &mut rng))
}

/// I/O–CPU overlap: template 6 (scan + light aggregate) is I/O-bound, so
/// making the aggregate's transition CPU cheaper changes almost nothing —
/// it was hidden under the scan's I/O slack.
#[test]
fn cheap_cpu_hides_under_io() {
    let p = plan(6, 1.0);
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
    let p = plan(1, 1.0);
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
    let p = plan(1, 0.5); // Sort on top of the aggregate
    let sim = Simulator::with_config(noiseless());
    let trace = sim.execute(&p, 0.5, 0);
    let nodes = p.plan.preorder();
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

/// Pipelined operators do NOT block: a GroupAggregate over sorted input
/// starts long before its input finishes.
#[test]
fn group_aggregate_pipelines() {
    // Build a plan with GroupAggregate by shrinking work_mem.
    let catalog = Catalog::new(1.0, 1);
    let planner = Planner::with_config(
        &catalog,
        engine::PlannerConfig { work_mem: 1024.0 },
    );
    let mut rng = StdRng::seed_from_u64(1);
    let p = planner.plan(&tpch::instantiate(10, 1.0, &mut rng));
    let sim = Simulator::with_config(noiseless());
    let trace = sim.execute(&p, 1.0, 0);
    let nodes = p.plan.preorder();
    let mut checked = false;
    for (i, n) in nodes.iter().enumerate() {
        if n.op == engine::OpType::GroupAggregate {
            // The child is the blocking Sort; the aggregate streams over
            // its output, so it starts with the sort's first tuple, not
            // after the sort's last.
            let child_start = trace.timings[i + 1].start;
            assert!(
                trace.timings[i].start <= child_start * 1.01 + 1e-3,
                "group aggregate should start with its input's first tuple: \
                 start {} vs child start {}",
                trace.timings[i].start,
                child_start
            );
            checked = true;
        }
    }
    assert!(checked, "expected a GroupAggregate under tiny work_mem");
}

/// The noise decomposition: per-query noise shifts whole traces; node
/// noise decorrelates operators. Turning query noise off shrinks the
/// latency spread across seeds.
#[test]
fn noise_components_compose() {
    let p = plan(6, 0.5);
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
        let p = plan(6, sf);
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
