//! Figure 4 — common sub-plan analysis over the 14-template workload.
//!
//! (a) CDF of common-sub-plan sizes; (b) the most common sub-plans;
//! (c) for each template, the number of other templates it shares common
//! sub-plans with.

use engine::{Catalog, Planner};
use qpp::subplan::SubplanIndex;
use qpp_bench::WORKLOAD_SEED;
use tpch::Workload;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let panel = args.get(1).map(String::as_str).unwrap_or("all").to_string();
    let want = |p: &str| panel == "all" || panel == p;

    // Plan structures only — no execution needed for this analysis.
    let sf = 10.0;
    let catalog = Catalog::new(sf, 1);
    let planner = Planner::new(&catalog);
    let workload = Workload::generate(&tpch::FOURTEEN, 10, sf, WORKLOAD_SEED);
    let plans: Vec<(u8, engine::PlanNode)> = workload
        .queries
        .iter()
        .map(|q| (q.template, planner.plan(q)))
        .collect();
    let refs: Vec<(u8, &engine::PlanNode)> = plans.iter().map(|(t, p)| (*t, p)).collect();
    let index = SubplanIndex::build(&refs);

    if want("a") {
        println!("== Fig 4(a): CDF of common sub-plan sizes (#operators) ==");
        let sizes = index.common_size_distribution();
        if sizes.is_empty() {
            println!("(no sub-plans shared across templates)");
        } else {
            let n = sizes.len() as f64;
            println!("{:<8} {:>8}", "size", "F(x)");
            let mut last = 0usize;
            for (i, s) in sizes.iter().enumerate() {
                if (i + 1 == sizes.len() || sizes[i + 1] != *s)
                    && *s != last {
                        println!("{:<8} {:>8.3}", s, (i + 1) as f64 / n);
                        last = *s;
                    }
            }
            println!("(paper: mass concentrated on small sizes — smaller sub-plans are more common)");
        }
    }
    if want("b") {
        println!("\n== Fig 4(b): most common sub-plans across the 14 templates ==");
        for info in index.common(2).into_iter().take(6) {
            println!(
                "  {:>4} occurrences, {} templates, size {:>2}: {}",
                info.frequency(),
                info.templates.len(),
                info.size,
                info.description
            );
        }
    }
    if want("c") {
        println!("\n== Fig 4(c): #templates each template shares common sub-plans with ==");
        let sharing = index.template_sharing();
        for &t in &tpch::FOURTEEN {
            let n = sharing
                .iter()
                .find(|(tt, _)| *tt == t)
                .map(|(_, n)| *n)
                .unwrap_or(0);
            println!("  t{t:<4} {n}");
        }
        println!("(paper: every template except 6 shares sub-plans with at least one other)");
    }
}
