//! The analytical cost model — a re-implementation of PostgreSQL's
//! per-operator cost arithmetic with the default GUC constants.
//!
//! This is the baseline the paper shows to be a poor latency predictor
//! (Section 5.2 / Figure 5): costs are abstract work units that weigh I/O
//! and CPU by fixed constants and ignore caching, overlap and operator
//! interactions.

/// Cost of a sequentially-fetched page (`seq_page_cost`).
pub(crate) const SEQ_PAGE_COST: f64 = 1.0;
/// Cost of a randomly-fetched page (`random_page_cost`).
pub(crate) const RANDOM_PAGE_COST: f64 = 4.0;
/// Cost of processing one tuple (`cpu_tuple_cost`).
pub(crate) const CPU_TUPLE_COST: f64 = 0.01;
/// Cost of processing one index entry (`cpu_index_tuple_cost`).
pub(crate) const CPU_INDEX_TUPLE_COST: f64 = 0.005;
/// Cost of evaluating one operator/function (`cpu_operator_cost`).
pub(crate) const CPU_OPERATOR_COST: f64 = 0.0025;
/// Memory budget per sort/hash operation in bytes (`work_mem`, 8 MiB):
/// the planner's and the simulator's default.
pub(crate) const DEFAULT_WORK_MEM: f64 = 8.0 * 1024.0 * 1024.0;

/// A (startup, total) cost pair, PostgreSQL-style.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Cost {
    /// Cost until the first output tuple.
    pub startup: f64,
    /// Cost until the last output tuple.
    pub total: f64,
}

impl Cost {
    /// A zero cost.
    pub(crate) const ZERO: Cost = Cost {
        startup: 0.0,
        total: 0.0,
    };

    /// The run phase (total − startup).
    pub(crate) fn run(&self) -> f64 {
        self.total - self.startup
    }
}

/// Sequential scan: all pages + per-tuple CPU + per-tuple predicate
/// evaluation.
pub(crate) fn seq_scan(pages: f64, rows: f64, n_preds: usize) -> Cost {
    Cost {
        startup: 0.0,
        total: pages * SEQ_PAGE_COST
            + rows * CPU_TUPLE_COST
            + rows * n_preds as f64 * CPU_OPERATOR_COST,
    }
}

/// Index scan returning `matched` of `table_rows` rows (simplified
/// Mackert–Lohman page fetch model).
pub(crate) fn index_scan(table_pages: f64, matched: f64, n_preds: usize) -> Cost {
    let pages_fetched = (matched * 1.05 + 2.0).min(table_pages);
    Cost {
        startup: 0.0,
        total: pages_fetched * RANDOM_PAGE_COST
            + matched * (CPU_INDEX_TUPLE_COST + CPU_TUPLE_COST)
            + matched * n_preds as f64 * CPU_OPERATOR_COST,
    }
}

/// Blocking sort of `rows` input rows of `width` bytes; adds external-merge
/// I/O when the data exceeds `work_mem`.
pub(crate) fn sort(input: Cost, rows: f64, width: f64, work_mem: f64) -> Cost {
    let rows = rows.max(1.0);
    let cmp = 2.0 * rows * rows.log2().max(1.0) * CPU_OPERATOR_COST;
    let bytes = rows * width;
    let spill = if bytes > work_mem {
        // Write + read every page once per merge pass (assume one pass).
        2.0 * (bytes / 8192.0) * SEQ_PAGE_COST
    } else {
        0.0
    };
    let startup = input.total + cmp + spill;
    Cost {
        startup,
        total: startup + rows * CPU_OPERATOR_COST,
    }
}

/// Hash build over the input.
pub(crate) fn hash_build(input: Cost, rows: f64) -> Cost {
    let total = input.total + rows * (CPU_TUPLE_COST + CPU_OPERATOR_COST);
    Cost {
        startup: total,
        total,
    }
}

/// Hash join: `hash` is the built inner, `probe` the outer stream.
pub(crate) fn hash_join(probe: Cost, hash: Cost, probe_rows: f64, out_rows: f64) -> Cost {
    let startup = hash.total + probe.startup;
    Cost {
        startup,
        total: startup
            + probe.run()
            + probe_rows * (CPU_OPERATOR_COST + CPU_TUPLE_COST * 0.5)
            + out_rows * CPU_TUPLE_COST,
    }
}

/// Merge join over two sorted inputs.
pub(crate) fn merge_join(left: Cost, right: Cost, l_rows: f64, r_rows: f64, out_rows: f64) -> Cost {
    let startup = left.startup + right.startup;
    Cost {
        startup,
        total: startup
            + left.run()
            + right.run()
            + (l_rows + r_rows) * CPU_OPERATOR_COST
            + out_rows * CPU_TUPLE_COST,
    }
}

/// Nested loop with `outer_rows` rescans of the inner.
pub(crate) fn nested_loop(outer: Cost, inner: Cost, inner_rescan: f64, outer_rows: f64, out_rows: f64) -> Cost {
    let startup = outer.startup + inner.startup;
    Cost {
        startup,
        total: startup
            + outer.run()
            + inner.run()
            + (outer_rows - 1.0).max(0.0) * inner_rescan
            + out_rows * CPU_TUPLE_COST,
    }
}

/// Materialize: store the input once; rescans are charged by the caller.
pub(crate) fn materialize(input: Cost, rows: f64) -> Cost {
    Cost {
        startup: input.startup,
        total: input.total + rows * CPU_OPERATOR_COST * 0.5,
    }
}

/// Rescan cost of a materialized relation (per rescan).
pub(crate) fn materialize_rescan(rows: f64) -> f64 {
    rows * CPU_OPERATOR_COST * 0.25
}

/// Hash aggregation: blocking, one transition per (input row × aggregate).
pub(crate) fn hash_aggregate(input: Cost, in_rows: f64, n_aggs: f64, groups: f64) -> Cost {
    let startup = input.total + in_rows * n_aggs.max(1.0) * CPU_OPERATOR_COST;
    Cost {
        startup,
        total: startup + groups * CPU_TUPLE_COST,
    }
}

/// Sorted-input (pipelined) aggregation.
pub(crate) fn group_aggregate(input: Cost, in_rows: f64, n_aggs: f64, groups: f64) -> Cost {
    Cost {
        startup: input.startup,
        total: input.total + in_rows * n_aggs.max(1.0) * CPU_OPERATOR_COST + groups * CPU_TUPLE_COST,
    }
}

/// LIMIT: consumes only a fraction of the child's run phase.
pub(crate) fn limit(input: Cost, child_rows: f64, count: f64) -> Cost {
    let frac = if child_rows > 0.0 {
        (count / child_rows).min(1.0)
    } else {
        1.0
    };
    Cost {
        startup: input.startup,
        total: input.startup + input.run() * frac,
    }
}

/// Subquery wrapper: the input plus `executions` subquery evaluations.
pub(crate) fn subquery(input: Cost, sub: Cost, executions: f64, in_rows: f64) -> Cost {
    Cost {
        startup: input.startup + if executions >= 1.0 { sub.total } else { 0.0 },
        total: input.total + executions.max(1.0) * sub.total + in_rows * CPU_OPERATOR_COST,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seq_scan_scales_with_pages_and_rows() {
        let small = seq_scan(100.0, 1000.0, 1);
        let big = seq_scan(10_000.0, 100_000.0, 1);
        assert!(big.total > small.total * 50.0);
        assert_eq!(small.startup, 0.0);
    }

    #[test]
    fn index_scan_beats_seq_scan_for_selective_probes() {
        let idx = index_scan(100_000.0, 30.0, 1);
        let seq = seq_scan(100_000.0, 6_000_000.0, 1);
        assert!(idx.total < seq.total / 100.0);
    }

    #[test]
    fn index_scan_page_fetches_are_capped() {
        let idx = index_scan(100.0, 1_000_000.0, 0);
        // Never more page fetches than the table has pages.
        assert!(idx.total < 100.0 * RANDOM_PAGE_COST + 1_000_000.0 * 0.02 + 1.0);
    }

    #[test]
    fn sort_is_blocking_and_spills() {
        let input = Cost { startup: 0.0, total: 100.0 };
        let in_mem = sort(input, 1000.0, 100.0, 1e9);
        assert!(in_mem.startup > input.total);
        let spilled = sort(input, 1_000_000.0, 100.0, 1e6);
        let unspilled = sort(input, 1_000_000.0, 100.0, 1e12);
        assert!(spilled.total > unspilled.total);
    }

    #[test]
    fn limit_truncates_run_phase() {
        let input = Cost { startup: 10.0, total: 110.0 };
        let l = limit(input, 1000.0, 10.0);
        assert_eq!(l.startup, 10.0);
        assert!((l.total - 11.0).abs() < 1e-9);
        // Limit above the row count changes nothing.
        let full = limit(input, 5.0, 10.0);
        assert_eq!(full.total, input.total);
    }

    #[test]
    fn hash_join_startup_includes_build() {
        let probe = Cost { startup: 0.0, total: 50.0 };
        let hash = hash_build(Cost { startup: 0.0, total: 30.0 }, 1000.0);
        let hj = hash_join(probe, hash, 10_000.0, 10_000.0);
        assert!(hj.startup >= hash.total);
        assert!(hj.total > hj.startup);
    }

    #[test]
    fn correlated_subquery_cost_explodes() {
        let input = Cost { startup: 0.0, total: 100.0 };
        let sub = Cost { startup: 0.0, total: 50.0 };
        let once = subquery(input, sub, 1.0, 1000.0);
        let per_row = subquery(input, sub, 1000.0, 1000.0);
        assert!(per_row.total > once.total * 100.0);
    }
}
