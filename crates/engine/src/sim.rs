//! The execution simulator: the hidden performance model that plays the
//! role of PostgreSQL-on-hardware in this reproduction.
//!
//! It walks a physical plan bottom-up over the *truth* planned beside it
//! (node `i`'s [`NodeTruth`] at pre-order position `i`) and produces, for
//! every operator, the paper's two targets:
//!
//! - **start-time** — elapsed time until the operator (and the sub-plan
//!   rooted at it) produces its first output tuple;
//! - **run-time** — elapsed time until it produces its last output tuple
//!   (the root's run-time is the query latency).
//!
//! The model deliberately contains structure an additive cost model cannot
//! express — the phenomena Section 5.3.2 of the paper blames for
//! operator-level prediction failures:
//!
//! - a cold-start buffer pool with within-query caching (repeated scans and
//!   index probes of the same table get cheaper);
//! - sequential-I/O ↔ CPU overlap in pipelines (OS readahead): downstream
//!   CPU rides on a scan's I/O slack, tracked as a `residual_io` budget;
//! - blocking-operator semantics (sorts, hash builds and hash aggregates
//!   sit between a child's run-time and the parent's start-time);
//! - hash tables degrading once they exceed cache, sorts and hash joins
//!   spilling past `work_mem`, nested-loop index probes thrashing when the
//!   touched page set exceeds the buffer pool;
//! - software numeric arithmetic (the paper's template-1 aggregate
//!   bottleneck) priced per numeric op;
//! - log-normal measurement noise per node and per query.

use crate::estimator::cardenas;
use crate::faults::{DriftPlan, ExecError, FaultPlan};
use crate::plan::{NodeTruth, OpDetail, OpType, PlanNode, Planned};
use rng::StdRng;
use std::collections::HashMap;
use tpch::schema::TableId;

/// Hardware / configuration constants of the simulated system.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Sequential page read (8 KiB from a ~125 MB/s disk).
    pub seq_page_secs: f64,
    /// Random page read (seek-bound).
    pub rand_page_secs: f64,
    /// Buffer-cache page touch.
    pub cached_page_secs: f64,
    /// Per-tuple scan CPU.
    pub cpu_tuple_secs: f64,
    /// Per-predicate evaluation.
    pub cpu_pred_secs: f64,
    /// Per index entry.
    pub cpu_index_tuple_secs: f64,
    /// Hash-table insert.
    pub hash_build_secs: f64,
    /// Hash-table probe (before cache penalty).
    pub hash_probe_secs: f64,
    /// Merge-join comparison.
    pub merge_cmp_secs: f64,
    /// Sort comparison.
    pub sort_cmp_secs: f64,
    /// Aggregate transition per (row × aggregate).
    pub agg_transition_secs: f64,
    /// Software numeric arithmetic per operation (the template-1 story).
    pub numeric_op_secs: f64,
    /// Tuplestore write per row.
    pub mat_write_secs: f64,
    /// Tuplestore read per row (rescans).
    pub mat_read_secs: f64,
    /// Output emission per row.
    pub emit_secs: f64,
    /// Spill I/O per page (write or read, seek-prone).
    pub spill_page_secs: f64,
    /// Spill I/O per page once an operator needs many batches/runs
    /// (temp-file seek storms: interleaved partition files on one spindle).
    pub heavy_spill_page_secs: f64,
    /// Batch-count threshold (operator bytes / work_mem) beyond which
    /// spill I/O becomes seek-bound.
    pub heavy_batch_threshold: f64,
    /// Buffer pool size in 8 KiB pages (1 GiB, 25% of the paper's RAM).
    pub buffer_pool_pages: f64,
    /// Per-operation memory budget in bytes.
    pub work_mem: f64,
    /// Fraction of I/O slack downstream CPU can hide in (readahead
    /// efficiency).
    pub overlap_eff: f64,
    /// Log-normal sigma of per-node noise.
    pub node_noise_sigma: f64,
    /// Log-normal sigma of per-query noise.
    pub query_noise_sigma: f64,
    /// Scale (seconds) of the additive half-normal latency jitter — OS
    /// scheduling, checkpoints, autovacuum. Fixed in absolute terms, so it
    /// dominates *relative* variance for short queries: the paper's 1 GB
    /// dataset has a ~2.6× higher std/mean latency ratio than 10 GB.
    pub additive_noise_secs: f64,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            seq_page_secs: 110e-6,
            rand_page_secs: 4e-3,
            cached_page_secs: 1.5e-6,
            cpu_tuple_secs: 150e-9,
            cpu_pred_secs: 60e-9,
            cpu_index_tuple_secs: 200e-9,
            hash_build_secs: 250e-9,
            hash_probe_secs: 300e-9,
            merge_cmp_secs: 150e-9,
            sort_cmp_secs: 140e-9,
            agg_transition_secs: 100e-9,
            numeric_op_secs: 120e-9,
            mat_write_secs: 80e-9,
            mat_read_secs: 35e-9,
            emit_secs: 50e-9,
            spill_page_secs: 150e-6,
            heavy_spill_page_secs: 1.2e-3,
            heavy_batch_threshold: 64.0,
            buffer_pool_pages: 131_072.0,
            work_mem: crate::cost::DEFAULT_WORK_MEM,
            overlap_eff: 0.9,
            node_noise_sigma: 0.03,
            query_noise_sigma: 0.05,
            additive_noise_secs: 1.5,
        }
    }
}

/// Observed timing of one operator (the paper's two prediction targets).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NodeTiming {
    /// Elapsed seconds until the first output tuple of this sub-plan.
    pub start: f64,
    /// Elapsed seconds until the last output tuple of this sub-plan.
    pub run: f64,
}

/// The execution record of one query.
#[derive(Debug, Clone)]
pub struct Trace {
    /// Per-operator timings in *pre-order* (entry `i` belongs to the plan
    /// node at position `i`).
    pub timings: Box<[NodeTiming]>,
    /// Query latency in seconds (the root's run-time).
    pub total_secs: f64,
    /// Disk pages physically read or written per operator (pre-order):
    /// cache misses, index probes, spill traffic. The second performance
    /// metric the paper family predicts (disk I/O).
    pub io_pages: Box<[f64]>,
}

/// The simulator.
#[derive(Debug, Clone, Default)]
pub struct Simulator {
    config: SimConfig,
}

/// Result of simulating one subtree.
#[derive(Debug, Clone, Copy)]
struct SubRes {
    start: f64,
    run: f64,
    /// I/O slack inside this subtree's output stream that a pipelined
    /// parent's CPU can overlap with.
    residual_io: f64,
}

/// Mutable per-execution state.
struct ExecState<'a> {
    /// The plan's truths in pre-order.
    truth: &'a [NodeTruth],
    /// Pages of each table currently cached (within-query warmth).
    cached: HashMap<TableId, f64>,
    rng: StdRng,
    sigma: f64,
    /// Scale factor (sizes base tables for the cache model).
    sf: f64,
    /// Per-node physical-I/O accumulators (stack parallels the walk).
    io_stack: Vec<f64>,
}

impl ExecState<'_> {
    /// Charges physical page traffic to the operator currently simulating.
    fn add_io(&mut self, pages: f64) {
        if let Some(top) = self.io_stack.last_mut() {
            *top += pages.max(0.0);
        }
    }
}

impl ExecState<'_> {
    fn noise(&mut self) -> f64 {
        if self.sigma <= 0.0 {
            return 1.0;
        }
        self.rng.log_normal(0.0, self.sigma)
    }

    fn cached_fraction(&self, table: TableId, pages: f64) -> f64 {
        let c = self.cached.get(&table).copied().unwrap_or(0.0);
        if pages <= 0.0 {
            0.0
        } else {
            (c / pages).clamp(0.0, 1.0)
        }
    }
}

impl Simulator {
    /// Creates a simulator with the default hardware model.
    pub fn new() -> Simulator {
        Simulator::default()
    }

    /// Creates a simulator with an explicit configuration.
    pub fn with_config(config: SimConfig) -> Simulator {
        Simulator { config }
    }

    /// Executes a planned query cold (empty caches) over its truths and
    /// returns the trace. `sf` is the scale factor the plan was built for
    /// (it sizes base tables for the cache model); `seed` controls the
    /// measurement noise — the same (plan, sf, seed) triple always
    /// produces the same trace.
    ///
    /// # Panics
    /// Panics if the truths do not hold one entry per plan node.
    pub fn execute(&self, planned: &Planned, sf: f64, seed: u64) -> Trace {
        let plan = &planned.plan[..];
        let nodes = plan.len();
        assert_eq!(planned.truth.len(), nodes, "truth does not match plan");
        let mut state = ExecState {
            truth: &planned.truth,
            cached: HashMap::new(),
            rng: StdRng::seed_from_u64(seed),
            sigma: self.config.node_noise_sigma,
            sf,
            io_stack: Vec::new(),
        };
        let mut timings = Vec::with_capacity(nodes);
        let mut io_pages = vec![0.0; nodes];
        let res = self.walk(plan, &mut state, &mut timings, &mut io_pages);
        // Whole-query noise (scheduler, checkpoints, ...).
        let q = {
            let mut qrng = StdRng::seed_from_u64(seed ^ 0x5EED_CAFE);
            if self.config.query_noise_sigma > 0.0 {
                qrng.log_normal(0.0, self.config.query_noise_sigma)
            } else {
                1.0
            }
        };
        // Additive jitter lands on the whole query (and therefore on the
        // root's run phase).
        let add = {
            let mut arng = StdRng::seed_from_u64(seed ^ 0xADD_17E);
            if self.config.additive_noise_secs > 0.0 {
                arng.log_normal(0.0, 0.8) * self.config.additive_noise_secs
                    * 0.5
            } else {
                0.0
            }
        };
        for t in &mut timings {
            t.start *= q;
            t.run *= q;
        }
        if let Some(root) = timings.first_mut() {
            root.run += add;
        }
        Trace {
            total_secs: res.run * q + add,
            timings: timings.into_boxed_slice(),
            io_pages: io_pages.into_boxed_slice(),
        }
    }

    /// Executes a plan under a fault-injection policy and a drift
    /// scenario. The clean trace is computed exactly as
    /// [`Simulator::execute`] would (same seed, same noise streams); faults
    /// and drift are applied on top. `query_idx` is the query's position in
    /// the workload stream, which determines how far the drift has ramped
    /// in. A straggler's stretch and the drift's latency factor multiply
    /// into one factor on every timing; aborted executions then return
    /// [`ExecError::Aborted`], and executions whose stretched latency
    /// exceeds `faults.timeout_secs` return [`ExecError::Timeout`]. With
    /// `FaultPlan::none()` and `DriftPlan::none()` this is byte-identical
    /// to `execute`.
    pub fn try_execute(
        &self,
        plan: &Planned,
        sf: f64,
        seed: u64,
        faults: &FaultPlan,
        drift: &DriftPlan,
        query_idx: usize,
    ) -> Result<Trace, ExecError> {
        let outcome = faults.decide(seed);
        let mut trace = self.execute(plan, sf, seed);
        let m = outcome.straggler_factor.max(1.0) * drift.latency_factor(query_idx);
        if m != 1.0 {
            trace.total_secs *= m;
            for t in &mut trace.timings {
                t.start *= m;
                t.run *= m;
            }
        }
        if outcome.abort {
            return Err(ExecError::Aborted {
                progress: outcome.abort_progress,
            });
        }
        if trace.total_secs > faults.timeout_secs {
            return Err(ExecError::Timeout {
                budget_secs: faults.timeout_secs,
                needed_secs: trace.total_secs,
            });
        }
        Ok(trace)
    }

    /// Per-page spill rate for an operator handling `bytes`: seek-bound
    /// once the batch/run count (bytes / work_mem) passes the threshold.
    fn spill_rate(&self, bytes: f64) -> f64 {
        let c = &self.config;
        if bytes / c.work_mem > c.heavy_batch_threshold {
            c.heavy_spill_page_secs
        } else {
            c.spill_page_secs
        }
    }

    /// Simulates the subtree at pre-order position `out.len()`: the
    /// next node of `plan` not yet timed.
    fn walk(
        &self,
        plan: &[PlanNode],
        st: &mut ExecState<'_>,
        out: &mut Vec<NodeTiming>,
        io: &mut [f64],
    ) -> SubRes {
        let idx = out.len();
        out.push(NodeTiming { start: 0.0, run: 0.0 });
        st.io_stack.push(0.0);
        let mut res = self.node_res(plan, idx, st, out, io);
        io[idx] = st.io_stack.pop().expect("io accumulator");
        // Start-time can never exceed run-time (first tuple precedes last).
        res.start = res.start.min(res.run);
        out[idx] = NodeTiming {
            start: res.start,
            run: res.run,
        };
        res
    }

    /// Simulates the node at pre-order position `idx` of `plan`. A node's
    /// first child sits at `idx + 1`; a second child's position is read
    /// before it is walked.
    fn node_res(
        &self,
        plan: &[PlanNode],
        idx: usize,
        st: &mut ExecState<'_>,
        out: &mut Vec<NodeTiming>,
        io: &mut [f64],
    ) -> SubRes {
        let c = &self.config;
        let node = &plan[idx];
        let noise = st.noise();
        let truth = st.truth[idx];
        match node.op {
            OpType::SeqScan => {
                let (table, n_preds) = match &node.detail {
                    OpDetail::Scan { table, filters } => (*table, filters.len()),
                    _ => unreachable!("scan detail"),
                };
                let pages = truth.pages;
                let base_rows = pages * 8192.0 * 0.9 / table.tuple_width() as f64;
                let hit = st.cached_fraction(table, pages);
                let io = pages * ((1.0 - hit) * c.seq_page_secs + hit * c.cached_page_secs) * noise;
                st.add_io(pages * (1.0 - hit));
                let cpu = (base_rows * (c.cpu_tuple_secs + n_preds as f64 * c.cpu_pred_secs)
                    + truth.rows * c.emit_secs)
                    * noise;
                // Within-query warmth: small tables stay resident.
                if pages <= 0.5 * c.buffer_pool_pages {
                    st.cached.insert(table, pages);
                }
                let first_page =
                    (1.0 - hit) * c.seq_page_secs + hit * c.cached_page_secs + c.cpu_tuple_secs;
                let run = io.max(cpu) + 0.1 * io.min(cpu);
                SubRes {
                    start: first_page.min(run),
                    run,
                    residual_io: (io - cpu).max(0.0) * c.overlap_eff,
                }
            }
            OpType::IndexScan => {
                // Standalone index scan (probe-mode handling lives in the
                // NestedLoop arm).
                let table = node.scan_table().expect("index scan has a table");
                let pages = truth.pages.max(1.0);
                let hit = st.cached_fraction(table, table.pages(st.sf) as f64);
                let io = pages * ((1.0 - hit) * c.rand_page_secs + hit * c.cached_page_secs) * noise;
                st.add_io(pages * (1.0 - hit));
                let cpu = truth.rows * (c.cpu_index_tuple_secs + c.cpu_tuple_secs) * noise;
                SubRes {
                    start: c.rand_page_secs * 2.0,
                    run: io + cpu,
                    residual_io: 0.0,
                }
            }
            OpType::Sort => {
                let child = self.walk(plan, st, out, io);
                let n = truth.rows.max(1.0);
                let keys = match &node.detail {
                    OpDetail::Sort { keys } => *keys as f64,
                    _ => 1.0,
                };
                let cpu = n * n.log2().max(1.0) * c.sort_cmp_secs * (1.0 + 0.15 * (keys - 1.0));
                let bytes = n * node.est.width;
                let spill = if bytes > c.work_mem {
                    st.add_io(2.0 * (bytes / 8192.0));
                    2.0 * (bytes / 8192.0) * self.spill_rate(bytes)
                } else {
                    0.0
                };
                let start = child.run + (cpu + spill) * noise;
                SubRes {
                    start,
                    run: start + n * c.emit_secs * 0.5,
                    residual_io: 0.0,
                }
            }
            OpType::Hash => {
                let child = self.walk(plan, st, out, io);
                let n = truth.rows.max(1.0);
                let bytes = n * node.est.width;
                let spill = if bytes > c.work_mem {
                    st.add_io(bytes / 8192.0);
                    (bytes / 8192.0) * self.spill_rate(bytes)
                } else {
                    0.0
                };
                let t = child.run + (n * c.hash_build_secs + spill) * noise;
                SubRes {
                    start: t,
                    run: t,
                    residual_io: 0.0,
                }
            }
            OpType::HashJoin => {
                let probe = self.walk(plan, st, out, io);
                let hash_idx = out.len();
                let hash = self.walk(plan, st, out, io);
                let build_rows = st.truth[hash_idx].rows.max(1.0);
                let build_bytes = build_rows * plan[hash_idx].est.width;
                // Probe cost grows once the hash table exceeds the caches.
                let cache_penalty = (1.0 + 0.4 * (build_bytes / 4e6).log10().max(0.0)).min(2.5);
                let probe_rows = st.truth[idx + 1].rows;
                let cpu = (probe_rows * c.hash_probe_secs * cache_penalty
                    + truth.rows * c.emit_secs)
                    * noise;
                // Multi-batch execution: both sides spill once past work_mem.
                let probe_bytes = probe_rows * plan[idx + 1].est.width;
                let spill = if build_bytes > c.work_mem {
                    st.add_io(2.0 * ((build_bytes + probe_bytes) / 8192.0));
                    2.0 * ((build_bytes + probe_bytes) / 8192.0) * self.spill_rate(build_bytes)
                } else {
                    0.0
                };
                let run = hash.run
                    + probe.run
                    + (cpu - c.overlap_eff * probe.residual_io).max(0.0)
                    + spill * noise;
                SubRes {
                    start: hash.run + probe.start + c.cpu_tuple_secs,
                    run,
                    residual_io: (probe.residual_io - cpu).max(0.0) * 0.5,
                }
            }
            OpType::MergeJoin => {
                let left = self.walk(plan, st, out, io);
                let right_idx = out.len();
                let right = self.walk(plan, st, out, io);
                let l_rows = st.truth[idx + 1].rows;
                let r_rows = st.truth[right_idx].rows;
                let cpu = ((l_rows + r_rows) * c.merge_cmp_secs + truth.rows * c.emit_secs) * noise;
                // Single-threaded demand-driven execution: both (blocking)
                // sorted inputs must reach their first tuple before the
                // merge can emit.
                SubRes {
                    start: left.start + right.start + c.cpu_tuple_secs,
                    run: left.run + right.run + cpu,
                    residual_io: 0.0,
                }
            }
            OpType::NestedLoop => {
                let outer = self.walk(plan, st, out, io);
                let outer_rows = st.truth[idx + 1].rows.max(0.0);
                let inner_idx = out.len();
                let inner_node = &plan[inner_idx];
                match inner_node.op {
                    OpType::IndexScan => {
                        // Probe-mode: charge per-probe I/O with buffer-pool
                        // thrash once the touched page set exceeds the pool.
                        out.push(NodeTiming { start: 0.0, run: 0.0 });
                        let table = inner_node.scan_table().expect("scan");
                        let table_pages = table.pages(st.sf) as f64;
                        let per_probe_rows = st.truth[inner_idx].rows.max(0.0);
                        let per_probe_pages = st.truth[inner_idx].pages.max(1.0);
                        let touches = outer_rows * per_probe_pages;
                        let distinct = cardenas(table_pages.max(1.0), touches);
                        let resident = st.cached.get(&table).copied().unwrap_or(0.0);
                        let first_reads = (distinct - resident).max(0.0);
                        // Re-reads: the fraction of the working set that no
                        // longer fits the pool gets evicted and fetched again.
                        let over = ((distinct - c.buffer_pool_pages) / distinct.max(1.0)).max(0.0);
                        let re_reads = (touches - distinct).max(0.0) * over;
                        io[inner_idx] = first_reads + re_reads;
                        let io_secs = (first_reads + re_reads) * c.rand_page_secs
                            + ((touches - first_reads - re_reads).max(0.0)) * c.cached_page_secs;
                        let cpu = outer_rows
                            * (c.cpu_index_tuple_secs * 2.0
                                + per_probe_rows * (c.cpu_tuple_secs + c.cpu_pred_secs));
                        let probe_total = (io_secs + cpu) * noise;
                        let inner_first = c.rand_page_secs * per_probe_pages;
                        out[inner_idx] = NodeTiming {
                            start: outer.start + inner_first,
                            run: outer.run + probe_total,
                        };
                        let run = outer.run + probe_total + truth.rows * c.emit_secs;
                        SubRes {
                            start: outer.start + inner_first + c.cpu_tuple_secs,
                            run,
                            residual_io: 0.0,
                        }
                    }
                    _ => {
                        // Materialized inner: the Materialize node already
                        // accounts for its rescans.
                        let inner = self.walk(plan, st, out, io);
                        let cpu = (outer_rows * c.cpu_tuple_secs * 0.5
                            + truth.rows * c.emit_secs)
                            * noise;
                        SubRes {
                            start: outer.start + inner.start + c.cpu_tuple_secs,
                            run: outer.run + inner.run + cpu,
                            residual_io: 0.0,
                        }
                    }
                }
            }
            OpType::Materialize => {
                let child = self.walk(plan, st, out, io);
                let n = truth.rows.max(0.0);
                let rescans = match &node.detail {
                    OpDetail::Materialize { rescans } => *rescans,
                    _ => 0.0,
                };
                let bytes = n * node.est.width;
                let spilled = bytes > c.work_mem;
                let write = n * c.mat_write_secs
                    + if spilled {
                        st.add_io(bytes / 8192.0);
                        (bytes / 8192.0) * self.spill_rate(bytes)
                    } else {
                        0.0
                    };
                let per_rescan = n * c.mat_read_secs
                    + if spilled {
                        st.add_io(rescans * (bytes / 8192.0) * 0.5);
                        (bytes / 8192.0) * self.spill_rate(bytes) * 0.5
                    } else {
                        0.0
                    };
                let start = child.run + write * noise;
                SubRes {
                    start,
                    run: start + rescans * per_rescan * noise,
                    residual_io: 0.0,
                }
            }
            OpType::HashAggregate | OpType::GroupAggregate | OpType::Aggregate => {
                let child = self.walk(plan, st, out, io);
                let in_rows = st.truth[idx + 1].rows.max(0.0);
                let (n_aggs, numeric_ops) = match &node.detail {
                    OpDetail::Agg {
                        n_aggs,
                        numeric_ops,
                        ..
                    } => (*n_aggs as f64, *numeric_ops as f64),
                    _ => (1.0, 0.0),
                };
                let groups = truth.rows.max(1.0);
                let trans = in_rows
                    * (n_aggs * c.agg_transition_secs + numeric_ops * c.numeric_op_secs)
                    * noise;
                // Transitions can hide in the child's I/O slack (the paper's
                // scan-vs-aggregate overlap example).
                let visible = (trans - c.overlap_eff * child.residual_io).max(0.0);
                let emit = groups * (c.emit_secs * 4.0);
                match node.op {
                    OpType::HashAggregate => {
                        let start = child.run + visible;
                        SubRes {
                            start,
                            run: start + emit,
                            residual_io: 0.0,
                        }
                    }
                    OpType::GroupAggregate => SubRes {
                        start: child.start + c.cpu_tuple_secs,
                        run: child.run + visible + emit,
                        residual_io: (child.residual_io - trans).max(0.0) * 0.5,
                    },
                    _ => {
                        let run = child.run + visible + emit;
                        SubRes {
                            start: run,
                            run,
                            residual_io: 0.0,
                        }
                    }
                }
            }
            OpType::Limit => {
                let child = self.walk(plan, st, out, io);
                let frac = match &node.detail {
                    OpDetail::Limit { count } => {
                        (*count as f64 / st.truth[idx + 1].rows.max(1.0)).min(1.0)
                    }
                    _ => 1.0,
                };
                SubRes {
                    start: child.start,
                    run: child.start + (child.run - child.start) * frac,
                    residual_io: 0.0,
                }
            }
            OpType::SubqueryScan => {
                let input = self.walk(plan, st, out, io);
                let sub = self.walk(plan, st, out, io);
                let (correlated, executions) = match &node.detail {
                    OpDetail::Subquery {
                        correlated,
                        executions,
                    } => (*correlated, *executions),
                    _ => (false, 1.0),
                };
                let cmp_cpu = st.truth[idx + 1].rows * c.cpu_pred_secs;
                if correlated {
                    // Re-executions run against warmed caches: cheaper than
                    // the first, cold evaluation.
                    let warm_exec = sub.run * 0.4;
                    let run = input.run
                        + sub.run
                        + (executions - 1.0).max(0.0) * warm_exec
                        + cmp_cpu;
                    SubRes {
                        start: input.start + sub.run,
                        run,
                        residual_io: 0.0,
                    }
                } else {
                    let run = input.run + sub.run + cmp_cpu;
                    SubRes {
                        start: sub.run + input.start,
                        run,
                        residual_io: 0.0,
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::Catalog;
    use crate::planner::Planner;
    use rng::StdRng;
    use tpch::templates;

    fn simulate(t: u8, sf: f64, seed: u64) -> (Trace, Box<[PlanNode]>) {
        let catalog = Catalog::new(sf, 1);
        let planner = Planner::new(&catalog);
        let mut rng = StdRng::seed_from_u64(seed);
        let spec = templates::instantiate(t, sf, &mut rng);
        let plan = planner.plan(&spec);
        let sim = Simulator::new();
        let trace = sim.execute(&plan, sf, seed);
        (trace, plan.plan)
    }

    #[test]
    fn all_templates_simulate_to_positive_finite_times() {
        for t in templates::ALL_TEMPLATES {
            let (trace, plan) = simulate(t, 0.1, 3);
            assert!(trace.total_secs > 0.0 && trace.total_secs.is_finite(), "t{t}");
            assert_eq!(trace.timings.len(), plan.len(), "t{t}");
            for nt in trace.timings.iter() {
                assert!(nt.start >= 0.0 && nt.start.is_finite(), "t{t}");
                assert!(nt.run >= nt.start * 0.999, "t{t}: run {} < start {}", nt.run, nt.start);
            }
        }
    }

    #[test]
    fn latency_scales_with_scale_factor() {
        let (small, _) = simulate(1, 0.1, 1);
        let (big, _) = simulate(1, 1.0, 1);
        assert!(big.total_secs > small.total_secs * 3.0);
    }

    #[test]
    fn noise_varies_with_seed_but_is_reproducible() {
        let (a, _) = simulate(6, 0.1, 1);
        let (b, _) = simulate(6, 0.1, 1);
        let (c, _) = simulate(6, 0.1, 2);
        assert_eq!(a.total_secs, b.total_secs);
        assert_ne!(a.total_secs, c.total_secs);
        // Noise is small in relative terms.
        let rel = (a.total_secs - c.total_secs).abs() / a.total_secs;
        assert!(rel < 0.5, "rel = {rel}");
    }

    #[test]
    fn root_runtime_dominates_children() {
        let (trace, _) = simulate(3, 0.1, 5);
        let root = trace.timings[0];
        for nt in &trace.timings[1..] {
            assert!(nt.run <= root.run * 1.0001);
        }
    }

    #[test]
    fn try_execute_without_faults_matches_execute() {
        let catalog = Catalog::new(0.1, 1);
        let planner = Planner::new(&catalog);
        let mut rng = StdRng::seed_from_u64(9);
        let plan = planner.plan(&templates::instantiate(6, 0.1, &mut rng));
        let sim = Simulator::new();
        let clean = sim.execute(&plan, 0.1, 42);
        let faulty = sim
            .try_execute(&plan, 0.1, 42, &FaultPlan::none(), &DriftPlan::none(), 0)
            .expect("no faults injected");
        assert_eq!(clean.total_secs, faulty.total_secs);
        assert_eq!(clean.timings, faulty.timings);
    }

    #[test]
    fn try_execute_injects_aborts_stragglers_and_timeouts() {
        let catalog = Catalog::new(0.1, 1);
        let planner = Planner::new(&catalog);
        let mut rng = StdRng::seed_from_u64(9);
        let plan = planner.plan(&templates::instantiate(6, 0.1, &mut rng));
        let sim = Simulator::new();

        let abort_all = crate::faults::FaultPlan {
            abort_prob: 1.0,
            ..crate::faults::FaultPlan::none()
        };
        let no_drift = DriftPlan::none();
        match sim.try_execute(&plan, 0.1, 1, &abort_all, &no_drift, 0) {
            Err(crate::faults::ExecError::Aborted { progress }) => {
                assert!((0.0..=1.0).contains(&progress));
            }
            other => panic!("expected abort, got {other:?}"),
        }

        let straggle_all = crate::faults::FaultPlan {
            straggler_prob: 1.0,
            straggler_factor: 8.0,
            ..crate::faults::FaultPlan::none()
        };
        let clean = sim.execute(&plan, 0.1, 1);
        let slow = sim
            .try_execute(&plan, 0.1, 1, &straggle_all, &no_drift, 0)
            .expect("stragglers still complete");
        assert!((slow.total_secs - clean.total_secs * 8.0).abs() < 1e-9);

        let tight_budget = crate::faults::FaultPlan {
            timeout_secs: clean.total_secs * 0.5,
            ..crate::faults::FaultPlan::none()
        };
        assert!(matches!(
            sim.try_execute(&plan, 0.1, 1, &tight_budget, &no_drift, 0),
            Err(crate::faults::ExecError::Timeout { .. })
        ));
    }

    #[test]
    fn t1_is_cpu_bound_under_numeric_load() {
        // With numeric ops zeroed, template 1 should get much faster —
        // the aggregate arithmetic dominates, not the scan I/O.
        let catalog = Catalog::new(1.0, 1);
        let planner = Planner::new(&catalog);
        let mut rng = StdRng::seed_from_u64(1);
        let spec = templates::instantiate(1, 1.0, &mut rng);
        let plan = planner.plan(&spec);
        let normal = Simulator::new().execute(&plan, 1.0, 1).total_secs;
        let cfg = SimConfig {
            numeric_op_secs: 0.0,
            agg_transition_secs: 0.0,
            ..SimConfig::default()
        };
        let no_numeric = Simulator::with_config(cfg).execute(&plan, 1.0, 1).total_secs;
        assert!(
            normal > no_numeric * 1.5,
            "normal {normal}, no_numeric {no_numeric}"
        );
    }
}
