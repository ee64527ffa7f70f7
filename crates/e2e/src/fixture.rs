//! Shared inputs: the simulated database, the training log, the held-out
//! query pool and the request stream, plus the frozen operation counts.
//!
//! **What `--seed` changes.** The database, the training log and the pool
//! are the benchmark's *dataset*: they come from [`DATA_SEED`] and are the
//! same for every `--seed`, so `mre_*` on the three inference workloads
//! compares like with like across seeds. `--seed` drives everything about
//! the *traffic*: which pool plans are hot (the Zipf rank permutation),
//! the draws, the arrival jitter, and — for `train` — the contents of
//! every fresh training workload.

use engine::{Catalog, SimConfig, Simulator};
use qpp::{ExecutedQuery, QppConfig, QppPredictor, QueryDataset};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use tpch::Workload;

use crate::stream::zipf_stream;

/// TPC-H templates of the full run's training log and pool.
pub const TEMPLATES: [u8; 7] = [1, 3, 5, 6, 10, 12, 14];

/// Seed of the dataset (catalog statistics aside, which use seed 1).
pub const DATA_SEED: u64 = 42;

/// Requests per `lib_batch` call.
pub const LIB_BATCH: usize = 1024;

/// Every count a run uses. There are two sets and nothing else: [`Sizes::FULL`],
/// the benchmark as `BENCHMARK.json` describes it, and [`Sizes::SMOKE`] for the
/// tests. Work is a fixed operation count, never a wall-clock budget: a slow
/// moment makes a round longer, not smaller.
#[derive(Debug, Clone)]
pub struct Sizes {
    /// TPC-H scale factor.
    pub sf: f64,
    /// TPC-H templates of the training log and the pool.
    pub templates: &'static [u8],
    /// Whether the two orderings are output checks: `mre_hybrid <= mre_op`
    /// and library < in-process server < TCP in median latency. They hold
    /// on the full dataset and 20 000 replayed requests, not necessarily
    /// on smoke-sized data and 64.
    pub check_orderings: bool,
    /// Training instances per template.
    pub train_per_template: usize,
    /// Held-out pool instances per template.
    pub pool_per_template: usize,
    /// Length of the (cyclic) Zipf request stream.
    pub stream_len: usize,
    /// Measured rounds.
    pub rounds: usize,
    /// `lib_batch`: batch calls per round.
    pub lib_batches: usize,
    /// `serve_open`: mean arrival rate, requests/s.
    pub open_rate: f64,
    /// `serve_open`: requests per round.
    pub open_requests: usize,
    /// `wire_closed`: requests per client per round.
    pub wire_requests: usize,
    /// `train`: ops per round.
    pub train_ops: usize,
    /// Traced run: stream requests replayed through each rung.
    pub replay: usize,
    /// Traced run: rounds per workload phase.
    pub trace_rounds: usize,
    /// Traced run: repetitions of each layer probe (median reported).
    pub probe_reps: usize,
}

impl Sizes {
    /// The benchmark proper: 15 rounds of 1.0 to 1.5 s each on the
    /// reference host (2 vCPU), depending on how busy its neighbours are.
    /// The per-round counts are frozen here and quoted in
    /// `BENCHMARK.json`'s workload descriptions.
    pub const FULL: Sizes = Sizes {
        sf: 0.1,
        templates: &TEMPLATES,
        check_orderings: true,
        train_per_template: 20,
        pool_per_template: 100,
        stream_len: 1 << 20,
        rounds: 15,
        lib_batches: 800,
        open_rate: 20_000.0,
        open_requests: 24_000,
        wire_requests: 11_000,
        train_ops: 17,
        replay: 20_000,
        trace_rounds: 3,
        probe_reps: 5,
    };

    /// Tiny counts for the tests: every code path, no meaningful timing.
    pub const SMOKE: Sizes = Sizes {
        sf: 0.01,
        // Two single-table templates: few column histograms to build,
        // which is what dominates set-up in an unoptimised build.
        templates: &[1, 6],
        check_orderings: false,
        train_per_template: 6,
        pool_per_template: 4,
        stream_len: 4096,
        rounds: 3,
        lib_batches: 2,
        open_rate: 10_000.0,
        open_requests: 64,
        wire_requests: 16,
        train_ops: 1,
        replay: 64,
        trace_rounds: 1,
        probe_reps: 1,
    };
}

/// The generated inputs one set-up builds.
pub struct Fixture {
    /// Scale factor everything was generated at.
    pub sf: f64,
    /// Templates everything was generated from.
    pub templates: &'static [u8],
    /// Catalog (statistics) of the simulated database.
    pub catalog: Catalog,
    /// The execution simulator (additive noise 0.05 s).
    pub sim: Simulator,
    /// The executed training log.
    pub train: QueryDataset,
    /// The held-out pool, `Arc`ed because the servers take `Arc`s.
    pub pool: Vec<Arc<ExecutedQuery>>,
    /// Zipf draws over pool indices; request `i` is `stream[i % len]`.
    pub stream: Vec<u32>,
}

impl Fixture {
    /// Generates and executes the dataset and draws the request stream.
    pub fn build(sizes: &Sizes, seed: u64) -> Fixture {
        let catalog = Catalog::new(sizes.sf, 1);
        let sim = Simulator::with_config(SimConfig {
            additive_noise_secs: 0.05,
            ..SimConfig::default()
        });
        let collect = |per_template: usize, workload_seed: u64| {
            let workload =
                Workload::generate(sizes.templates, per_template, sizes.sf, workload_seed);
            QueryDataset::execute(&catalog, &workload, &sim, workload_seed, f64::INFINITY)
        };
        let train = collect(sizes.train_per_template, DATA_SEED);
        let pool: Vec<Arc<ExecutedQuery>> = collect(sizes.pool_per_template, DATA_SEED ^ 0x9001)
            .queries
            .into_iter()
            .map(Arc::new)
            .collect();
        let stream = zipf_stream(pool.len(), sizes.stream_len, seed);
        Fixture {
            sf: sizes.sf,
            templates: sizes.templates,
            catalog,
            sim,
            train,
            pool,
            stream,
        }
    }

    /// The pool query request `i` asks about.
    pub fn request(&self, i: u64) -> &Arc<ExecutedQuery> {
        &self.pool[self.stream[(i % self.stream.len() as u64) as usize] as usize]
    }

    /// Executes a fresh training workload (new content for every
    /// `collection_seed`, so content-addressed caches miss on it).
    pub fn collect_fresh(&self, per_template: usize, collection_seed: u64) -> QueryDataset {
        let workload = Workload::generate(self.templates, per_template, self.sf, collection_seed);
        QueryDataset::execute(
            &self.catalog,
            &workload,
            &self.sim,
            collection_seed,
            f64::INFINITY,
        )
    }

    /// Trains the full predictor on the training log.
    pub fn train_predictor(&self) -> QppPredictor {
        train_on(&self.train)
    }
}

/// `QppPredictor::train` on a whole dataset with the default config.
pub fn train_on(dataset: &QueryDataset) -> QppPredictor {
    let refs: Vec<&ExecutedQuery> = dataset.queries.iter().collect();
    QppPredictor::train(&refs, QppConfig::default()).expect("training on a clean log succeeds")
}

/// Where a run may write: `$CARGO_TARGET_DIR/qpp-e2e` (else
/// `target/qpp-e2e`), relative to the working directory, so nothing
/// leaves the checkout and everything is already git-ignored.
pub fn out_root() -> PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| "target".into());
    Path::new(&target).join("qpp-e2e")
}

/// A scratch directory for model registries, removed on drop.
pub struct ScratchDir(PathBuf);

impl ScratchDir {
    /// Creates `<out_root>/run-<pid>`.
    pub fn create() -> std::io::Result<ScratchDir> {
        let path = out_root().join(format!("run-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path)?;
        Ok(ScratchDir(path))
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// CPU time the hypervisor withheld from this VM's vCPUs so far, in
/// seconds summed over vCPUs (`steal` of `/proc/stat`'s `cpu` line, in
/// 10 ms ticks), or 0 where `/proc` is not available.
pub fn stolen_cpu_secs() -> f64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|stat| {
            let ticks: f64 = stat
                .lines()
                .next()?
                .split_whitespace()
                .nth(8)?
                .parse()
                .ok()?;
            Some(ticks / 100.0)
        })
        .unwrap_or(0.0)
}

/// Peak resident set size of this process in MiB (`VmHWM`), or NaN
/// where `/proc` is not available.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
            Some(kib / 1024.0)
        })
        .unwrap_or(f64::NAN)
}
