//! What the suites of this binary share, each defined once: a registry
//! directory that removes itself, the quiet simulator and the drifted
//! collection the serving suites train on, a registry over a log, a
//! tenant spec, the three served methods, and the one lock under which a
//! test pins `ml::par`'s process-wide thread count.

use engine::faults::{DriftPlan, FaultPlan};
use engine::{Catalog, SimConfig, Simulator};
use qpp::{
    CollectionConfig, ExecutedQuery, Method, ModelRegistry, PlanOrdering, QppConfig, QppPredictor,
    QueryDataset,
};
use serve::{TenantBudget, TenantSpec};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use tpch::Workload;

/// The methods a predictor serves, each tier of the chain once.
pub const METHODS: [Method; 3] = [
    Method::PlanLevel,
    Method::OperatorLevel,
    Method::Hybrid(PlanOrdering::ErrorBased),
];

/// A fresh directory under the system temp dir, removed when the guard
/// drops: after a passing test, and while a failing one unwinds. The name
/// carries the process id and a per-process counter, so two tests never
/// share one.
pub struct TempDir(PathBuf);

impl TempDir {
    pub fn new(name: &str) -> TempDir {
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!("qpp-test-{}-{n}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        TempDir(dir)
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// The small log most suites train on: templates 1, 3, 6 and 14,
/// `per_template` instances each at sf 0.1, executed by the default
/// simulator.
pub fn log(per_template: usize) -> QueryDataset {
    let catalog = Catalog::new(0.1, 1);
    let workload = Workload::generate(&[1, 3, 6, 14], per_template, 0.1, 7);
    QueryDataset::execute(&catalog, &workload, &Simulator::new(), 11, f64::INFINITY)
}

/// `ds`'s queries as a server takes them.
pub fn arcs(ds: &QueryDataset) -> Vec<Arc<ExecutedQuery>> {
    ds.queries.iter().cloned().map(Arc::new).collect()
}

/// Simulator with the jitter tuned down: these tests assert model
/// accuracy, which the default absolute jitter would swamp at the tiny
/// scale factors used here.
pub fn quiet_sim() -> Simulator {
    Simulator::with_config(SimConfig {
        additive_noise_secs: 0.05,
        ..SimConfig::default()
    })
}

/// Executes `workload` at sf 0.1 under `drift`, with no faults and every
/// query trusted.
pub fn collect(workload: &Workload, sim: &Simulator, drift: &DriftPlan) -> QueryDataset {
    let catalog = Catalog::new(0.1, 1);
    QueryDataset::execute_drifted(
        &catalog,
        workload,
        sim,
        11,
        f64::INFINITY,
        &FaultPlan::none(),
        &CollectionConfig::trusting(),
        drift,
    )
    .0
}

/// A registry in `dir` whose version 1 is a predictor trained on `ds`.
pub fn registry_over(ds: &QueryDataset, dir: &TempDir) -> Arc<ModelRegistry> {
    let refs: Vec<&ExecutedQuery> = ds.queries.iter().collect();
    let predictor = QppPredictor::train(&refs, QppConfig::default()).expect("training");
    Arc::new(ModelRegistry::create(dir.path(), predictor, QppConfig::default()).expect("registry"))
}

/// A tenant named `name` serving `registry` with the default budget.
pub fn spec(name: &str, registry: &Arc<ModelRegistry>) -> TenantSpec {
    TenantSpec {
        name: name.to_string(),
        registry: Arc::clone(registry),
        budget: TenantBudget::default(),
    }
}

/// Runs `f` with `ml::par`'s worker count pinned to `n`, and restores the
/// default afterwards, also when `f` panics. The count is process-wide,
/// so every caller in this binary serializes on one lock: a comparison
/// between thread counts runs at the counts it names.
pub fn with_threads<T>(n: usize, f: impl FnOnce() -> T) -> T {
    static THREADS_LOCK: Mutex<()> = Mutex::new(());
    struct Pinned;
    impl Drop for Pinned {
        fn drop(&mut self) {
            ml::par::set_threads(0);
        }
    }
    let _guard = THREADS_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
    ml::par::set_threads(n);
    let _pinned = Pinned;
    f()
}
