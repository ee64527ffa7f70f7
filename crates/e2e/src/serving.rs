//! The two-tenant in-process server both serving workloads stand on, and
//! the identity check they share.

use std::path::Path;
use std::sync::Arc;

use qpp::{ExecutedQuery, Method, ModelRegistry, Prediction, QppConfig, QppError, QppPredictor};
use serve::{ShutdownReport, TenantBudget, TenantServeConfig, TenantServer, TenantSpec};

use crate::fixture::Fixture;
use crate::harness::{Check, Verified};
use crate::stream::METHODS;

/// Tenant names, heaviest first.
pub const TENANTS: [&str; 2] = ["gold", "bronze"];

/// True when two predictions agree in every bit.
pub fn same_bits(a: &Prediction, b: &Prediction) -> bool {
    a.value.to_bits() == b.value.to_bits()
        && a.method_used == b.method_used
        && a.degraded == b.degraded
}

/// A running two-tenant server and the library model it must agree with.
pub struct Served {
    /// The server: `gold` (weight 4) and `bronze` (weight 1), each with
    /// its own registry, default serving config.
    pub server: Arc<TenantServer>,
    /// `gold`'s serving predictor — the library reference.
    pub reference: Arc<QppPredictor>,
}

impl Served {
    /// Trains one model set per tenant on the same log (training is
    /// deterministic, which the identity check then proves for `bronze`)
    /// and starts the server.
    ///
    /// Everything but the two weights is the default: worker pool, batch
    /// limit, tier costs, the 64-deep tenant lanes and the 1024-deep
    /// global queue, so admission shedding and deadline tiering are live.
    pub fn start(fx: &Fixture, dir: &Path) -> Served {
        let registry = |tenant: &str| {
            Arc::new(
                ModelRegistry::create(dir.join(tenant), fx.train_predictor(), QppConfig::default())
                    .expect("registry directory is writable"),
            )
        };
        let gold = registry("gold");
        let reference = gold.current();
        let spec = |name: &str, registry, weight| TenantSpec {
            name: name.to_string(),
            registry,
            budget: TenantBudget {
                weight,
                ..TenantBudget::default()
            },
        };
        let server = TenantServer::start(
            vec![
                spec("gold", gold, 4.0),
                spec("bronze", registry("bronze"), 1.0),
            ],
            TenantServeConfig::default(),
        );
        Served {
            server: Arc::new(server),
            reference,
        }
    }

    /// Shuts the server down and checks its final ledgers.
    pub fn shut_down(self) -> Vec<Check> {
        let report: ShutdownReport = self.server.shutdown();
        vec![Check::new(
            "TenantServer ShutdownReport reconciles",
            report.reconciles(),
        )]
    }
}

/// Asks `predict` for every pool query under every method and compares
/// each answer bit for bit with the library's `predict_checked`; returns
/// the errors of the answers and whether all were identical.
pub fn verify_against_library(
    fx: &Fixture,
    reference: &QppPredictor,
    what: &str,
    mut predict: impl FnMut(&Arc<ExecutedQuery>, Method) -> Result<Prediction, QppError>,
) -> Verified {
    let actual: Vec<f64> = fx.pool.iter().map(|q| q.latency()).collect();
    let mut mre = [f64::NAN; 3];
    let mut identical = true;
    for (m, &method) in METHODS.iter().enumerate() {
        let values: Vec<f64> = fx
            .pool
            .iter()
            .map(|q| match predict(q, method) {
                Ok(p) => {
                    identical &= same_bits(&p, &reference.predict_checked(q, method));
                    p.value
                }
                Err(_) => {
                    identical = false;
                    f64::NAN
                }
            })
            .collect();
        mre[m] = ml::mean_relative_error(&actual, &values);
    }
    Verified {
        mre,
        checks: vec![Check::new(
            format!("{what} predictions are bit-identical to predict_checked"),
            identical,
        )],
    }
}
