//! DBMS substrate: the database system whose query performance we predict.
//!
//! This crate plays the role of "PostgreSQL on a commodity server" in the
//! reproduction:
//!
//! - [`catalog`] + [`histogram`] — ANALYZE-style statistics (with realistic
//!   estimation noise and distinct-count underestimation).
//! - [`estimator`] — the optimizer's selectivity/cardinality estimator
//!   (histograms + independence + default selectivities).
//! - `truth` — the ground-truth cardinality model (exact generative
//!   selectivities, correlation corrections).
//! - [`plan`] — physical plan trees annotated with the optimizer's
//!   estimates, and the pre-order ground truth planned beside them.
//! - `cost` — PostgreSQL's analytical cost model (the paper's baseline).
//! - [`planner`] — cost-based physical planning of the TPC-H templates.
//! - [`sim`] — the execution simulator producing per-operator start-times
//!   and run-times (the paper's prediction targets).
//! - [`faults`] — seeded, deterministic fault injection (aborts,
//!   stragglers, timeouts, corrupted estimates) for robustness testing.
//! - [`exec`] — a reference executor over generated rows for validating
//!   the truth model at tiny scale factors.
//! - `explain` — EXPLAIN / EXPLAIN ANALYZE rendering.

#![warn(missing_docs)]
#![warn(unreachable_pub)]

pub mod catalog;
mod cost;
pub mod estimator;
pub mod exec;
mod explain;
pub mod faults;
pub mod histogram;
pub mod plan;
pub mod planner;
pub mod recost;
pub mod sim;
mod truth;

pub use catalog::Catalog;
pub use faults::{DriftKind, DriftPlan, ExecError, FaultOutcome, FaultPlan};
pub use explain::{explain, explain_analyze};
pub use plan::{NodeEst, OpDetail, OpType, PlanBuilder, PlanNode, Planned, ALL_OP_TYPES};
pub use planner::Planner;
pub use recost::for_each_truth_cost;
pub use sim::{NodeTiming, SimConfig, Simulator, Trace};
