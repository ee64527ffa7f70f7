//! TPC-H substrate: schema, statistics, data generation, query templates.
//!
//! This crate is the workload side of the QPP reproduction. It provides:
//!
//! - [`schema`] — the eight TPC-H tables, row counts and page counts per
//!   scale factor.
//! - [`dicts`] — the specification's categorical vocabularies (segments,
//!   ship modes, nations, brands, ...).
//! - [`distributions`] — the generative distribution of every column and
//!   *exact* selectivity math, including the joint probabilities of the
//!   correlated date predicates that defeat independence-assuming
//!   optimizers.
//! - [`datagen`] — a dbgen-like columnar row generator used to validate
//!   the analytic model at small scale factors.
//! - [`spec`] — the logical query IR (scans, joins, aggregates, scalar
//!   subqueries) consumed by the engine's planner, and the instance a
//!   workload keeps (a template and its parameter draw).
//! - [`templates`] — the 22 TPC-H query templates with spec-conform
//!   parameter sampling, plus the template subsets used by the paper's
//!   experiments.
//! - [`workload`] — seeded workload batches (≈55 instances per template),
//!   each instance its parameter draw.

#![warn(missing_docs)]
#![warn(unreachable_pub)]

pub mod datagen;
pub mod dicts;
pub mod distributions;
pub mod schema;
pub mod spec;
pub mod templates;
pub mod types;
pub mod workload;

pub use datagen::{ColumnData, GeneratedDb, TableData};
pub use schema::{col, ColRef, TableId, ALL_TABLES};
pub use spec::{
    AggFunc, AggregateSpec, GroupCount, Having, JoinKind, Predicate, Query, QuerySpec, RelExpr,
};
pub use templates::{instantiate, ALL_TEMPLATES, EIGHTEEN, FOURTEEN, TWELVE};
pub use types::{date, CmpOp, Scalar};
pub use workload::Workload;
