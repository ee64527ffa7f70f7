//! What a column reference costs and what is derived from it.
//!
//! Two seeds hash a column: `Catalog::unit_noise` (the ANALYZE noise on a
//! distinct count) and the histogram's boundary noise. Both feed `std`'s
//! `DefaultHasher` the table and then the column *name*, and every golden
//! file depends on the result. std does not promise that hasher's
//! algorithm across releases; if a toolchain changes it, the pins below
//! fail and name the cause before the golden files do.
//!
//! The layout pins hold the size of what the training log is made of: a
//! column is a (table, position) pair of two bytes, a node's children and
//! a scan's filters are boxed slices, a plan node holds no ground truth,
//! and a logged query is its plan, its pre-order truth (three `f64`s a
//! node) and its trace (actual-valued costs derive from the truth where
//! they are read). One pin holds what a trained model is made of: a feature model
//! is its selection, its ranges and the one model it serves from. One
//! holds what a workload is made of: an instance is its template, scale
//! factor and parameter draw, with no plan.

use engine::plan::{NodeTruth, OpDetail, PlanNode};
use engine::Catalog;
use qpp::plan_model::FeatureModel;
use qpp::ExecutedQuery;
use std::mem::size_of;
use tpch::schema::{col, ColRef, TableId};
use tpch::spec::{AggFunc, Predicate, QuerySpec};

#[test]
fn distinct_count_noise_is_pinned() {
    let c = Catalog::new(0.1, 1);
    let orderkey = c.ndistinct_est(col(TableId::Lineitem, "l_orderkey"));
    let quantity = c.ndistinct_est(col(TableId::Lineitem, "l_quantity"));
    assert_eq!(
        orderkey.to_bits(),
        0x40c1e2c000000000,
        "l_orderkey = {orderkey}"
    );
    assert_eq!(
        quantity.to_bits(),
        0x4046bbc6a7ef9db2,
        "l_quantity = {quantity}"
    );
}

#[test]
fn histogram_noise_is_pinned() {
    let c = Catalog::new(0.1, 1);
    let h = c.histogram(col(TableId::Lineitem, "l_shipdate"));
    for (v, bits) in [
        (1000.5, 0x3fd9010a15a60d8e_u64),
        (2000.25, 0x3fe9d017ac8e9bc4),
    ] {
        let p = h.cdf(v);
        assert_eq!(p.to_bits(), bits, "cdf({v}) = {p}");
    }
}

#[test]
fn column_refs_are_two_bytes() {
    assert_eq!(size_of::<ColRef>(), 2);
    assert!(size_of::<Predicate>() <= 40, "{}", size_of::<Predicate>());
    assert!(size_of::<OpDetail>() <= 24, "{}", size_of::<OpDetail>());
    assert!(size_of::<PlanNode>() <= 96, "{}", size_of::<PlanNode>());
    assert_eq!(size_of::<NodeTruth>(), 24);
    assert!(
        size_of::<ExecutedQuery>() <= 176,
        "{}",
        size_of::<ExecutedQuery>()
    );
    assert!(size_of::<AggFunc>() <= 3, "{}", size_of::<AggFunc>());
}

#[test]
fn a_feature_model_holds_one_model() {
    assert!(
        size_of::<FeatureModel>() <= 216,
        "{}",
        size_of::<FeatureModel>()
    );
}

#[test]
fn a_workload_instance_is_its_draw() {
    assert!(size_of::<QuerySpec>() <= 48, "{}", size_of::<QuerySpec>());
}
