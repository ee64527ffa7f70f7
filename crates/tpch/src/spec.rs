//! The logical query IR produced by template instantiation.
//!
//! A [`Query`] is a parameterized logical plan: base-table scans with
//! predicates, a join tree (with order fixed per template, mirroring the
//! plans PostgreSQL picks for the TPC-H queries), aggregation, sorting and
//! limits. The engine's planner lowers it to a physical plan; the engine's
//! truth model and estimator both read the predicates — the truth side uses
//! the exact generative selectivities (including the correlation overrides
//! templates compute), the estimator sees only the independent components,
//! exactly like a real optimizer.
//!
//! A [`QuerySpec`] is the instance a workload keeps: its template, scale
//! factor and the generator position its parameters start at — 48 bytes,
//! nothing on the heap. [`QuerySpec::query`] builds its `Query`; the
//! engine's planner does so where it plans, so a batch holds each logical
//! plan only while that query is planned.

use crate::schema::{ColRef, TableId};
use crate::templates;
use crate::types::{CmpOp, Scalar};
use rng::StdRng;

/// A scan/filter predicate.
#[derive(Debug, Clone, PartialEq)]
pub enum Predicate {
    /// `col op constant`.
    Cmp {
        /// Column.
        col: ColRef,
        /// Operator.
        op: CmpOp,
        /// Constant operand.
        value: Scalar,
    },
    /// `col BETWEEN lo AND hi` (inclusive).
    Between {
        /// Column.
        col: ColRef,
        /// Lower bound.
        lo: Scalar,
        /// Upper bound.
        hi: Scalar,
    },
    /// `col IN (values...)`.
    InSet {
        /// Column.
        col: ColRef,
        /// Member values.
        values: Vec<Scalar>,
    },
    /// `left op right` between two columns of the same table
    /// (e.g. `l_commitdate < l_receiptdate`).
    ColCmp {
        /// Left column.
        left: ColRef,
        /// Operator.
        op: CmpOp,
        /// Right column.
        right: ColRef,
    },
    /// `p_name LIKE '%color%'` — name contains a specific color word.
    NameLike {
        /// The part-name column.
        col: ColRef,
        /// Color code searched for.
        color: u32,
    },
    /// `NOT LIKE` on an unmodeled text column (e.g. `o_comment`); carries
    /// the generative truth selectivity directly.
    TextNotLike {
        /// The text column.
        col: ColRef,
        /// Fraction of rows that survive the NOT LIKE.
        truth: f64,
    },
}

impl Predicate {
    /// The column the predicate constrains (left column for `ColCmp`).
    pub fn column(&self) -> ColRef {
        match self {
            Predicate::Cmp { col, .. }
            | Predicate::Between { col, .. }
            | Predicate::InSet { col, .. }
            | Predicate::NameLike { col, .. }
            | Predicate::TextNotLike { col, .. } => *col,
            Predicate::ColCmp { left, .. } => *left,
        }
    }
}

/// Join kinds used by the templates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum JoinKind {
    /// Plain inner equi-join.
    Inner,
    /// Left outer join (template 13).
    LeftOuter,
    /// EXISTS — keep left rows with a match.
    Semi,
    /// NOT EXISTS — keep left rows without a match.
    Anti,
}

/// Aggregate functions (for the executor and for display; operator timing
/// is driven by `numeric_ops`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AggFunc {
    /// COUNT(*).
    Count,
    /// SUM(col).
    Sum(ColRef),
    /// AVG(col).
    Avg(ColRef),
    /// MIN(col).
    Min(ColRef),
    /// MAX(col).
    Max(ColRef),
}

/// How the true number of groups of an aggregation is derived.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum GroupCount {
    /// A known constant number of groups (e.g. template 1's flag × status).
    Fixed(f64),
    /// Grouping by a column: the engine applies the Cardenas formula with
    /// the column's true distinct count.
    DistinctOf(ColRef),
    /// One output row (ungrouped aggregate).
    One,
}

/// A HAVING clause on an aggregation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Having {
    /// Operator (e.g. `>` in `having sum(l_quantity) > 314`).
    pub op: CmpOp,
    /// Threshold value.
    pub value: f64,
    /// True fraction of groups that survive, computed by the template from
    /// the generative model. Optimizers have no such knowledge and fall
    /// back to a default selectivity — that gap is the template-18 story.
    pub truth_fraction: f64,
}

/// Aggregation node description.
#[derive(Debug, Clone, PartialEq)]
pub struct AggregateSpec {
    /// Grouping columns (empty for scalar aggregates).
    pub group_by: Vec<ColRef>,
    /// Aggregate expressions computed per group.
    pub aggs: Vec<AggFunc>,
    /// Arithmetic operations evaluated per input tuple (drives CPU cost in
    /// the simulator; e.g. template 1's numeric expressions).
    pub numeric_ops: u32,
    /// True group count derivation.
    pub groups: GroupCount,
    /// Optional HAVING filter.
    pub having: Option<Having>,
}

/// A logical relational expression. Join order is part of the template
/// definition (mirroring the plans PostgreSQL chooses); the engine only
/// makes *physical* choices.
#[derive(Debug, Clone, PartialEq)]
pub enum RelExpr {
    /// Base-table scan with conjunctive filters.
    Scan {
        /// Scanned table.
        table: TableId,
        /// Conjunctive predicates.
        filters: Vec<Predicate>,
        /// When the conjunction is correlated, templates supply the exact
        /// joint selectivity here; `None` means the filters are independent
        /// and truth equals the product of per-predicate truths.
        truth_sel_override: Option<f64>,
    },
    /// Equi-join of two sub-expressions.
    Join {
        /// Join kind.
        kind: JoinKind,
        /// Equi-join columns (left side, right side).
        on: (ColRef, ColRef),
        /// Left input.
        left: Box<RelExpr>,
        /// Right input.
        right: Box<RelExpr>,
        /// Truth correction. For `Inner`/`LeftOuter`: a multiplier on the
        /// uniform join-cardinality formula (cross-table correlations).
        /// For `Semi`/`Anti`: the exact fraction of left rows retained.
        truth_correction: f64,
        /// Additional non-equi join predicate selectivity known to *both*
        /// truth and estimator (e.g. template 5's `c_nationkey =
        /// s_nationkey`); 1.0 when absent.
        extra_filter_sel: f64,
    },
    /// Aggregation.
    Aggregate {
        /// Input.
        input: Box<RelExpr>,
        /// Aggregation description.
        spec: AggregateSpec,
    },
    /// Sort on `keys` leading columns of the input.
    Sort {
        /// Input.
        input: Box<RelExpr>,
        /// Number of sort keys (ordering columns).
        keys: u32,
    },
    /// LIMIT.
    Limit {
        /// Input.
        input: Box<RelExpr>,
        /// Row budget.
        count: u64,
    },
    /// Filter the input rows by comparison against a scalar subquery
    /// (PostgreSQL's InitPlan / SubPlan structures — templates 2, 11, 15,
    /// 17, 20, 22). `correlated` subqueries re-execute per input row.
    ScalarSubqueryFilter {
        /// Filtered input.
        input: Box<RelExpr>,
        /// The subquery computing the scalar.
        subquery: Box<RelExpr>,
        /// True fraction of input rows surviving the comparison.
        truth_sel: f64,
        /// Whether the subquery is correlated (re-evaluated per input row,
        /// like a SubPlan) or evaluated once (InitPlan).
        correlated: bool,
    },
}

impl RelExpr {
    /// Convenience constructor for an unfiltered scan.
    pub fn scan(table: TableId) -> RelExpr {
        RelExpr::Scan {
            table,
            filters: Vec::new(),
            truth_sel_override: None,
        }
    }

    /// Convenience constructor for a filtered scan with independent filters.
    pub fn scan_where(table: TableId, filters: Vec<Predicate>) -> RelExpr {
        RelExpr::Scan {
            table,
            filters,
            truth_sel_override: None,
        }
    }

    /// Convenience constructor for an inner join with no corrections.
    pub fn inner_join(left: RelExpr, right: RelExpr, on: (ColRef, ColRef)) -> RelExpr {
        RelExpr::Join {
            kind: JoinKind::Inner,
            on,
            left: Box::new(left),
            right: Box::new(right),
            truth_correction: 1.0,
            extra_filter_sel: 1.0,
        }
    }

    /// Tables referenced anywhere in the expression (with repeats for
    /// self-joins), in scan order.
    #[cfg(test)]
    pub(crate) fn tables(&self) -> Vec<TableId> {
        let mut out = Vec::new();
        self.visit(&mut |e| {
            if let RelExpr::Scan { table, .. } = e {
                out.push(*table);
            }
        });
        out
    }

    /// Whether the expression contains a scalar-subquery filter
    /// (a PostgreSQL InitPlan/SubPlan-style structure). The paper's
    /// operator-level models cannot handle such plans (Section 5.3's
    /// footnote); ours inherit the restriction for fidelity, and the
    /// template tests check that the operator-level subset has none.
    #[cfg(test)]
    pub(crate) fn has_subquery(&self) -> bool {
        let mut found = false;
        self.visit(&mut |e| {
            if matches!(e, RelExpr::ScalarSubqueryFilter { .. }) {
                found = true;
            }
        });
        found
    }

    /// Pre-order traversal.
    #[cfg(test)]
    pub(crate) fn visit<F: FnMut(&RelExpr)>(&self, f: &mut F) {
        f(self);
        match self {
            RelExpr::Scan { .. } => {}
            RelExpr::Join { left, right, .. } => {
                left.visit(f);
                right.visit(f);
            }
            RelExpr::Aggregate { input, .. }
            | RelExpr::Sort { input, .. }
            | RelExpr::Limit { input, .. } => input.visit(f),
            RelExpr::ScalarSubqueryFilter {
                input, subquery, ..
            } => {
                input.visit(f);
                subquery.visit(f);
            }
        }
    }
}

/// A template instance as drawn: the template, the scale factor and the
/// generator's position before the instance's parameters. It holds no
/// plan and nothing on the heap; [`QuerySpec::query`] builds the plan, the
/// same one every time.
#[derive(Debug, Clone)]
pub struct QuerySpec {
    /// TPC-H template number (1..=22).
    pub template: u8,
    /// Scale factor the instance targets.
    pub sf: f64,
    /// The generator, where the instance's parameters start.
    pub(crate) draw: StdRng,
}

impl QuerySpec {
    /// Builds the instance: its parameters and its logical plan, replayed
    /// from a clone of the draw.
    pub fn query(&self) -> Query {
        templates::build(self.template, self.sf, &mut self.draw.clone())
    }
}

/// A built template instance: concrete parameter values and the logical
/// plan they give.
#[derive(Debug, Clone)]
pub struct Query {
    /// TPC-H template number (1..=22).
    pub template: u8,
    /// Human-readable parameter bindings for logging.
    pub params: Vec<(String, String)>,
    /// The logical plan.
    pub root: RelExpr,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::col;

    fn simple_join() -> RelExpr {
        RelExpr::inner_join(
            RelExpr::scan(TableId::Orders),
            RelExpr::scan(TableId::Lineitem),
            (
                col(TableId::Orders, "o_orderkey"),
                col(TableId::Lineitem, "l_orderkey"),
            ),
        )
    }

    #[test]
    fn tables_lists_scans_in_order() {
        let e = simple_join();
        assert_eq!(e.tables(), vec![TableId::Orders, TableId::Lineitem]);
    }

    #[test]
    fn has_subquery_detects_nested_initplans() {
        let plain = simple_join();
        assert!(!plain.has_subquery());
        let with_sub = RelExpr::ScalarSubqueryFilter {
            input: Box::new(simple_join()),
            subquery: Box::new(RelExpr::scan(TableId::Part)),
            truth_sel: 0.5,
            correlated: false,
        };
        assert!(with_sub.has_subquery());
        let wrapped = RelExpr::Sort {
            input: Box::new(with_sub),
            keys: 1,
        };
        assert!(wrapped.has_subquery());
    }

    #[test]
    fn predicate_column_accessor() {
        let p = Predicate::Cmp {
            col: col(TableId::Lineitem, "l_quantity"),
            op: CmpOp::Lt,
            value: Scalar::Int(24),
        };
        assert_eq!(p.column().name(), "l_quantity");
        let c = Predicate::ColCmp {
            left: col(TableId::Lineitem, "l_commitdate"),
            op: CmpOp::Lt,
            right: col(TableId::Lineitem, "l_receiptdate"),
        };
        assert_eq!(c.column().name(), "l_commitdate");
    }

    #[test]
    fn visit_reaches_every_node() {
        let e = RelExpr::Limit {
            input: Box::new(RelExpr::Sort {
                input: Box::new(RelExpr::Aggregate {
                    input: Box::new(simple_join()),
                    spec: AggregateSpec {
                        group_by: vec![],
                        aggs: vec![AggFunc::Count],
                        numeric_ops: 1,
                        groups: GroupCount::One,
                        having: None,
                    },
                }),
                keys: 1,
            }),
            count: 10,
        };
        let mut n = 0;
        e.visit(&mut |_| n += 1);
        assert_eq!(n, 6); // limit, sort, agg, join, 2 scans
    }
}
