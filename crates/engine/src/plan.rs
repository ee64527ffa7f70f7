//! Physical plan trees: what the optimizer's EXPLAIN prints.
//!
//! A [`PlanNode`] holds the operator, its children, the optimizer's
//! estimates and the operator detail: everything known before the query
//! runs. The ground truth the simulator executes ([`NodeTruth`]: true
//! rows, pages and selectivity) lives beside the plan, one entry per node
//! in pre-order, in the [`Planned`] the planner returns and in the
//! executed query that keeps it. Two truth values stay inside
//! [`OpDetail`]: a `Materialize` node's rescans and a `Subquery` node's
//! executions.
//!
//! The operator set mirrors PostgreSQL's executor nodes for the TPC-H
//! plans: scans, sorts, the three join methods (with explicit `Hash` and
//! `Materialize` helper nodes), the three aggregation strategies, `Limit`,
//! and a `SubqueryScan` wrapper for InitPlan/SubPlan structures.

use tpch::schema::{ColRef, TableId};
use tpch::spec::{JoinKind, Predicate};

/// Physical operator types.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum OpType {
    /// Sequential heap scan.
    SeqScan,
    /// B-tree index scan.
    IndexScan,
    /// Blocking sort (in-memory or external merge).
    Sort,
    /// Hash-table build (inner side of a hash join).
    Hash,
    /// Hash join probe.
    HashJoin,
    /// Merge join over sorted inputs.
    MergeJoin,
    /// Nested-loop join.
    NestedLoop,
    /// Tuple-store materialization (rescanned by a parent nested loop or
    /// merge join).
    Materialize,
    /// Hash-based grouping.
    HashAggregate,
    /// Sorted-input grouping.
    GroupAggregate,
    /// Ungrouped (scalar) aggregate.
    Aggregate,
    /// LIMIT.
    Limit,
    /// InitPlan / SubPlan evaluation wrapper.
    SubqueryScan,
}

/// All operator types, for iteration (e.g. building one model per type).
pub const ALL_OP_TYPES: [OpType; 13] = [
    OpType::SeqScan,
    OpType::IndexScan,
    OpType::Sort,
    OpType::Hash,
    OpType::HashJoin,
    OpType::MergeJoin,
    OpType::NestedLoop,
    OpType::Materialize,
    OpType::HashAggregate,
    OpType::GroupAggregate,
    OpType::Aggregate,
    OpType::Limit,
    OpType::SubqueryScan,
];

impl OpType {
    /// Display name (PostgreSQL EXPLAIN style).
    pub fn name(&self) -> &'static str {
        match self {
            OpType::SeqScan => "Seq Scan",
            OpType::IndexScan => "Index Scan",
            OpType::Sort => "Sort",
            OpType::Hash => "Hash",
            OpType::HashJoin => "Hash Join",
            OpType::MergeJoin => "Merge Join",
            OpType::NestedLoop => "Nested Loop",
            OpType::Materialize => "Materialize",
            OpType::HashAggregate => "HashAggregate",
            OpType::GroupAggregate => "GroupAggregate",
            OpType::Aggregate => "Aggregate",
            OpType::Limit => "Limit",
            OpType::SubqueryScan => "SubqueryScan",
        }
    }

    /// Index into [`ALL_OP_TYPES`].
    pub fn index(&self) -> usize {
        ALL_OP_TYPES.iter().position(|t| t == self).expect("known op")
    }
}

/// Optimizer-side annotations of a plan node (the paper's static features
/// come from these).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NodeEst {
    /// Cost until the first output tuple (PostgreSQL `startup_cost`).
    pub startup_cost: f64,
    /// Total cost (PostgreSQL `total_cost`).
    pub total_cost: f64,
    /// Estimated output rows.
    pub rows: f64,
    /// Estimated output tuple width in bytes.
    pub width: f64,
    /// Estimated I/O in pages attributable to this node.
    pub pages: f64,
    /// Estimated selectivity applied at this node (1.0 when none).
    pub selectivity: f64,
}

/// Ground-truth annotations of one node (the simulator's inputs). A
/// plan's truths are a pre-order slice beside it: entry `i` belongs to
/// the node at pre-order position `i`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NodeTruth {
    /// Actual output rows.
    pub rows: f64,
    /// Actual I/O pages attributable to this node.
    pub pages: f64,
    /// Actual selectivity applied at this node.
    pub selectivity: f64,
}

/// Operator-specific details needed by the simulator and the explainers.
#[derive(Debug, Clone, PartialEq)]
pub enum OpDetail {
    /// Scans (sequential or index).
    Scan {
        /// Scanned table.
        table: TableId,
        /// Predicates evaluated at the scan.
        filters: Box<[Predicate]>,
    },
    /// Joins (all kinds).
    Join {
        /// Logical join kind.
        kind: JoinKind,
        /// Equi-join columns.
        on: (ColRef, ColRef),
    },
    /// Aggregations.
    Agg {
        /// Number of aggregate expressions.
        n_aggs: u32,
        /// Numeric (software-arithmetic) operations per input tuple.
        numeric_ops: u32,
        /// Number of grouping columns.
        n_group_cols: u32,
    },
    /// Sorts.
    Sort {
        /// Number of sort keys.
        keys: u32,
    },
    /// Materialization; `rescans` is the expected number of times the
    /// parent re-reads the stored tuples.
    Materialize {
        /// Expected rescan count (truth side).
        rescans: f64,
    },
    /// LIMIT.
    Limit {
        /// Row budget.
        count: u64,
    },
    /// InitPlan (executions = 1) or SubPlan (executions = outer rows).
    Subquery {
        /// Whether the subquery re-executes per outer row.
        correlated: bool,
        /// True number of subquery executions.
        executions: f64,
    },
    /// No extra detail (Hash).
    None,
}

/// Most children a plan node has: the planner emits leaves, unary
/// operators and binary joins (`SubqueryScan` holds input + subplan), and
/// the operator-level features (Table 2) read two children.
pub const MAX_CHILDREN: usize = 2;

/// A physical plan node.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanNode {
    /// Operator type.
    pub op: OpType,
    /// Child operators (at most [`MAX_CHILDREN`]).
    pub children: Box<[PlanNode]>,
    /// Optimizer estimates.
    pub est: NodeEst,
    /// Operator detail.
    pub detail: OpDetail,
}

impl PlanNode {
    /// Number of nodes in the subtree.
    pub fn node_count(&self) -> usize {
        1 + self.children.iter().map(PlanNode::node_count).sum::<usize>()
    }

    /// Pre-order traversal of the subtree (self first).
    pub fn preorder(&self) -> Vec<&PlanNode> {
        let mut out = Vec::with_capacity(self.node_count());
        self.for_each_preorder(&mut |n| out.push(n));
        out
    }

    /// Calls `f` on every node of the subtree in pre-order (self first),
    /// allocating nothing.
    pub fn for_each_preorder<'a>(&'a self, f: &mut impl FnMut(&'a PlanNode)) {
        f(self);
        for c in &self.children {
            c.for_each_preorder(f);
        }
    }

    /// Depth of the plan tree.
    pub fn depth(&self) -> usize {
        1 + self.children.iter().map(PlanNode::depth).max().unwrap_or(0)
    }

    /// The table scanned at this node, if it is a scan.
    pub fn scan_table(&self) -> Option<TableId> {
        match &self.detail {
            OpDetail::Scan { table, .. } => Some(*table),
            _ => None,
        }
    }
}

/// A planned query: the plan and the ground truth the simulator runs it
/// over, one [`NodeTruth`] per node in pre-order.
#[derive(Debug, Clone, PartialEq)]
pub struct Planned {
    /// The physical plan.
    pub plan: PlanNode,
    /// Node `i`'s truth at position `i` of the plan's pre-order.
    pub truth: Box<[NodeTruth]>,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn leaf(op: OpType) -> PlanNode {
        PlanNode {
            op,
            children: Box::new([]),
            est: NodeEst {
                startup_cost: 0.0,
                total_cost: 10.0,
                rows: 5.0,
                width: 100.0,
                pages: 1.0,
                selectivity: 1.0,
            },
            detail: OpDetail::None,
        }
    }

    fn tree() -> PlanNode {
        let mut root = leaf(OpType::HashJoin);
        let mut hash = leaf(OpType::Hash);
        hash.children = Box::new([leaf(OpType::SeqScan)]);
        root.children = Box::new([leaf(OpType::SeqScan), hash]);
        root
    }

    #[test]
    fn preorder_and_counts() {
        let t = tree();
        assert_eq!(t.node_count(), 4);
        assert_eq!(t.depth(), 3);
        let ops: Vec<OpType> = t.preorder().iter().map(|n| n.op).collect();
        assert_eq!(
            ops,
            vec![OpType::HashJoin, OpType::SeqScan, OpType::Hash, OpType::SeqScan]
        );
    }

    #[test]
    fn op_type_names_and_indices_are_unique() {
        let mut names = std::collections::HashSet::new();
        for (i, op) in ALL_OP_TYPES.iter().enumerate() {
            assert_eq!(op.index(), i);
            assert!(names.insert(op.name()));
        }
    }

    #[test]
    fn scan_table_accessor() {
        let mut s = leaf(OpType::SeqScan);
        s.detail = OpDetail::Scan {
            table: TableId::Orders,
            filters: Box::new([]),
        };
        assert_eq!(s.scan_table(), Some(TableId::Orders));
        assert_eq!(leaf(OpType::Sort).scan_table(), None);
    }
}
