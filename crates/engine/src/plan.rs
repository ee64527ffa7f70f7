//! Physical plan trees: what the optimizer's EXPLAIN prints.
//!
//! A plan is one pre-order slice of [`PlanNode`]s. A node holds the
//! operator, the optimizer's estimates, the operator detail and the
//! length of its subtree: everything known before the query runs. The
//! sub-plan rooted at a node is the sub-slice its subtree length spans,
//! so one borrowed type, `&[PlanNode]`, is a plan and any of its
//! sub-plans, and every per-node record (truth, timings, feature views)
//! is a slice in the same order. A [`PlanBuilder`] makes every plan and
//! sets the lengths. The ground truth the simulator executes
//! ([`NodeTruth`]: true rows, pages and selectivity) lives beside the
//! plan, one entry per node in pre-order, in the [`Planned`] the planner
//! returns and in the executed query that keeps it. Two truth values stay inside
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

/// A physical plan node. A plan is its nodes in pre-order, one
/// `[PlanNode]`: the node at position `i` roots the sub-plan
/// `plan[i..i + plan[i].subtree_len()]`, its first child sits at `i + 1`
/// and each next child one subtree further. Only a [`PlanBuilder`] makes
/// a node, so the subtree lengths always tile.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanNode {
    /// Operator type.
    pub op: OpType,
    /// Nodes in the subtree rooted here, this one included.
    len: u32,
    /// Optimizer estimates.
    pub est: NodeEst,
    /// Operator detail.
    pub detail: OpDetail,
}

impl PlanNode {
    /// Number of nodes in the subtree rooted here, this one included: the
    /// sub-plan at position `i` of a plan is `plan[i..i + subtree_len]`.
    pub fn subtree_len(&self) -> usize {
        self.len as usize
    }

    /// The table scanned at this node, if it is a scan.
    pub fn scan_table(&self) -> Option<TableId> {
        match &self.detail {
            OpDetail::Scan { table, .. } => Some(*table),
            _ => None,
        }
    }
}

/// The sub-plan rooted at pre-order position `at` of `plan`.
pub fn subplan(plan: &[PlanNode], at: usize) -> &[PlanNode] {
    &plan[at..at + plan[at].subtree_len()]
}

/// Pre-order positions, in `plan`, of the children of the node at `at`.
pub fn children(plan: &[PlanNode], at: usize) -> impl Iterator<Item = usize> + '_ {
    let end = at + plan[at].subtree_len();
    let mut next = at + 1;
    std::iter::from_fn(move || {
        (next < end).then(|| {
            let child = next;
            next += plan[child].subtree_len();
            child
        })
    })
}

/// A planned query: the plan and the ground truth the simulator runs it
/// over, one [`NodeTruth`] per node in pre-order.
#[derive(Debug, Clone, PartialEq)]
pub struct Planned {
    /// The physical plan, in pre-order.
    pub plan: Box<[PlanNode]>,
    /// Node `i`'s truth at position `i` of the plan.
    pub truth: Box<[NodeTruth]>,
}

/// Builds a plan and its truths in pre-order, setting every subtree
/// length. Nodes are added bottom-up or top-down: [`PlanBuilder::push`]
/// appends a node and [`PlanBuilder::close`] makes it the parent of the
/// nodes pushed after it (a decoder reading pre-order), or
/// `PlanBuilder::wrap` puts a new parent in front of subtrees already
/// built (a planner choosing an operator from its inputs' estimates).
/// The parts built so far are a row of complete subtrees;
/// [`PlanBuilder::finish`] hands them over once they are one.
#[derive(Debug, Default)]
pub struct PlanBuilder {
    nodes: Vec<PlanNode>,
    truth: Vec<NodeTruth>,
}

impl PlanBuilder {
    /// An empty builder.
    pub const fn new() -> PlanBuilder {
        PlanBuilder {
            nodes: Vec::new(),
            truth: Vec::new(),
        }
    }

    /// An empty builder with room for `nodes` nodes.
    pub(crate) fn with_capacity(nodes: usize) -> PlanBuilder {
        PlanBuilder {
            nodes: Vec::with_capacity(nodes),
            truth: Vec::with_capacity(nodes),
        }
    }

    /// Appends a leaf and returns its position; [`PlanBuilder::close`]
    /// later makes it the parent of what is pushed after it.
    pub fn push(&mut self, op: OpType, est: NodeEst, truth: NodeTruth, detail: OpDetail) -> usize {
        let at = self.nodes.len();
        self.nodes.push(PlanNode { op, len: 1, est, detail });
        self.truth.push(truth);
        at
    }

    /// Makes the node at `at` the parent of every node after it.
    pub fn close(&mut self, at: usize) {
        self.nodes[at].len = span(self.nodes.len() - at);
    }

    /// Inserts a node at `at`, the parent of every subtree built from `at`
    /// on, and returns `at`.
    pub(crate) fn wrap(
        &mut self,
        at: usize,
        op: OpType,
        est: NodeEst,
        truth: NodeTruth,
        detail: OpDetail,
    ) -> usize {
        let len = span(self.nodes.len() - at + 1);
        self.nodes.insert(at, PlanNode { op, len, est, detail });
        self.truth.insert(at, truth);
        at
    }

    /// Swaps the last two subtrees, at `first` and at `second` (which runs
    /// to the end), and returns their new positions: the one that was
    /// second, then the one that was first.
    pub(crate) fn swap(&mut self, first: usize, second: usize) -> (usize, usize) {
        self.nodes[first..].rotate_left(second - first);
        self.truth[first..].rotate_left(second - first);
        (first, first + self.nodes.len() - second)
    }

    /// The node at `at` and its truth.
    pub(crate) fn get(&self, at: usize) -> (&PlanNode, &NodeTruth) {
        (&self.nodes[at], &self.truth[at])
    }

    /// The node at `at` and its truth, to change in place; its subtree
    /// length is not the caller's.
    pub(crate) fn get_mut(&mut self, at: usize) -> (&mut PlanNode, &mut NodeTruth) {
        (&mut self.nodes[at], &mut self.truth[at])
    }

    /// Drops every node built so far, keeping the room.
    pub fn clear(&mut self) {
        self.nodes.clear();
        self.truth.clear();
    }

    /// The plan and its truths, each in one allocation of exactly its
    /// length; the builder is left empty, with its room kept.
    ///
    /// # Panics
    /// Panics unless the nodes built are one tree.
    pub fn finish(&mut self) -> Planned {
        assert!(
            is_one_tree(&self.nodes),
            "plan nodes do not form one pre-order tree"
        );
        Planned {
            plan: self.nodes.drain(..).collect(),
            truth: self.truth.drain(..).collect(),
        }
    }
}

/// A subtree length as a node stores it.
fn span(len: usize) -> u32 {
    u32::try_from(len).expect("plan fits u32 nodes")
}

/// True when `nodes` is one tree in pre-order: the root spans all of it
/// and each node's children tile its subtree.
fn is_one_tree(nodes: &[PlanNode]) -> bool {
    let tiles = |at: usize| {
        let last_end = children(nodes, at).map(|c| c + nodes[c].subtree_len()).last();
        last_end.unwrap_or(at + 1) == at + nodes[at].subtree_len()
    };
    nodes.first().map(PlanNode::subtree_len) == Some(nodes.len()) && (0..nodes.len()).all(tiles)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn est() -> NodeEst {
        NodeEst {
            startup_cost: 0.0,
            total_cost: 10.0,
            rows: 5.0,
            width: 100.0,
            pages: 1.0,
            selectivity: 1.0,
        }
    }

    fn truth() -> NodeTruth {
        NodeTruth {
            rows: 5.0,
            pages: 1.0,
            selectivity: 1.0,
        }
    }

    /// `HashJoin(SeqScan, Hash(SeqScan))`, built top-down and bottom-up.
    fn trees() -> [Planned; 2] {
        let mut b = PlanBuilder::new();
        let root = b.push(OpType::HashJoin, est(), truth(), OpDetail::None);
        b.push(OpType::SeqScan, est(), truth(), OpDetail::None);
        let hash = b.push(OpType::Hash, est(), truth(), OpDetail::None);
        b.push(OpType::SeqScan, est(), truth(), OpDetail::None);
        b.close(hash);
        b.close(root);
        let top_down = b.finish();
        let probe = b.push(OpType::SeqScan, est(), truth(), OpDetail::None);
        let build = b.push(OpType::SeqScan, est(), truth(), OpDetail::None);
        b.wrap(build, OpType::Hash, est(), truth(), OpDetail::None);
        b.wrap(probe, OpType::HashJoin, est(), truth(), OpDetail::None);
        [top_down, b.finish()]
    }

    #[test]
    fn preorder_and_counts() {
        for t in trees() {
            let ops: Vec<OpType> = t.plan.iter().map(|n| n.op).collect();
            assert_eq!(
                ops,
                vec![OpType::HashJoin, OpType::SeqScan, OpType::Hash, OpType::SeqScan]
            );
            let lens: Vec<usize> = t.plan.iter().map(PlanNode::subtree_len).collect();
            assert_eq!(lens, vec![4, 1, 2, 1]);
            assert_eq!(children(&t.plan, 0).collect::<Vec<_>>(), vec![1, 2]);
            assert_eq!(children(&t.plan, 2).collect::<Vec<_>>(), vec![3]);
            assert_eq!(children(&t.plan, 3).count(), 0);
            assert_eq!(subplan(&t.plan, 2), &t.plan[2..4]);
            assert_eq!(t.truth.len(), 4);
        }
    }

    #[test]
    fn swapped_subtrees_keep_their_truths_and_lengths() {
        let mut b = PlanBuilder::new();
        let left = b.push(OpType::SeqScan, est(), truth(), OpDetail::None);
        let right = b.push(OpType::IndexScan, est(), truth(), OpDetail::None);
        b.get_mut(right).1.rows = 7.0;
        b.wrap(right, OpType::Sort, est(), truth(), OpDetail::None);
        let (right, left) = b.swap(left, right);
        assert_eq!((right, left), (0, 2));
        b.wrap(right, OpType::MergeJoin, est(), truth(), OpDetail::None);
        let t = b.finish();
        let ops: Vec<OpType> = t.plan.iter().map(|n| n.op).collect();
        assert_eq!(
            ops,
            vec![OpType::MergeJoin, OpType::Sort, OpType::IndexScan, OpType::SeqScan]
        );
        assert_eq!(t.truth[2].rows, 7.0);
        assert_eq!(children(&t.plan, 0).collect::<Vec<_>>(), vec![1, 3]);
    }

    #[test]
    #[should_panic(expected = "one pre-order tree")]
    fn two_unjoined_subtrees_are_not_a_plan() {
        let mut b = PlanBuilder::new();
        b.push(OpType::SeqScan, est(), truth(), OpDetail::None);
        b.push(OpType::SeqScan, est(), truth(), OpDetail::None);
        b.finish();
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
        let mut b = PlanBuilder::new();
        b.push(
            OpType::SeqScan,
            est(),
            truth(),
            OpDetail::Scan {
                table: TableId::Orders,
                filters: Box::new([]),
            },
        );
        b.wrap(0, OpType::Sort, est(), truth(), OpDetail::Sort { keys: 1 });
        let t = b.finish();
        assert_eq!(t.plan[1].scan_table(), Some(TableId::Orders));
        assert_eq!(t.plan[0].scan_table(), None);
    }
}
