//! Sub-plan structure keys, occurrence indexing and common-sub-plan
//! analytics (Sections 3.4 and 4, Figure 4).
//!
//! Plan-level models for sub-plans are keyed on the *structure* of the
//! sub-plan tree — operator types plus scanned tables — so all occurrences
//! of the same fragment across queries and templates hash to the same key
//! (the paper's `get_plan_list` hash index). A sub-plan is a sub-slice of
//! its plan's pre-order nodes (`plan[i..i + plan[i].subtree_len()]`), so
//! an occurrence is a query and a position, and every function here takes
//! a plan or a sub-plan alike.

use engine::plan::{children, OpDetail, OpType, PlanNode};
use std::collections::HashMap;

/// Structural key of a plan fragment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct StructureKey(pub u64);

/// Computes the structural key of a plan or sub-plan.
pub fn structure_key(plan: &[PlanNode]) -> StructureKey {
    let mut hashes = Vec::new();
    structure_hashes_into(plan, &mut hashes);
    StructureKey(hashes[0])
}

fn mix(h: u64, v: u64) -> u64 {
    (h ^ v).wrapping_mul(0x1000_0000_01b3)
}

/// The node's own part of its structure hash: operator type, scanned table
/// and join kind.
fn node_seed(node: &PlanNode) -> u64 {
    let mut h = mix(0xcbf2_9ce4_8422_2325, node.op.index() as u64 + 1);
    if let OpDetail::Scan { table, .. } = &node.detail {
        h = mix(h, *table as u64 + 101);
    }
    if let OpDetail::Join { kind, .. } = &node.detail {
        // Inner / semi / anti / outer joins of the same inputs are NOT the
        // same fragment — their cardinality semantics differ completely.
        h = mix(h, *kind as u64 + 501);
    }
    h
}

/// Order-independent combination of a hash join's two input hashes.
///
/// Hash joins are logically symmetric: the optimizer's build-side choice
/// depends on cardinality estimates and flips between
/// parameterizations/templates. Keying a binary hash join's fragment on
/// the unordered pair of its inputs, with the `Hash` wrapper stripped,
/// makes the "same join of the same inputs" match across orientations
/// (this is what lets models transfer between templates, Section 4).
fn join_pair(a: u64, b: u64) -> u64 {
    (a ^ b).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ a.wrapping_add(b) ^ a.min(b).rotate_left(13)
}

/// One occurrence of a sub-plan structure inside a dataset.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Occurrence {
    /// Index of the query in the dataset.
    pub query: usize,
    /// Pre-order position of the sub-plan root within the query's plan.
    pub node_idx: usize,
    /// Number of operators in the sub-plan.
    pub size: usize,
}

/// Summary of one distinct sub-plan structure.
#[derive(Debug, Clone)]
pub struct SubplanInfo {
    /// Structure key.
    pub key: StructureKey,
    /// Operators in the fragment.
    pub size: usize,
    /// All occurrences across the dataset.
    pub occurrences: Vec<Occurrence>,
    /// Distinct templates the fragment appears in.
    pub templates: Vec<u8>,
    /// Human-readable description of the fragment.
    pub description: String,
}

impl SubplanInfo {
    /// Occurrence count.
    pub fn frequency(&self) -> usize {
        self.occurrences.len()
    }
}

/// Fewest operators a plan fragment must have to be indexed and to get a
/// model of its own: a single operator is the operator-level model's.
pub(crate) const MIN_FRAGMENT_SIZE: usize = 2;

/// An index of every sub-plan structure in a set of plans.
#[derive(Debug, Clone, Default)]
pub struct SubplanIndex {
    by_key: HashMap<StructureKey, SubplanInfo>,
}

impl SubplanIndex {
    /// Builds the index over `(template, plan)` pairs, enumerating every
    /// subtree with at least two operators. Each plan's keys come from one
    /// [`structure_hashes_into`] pass, so indexing a plan of `n` operators
    /// costs O(n) hash work instead of the O(n²) of re-hashing every
    /// subtree from its root.
    pub fn build(plans: &[(u8, &[PlanNode])]) -> SubplanIndex {
        let mut idx = SubplanIndex::default();
        let mut hashes = Vec::new();
        for (q, &(template, plan)) in plans.iter().enumerate() {
            structure_hashes_into(plan, &mut hashes);
            for (i, node) in plan.iter().enumerate() {
                let size = node.subtree_len();
                if size < MIN_FRAGMENT_SIZE {
                    continue;
                }
                let key = StructureKey(hashes[i]);
                let entry = idx.by_key.entry(key).or_insert_with(|| SubplanInfo {
                    key,
                    size,
                    occurrences: Vec::new(),
                    templates: Vec::new(),
                    description: describe(&plan[i..i + size]),
                });
                entry.occurrences.push(Occurrence {
                    query: q,
                    node_idx: i,
                    size,
                });
                if !entry.templates.contains(&template) {
                    entry.templates.push(template);
                }
            }
        }
        idx
    }

    /// Number of distinct structures.
    pub fn len(&self) -> usize {
        self.by_key.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.by_key.is_empty()
    }

    /// Look up a structure.
    pub fn get(&self, key: StructureKey) -> Option<&SubplanInfo> {
        self.by_key.get(&key)
    }

    /// All structures, sorted by key for determinism.
    pub fn all(&self) -> Vec<&SubplanInfo> {
        let mut v: Vec<&SubplanInfo> = self.by_key.values().collect();
        v.sort_by_key(|s| s.key);
        v
    }

    /// Structures shared by at least `min_templates` distinct templates
    /// (the paper's "common sub-plans", Figure 4).
    pub fn common(&self, min_templates: usize) -> Vec<&SubplanInfo> {
        let mut v: Vec<&SubplanInfo> = self
            .by_key
            .values()
            .filter(|s| s.templates.len() >= min_templates)
            .collect();
        v.sort_by(|a, b| b.frequency().cmp(&a.frequency()).then(a.key.cmp(&b.key)));
        v
    }

    /// For each template, the number of *other* templates it shares at
    /// least one common sub-plan with (Figure 4(c)).
    pub fn template_sharing(&self) -> Vec<(u8, usize)> {
        let mut partners: HashMap<u8, std::collections::BTreeSet<u8>> = HashMap::new();
        for info in self.by_key.values() {
            if info.templates.len() < 2 {
                continue;
            }
            for &a in &info.templates {
                for &b in &info.templates {
                    if a != b {
                        partners.entry(a).or_default().insert(b);
                    }
                }
            }
        }
        let mut out: Vec<(u8, usize)> = partners
            .into_iter()
            .map(|(t, s)| (t, s.len()))
            .collect();
        out.sort_unstable();
        out
    }

    /// CDF support of common-sub-plan sizes (Figure 4(a)): the sorted
    /// sizes of all structures shared by ≥ 2 templates.
    pub fn common_size_distribution(&self) -> Vec<usize> {
        let mut sizes: Vec<usize> = self
            .by_key
            .values()
            .filter(|s| s.templates.len() >= 2)
            .map(|s| s.size)
            .collect();
        sizes.sort_unstable();
        sizes
    }
}

/// Computes the structure hash of *every* node of `plan` in one
/// bottom-up pass, indexed by pre-order position, into a caller-owned
/// buffer (cleared first).
///
/// `hashes[i]` equals [`structure_key`] of the sub-plan at position `i`
/// (`plan[i..i + plan[i].subtree_len()]`). Children sit after their
/// parent, so walking the positions backwards hashes every child before
/// its parent. A tree walk keys any fragment from these without
/// re-hashing it, which is how the hybrid walk finds a fragment's
/// sub-plan model in O(n) per plan; the prediction memo cache
/// ([`crate::pred_cache::PredictionCache`]) keys a whole plan by
/// `hashes[0]`.
pub fn structure_hashes_into(plan: &[PlanNode], hashes: &mut Vec<u64>) {
    hashes.clear();
    hashes.resize(plan.len(), 0);
    for idx in (0..plan.len()).rev() {
        let node = &plan[idx];
        let mut kids = children(plan, idx);
        hashes[idx] = match (node.op, kids.next(), kids.next(), kids.next()) {
            (OpType::HashJoin, Some(left), Some(right), None) => {
                // A `Hash` build node's input sits right after it.
                let input = |at: usize| {
                    let hash_wrapper =
                        plan[at].op == OpType::Hash && children(plan, at).count() == 1;
                    hashes[at + usize::from(hash_wrapper)]
                };
                mix(node_seed(node), join_pair(input(left), input(right)))
            }
            _ => children(plan, idx).fold(node_seed(node), |h, c| mix(h, hashes[c])),
        };
    }
}

/// A compact single-line structural description, e.g.
/// `HashJoin(SeqScan[orders], Hash(SeqScan[lineitem]))`.
pub fn describe(plan: &[PlanNode]) -> String {
    let mut s = String::new();
    write_desc(plan, 0, &mut s);
    s
}

fn write_desc(plan: &[PlanNode], at: usize, out: &mut String) {
    let node = &plan[at];
    let name = node.op.name().replace(' ', "");
    out.push_str(&name);
    if let OpDetail::Scan { table, .. } = &node.detail {
        out.push('[');
        out.push_str(table.name());
        out.push(']');
    }
    if node.subtree_len() > 1 {
        out.push('(');
        for (i, c) in children(plan, at).enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            write_desc(plan, c, out);
        }
        out.push(')');
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use engine::{Catalog, Planner};
    use rng::StdRng;

    fn plans(templates: &[u8], n: usize) -> Vec<(u8, Box<[PlanNode]>)> {
        let catalog = Catalog::new(0.1, 1);
        let planner = Planner::new(&catalog);
        let mut out = Vec::new();
        for &t in templates {
            let mut rng = StdRng::seed_from_u64(t as u64);
            for _ in 0..n {
                out.push((t, planner.plan(&tpch::instantiate(t, 0.1, &mut rng)).plan));
            }
        }
        out
    }

    #[test]
    fn same_structure_same_key_different_structure_different_key() {
        let ps = plans(&[3, 6], 2);
        let k3a = structure_key(&ps[0].1);
        let k3b = structure_key(&ps[1].1);
        let k6 = structure_key(&ps[2].1);
        // Template 3 instances share plan structure at this scale.
        assert_eq!(k3a, k3b);
        assert_ne!(k3a, k6);
    }

    #[test]
    fn index_counts_occurrences_and_templates() {
        let ps = plans(&[3, 3, 6], 2);
        let refs: Vec<(u8, &[PlanNode])> = ps.iter().map(|(t, p)| (*t, &p[..])).collect();
        let idx = SubplanIndex::build(&refs);
        assert!(!idx.is_empty());
        // The full template-3 plan occurs 4 times (2 per workload copy).
        let key = structure_key(&ps[0].1);
        let info = idx.get(key).expect("indexed");
        assert_eq!(info.frequency(), 4);
        assert_eq!(info.templates, vec![3]);
    }

    #[test]
    fn common_subplans_span_templates() {
        // Templates 3 and 10 both join customer ⋈ orders ⋈ lineitem.
        let ps = plans(&[3, 10], 3);
        let refs: Vec<(u8, &[PlanNode])> = ps.iter().map(|(t, p)| (*t, &p[..])).collect();
        let idx = SubplanIndex::build(&refs);
        let common = idx.common(2);
        // They may or may not share fragments depending on physical
        // choices; the sharing report must at least be internally
        // consistent.
        for info in &common {
            assert!(info.templates.len() >= 2);
        }
        let sharing = idx.template_sharing();
        for (_, n) in &sharing {
            assert!(*n >= 1);
        }
    }

    #[test]
    fn descriptions_are_structural() {
        let ps = plans(&[6], 1);
        let d = describe(&ps[0].1);
        assert!(d.contains("SeqScan[lineitem]"), "{d}");
        assert!(d.contains("Aggregate"), "{d}");
    }

    #[test]
    fn memoized_build_keys_match_structure_key() {
        // The one pass over a whole plan must agree with the key of each
        // sub-plan hashed on its own, including nested hash joins where
        // the build side carries a Hash wrapper.
        let ps = plans(&[1, 3, 5, 10, 14], 2);
        for (_, plan) in &ps {
            let mut hashes = Vec::new();
            structure_hashes_into(plan, &mut hashes);
            for (i, &hash) in hashes.iter().enumerate() {
                let sub = engine::plan::subplan(plan, i);
                assert_eq!(StructureKey(hash), structure_key(sub));
            }
        }
    }

    #[test]
    fn size_distribution_is_sorted() {
        let ps = plans(&[3, 10, 5], 2);
        let refs: Vec<(u8, &[PlanNode])> = ps.iter().map(|(t, p)| (*t, &p[..])).collect();
        let idx = SubplanIndex::build(&refs);
        let sizes = idx.common_size_distribution();
        assert!(sizes.windows(2).all(|w| w[0] <= w[1]));
    }
}
