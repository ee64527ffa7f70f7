//! Workload construction: seeded batches of template instances.
//!
//! The paper's datasets hold ≈ 55 instances per template (Section 5.1);
//! [`Workload::generate`] reproduces that layout for any template subset
//! and scale factor.

use crate::spec::QuerySpec;
use crate::templates;
use rng::StdRng;

/// A generated workload: an ordered list of query instances.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Scale factor the workload targets.
    pub sf: f64,
    /// Query instances (template-major order).
    pub queries: Vec<QuerySpec>,
}

impl Workload {
    /// Generates `per_template` instances of each listed template at scale
    /// factor `sf`, deterministically from `seed`.
    pub fn generate(template_ids: &[u8], per_template: usize, sf: f64, seed: u64) -> Workload {
        let mut queries = Vec::with_capacity(template_ids.len() * per_template);
        for &t in template_ids {
            // Independent stream per template so adding/removing templates
            // does not reshuffle the others.
            let mut rng = StdRng::seed_from_u64(seed ^ (t as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
            for _ in 0..per_template {
                queries.push(templates::instantiate(t, sf, &mut rng));
            }
        }
        Workload { sf, queries }
    }

    /// Number of queries.
    pub fn len(&self) -> usize {
        self.queries.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.queries.is_empty()
    }

    /// Splits into (training, testing) by template: queries whose template
    /// is `held_out` become the test set (the paper's dynamic-workload
    /// protocol, Section 5.4).
    pub fn leave_template_out(&self, held_out: u8) -> (Vec<&QuerySpec>, Vec<&QuerySpec>) {
        let mut train = Vec::new();
        let mut test = Vec::new();
        for q in &self.queries {
            if q.template == held_out {
                test.push(q);
            } else {
                train.push(q);
            }
        }
        (train, test)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::templates::{FOURTEEN, TWELVE};

    #[test]
    fn generates_requested_shape() {
        let w = Workload::generate(&[1, 3, 6], 5, 1.0, 42);
        assert_eq!(w.len(), 15);
        assert_eq!(w.queries.iter().filter(|q| q.template == 3).count(), 5);
    }

    #[test]
    fn generation_is_deterministic() {
        let a = Workload::generate(&TWELVE, 3, 1.0, 9);
        let b = Workload::generate(&TWELVE, 3, 1.0, 9);
        for (qa, qb) in a.queries.iter().zip(&b.queries) {
            assert_eq!(qa.params, qb.params);
        }
    }

    #[test]
    fn per_template_streams_are_independent() {
        // Template 6's instances are identical whether or not template 1 is
        // also generated.
        let with = Workload::generate(&[1, 6], 4, 1.0, 5);
        let without = Workload::generate(&[6], 4, 1.0, 5);
        let a: Vec<_> = with
            .queries
            .iter()
            .filter(|q| q.template == 6)
            .map(|q| q.params.clone())
            .collect();
        let b: Vec<_> = without.queries.iter().map(|q| q.params.clone()).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn leave_template_out_partitions() {
        let w = Workload::generate(&FOURTEEN, 2, 1.0, 1);
        let (train, test) = w.leave_template_out(9);
        assert_eq!(test.len(), 2);
        assert_eq!(train.len(), w.len() - 2);
        assert!(test.iter().all(|q| q.template == 9));
        assert!(train.iter().all(|q| q.template != 9));
    }
}
