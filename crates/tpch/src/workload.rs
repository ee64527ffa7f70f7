//! Workload construction: seeded batches of template instances.
//!
//! The paper's datasets hold ≈ 55 instances per template (Section 5.1);
//! [`Workload::generate`] reproduces that layout for any template subset
//! and scale factor. An instance is its parameter draw ([`QuerySpec`], 48
//! bytes, no heap), not its plan: a batch of 700 costs 33 KiB, and each
//! logical plan exists only while [`QuerySpec::query`]'s caller (the
//! engine's planner) reads it.

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
            let mut rng = template_stream(t, seed);
            for _ in 0..per_template {
                queries.push(templates::instantiate(t, sf, &mut rng));
            }
        }
        Workload { sf, queries }
    }
}

/// The generator of template `t`'s instances: an independent stream per
/// template, so adding or removing templates does not reshuffle the others.
fn template_stream(t: u8, seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed ^ (t as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::templates::{ALL_TEMPLATES, TWELVE};

    #[test]
    fn generates_requested_shape() {
        let w = Workload::generate(&[1, 3, 6], 5, 1.0, 42);
        assert_eq!(w.queries.len(), 15);
        assert_eq!(w.queries.iter().filter(|q| q.template == 3).count(), 5);
    }

    #[test]
    fn generation_is_deterministic() {
        let a = Workload::generate(&TWELVE, 3, 1.0, 9);
        let b = Workload::generate(&TWELVE, 3, 1.0, 9);
        for (qa, qb) in a.queries.iter().zip(&b.queries) {
            assert_eq!(qa.query().params, qb.query().params);
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
            .map(|q| q.query().params)
            .collect();
        let b: Vec<_> = without.queries.iter().map(|q| q.query().params).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn draws_build_the_eagerly_built_stream() {
        // A workload of draws, each built afterwards, equals the queries
        // built one after another from the same stream: parameters and
        // plan, for every template, scale factor and seed.
        for &t in &ALL_TEMPLATES {
            for sf in [0.1, 1.0, 10.0] {
                for seed in [0, 7, 0xDEAD_BEEF] {
                    let w = Workload::generate(&[t], 4, sf, seed);
                    let mut rng = template_stream(t, seed);
                    for (k, spec) in w.queries.iter().enumerate() {
                        let lazy = spec.query();
                        let eager = templates::build(t, sf, &mut rng);
                        assert_eq!(lazy.params, eager.params, "t{t} sf {sf} seed {seed} #{k}");
                        assert_eq!(
                            format!("{:?}", lazy.root),
                            format!("{:?}", eager.root),
                            "t{t} sf {sf} seed {seed} #{k}"
                        );
                    }
                }
            }
        }
    }
}
