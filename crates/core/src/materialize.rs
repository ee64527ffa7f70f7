//! Model materialization (Section 1's "pre-build and materialize").
//!
//! The paper pre-builds models offline so they are immediately available
//! for future predictions. This module turns a trained model set into
//! bytes and back without retraining — the training logs are not needed
//! at prediction time, only the materialized models.
//!
//! The bytes are the `QPPSNAP v3` payload (layout in DESIGN.md §8, "Snapshot format"):
//! the models, the analytical fallbacks' calibration, and each learned
//! tier's recorded error ([`QppPredictor::recorded_error`]), so a model
//! set reloaded in another session brings the baseline its drift monitor
//! judges it against. Every float travels as its IEEE-754 bits, so an
//! unknown calibration (NaN) is a value like any other. They are outside
//! input when they come back: decoding is bounds-checked ([`ml::bytes`])
//! and then validated, so a snapshot with non-finite weights, mismatched
//! feature arity or a non-finite recorded error is rejected with
//! [`QppError::InvalidSnapshot`] instead of silently producing NaN
//! predictions later. The versioned, checksummed envelope
//! around the payload, and the only public way in and out
//! ([`crate::encode_snapshot`] / [`crate::decode_snapshot`]), live in
//! [`crate::registry`].

use crate::error::QppError;
use crate::hybrid::{HybridModel, SubplanModel};
use crate::op_model::OpLevelModel;
use crate::plan_model::PlanLevelModel;
use crate::predictor::QppPredictor;
use crate::subplan::StructureKey;
use ml::bytes::{put_count, put_f64, put_u64, Malformed, Reader};
use std::sync::Arc;

/// A snapshot of all trained models.
#[derive(Debug, Clone)]
pub struct MaterializedModels {
    /// Plan-level model.
    pub plan_level: PlanLevelModel,
    /// Operator-level models, shared with the predictor and hybrid model
    /// built from (or snapshotted into) this set.
    pub op_level: Arc<OpLevelModel>,
    /// Hybrid sub-plan models as (structure key, model) pairs, ascending
    /// by key so equal model sets encode to equal bytes.
    pub hybrid_plan_models: Vec<(u64, SubplanModel)>,
    /// Median observed seconds per optimizer cost unit at training time —
    /// the cost-scaling fallback's calibration. NaN when unknown (no
    /// training query had a usable cost estimate).
    pub secs_per_cost: f64,
    /// Median training latency — the last-resort prior. 0.0 when unknown.
    pub prior_latency: f64,
    /// Each learned tier's recorded error, in [`crate::MODEL_TIERS`]
    /// order (`QppPredictor::recorded_error`).
    pub recorded_error: [f64; 3],
}

impl MaterializedModels {
    /// Snapshots a trained predictor: its models, the analytical
    /// fallbacks' calibration and its recorded errors.
    pub fn from_predictor(qpp: &QppPredictor) -> MaterializedModels {
        let mut pairs: Vec<(u64, SubplanModel)> = qpp
            .hybrid
            .plan_models
            .iter()
            .map(|(k, v)| (k.0, v.clone()))
            .collect();
        pairs.sort_by_key(|(k, _)| *k);
        MaterializedModels {
            plan_level: qpp.plan_level.clone(),
            op_level: Arc::clone(&qpp.op_level),
            hybrid_plan_models: pairs,
            secs_per_cost: qpp.secs_per_cost(),
            prior_latency: qpp.prior_latency(),
            recorded_error: qpp.recorded_error,
        }
    }

    /// The snapshot payload: plan-level model, operator-level models, the
    /// counted sub-plan models, the two calibration floats, then the three
    /// recorded errors.
    pub(crate) fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.plan_level.encode(&mut out);
        self.op_level.encode(&mut out);
        put_count(&mut out, self.hybrid_plan_models.len());
        for (key, model) in &self.hybrid_plan_models {
            put_u64(&mut out, *key);
            model.encode(&mut out);
        }
        put_f64(&mut out, self.secs_per_cost);
        put_f64(&mut out, self.prior_latency);
        for e in self.recorded_error {
            put_f64(&mut out, e);
        }
        out
    }

    /// Reads a payload and validates the result (see
    /// [`MaterializedModels::validate`]); bytes that are not a payload and
    /// model sets that would serve garbage are both rejected with
    /// [`QppError::InvalidSnapshot`].
    pub(crate) fn decode(payload: &[u8]) -> Result<MaterializedModels, QppError> {
        let malformed = |e| QppError::InvalidSnapshot(format!("malformed payload: {e}"));
        let mut r = Reader::new(payload);
        let mat = Self::decode_from(&mut r).map_err(malformed)?;
        if !r.is_empty() {
            return Err(malformed(Malformed("trailing bytes after the model set")));
        }
        mat.validate()?;
        Ok(mat)
    }

    fn decode_from(r: &mut Reader) -> Result<MaterializedModels, Malformed> {
        let plan_level = PlanLevelModel::decode(r)?;
        let op_level = Arc::new(OpLevelModel::decode(r)?);
        let n = r.count(8)?;
        let hybrid_plan_models = (0..n)
            .map(|_| Ok((r.u64()?, SubplanModel::decode(r)?)))
            .collect::<Result<_, _>>()?;
        Ok(MaterializedModels {
            plan_level,
            op_level,
            hybrid_plan_models,
            secs_per_cost: r.f64()?,
            prior_latency: r.f64()?,
            recorded_error: [r.f64()?, r.f64()?, r.f64()?],
        })
    }

    /// Validation gate run at load time: every model in the set must have
    /// finite weights and internally consistent feature arity, and every
    /// recorded error must be finite and non-negative.
    pub(crate) fn validate(&self) -> Result<(), QppError> {
        self.plan_level
            .validate()
            .map_err(QppError::InvalidSnapshot)?;
        self.op_level
            .validate()
            .map_err(QppError::InvalidSnapshot)?;
        for (k, m) in &self.hybrid_plan_models {
            m.start
                .validate(crate::features::PLAN_FEATURES)
                .map_err(|e| {
                    QppError::InvalidSnapshot(format!("sub-plan {k:#x} start-time model: {e}"))
                })?;
            m.run
                .validate(crate::features::PLAN_FEATURES)
                .map_err(|e| {
                    QppError::InvalidSnapshot(format!("sub-plan {k:#x} run-time model: {e}"))
                })?;
        }
        // The fallback calibration may legitimately be unknown (NaN /
        // zero), but an infinite or negative value is corruption.
        if self.secs_per_cost.is_infinite() || self.secs_per_cost < 0.0 {
            return Err(QppError::InvalidSnapshot(format!(
                "invalid secs-per-cost calibration {}",
                self.secs_per_cost
            )));
        }
        if !self.prior_latency.is_finite() || self.prior_latency < 0.0 {
            return Err(QppError::InvalidSnapshot(format!(
                "invalid prior latency {}",
                self.prior_latency
            )));
        }
        if let Some(e) = self
            .recorded_error
            .iter()
            .find(|e| !e.is_finite() || **e < 0.0)
        {
            return Err(QppError::InvalidSnapshot(format!(
                "invalid recorded error {e}"
            )));
        }
        Ok(())
    }

    /// Rebuilds the hybrid model over this set's operator-level models
    /// (shared, not copied).
    pub fn hybrid(&self) -> HybridModel {
        let mut h = HybridModel::operator_only(Arc::clone(&self.op_level));
        for (k, m) in &self.hybrid_plan_models {
            h.plan_models.insert(StructureKey(*k), m.clone());
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::QueryDataset;
    use crate::hybrid::PlanOrdering;
    use crate::plan_model::FeatureModel;
    use crate::predictor::{Method, QppConfig, QppPredictor};
    use crate::registry::{decode_snapshot, encode_snapshot, seal};
    use crate::ExecutedQuery;
    use engine::{Catalog, Simulator};
    use tpch::Workload;

    fn trained() -> (QueryDataset, QppPredictor) {
        let catalog = Catalog::new(0.1, 1);
        let workload = Workload::generate(&[1, 3, 6], 8, 0.1, 7);
        let sim = Simulator::with_config(engine::SimConfig {
            additive_noise_secs: 0.05,
            ..engine::SimConfig::default()
        });
        let ds = QueryDataset::execute(&catalog, &workload, &sim, 11, f64::INFINITY);
        let refs: Vec<&ExecutedQuery> = ds.queries.iter().collect();
        let qpp = QppPredictor::train(&refs, QppConfig::default()).unwrap();
        (ds, qpp)
    }

    /// The models of `trained()` plus one hand-made sub-plan model (hybrid
    /// training accepts none on that seed, and the payload has a branch
    /// for them): a linear start-time head and an SVR run-time head over
    /// the full plan feature vector.
    fn materialized(qpp: &QppPredictor) -> MaterializedModels {
        let arity = crate::features::PLAN_FEATURES;
        let rows: Vec<Vec<f64>> = (0..12)
            .map(|i| (0..arity).map(|j| ((i * 7 + j * 3) % 11) as f64).collect())
            .collect();
        let x = ml::Dataset::from_rows(rows);
        let y: Vec<f64> = (0..12).map(|i| 1.0 + i as f64).collect();
        let head = |learner| FeatureModel::train_full(&x, &y, &learner, false).unwrap();
        let mut mat = MaterializedModels::from_predictor(qpp);
        mat.hybrid_plan_models.push((
            0x5EED,
            SubplanModel {
                start: head(ml::LearnerKind::Linear { ridge: 1e-3 }),
                run: head(ml::LearnerKind::Svr(ml::SvrParams::default())),
                description: "HashJoin(SeqScan[orders], Hash(SeqScan[lineitem]))".to_string(),
            },
        ));
        mat
    }

    fn expect_invalid<T: std::fmt::Debug>(result: Result<T, QppError>, gate: &str) {
        match result {
            Err(QppError::InvalidSnapshot(msg)) => assert!(msg.contains(gate), "{msg}"),
            other => panic!("expected InvalidSnapshot({gate:?}), got {other:?}"),
        }
    }

    #[test]
    fn models_roundtrip_through_a_snapshot() {
        let (ds, qpp) = trained();
        let refs: Vec<&ExecutedQuery> = ds.queries.iter().collect();

        let mat = materialized(&qpp);
        let bytes = encode_snapshot(&mat);
        assert!(bytes.len() > 100);
        let back = decode_snapshot(&bytes).unwrap();
        assert_eq!(back.encode(), mat.encode());

        // Reloaded models agree with the originals on every query, to the
        // bit: floats travel as their bits.
        let hybrid = back.hybrid();
        for q in &refs {
            let a = qpp.predict(q, Method::PlanLevel);
            let b = back.plan_level.predict(q);
            assert_eq!(a.to_bits(), b.to_bits(), "plan-level {a} vs {b}");
            let c = qpp.predict(q, Method::Hybrid(PlanOrdering::ErrorBased));
            let d = hybrid.predict(q);
            assert_eq!(c.to_bits(), d.to_bits(), "hybrid {c} vs {d}");
            let e = qpp.predict(q, Method::OperatorLevel);
            let f = back.op_level.predict(q);
            assert_eq!(e.to_bits(), f.to_bits(), "op-level {e} vs {f}");
        }
        // The fallback calibration and the recorded errors ride along.
        assert_eq!(back.secs_per_cost, qpp.secs_per_cost());
        assert_eq!(back.prior_latency, qpp.prior_latency());
        let rebuilt = QppPredictor::from_materialized(&back);
        for tier in crate::MODEL_TIERS {
            let recorded = qpp.recorded_error(tier).expect("a learned tier");
            assert!(recorded.is_finite() && recorded >= 0.0, "{tier:?}: {recorded}");
            assert_eq!(rebuilt.recorded_error(tier), Some(recorded));
        }
    }

    #[test]
    fn an_unknown_calibration_survives_the_snapshot() {
        // A log without a usable cost estimate leaves the calibration
        // unknown (NaN). The JSON payload of `QPPSNAP v1` wrote that as
        // `null` and then refused to read it back; since v2 the bits travel.
        let (_, qpp) = trained();
        let mut mat = MaterializedModels::from_predictor(&qpp);
        mat.secs_per_cost = f64::NAN;
        let back = decode_snapshot(&encode_snapshot(&mat)).unwrap();
        assert_eq!(back.secs_per_cost.to_bits(), mat.secs_per_cost.to_bits());
        assert_eq!(back.encode(), mat.encode());
    }

    #[test]
    fn rebuilt_predictor_matches_original() {
        let (ds, qpp) = trained();
        let refs: Vec<&ExecutedQuery> = ds.queries.iter().collect();
        let mat = MaterializedModels::from_predictor(&qpp);
        let back = QppPredictor::from_materialized(&mat);
        for q in &refs {
            for m in [
                Method::PlanLevel,
                Method::OperatorLevel,
                Method::Hybrid(PlanOrdering::ErrorBased),
            ] {
                assert!((qpp.predict(q, m) - back.predict(q, m)).abs() < 1e-9);
            }
        }
        assert_eq!(back.secs_per_cost(), qpp.secs_per_cost());
    }

    #[test]
    fn bytes_that_are_not_a_payload_are_a_typed_error() {
        for bad in [&b""[..], b"{", b"nonsense", b"{\"plan_level\": 3}"] {
            expect_invalid(decode_snapshot(&seal(bad)), "malformed payload");
        }
        let (_, qpp) = trained();
        let mut payload = materialized(&qpp).encode();
        payload.push(0);
        expect_invalid(decode_snapshot(&seal(&payload)), "trailing bytes");
    }

    #[test]
    fn a_hostile_element_count_is_refused_before_any_allocation() {
        // The payload opens with the plan-level model's selected-column
        // count: announce four billion columns and supply sixteen bytes.
        let mut payload = u32::MAX.to_le_bytes().to_vec();
        payload.extend_from_slice(&[0; 16]);
        expect_invalid(
            decode_snapshot(&seal(&payload)),
            "element count exceeds payload",
        );
    }

    #[test]
    fn every_prefix_of_a_snapshot_is_an_error_not_a_panic() {
        let (_, qpp) = trained();
        let mat = materialized(&qpp);
        let bytes = encode_snapshot(&mat);
        let payload = mat.encode();
        // A torn file fails the envelope's length check; a torn payload
        // under a correct checksum has to stop at a bounds check.
        for cut in 0..bytes.len() {
            assert!(decode_snapshot(&bytes[..cut]).is_err(), "file cut at {cut}");
        }
        for cut in 0..payload.len() {
            expect_invalid(decode_snapshot(&seal(&payload[..cut])), "malformed payload");
        }
    }

    #[test]
    fn single_byte_mutations_never_panic() {
        let (_, qpp) = trained();
        let mat = materialized(&qpp);
        let bytes = encode_snapshot(&mat);
        let payload = mat.encode();
        let header_len = bytes.len() - payload.len();
        rng::cases(512, |rng| {
            let flip = rng.gen_range(1..=255u8);
            // Anywhere in the file: the checksum catches every payload
            // byte; a header byte may also be an equivalent spelling.
            let at = rng.gen_range(0..bytes.len());
            let mut file = bytes.clone();
            file[at] ^= flip;
            let result = decode_snapshot(&file);
            assert!(at < header_len || result.is_err(), "byte {at} ^ {flip:#x}");
            // Under a correct checksum the payload decoder is on its own:
            // it may accept (a float's low bit) but must not panic.
            let at = rng.gen_range(0..payload.len());
            let mut mutated = payload.clone();
            mutated[at] ^= flip;
            let _ = decode_snapshot(&seal(&mutated));
        });
    }

    #[test]
    fn non_finite_weights_are_rejected_in_memory_and_at_load() {
        let (_, qpp) = trained();
        let mut mat = materialized(&qpp);
        let start = &mut mat.hybrid_plan_models[0].1.start;
        start.model = ml::TrainedModel::Linear(ml::LinearModel {
            intercept: f64::NAN,
            weights: vec![0.0; start.selected.len()],
        });
        // In memory: the registry validates a freshly trained candidate
        // before writing it.
        expect_invalid(mat.validate(), "non-finite");
        // At load: bytes carry a NaN as readily as any float, and this
        // file's checksum is correct.
        expect_invalid(decode_snapshot(&encode_snapshot(&mat)), "non-finite");

        let mut mat = MaterializedModels::from_predictor(&qpp);
        mat.secs_per_cost = f64::INFINITY;
        expect_invalid(decode_snapshot(&encode_snapshot(&mat)), "secs-per-cost");
    }

    #[test]
    fn mismatched_arity_is_rejected_at_load() {
        let (_, qpp) = trained();
        let mut mat = materialized(&qpp);
        // Point a selected feature index far outside the plan feature
        // vector: decoding alone would accept it and panic later at
        // prediction time.
        mat.hybrid_plan_models[0].1.run.selected[0] = 9999;
        expect_invalid(decode_snapshot(&encode_snapshot(&mat)), "out of range");
    }

    #[test]
    fn corrupted_calibration_is_rejected() {
        let (_, qpp) = trained();
        let mut mat = MaterializedModels::from_predictor(&qpp);
        mat.prior_latency = -1.0;
        expect_invalid(mat.validate(), "prior latency");
        for bad in [f64::NAN, f64::INFINITY, -0.5] {
            let mut mat = MaterializedModels::from_predictor(&qpp);
            mat.recorded_error[2] = bad;
            expect_invalid(mat.validate(), "recorded error");
            expect_invalid(decode_snapshot(&encode_snapshot(&mat)), "recorded error");
        }
    }
}
