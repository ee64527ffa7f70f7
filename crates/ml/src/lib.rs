//! Learning substrate for query performance prediction.
//!
//! The paper builds its predictors out of two model families — linear
//! regression (Shark) for operator-level models and support-vector
//! regression (libsvm's nu-SVR; epsilon-SVR here, DESIGN.md §2) for
//! plan-level models — plus a correlation-ranked forward feature-selection
//! procedure and stratified K-fold cross-validation. This crate
//! re-implements all of that from scratch:
//!
//! - `linalg` — small dense matrices, Cholesky factorization, solves,
//!   and the SMO inner-loop primitives, the one code compiled a second
//!   time for AVX2 (one safe body each, bit-identical in both builds).
//! - `scaler` — z-score standardization of feature columns.
//! - `linreg` — ordinary least squares / ridge regression, and the
//!   per-fold normal equations that score linear selection candidates.
//! - `svr` — epsilon-SVR with the RBF kernel, trained with a
//!   libsvm-style SMO solver.
//! - `feature_selection` — best-first forward selection over features
//!   ranked by |Pearson correlation| with the target (Section 2 of the
//!   paper).
//! - [`cv`] — K-fold and stratified K-fold cross-validation (Section 5.1).
//! - [`metrics`] — mean relative error (the paper's headline metric), R²,
//!   predictive risk.
//! - `dataset` — a lightweight (rows × columns) design-matrix container
//!   shared by the learners.
//! - [`par`] — deterministic fork-join parallelism on a process-wide set
//!   of parked worker threads, used across the training and batched
//!   prediction pipelines.
//! - [`gram`] — the kernel (Gram) matrix of an SMO solve, built by a
//!   blocked, lane-padded kernel into a buffer the fit owns; nothing is
//!   kept between fits.
//! - [`bytes`] — the bounds-checked reader and the writers under the model
//!   snapshot and the wire protocol.
//! - [`compiled`] — the lane layout (lane-padded blocks of eight vectors)
//!   that an SVR model is stored in and a Gram matrix is built from, the
//!   one RBF kernel over it, and the allocation-free lane tree that every
//!   SVR prediction, from cross-validation to serving, runs.
//! - [`stats`] — mean, variance and Pearson correlation.

#![warn(missing_docs)]
#![warn(unreachable_pub)]

pub mod bytes;
pub mod compiled;
pub mod cv;
mod dataset;
mod feature_selection;
pub mod gram;
mod linalg;
mod linreg;
pub mod metrics;
pub mod par;
mod scaler;
pub mod stats;
mod svr;

#[cfg(test)]
mod compiled_props;
#[cfg(test)]
mod simd_props;
#[cfg(test)]
mod smo_vector_props;
#[cfg(test)]
mod solver_tests;
#[cfg(test)]
mod wss2_props;

pub use compiled::PredictScratch;
pub use cv::{holdout, kfold, stratified_kfold, CrossValidation};
pub use dataset::Dataset;
pub use feature_selection::{forward_select, ForwardSelection, SelectionResult};
pub use gram::{GramCache, GramCacheStats};
pub use linreg::LinearModel;
use linreg::LinearRegression;
pub use metrics::{mean_relative_error, predictive_risk};
pub use svr::{Kernel, Svr, SvrModel, SvrParams};

/// Errors produced by the learning substrate.
#[derive(Debug, Clone, PartialEq)]
pub enum MlError {
    /// The design matrix and target vector disagree on the number of rows,
    /// or a prediction row disagrees with the trained feature count.
    ShapeMismatch {
        /// Rows/features the operation expected.
        expected: usize,
        /// Rows/features actually supplied.
        got: usize,
    },
    /// Training was attempted on an empty dataset.
    EmptyDataset,
    /// A matrix required to be symmetric positive definite was not
    /// (within numerical tolerance), e.g. a singular normal-equation
    /// system with no ridge term.
    NotPositiveDefinite,
    /// An invalid hyper-parameter was supplied (message explains which).
    InvalidParameter(&'static str),
    /// Training data (features or targets) contained NaN or infinities.
    NonFiniteData,
    /// An iterative solver gave up without satisfying its stopping
    /// condition: it exhausted its iteration budget, or could make no
    /// further progress while still far from it.
    DidNotConverge {
        /// Iterations taken (the cap, when the budget was exhausted).
        iterations: usize,
    },
}

impl std::fmt::Display for MlError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MlError::ShapeMismatch { expected, got } => {
                write!(f, "shape mismatch: expected {expected}, got {got}")
            }
            MlError::EmptyDataset => write!(f, "empty training dataset"),
            MlError::NotPositiveDefinite => {
                write!(f, "matrix not positive definite (singular system?)")
            }
            MlError::InvalidParameter(msg) => write!(f, "invalid parameter: {msg}"),
            MlError::NonFiniteData => write!(f, "training data contains NaN or infinite values"),
            MlError::DidNotConverge { iterations } => {
                write!(f, "solver did not converge within {iterations} iterations")
            }
        }
    }
}

impl std::error::Error for MlError {}

/// A learner: a model family plus hyper-parameters that can be fit to data.
pub trait Learner {
    /// Fits the learner to `x` (rows × features) and targets `y`.
    fn fit(&self, x: &Dataset, y: &[f64]) -> Result<TrainedModel, MlError>;
}

/// A concrete trained model (linear regression or SVR).
///
/// The paper *materializes* pre-built models so they are ready for future
/// predictions (Section 1); a closed enum keeps [`TrainedModel::encode`]
/// a tag byte and a body.
#[derive(Debug, Clone)]
pub enum TrainedModel {
    /// Ordinary least squares / ridge regression model.
    Linear(LinearModel),
    /// Support-vector regression model.
    Svr(SvrModel),
}

impl TrainedModel {
    /// Predicts the target value for one feature row, which must have the
    /// number of features the model was trained on: the serving
    /// prediction ([`TrainedModel::predict_into`]) with a scratch of its
    /// own, so an SVR allocates one buffer a call. A loop should hold a
    /// [`PredictScratch`] and call `predict_into`.
    pub fn predict(&self, row: &[f64]) -> f64 {
        match self {
            TrainedModel::Linear(m) => m.predict(row),
            TrainedModel::Svr(m) => m.predict(row),
        }
    }

    /// Number of input features the model expects.
    pub fn n_features(&self) -> usize {
        match self {
            TrainedModel::Linear(m) => m.n_features(),
            TrainedModel::Svr(m) => m.n_features(),
        }
    }

    /// The serving prediction, reusing `scratch` (no allocation once it
    /// has warmed up): a linear model's dot product, an SVR model's lane
    /// tree ([`SvrModel::predict_into`]), which sums in a fixed
    /// reduction-tree order — deterministic and thread-count independent
    /// (see [`compiled`]). Cross-validation scores a fold through this
    /// call, so the errors training records are those of what serves.
    pub fn predict_into(&self, row: &[f64], scratch: &mut PredictScratch) -> f64 {
        match self {
            TrainedModel::Linear(m) => m.predict(row),
            TrainedModel::Svr(m) => m.predict_into(row, scratch),
        }
    }

    /// True when every learned parameter of the underlying model is finite
    /// — the registry's snapshot validation gate. A model that fails this
    /// check would silently emit NaN predictions if served.
    pub fn weights_finite(&self) -> bool {
        match self {
            TrainedModel::Linear(m) => m.weights_finite(),
            TrainedModel::Svr(m) => m.weights_finite(),
        }
    }

    /// Appends the model to a snapshot payload: a tag byte, then the
    /// variant's parameters with floats as their bits (see [`bytes`]).
    pub fn encode(&self, out: &mut Vec<u8>) {
        match self {
            TrainedModel::Linear(m) => {
                out.push(0);
                m.encode(out);
            }
            TrainedModel::Svr(m) => {
                out.push(1);
                m.encode(out);
            }
        }
    }

    /// Reads what [`TrainedModel::encode`] wrote. The bytes are outside
    /// input: any shape is refused with [`bytes::Malformed`] rather than a
    /// panic, but the values are not judged here
    /// ([`TrainedModel::weights_finite`] does that).
    pub fn decode(r: &mut bytes::Reader) -> Result<TrainedModel, bytes::Malformed> {
        match r.u8()? {
            0 => LinearModel::decode(r).map(TrainedModel::Linear),
            1 => SvrModel::decode(r).map(TrainedModel::Svr),
            _ => Err(bytes::Malformed("unknown model tag")),
        }
    }
}

/// The two learner configurations used by the paper: linear regression for
/// operator-level models, SVR for plan-level models (epsilon-SVR where the
/// paper ran libsvm's nu-SVR: same held-out error at a fifteenth of the
/// training time, DESIGN.md §2).
#[derive(Debug, Clone)]
pub enum LearnerKind {
    /// Ridge regression with the given regularization strength.
    Linear {
        /// L2 regularization strength.
        ridge: f64,
    },
    /// Epsilon-SVR with the given hyper-parameters.
    Svr(SvrParams),
}

impl Default for LearnerKind {
    fn default() -> Self {
        LearnerKind::Linear { ridge: 1e-6 }
    }
}

impl LearnerKind {
    /// [`Learner::fit`] with the SVR solver's iteration cap given: the
    /// crate-private path by which tests reach the ridge fallback.
    pub(crate) fn fit_capped(
        &self,
        x: &Dataset,
        y: &[f64],
        max_iter: usize,
    ) -> Result<TrainedModel, MlError> {
        match self {
            LearnerKind::Linear { ridge } => LinearRegression::new(*ridge)
                .fit(x, y)
                .map(TrainedModel::Linear),
            // An SVR solver that does not converge (budget exhausted, or
            // stalled far from its stopping condition) falls back to ridge
            // regression: a degraded-but-sane model beats failing the
            // whole training run on the serving path. Other errors
            // propagate untouched.
            LearnerKind::Svr(params) => match Svr::new(params.clone()).fit_capped(x, y, max_iter)
            {
                Ok(m) => Ok(TrainedModel::Svr(m)),
                Err(MlError::DidNotConverge { .. }) => LinearRegression::new(1e-4)
                    .fit(x, y)
                    .map(TrainedModel::Linear),
                Err(e) => Err(e),
            },
        }
    }
}

impl Learner for LearnerKind {
    fn fit(&self, x: &Dataset, y: &[f64]) -> Result<TrainedModel, MlError> {
        self.fit_capped(x, y, svr::MAX_ITER)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn learner_kind_default_is_linear() {
        match LearnerKind::default() {
            LearnerKind::Linear { ridge } => assert!(ridge > 0.0),
            _ => panic!("default learner should be linear"),
        }
    }

    #[test]
    fn errors_display() {
        let e = MlError::ShapeMismatch {
            expected: 3,
            got: 2,
        };
        assert!(e.to_string().contains("expected 3"));
        assert!(MlError::EmptyDataset.to_string().contains("empty"));
        assert!(MlError::NotPositiveDefinite
            .to_string()
            .contains("positive definite"));
    }

    #[test]
    fn svr_learner_falls_back_to_ridge_on_non_convergence() {
        // An iteration budget of 1 cannot satisfy the KKT conditions on
        // this data; the learner must degrade to a linear model rather
        // than fail or return garbage.
        let rows: Vec<Vec<f64>> = (0..30).map(|i| vec![i as f64, (i * i) as f64]).collect();
        let y: Vec<f64> = rows.iter().map(|r| 2.0 * r[0] + 0.5 * r[1] + 3.0).collect();
        let x = Dataset::from_rows(rows);
        let learner = LearnerKind::Svr(SvrParams::default());
        let m = learner.fit_capped(&x, &y, 1).unwrap();
        assert!(matches!(m, TrainedModel::Linear(_)));
        let p = m.predict(x.row(10));
        assert!(p.is_finite(), "{p}");
    }

    #[test]
    fn trained_model_roundtrips_through_its_bytes() {
        let x = Dataset::from_rows(vec![vec![0.0], vec![1.0], vec![2.0]]);
        let y = [1.0, 3.0, 5.0];
        let m = LearnerKind::Linear { ridge: 0.0 }.fit(&x, &y).unwrap();
        let mut bytes = Vec::new();
        m.encode(&mut bytes);
        let mut r = bytes::Reader::new(&bytes);
        let back = TrainedModel::decode(&mut r).unwrap();
        assert!(r.is_empty());
        assert_eq!(back.predict(&[3.0]).to_bits(), m.predict(&[3.0]).to_bits());
        assert!(TrainedModel::decode(&mut bytes::Reader::new(&[7])).is_err());
    }
}
