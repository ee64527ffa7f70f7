//! Property tests for the serving path's numeric contracts.
//!
//! For any fitted SVR — across gamma, dimensionality, and support-vector
//! counts — the one stored model has one summation order, the lane tree,
//! and:
//!
//! - batches equal a serial lane-tree loop bit for bit, in input order
//!   (hand-built shapes are swept in `simd_props`),
//! - `SvrModel::predict` and both `TrainedModel` entry points are that
//!   loop's bits,
//! - the lane tree (`SvrModel::predict_into`) agrees with the test-only
//!   reference left-to-right fold (`SvrModel::predict_fold`) to
//!   summation-reordering rounding, bounded by the condition of the kernel
//!   sum (`SvrModel::sum_magnitude`).

use crate::compiled::PredictScratch;
use crate::svr::Kernel;
use crate::{Dataset, MlError, Svr, SvrParams, TrainedModel};

#[test]
fn compiled_contracts_hold_for_fitted_models() {
    rng::cases(32, |rng| {
        let n_cols = rng.gen_range(1usize..10);
        let rows: Vec<Vec<f64>> = (0..rng.gen_range(6usize..24))
            .map(|_| (0..n_cols).map(|_| rng.gen_range(-10.0f64..10.0)).collect())
            .collect();
        let kernel = Kernel::Rbf {
            gamma: rng.gen_range(0.01f64..2.0),
        };
        let probe_scale = rng.gen_range(1.0f64..50.0);
        // A mildly nonlinear target so the fit keeps plenty of SVs.
        let y: Vec<f64> = rows
            .iter()
            .map(|r| {
                let s: f64 = r.iter().sum();
                2.0 * r[0] + 0.1 * s * s + 5.0
            })
            .collect();
        let x = Dataset::from_rows(rows.clone());
        let model = match Svr::new(SvrParams { kernel }).fit(&x, &y) {
            Ok(m) => m,
            // Non-convergence on an adversarial draw is not this test's
            // concern; the learner-level fallback covers it.
            Err(MlError::DidNotConverge { .. }) => return,
            Err(e) => panic!("fit failed: {e}"),
        };
        assert!(model.n_support_vectors() <= rows.len());

        // Training rows plus probes well outside the training region
        // (extrapolation must not change the contracts).
        let mut probes = rows.clone();
        probes.push(vec![probe_scale; x.n_cols()]);
        probes.push(vec![-probe_scale; x.n_cols()]);
        probes.push(vec![0.0; x.n_cols()]);
        let mut scratch = PredictScratch::new();
        for row in &probes {
            let reference = model.predict_fold(row);
            let tree = model.predict_into(row, &mut scratch);
            // The lane tree stays within reordering rounding of the
            // reference.
            let tol = 1e-12 * (1.0 + model.sum_magnitude(row));
            assert!(
                (reference - tree).abs() <= tol,
                "|{} - {}| > {}",
                reference,
                tree,
                tol
            );
        }

        // Batch output equals the serial lane-tree loop, in input order.
        let loop_bits: Vec<u64> = probes
            .iter()
            .map(|r| model.predict_into(r, &mut scratch).to_bits())
            .collect();
        let mut out = Vec::new();
        model.predict_batch_into(&probes, &mut out, &mut scratch);
        let into_bits: Vec<u64> = out.iter().map(|v| v.to_bits()).collect();
        assert_eq!(&loop_bits, &into_bits);

        // `predict` and the TrainedModel wrapper serve the same lane tree.
        let wrapped = TrainedModel::Svr(model.clone());
        for (row, &bits) in probes.iter().zip(&loop_bits) {
            assert_eq!(model.predict(row).to_bits(), bits);
            assert_eq!(wrapped.predict_into(row, &mut scratch).to_bits(), bits);
            assert_eq!(wrapped.predict(row).to_bits(), bits);
        }
    });
}
