//! Lane-tree properties on hand-built models.
//!
//! The serving kernel sums in a fixed reduction-tree order (see
//! `ml::compiled`'s module docs), so a row's prediction must be the same
//! bits — `f64::to_bits`, not a ULP tolerance — wherever in a batch it
//! sits, and must stay within summation-reordering rounding of the
//! test-only reference fold `SvrModel::predict_fold`. Models are hand-built through
//! `SvrModel::from_parts` to sweep shapes a fit would rarely produce:
//! arities from 1 to 13, support-vector counts across lane-padding
//! boundaries (0, partial block, exact multiples of 8), zero coefficients
//! interleaved for pruning, extreme coefficient magnitudes.
//!
//! Each property runs a deterministic grid, then shapes drawn at random.

use crate::compiled::PredictScratch;
use crate::scaler::{StandardScaler, TargetScaler};
use crate::svr::{Kernel, SvrModel};
use crate::Dataset;
use rng::StdRng;

/// Raw parts of a hand-built model, kept so the pruning property can
/// assemble a pre-pruned variant of the same model.
#[derive(Clone)]
struct RawModel {
    kernel: Kernel,
    gamma: f64,
    sv: Vec<Vec<f64>>,
    coef: Vec<f64>,
    bias: f64,
    x_scaler: StandardScaler,
    y_scaler: TargetScaler,
    d: usize,
}

impl RawModel {
    fn build(&self) -> SvrModel {
        SvrModel::from_parts(
            self.kernel,
            self.gamma,
            self.sv.clone(),
            self.coef.clone(),
            self.bias,
            self.x_scaler.clone(),
            self.y_scaler.clone(),
            self.d,
        )
    }

    /// Same model with zero-coefficient support vectors dropped up front.
    fn build_pruned(&self) -> SvrModel {
        let mut sv = Vec::new();
        let mut coef = Vec::new();
        for (row, &c) in self.sv.iter().zip(&self.coef) {
            if c != 0.0 {
                sv.push(row.clone());
                coef.push(c);
            }
        }
        SvrModel::from_parts(
            self.kernel,
            self.gamma,
            sv,
            coef,
            self.bias,
            self.x_scaler.clone(),
            self.y_scaler.clone(),
            self.d,
        )
    }
}

/// Hand-builds a model plus probe rows from scalar draws. `d` and `n_sv`
/// choose the shape; everything else comes from the seeded generator so
/// the construction stays deterministic while still covering extreme
/// values.
fn build_model(d: usize, n_sv: usize, seed: u64) -> (RawModel, Vec<Vec<f64>>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let gamma = rng.gen_range(0.001..3.0);
    let bias = rng.gen_range(-1000.0..1000.0);
    let kernel = Kernel::Rbf { gamma };
    let sv: Vec<Vec<f64>> = (0..n_sv)
        .map(|_| (0..d).map(|_| rng.gen_range(-100.0..100.0)).collect())
        .collect();
    // Coefficients mix moderate values, exact ±0.0 (pruning), and large
    // magnitudes (reduction-order stress).
    let coef: Vec<f64> = (0..n_sv)
        .map(|i| match i % 6 {
            0 => 0.0,
            1 => -0.0,
            2 => rng.gen_range(1e6..1e8),
            _ => rng.gen_range(-50.0..50.0),
        })
        .collect();
    // Scalers fit on synthetic spread-out data of the right arity.
    let scaler_rows: Vec<Vec<f64>> = (0..8)
        .map(|_| (0..d).map(|_| rng.gen_range(-20.0..20.0)).collect())
        .collect();
    let x_scaler = StandardScaler::fit(&Dataset::from_rows(scaler_rows));
    let y_scaler = TargetScaler::fit(&[
        rng.gen_range(-10.0..10.0),
        rng.gen_range(10.0..30.0),
        rng.gen_range(-30.0..-10.0),
    ]);
    let raw = RawModel {
        kernel,
        gamma,
        sv,
        coef,
        bias,
        x_scaler,
        y_scaler,
        d,
    };
    let probes: Vec<Vec<f64>> = (0..9)
        .map(|_| (0..d).map(|_| rng.gen_range(-200.0..200.0)).collect())
        .collect();
    (raw, probes)
}

/// Core property: the lane tree stays within reordering rounding of the
/// reference fold on every probe, and the batched entry point reproduces
/// the per-row bits at every batch length. Returns the per-row bits for
/// reuse.
fn assert_lane_tree_contract(model: &SvrModel, probes: &[Vec<f64>]) -> Vec<u64> {
    let mut scratch = PredictScratch::new();
    let mut bits = Vec::with_capacity(probes.len());
    for row in probes {
        let tree = model.predict_into(row, &mut scratch);
        let reference = model.predict_fold(row);
        let tol = 1e-12 * (1.0 + model.sum_magnitude(row));
        assert!(
            (reference - tree).abs() <= tol,
            "lane tree left the reference fold on {row:?}: |{reference} - {tree}| > {tol}"
        );
        bits.push(tree.to_bits());
    }
    // Every prefix length 0..=9: a row's bits do not depend on what else
    // is in the batch or on what the scratch held before.
    assert!(probes.len() >= 9, "the sweep needs nine probes");
    let mut out = vec![f64::NAN];
    for n in 0..=9 {
        model.predict_batch_into(&probes[..n], &mut out, &mut scratch);
        let got: Vec<u64> = out.iter().map(|v| v.to_bits()).collect();
        assert_eq!(got, bits[..n], "batch of {n} diverged from per-row bits");
    }
    // k copies of one row: every position computes the same bits.
    for k in 1..=9 {
        let copies = vec![probes[0].as_slice(); k];
        model.predict_batch_into(&copies, &mut out, &mut scratch);
        assert_eq!(out.len(), k);
        assert!(
            out.iter().all(|v| v.to_bits() == bits[0]),
            "{k} copies of one row differ"
        );
    }
    bits
}

/// Core property: dropping zero-coefficient SVs before the model is built
/// lands every survivor in the same lane, hence identical bits (the model
/// does not store them either way).
fn assert_pruning_invariant(raw: &RawModel, probes: &[Vec<f64>]) {
    let full_bits = assert_lane_tree_contract(&raw.build(), probes);
    let pruned_bits = assert_lane_tree_contract(&raw.build_pruned(), probes);
    assert_eq!(full_bits, pruned_bits, "pruning changed prediction bits");
}

/// A shape and seed of the random sweeps.
fn any_model(rng: &mut StdRng) -> (RawModel, Vec<Vec<f64>>) {
    let d = rng.gen_range(1usize..14);
    let n_sv = rng.gen_range(0usize..41);
    build_model(d, n_sv, rng.next_u64())
}

/// Arities below, at and above the lane width × SV counts around
/// lane-block boundaries × several seeds, then random shapes.
#[test]
fn batches_equal_per_row_bits_and_stay_near_the_reference_fold() {
    for &d in &[1usize, 2, 3, 5, 6, 7, 8, 9, 12, 13] {
        for &n_sv in &[0usize, 1, 3, 7, 8, 9, 15, 16, 17, 40] {
            for seed in 0..4u64 {
                let (raw, probes) = build_model(d, n_sv, seed ^ ((d as u64) << 8));
                assert_lane_tree_contract(&raw.build(), &probes);
            }
        }
    }
    rng::cases(192, |rng| {
        let (raw, probes) = any_model(rng);
        assert_lane_tree_contract(&raw.build(), &probes);
    });
}

#[test]
fn pruning_zero_coefficients_never_changes_bits() {
    for &d in &[1usize, 3, 6, 8, 11] {
        for &n_sv in &[0usize, 5, 8, 13, 24] {
            for seed in 100..103u64 {
                let (raw, probes) = build_model(d, n_sv, seed);
                assert_pruning_invariant(&raw, &probes);
            }
        }
    }
    rng::cases(192, |rng| {
        let (raw, probes) = any_model(rng);
        assert_pruning_invariant(&raw, &probes);
    });
}
