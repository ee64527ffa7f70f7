//! The root package's integration suites, one module each, linked into
//! one test binary. Run one suite with `cargo test --test all SUITE::`,
//! e.g. `cargo test --test all drift_recovery::`.
//!
//! Four suites keep binaries of their own, because each needs the whole
//! process: `model_storage`, `prediction_allocations` and
//! `training_allocations` install a counting global allocator, and
//! `serve_threads` counts the process's threads by name. Four more
//! (`proptests`, `end_to_end`, `serve_overload`, `tenant_isolation`) have
//! not moved in yet and keep their files under `tests/`. All eight include
//! this binary's `support.rs` with `#[path]`.

mod support;

mod batch_determinism;
mod caller_serves;
mod codec_corpus;
mod column_ref;
mod drift_recovery;
mod fault_tolerance;
mod golden_snapshot;
mod healer_supervision;
mod net_chaos;
mod paper_repro;
mod parallel_determinism;
mod plan_equivalence;
mod swap_under_load;
mod truth_validation;
