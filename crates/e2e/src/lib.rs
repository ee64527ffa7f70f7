//! The staircase benchmark: library → in-process server → TCP door →
//! train. See `README.md` in this crate for the metric tables, what each
//! workload isolates, and how the numbers are made to repeat.

#![warn(missing_docs)]

pub mod fixture;
pub mod harness;
pub mod lib_batch;
pub mod probes;
pub mod report;
pub mod serve_open;
pub mod serving;
pub mod span;
pub mod stats;
pub mod stream;
pub mod traced;
pub mod train;
pub mod wire_closed;
