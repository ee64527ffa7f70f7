//! Overload-resilient prediction serving.
//!
//! The paper motivates query performance prediction with *on-line*
//! decisions — admission control, query scheduling, workload routing
//! (Section 1). Those place the predictor on the critical path of a live
//! system, where request rates spike past service capacity and every
//! caller has a latency budget of its own. This crate is the serving
//! front-end for that regime, layered over the hot-swap
//! [`qpp::ModelRegistry`]:
//!
//! - `admission` — queue-depth load shedding and token-bucket rate
//!   limiting over explicit virtual time, so shed fractions are exactly
//!   reproducible from seeded arrival streams.
//! - `stats` — the per-tenant ledger, one struct behind one lock:
//!   shed / deadline-miss / degraded-tier counters and per-endpoint
//!   log-bucketed latency histograms ([`SloRecorder`]).
//! - [`tenant`] — the one worker pool, queue and `submit` of the crate:
//!   per-tenant registries, admission budgets, queue quotas and
//!   weighted-fair dequeue (with dynamic add/remove under load) in front
//!   of workers, started on demand, that coalesce requests into the
//!   batched predictor path and snapshot the model once per batch, so
//!   registry hot swaps are safe under load; a blocking `predict` on an
//!   idle server is served on the calling thread instead; plus the per-tenant healing loop (a quarantined
//!   tier or an open breaker → shadow retrain → validated promote). A
//!   request whose deadline has passed when a worker dequeues it is
//!   refused with [`qpp::QppError::DeadlineExceeded`]; every other
//!   request is served at the tier it asked for.
//! - `server` — [`PredictionServer`], the front-end over a single
//!   registry: a [`TenantServer`] with exactly one tenant. Also the
//!   request plumbing both share (the queued job, the reply handle, how
//!   one popped batch is served).
//! - `healer` — a supervised background thread driving that healing
//!   loop unattended on a jittered cadence, surviving panicking heals via
//!   `catch_unwind` and breaker-style backoff.
//! - [`codec`] — the versioned `QPPWIRE-v2` length-prefixed binary wire
//!   protocol: request/response frames and typed error frames mapping
//!   every [`qpp::QppError`] variant onto stable wire codes; decoding
//!   never panics on arbitrary bytes.
//! - `net` — the TCP front door speaking that protocol: acceptor +
//!   connection workers started on demand behind a 32-deep
//!   `sync_channel` of accepted sockets, per-connection read/write deadlines, slowloris eviction,
//!   malformed-frame rejection, and graceful drain whose ledger
//!   reconciles exactly.
//!
//! Under a seeded overload of 4x the service rate the server sheds
//! deterministically instead of queueing unboundedly — see
//! `tests/all/serve_overload.rs`. Under a seeded one-hot tenant burst the
//! noisy tenant is shed at its own bulkhead while quiet tenants keep their
//! deadline budgets — see `tests/all/tenant_isolation.rs`. Under seeded
//! network chaos (partial writes, mid-frame disconnects, corrupt frames,
//! stalled readers) quiet tenants' responses stay bit-identical to the
//! fault-free run — see `tests/all/net_chaos.rs`. Throughput and latency of
//! each rung are measured by the staircase benchmark (`crates/e2e`).

#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod admission;
pub mod codec;
mod healer;
mod net;
mod server;
mod stats;
pub mod tenant;

pub use admission::{AdmissionController, RateLimit, ShedReason};
pub use codec::{DecodeError, ErrorFrame, Frame, Request, Response, DEFAULT_MAX_FRAME};
pub use healer::{HealSource, Healer, HealerConfig};
pub use net::{Client, NetConfig, NetServer, NetStatsSnapshot};
pub use server::{PendingPrediction, PredictionServer, ServeConfig};
pub use stats::{Endpoint, ServeStatsSnapshot, SloRecorder};
pub use tenant::{
    HealAction, HealReport, RemovedTenant, ShutdownReport, TenantBudget, TenantPushError,
    TenantServeConfig, TenantServer, TenantSpec, WeightedFairQueue,
};
