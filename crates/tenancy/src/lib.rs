//! # tenancy — multi-tenant serving over one shared modeled DPU fleet
//!
//! Every crate below this one serves a single workload: one catalog,
//! one strategy, one engine, one queue. Real PIM deployments
//! consolidate — several recommendation models share the DIMMs —
//! so this crate adds the missing layer: N independent
//! [`UpdlrmEngine`](updlrm_core::UpdlrmEngine) instances (one per
//! tenant, each with its own catalog, partitioning strategy and
//! embedding dtype) time-sharing one modeled fleet under a weighted
//! deficit-round-robin arbiter, with per-tenant admission queues,
//! deadlines, queue caps and overload policies ([`TenantSpec`]).
//!
//! The headline contracts (see [`fleet`] for the mechanism):
//!
//! * **Content isolation is exact.** A tenant's batch formation and
//!   pooled embeddings are bit-identical to the same tenant served
//!   alone — sharing the fleet can delay a tenant's answers, never
//!   change them.
//! * **Determinism.** Fixed seeds and specs give byte-identical
//!   [`FleetReport`]s and telemetry snapshots (schema v5 adds the
//!   per-tenant [`TenantSnapshot`](updlrm_core::TenantSnapshot)
//!   breakout) across runs and machines.
//! * **Performance isolation is the arbiter's job.** Under
//!   [`Arbitration::Drr`], a bursty adversary's backlog cannot push a
//!   steady victim's p99 arbitrarily; under [`Arbitration::Fcfs`] it
//!   can — `benches/tenants.rs` gates both directions.
//!
//! Tenants are declared in a small TOML file ([`parse_tenants_toml`]);
//! `updlrm serve --tenants FILE.toml` runs the mixed workload and
//! `updlrm capacity --tenants FILE.toml` sweeps fleet sizes
//! ([`capacity_sweep`]) to answer "how many DPUs do these tenants
//! need at these SLOs?".

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod fleet;
pub mod spec;

pub use fleet::{
    capacity_sweep, fleet_report_is_finite, CapacityPoint, FleetReport, TenantCapacity,
    TenantFleet, TenantReport,
};
pub use spec::{
    parse_tenants_toml, Arbitration, ArrivalKind, FleetConfig, TenantSpec, TenantsFile,
};
