#![forbid(unsafe_code)]
#![deny(missing_docs)]

//! # so-serve — the multi-tenant statistical-query service
//!
//! Everything this repository knows about singling out assumes an attacker
//! on the *other side of an API*: Dinur–Nissim reconstruction works against
//! "a database access mechanism", and Cohen–Nissim ran it against a live
//! production aggregation endpoint ("Linear Program Reconstruction in
//! Practice", arXiv:1810.05692). This crate is that endpoint, std-only over
//! TCP:
//!
//! * [`proto`] — a length-prefixed JSON-frame wire protocol (workload
//!   declarations in, answers or evidence-bearing refusals out), with
//!   [`json`] as its dependency-free parser/renderer;
//! * [`tenant`] — per-tenant isolation: each tenant has its own dataset,
//!   secret column, lint-gate policy, optional continual-release
//!   ε-accountant, token-bucket rate limit, and bounded audit trail; it
//!   admits through [`so_analyze::Admission`], the same path as the
//!   in-process gates;
//! * [`limit`] — deterministic rate limiting over a logical clock, so
//!   rate-limit refusals (and their `retry_after_ticks`) are reproducible
//!   byte-for-byte in the experiments;
//! * [`server`] — acceptor + bounded worker pool, graceful drain on
//!   shutdown, and plain-HTTP `GET`/`HEAD` endpoints on the same port:
//!   `/metrics` (the live [`so_obs`] registry), `/healthz`, and
//!   `/flight/<tenant>` (the flight-recorder dump as JSON lines);
//! * [`flight`] — the per-tenant flight recorder: a bounded ring
//!   (`SO_FLIGHT_CAP`) of structured [`RequestRecord`]s — op, request id,
//!   lint codes, refusal evidence, ε spent, rows scanned, export-only
//!   latency — with an `SO_SLOWLOG_MICROS` stderr slow log;
//! * [`client`] — the typed session client, plus [`client::lp_attack`]: the
//!   LP-reconstruction attack speaking the wire protocol, which experiment
//!   E20 aims at an ungated tenant (≥95 % of rows reconstructed) and a
//!   gated one (refused with `SO-RECON` evidence).

pub mod client;
pub mod flight;
pub mod json;
pub mod limit;
pub mod obs;
pub mod proto;
pub mod server;
pub mod tenant;

pub use client::{lp_attack, AttackOutcome, ClientError, ServiceClient};
pub use flight::{FlightRecorder, RequestProfile, RequestRecord};
pub use limit::{TickSource, TokenBucket};
pub use obs::{serve_metrics, serve_refusals, ServeMetrics};
pub use proto::{Request, Response, WireQuery, WireRefusal};
pub use server::{spawn, ServerConfig, ServerHandle};
pub use tenant::{Tenant, TenantConfig, WorkloadOutcome};
