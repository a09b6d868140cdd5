//! # e3-serve — the live observability plane
//!
//! A dependency-free HTTP/1.1 server (std `TcpListener`, no async
//! runtime, no vendored HTTP crates) mounted on an
//! [`e3_islands::RunManager`]. It turns the in-process telemetry this
//! workspace already produces — the shared Prometheus registry, the
//! per-run flight recorder, per-island progress rows, and live
//! executor pool gauges — into something an operator can point `curl`
//! or a Prometheus scraper at while runs are in flight:
//!
//! | Endpoint | What it serves |
//! |----------|----------------|
//! | `GET /metrics` | Prometheus text exposition of the live registry |
//! | `GET /healthz` | Daemon + per-run liveness JSON |
//! | `GET /runs` | JSON status array (one [`e3_islands::RunSnapshot`] per run) |
//! | `GET /runs/{id}` | One run's snapshot: per-island generation, best fitness, migrations, pool queue depths |
//! | `GET /runs/{id}/events` | Chunked NDJSON telemetry stream (flight-recorder replay + live tail) |
//!
//! The design constraint throughout is that **serving must be inert**:
//! attaching the server and scraping it mid-run must not perturb the
//! evolution (bit-identical final populations and NDJSON telemetry
//! versus a server-less run); `tests/serve_roundtrip.rs` is the gate
//! that enforces this.
//!
//! * `server` — the accept loop, routing, and graceful shutdown.
//! * `client` — a matching minimal blocking client used by the
//!   tests and `benchmark/`.
//! * `http` — shared HTTP/1.1 plumbing (request parsing, chunked
//!   transfer encoding).

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod client;
mod http;
mod server;

pub use client::{http_get, http_request, tail_events};
pub use server::{serve, Health, ServeOptions};
