//! # cfd-gen — the evaluation workload of §7.1
//!
//! The paper evaluates on sales data scraped from AMAZON and other
//! websites (§7.1), which is not available; this crate substitutes a
//! deterministic synthetic equivalent with the same schema, Σ shape and
//! noise model:
//!
//! * [`order_schema`](mod@order_schema) — the 13-attribute `order` relation (Fig. 1 plus
//!   CTY, VAT, TT, QTT);
//! * [`world`] — a synthetic world whose functional correlations (zip →
//!   city, street → zip, state → country, …) are exactly the ones the
//!   experiment Σ binds;
//! * [`tableau`] — the seven CFDs with 300–5,000 pattern rows derived from
//!   the world;
//! * [`generator`] — `Dopt`, clean by construction;
//! * [`noise`] — controlled corruption: noise rate ρ, constant-vs-variable
//!   violation mix, DL-close typos or value swaps, §7.1 weight bands;
//! * [`eval`] — precision/recall summaries.

#![forbid(unsafe_code)]

pub mod eval;
pub mod generator;
pub mod noise;
pub mod order_schema;
pub mod tableau;
pub mod world;

pub use eval::RunSummary;
pub use generator::{generate, GenConfig, Workload};
pub use noise::{inject, NoiseConfig, NoiseOutcome};
pub use order_schema::{order_attrs, order_schema, OrderAttrs};
pub use tableau::build_sigma;
pub use world::{World, WorldConfig};
