//! # cfd-cfd — conditional functional dependencies
//!
//! Implements the constraint language of the paper (§2): a CFD
//! `φ = (R: X → Y, Tp)` pairs an embedded FD with a pattern tableau whose
//! rows bind semantically related constants. Standard FDs are the special
//! case of a single all-wildcard pattern row.
//!
//! The crate provides:
//!
//! * [`pattern`] — pattern values, the match order `≼` (`η1 ≼ η2`), and
//!   pattern rows;
//! * [`cfd`] — the general [`cfd::Cfd`] form, the normal form
//!   [`cfd::NormalCfd`] `(R: X → A, tp)` that all algorithms operate on, and
//!   [`cfd::Sigma`], a checked set of normalized CFDs over one schema;
//! * [`violation`] — the violation semantics of §3.1: per-tuple `vio(t)`
//!   counts, satisfaction checking `D |= Σ`, and incremental re-checking;
//! * [`satisfiability`] — the satisfiability analysis the framework assumes
//!   (§2, "in the sequel we consider satisfiable CFDs only"), via the
//!   single-tuple witness characterization;
//! * [`parser`] — a compact text syntax for rule files, used by examples.
//!
//! ## Null semantics (important)
//!
//! Following §3.1 of the paper: a tuple with a `null` among its `X`
//! attributes never matches a pattern (the CFD simply does not apply), while
//! on the right-hand side `null` compares equal to anything (simple SQL
//! semantics) — this is what makes `null` an always-available last-resort
//! repair and guarantees termination.

pub mod cfd;
pub mod parser;
pub mod pattern;
pub mod satisfiability;
pub mod violation;

pub use cfd::{Cfd, CfdId, NormalCfd, Sigma};
pub use pattern::{PatternRow, PatternValue};
pub use violation::{check, detect, detect_with_parts, Engine, EngineParts, ViolationReport};
