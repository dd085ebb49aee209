//! The group census both repair algorithms read their variable-CFD
//! decisions off, re-exported from [`cfd_cfd::census`], where it lives as
//! the variable-CFD group index of the detection parts: detection,
//! `BATCHREPAIR` and `INCREPAIR` share one census per set of parts.
//!
//! The module keeps its `shard` path because `perfbench` imports
//! [`variable_shapes`] and [`GroupCensus`] from it.

pub use cfd_cfd::census::{variable_shapes, GroupCensus};
