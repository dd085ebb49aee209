//! # cfd-sampling — statistical accuracy guarantees for repairs
//!
//! The third module of the paper's cleaning framework (§6, Fig. 3): after
//! `BATCHREPAIR`/`INCREPAIR` produce a *consistent* repair, this crate
//! certifies it is *accurate* — `|dif(Repr, Dopt)|/|Dopt| ≤ ε` with
//! confidence δ — without asking a human to inspect every tuple:
//!
//! * [`reservoir`] — Vitter's one-pass constant-space reservoir sampling
//!   (the paper's "widely used algorithm that scans the data in one pass
//!   and uses constant space");
//! * [`stratified`] — the stratified sampler: tuples are partitioned into
//!   strata by how suspicious they are (violation count or repair cost of
//!   the originating tuple), and more samples are drawn from more
//!   suspicious strata;
//! * [`stats`] — the one-sided z-test on the weighted sample inaccuracy
//!   rate, the normal critical values, and the Chernoff-bound sample-size
//!   formula of Theorem 6.1;
//! * [`session`] — the interactive loop: draw sample → oracle (domain
//!   expert) marks inaccurate tuples → accept the repair or feed the
//!   corrections back and re-repair.

#![forbid(unsafe_code)]

pub mod reservoir;
pub mod session;
pub mod stats;
pub mod stratified;

pub use session::{certify, CertifyOutcome, GroundTruthOracle, Oracle, SamplingConfig};
pub use stats::{chernoff_sample_size, min_sample_for_acceptance, z_critical, z_test_accept};
pub use stratified::{StratifiedPlan, StratifiedSample, Stratum};
