//! The `cfdclean` subcommands. Each module exposes `run(&Args, &mut dyn
//! Write)` plus a `USAGE` string, so integration tests can drive commands
//! without spawning processes.

pub mod catalog;
pub mod certify;
pub mod client;
pub mod detect;
pub mod generate;
pub mod insert;
pub mod repair;
pub mod serve;
pub mod snapshot;
pub mod stream;
