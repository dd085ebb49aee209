//! `cfdclean detect` — report CFD violations in a CSV file.
//!
//! Routed through the [`cfdclean::Session`] facade: the command builds a
//! one-shot [`DatasetHandle`] and prints its
//! [`detect_report`](DatasetHandle::detect_report) — the same rendering
//! the resident `cfd-server` daemon returns, so the two front ends are
//! byte-identical by construction.

use std::io::Write;
use std::path::Path;

use cfdclean::DatasetHandle;

use crate::args::Args;
use crate::io::{load_relation, read_rules_text, CliError};

pub const USAGE: &str = "cfdclean detect --data D.csv --rules R.cfd [--limit N]
  Report which tuples violate which CFDs.
    --data     CSV file (header = attribute names)
    --rules    CFD rule file (see `cfdclean help rules`)
    --limit    max violating tuples to list per CFD (default 5)";

pub fn run(args: &Args, out: &mut dyn Write) -> Result<(), CliError> {
    let data = args.require("data")?.to_string();
    let rules = args.require("rules")?.to_string();
    let limit: usize = args.get_parsed("limit", 5)?;
    args.reject_unknown()?;

    let rel = load_relation(Path::new(&data))?;
    let name = rel.schema().name().to_string();
    let mut handle = DatasetHandle::from_relation(name, rel);
    let rules_text = read_rules_text(Path::new(&rules))?;
    handle.bind_rules(&rules_text, &rules)?;
    write!(out, "{}", handle.detect_report(limit)?)?;
    Ok(())
}
