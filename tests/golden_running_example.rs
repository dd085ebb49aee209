//! Golden pin of the paper's §2 running example, end to end.
//!
//! The `cust`/`order` relation of Fig. 1, its CFDs, the detected
//! violations, and the `BATCHREPAIR` output are committed as fixture
//! files under `tests/fixtures/`. Storage and pipeline refactors must
//! reproduce the fixtures **byte for byte** — any silent semantic drift
//! in the pipeline shows up as a fixture diff.
//!
//! Regenerate deliberately with:
//!
//! ```text
//! GOLDEN_UPDATE=1 cargo test --test golden_running_example
//! ```

use std::fmt::Write as _;
use std::path::Path;

use cfdclean::cfd::parser::parse_rules;
use cfdclean::cfd::violation::{detect, ViolationReport};
use cfdclean::cfd::{CfdId, Sigma};
use cfdclean::model::csv::{read_relation_in, read_weights, write_relation};
use cfdclean::model::{Relation, Schema, ValuePool};
use cfdclean::repair::batch_repair;

const FIXTURES: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures");

fn schema() -> Schema {
    Schema::new(
        "cust",
        &["id", "name", "PR", "AC", "PN", "STR", "CT", "ST", "zip"],
    )
    .unwrap()
}

/// The fixture rules, bound into `rel`'s pool.
fn sigma(rel: &Relation) -> Sigma {
    let s = schema();
    let rules = std::fs::read_to_string(Path::new(FIXTURES).join("cust_rules.txt"))
        .expect("fixture cust_rules.txt");
    let cfds = parse_rules(&s, &rules).expect("fixture rules parse");
    Sigma::normalize_in(s, cfds, rel.pool()).expect("fixture rules normalize")
}

/// The dirty `cust` relation, loaded from the committed CSV fixtures.
fn load_dirty() -> Relation {
    let data =
        std::fs::read(Path::new(FIXTURES).join("cust_dirty.csv")).expect("fixture cust_dirty.csv");
    let mut rel = read_relation_in("cust", &mut data.as_slice(), ValuePool::new_handle())
        .expect("fixture parses");
    let weights = std::fs::read(Path::new(FIXTURES).join("cust_weights.csv"))
        .expect("fixture cust_weights.csv");
    read_weights(&mut rel, &mut weights.as_slice()).expect("fixture weights parse");
    rel
}

/// Stable text rendering of a violation report.
fn render_report(report: &ViolationReport, sigma: &Sigma) -> String {
    let mut out = String::new();
    writeln!(out, "total={}", report.total).unwrap();
    for id in report.dirty_tuples() {
        writeln!(out, "{id} vio={}", report.vio(id)).unwrap();
    }
    for (i, ids) in report.per_cfd.iter().enumerate() {
        if ids.is_empty() {
            continue;
        }
        let n = sigma.get(CfdId(i as u32));
        let list: Vec<String> = ids.iter().map(|t| t.to_string()).collect();
        writeln!(
            out,
            "{}:{} -> {}",
            n.source_name(),
            n.source_row(),
            list.join(",")
        )
        .unwrap();
    }
    out
}

fn check_or_update(name: &str, actual: &str) {
    let path = Path::new(FIXTURES).join(name);
    // Regenerating the fixtures is a switch of this test, not of the
    // program: it changes no program output, so the ban on environment
    // reads does not apply.
    #[allow(clippy::disallowed_methods)]
    let update = std::env::var_os("GOLDEN_UPDATE").is_some();
    if update {
        std::fs::write(&path, actual).expect("write fixture");
        return;
    }
    let expected = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("fixture {name} unreadable ({e}); run with GOLDEN_UPDATE=1"));
    assert_eq!(
        actual, expected,
        "pipeline output diverged from fixture {name}; \
         if the change is intentional, regenerate with GOLDEN_UPDATE=1"
    );
}

#[test]
fn golden_cust_pipeline_is_pinned() {
    let dirty = load_dirty();
    let sigma = sigma(&dirty);

    // Stage 1: the dirty relation itself round-trips the fixture.
    let mut dirty_csv = Vec::new();
    write_relation(&dirty, &mut dirty_csv).unwrap();
    check_or_update("cust_dirty.csv", std::str::from_utf8(&dirty_csv).unwrap());

    // Stage 2: detected violations.
    let report = detect(&dirty, &sigma);
    assert!(!report.is_clean(), "fixture data must be dirty");
    check_or_update("cust_violations.txt", &render_report(&report, &sigma));

    // Stage 3: the batch repair.
    let out = batch_repair(&dirty, &sigma).unwrap();
    assert!(cfdclean::cfd::check(&out.repair, &sigma));
    let mut repaired_csv = Vec::new();
    write_relation(&out.repair, &mut repaired_csv).unwrap();
    check_or_update(
        "cust_repaired.csv",
        std::str::from_utf8(&repaired_csv).unwrap(),
    );
}
