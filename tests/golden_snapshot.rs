//! Golden pin of the persistence layer over the paper's §2 running
//! example.
//!
//! The `cust` relation's snapshot (dictionary + columnar segments +
//! embedded rules) and the batch repair's id-level edit log are
//! committed as binary fixtures under `tests/fixtures/`. The snapshot
//! encoding is canonical — independent of pool history — so these files
//! must reproduce byte for byte in every process. The test also pins the
//! end-to-end persistence contract: snapshot load → repair equals the
//! committed `cust_repaired.csv`, and snapshot + edit log replays to the
//! same bytes without running the repair at all.
//!
//! Regenerate deliberately with:
//!
//! ```text
//! GOLDEN_UPDATE=1 cargo test --test golden_snapshot
//! ```

use std::path::Path;

use cfdclean::model::csv::{read_relation_in, read_weights, write_relation};
use cfdclean::model::snapshot::{
    edit_log_to_vec, read_edit_log_in, read_snapshot, snapshot_info, snapshot_to_vec,
};
use cfdclean::model::{Relation, Schema, ValuePool};
use cfdclean::repair::{batch_repair, BatchConfig};

const FIXTURES: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures");

fn fixture_path(name: &str) -> std::path::PathBuf {
    Path::new(FIXTURES).join(name)
}

fn schema() -> Schema {
    Schema::new(
        "cust",
        &["id", "name", "PR", "AC", "PN", "STR", "CT", "ST", "zip"],
    )
    .unwrap()
}

fn load_dirty() -> Relation {
    let data = std::fs::read(fixture_path("cust_dirty.csv")).expect("fixture cust_dirty.csv");
    let mut rel = read_relation_in("cust", &mut data.as_slice(), ValuePool::new_handle())
        .expect("fixture parses");
    assert_eq!(rel.schema().arity(), schema().arity());
    let weights =
        std::fs::read(fixture_path("cust_weights.csv")).expect("fixture cust_weights.csv");
    read_weights(&mut rel, &mut weights.as_slice()).expect("fixture weights parse");
    rel
}

fn rules_text() -> String {
    std::fs::read_to_string(fixture_path("cust_rules.txt")).expect("fixture cust_rules.txt")
}

fn check_or_update_bytes(name: &str, actual: &[u8]) {
    let path = fixture_path(name);
    // Regenerating the fixtures is a switch of this test, not of the
    // program: it changes no program output, so the ban on environment
    // reads does not apply.
    #[allow(clippy::disallowed_methods)]
    let update = std::env::var_os("GOLDEN_UPDATE").is_some();
    if update {
        std::fs::write(&path, actual).expect("write fixture");
        return;
    }
    let expected = std::fs::read(&path)
        .unwrap_or_else(|e| panic!("fixture {name} unreadable ({e}); run with GOLDEN_UPDATE=1"));
    assert_eq!(
        actual,
        &expected[..],
        "persisted bytes diverged from fixture {name}; \
         if the format change is intentional, regenerate with GOLDEN_UPDATE=1 \
         and bump FORMAT_VERSION"
    );
}

#[test]
fn golden_snapshot_and_edit_log_are_pinned() {
    let dirty = load_dirty();
    let rules = rules_text();

    // Stage 1: the snapshot bytes are canonical and pinned. Any change
    // here is an on-disk format change and must bump FORMAT_VERSION.
    let snap_bytes = snapshot_to_vec(&dirty, Some(&rules));
    check_or_update_bytes("cust_snapshot.cfds", &snap_bytes);

    // Stage 2: the committed snapshot loads to exactly the CSV-loaded
    // relation, rules included.
    let committed = std::fs::read(fixture_path("cust_snapshot.cfds")).expect("snapshot fixture");
    let info = snapshot_info(&committed).expect("fixture info");
    assert_eq!(info.relation, "cust");
    assert!(info.has_rules);
    let loaded = read_snapshot(&committed).expect("fixture snapshot loads");
    assert_eq!(loaded.rules.as_deref(), Some(rules.as_str()));
    assert_eq!(loaded.relation.len(), dirty.len());
    for (id, t) in dirty.iter() {
        let l = loaded.relation.tuple(id).expect("same id space");
        for a in dirty.schema().attr_ids() {
            assert_eq!(t.id(a), l.id(a), "{id} {a} value diverged after load");
            assert_eq!(
                t.weight(a).to_bits(),
                l.weight(a).to_bits(),
                "{id} {a} weight diverged after load"
            );
        }
    }

    // Stage 3: snapshot load → repair equals the committed repair of the
    // CSV path (`cust_repaired.csv`, pinned by golden_running_example).
    let cfds = cfdclean::cfd::parser::parse_rules(loaded.relation.schema(), &rules)
        .expect("embedded rules parse");
    // The snapshot loads into its own pool, so the rules' pattern
    // constants must be interned there too.
    let sigma = cfdclean::cfd::Sigma::normalize_in(
        loaded.relation.schema().clone(),
        cfds,
        loaded.relation.pool(),
    )
    .expect("embedded rules normalize");
    let out = batch_repair(&loaded.relation, &sigma, BatchConfig::default()).unwrap();
    let mut repaired_csv = Vec::new();
    write_relation(&out.repair, &mut repaired_csv).unwrap();
    let expected = std::fs::read(fixture_path("cust_repaired.csv")).expect("repair fixture");
    assert_eq!(
        repaired_csv, expected,
        "snapshot-load repair diverged from the CSV-load repair fixture"
    );

    // Stage 4: the repair's edit log is pinned, and snapshot + edit log
    // replays to the same repair without running BATCHREPAIR.
    let log = out
        .edit_log(&loaded.relation)
        .expect("repair preserves ids");
    let log_bytes = edit_log_to_vec(
        &log,
        "cust",
        loaded.relation.schema().arity(),
        loaded.relation.pool(),
    );
    check_or_update_bytes("cust_repair.cfde", &log_bytes);
    let committed_log = std::fs::read(fixture_path("cust_repair.cfde")).expect("edit-log fixture");
    let mut replayed = read_snapshot(&committed).expect("loads again").relation;
    let parsed =
        read_edit_log_in(&committed_log, replayed.pool()).expect("fixture edit log parses");
    parsed.log.apply(&mut replayed).expect("log replays");
    let mut replayed_csv = Vec::new();
    write_relation(&replayed, &mut replayed_csv).unwrap();
    assert_eq!(
        replayed_csv, expected,
        "snapshot + edit log diverged from the repair fixture"
    );
}
