//! INCREPAIR on a relation wider than 128 attributes: the one-shot
//! `inc_repair`, a resident `DatasetHandle::insert` and one stream window
//! each repair a violating arrival of a 130-attribute relation under the
//! FD `a0 → a129`, and the result satisfies Σ.

use cfdclean::cfd::parser::parse_rules;
use cfdclean::cfd::{check, Sigma};
use cfdclean::model::{csv, Relation, Tuple, ValuePool};
use cfdclean::repair::{inc_repair, IncConfig, Ordering};
use cfdclean::{DatasetHandle, StreamConfig};

const ARITY: usize = 130;
const RULES: &str = "wide: [a0] -> [a129]\n";

/// One CSV row: key `k{key}`, value `v{value}` in the last column, and a
/// filler cell per column in between.
fn row(key: usize, value: &str) -> String {
    let mut cells = vec![format!("k{key}")];
    cells.extend((1..ARITY - 1).map(|a| format!("c{a}")));
    cells.push(value.to_string());
    cells.join(",")
}

fn header() -> String {
    (0..ARITY)
        .map(|a| format!("a{a}"))
        .collect::<Vec<_>>()
        .join(",")
}

/// A clean base of four keys, each with its own value.
fn base_csv() -> String {
    let rows: Vec<String> = (0..4).map(|k| row(k, &format!("v{k}"))).collect();
    format!("{}\n{}\n", header(), rows.join("\n"))
}

/// An arrival whose key `k1` already maps to `v1`: it violates the FD.
fn dirty_row() -> String {
    row(1, "v9")
}

fn parse(csv_text: &[u8]) -> Relation {
    csv::read_relation_in("wide", &mut &*csv_text, ValuePool::new_handle()).unwrap()
}

fn sigma_for(rel: &Relation) -> Sigma {
    let cfds = parse_rules(rel.schema(), RULES).unwrap();
    Sigma::normalize_in(rel.schema().clone(), cfds, rel.pool()).unwrap()
}

#[test]
fn one_shot_inc_repair_handles_130_attributes() {
    let base = parse(base_csv().as_bytes());
    assert_eq!(base.schema().arity(), ARITY);
    let sigma = sigma_for(&base);
    assert!(check(&base, &sigma));
    let delta = vec![Tuple::new_in(dirty_row().split(','), base.pool())];
    for ordering in [Ordering::Violations, Ordering::Linear, Ordering::Weight] {
        let config = IncConfig {
            ordering,
            ..IncConfig::default()
        };
        let out = inc_repair(&base, &delta, &sigma, config).unwrap();
        assert!(check(&out.repair, &sigma), "{ordering:?}");
        assert_eq!(out.stats.modified, 1, "{ordering:?}");
    }
}

#[test]
fn resident_insert_handles_130_attributes() {
    let mut handle = DatasetHandle::from_csv("wide", base_csv().as_bytes()).unwrap();
    handle.bind_rules(RULES, "rules").unwrap();
    let updates = format!("{}\n{}\n", header(), dirty_row());
    for k in 1..=2 {
        let run = handle
            .insert(updates.as_bytes(), None, Ordering::Violations, k)
            .unwrap();
        assert_eq!(run.modified, 1, "k = {k}");
        let merged = parse(&run.csv);
        assert_eq!(merged.len(), 5, "k = {k}");
        assert!(check(&merged, &sigma_for(&merged)), "k = {k}");
    }
}

#[test]
fn stream_window_handles_130_attributes() {
    let mut handle = DatasetHandle::from_csv("wide", base_csv().as_bytes()).unwrap();
    handle.bind_rules(RULES, "rules").unwrap();
    handle.open_stream(StreamConfig::tumbling(10)).unwrap();
    let events = format!("i 1 {}\ni 2 {}\n", dirty_row(), row(7, "v7"));
    assert_eq!(handle.stream_feed(&events).unwrap(), 2);
    let windows = handle.stream_advance(10).unwrap();
    assert_eq!(windows.len(), 1);
    assert_eq!(windows[0].inserted.len(), 2);
    let stream = handle.stream().unwrap();
    assert_eq!(stream.relation().len(), 6);
    assert!(check(stream.relation(), handle.sigma().unwrap()));
}
