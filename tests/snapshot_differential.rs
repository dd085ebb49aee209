//! Snapshot / edit-log differential conformance suite.
//!
//! The persistence layer swaps the ingest path under the repair
//! pipeline; this harness is the proof that nothing above it can tell.
//! 300 seeded trials, two families:
//!
//! * **Round-trip + repair identity** (150 trials): a random weighted,
//!   tombstoned relation is snapshotted and re-loaded; the loaded
//!   relation must be cell-, weight-, and liveness-identical, re-saving
//!   it must reproduce the snapshot byte for byte (canonical encoding),
//!   and `BATCHREPAIR` (both pickers) must produce bit-identical repairs
//!   and cost bits on the original and the loaded copy. The repair's
//!   [`EditLog`] is then serialized, parsed back, and replayed onto the
//!   loaded copy — which must land exactly on the repair.
//! * **CSV vs snapshot ingest** (150 trials): the same dirty data is
//!   ingested once through CSV (per-cell interning) and once through
//!   snapshot save → load (dictionary install + remap); repairs of the
//!   two — batch and the §5.3 incremental bridge — must be
//!   bit-identical, including cost bits.
//!
//! Seeded trials via `cfd_prng`; failures reproduce exactly from the
//! seed.

use cfd_prng::{trials, ChaCha8Rng, Rng};

use cfdclean::cfd::pattern::{PatternRow, PatternValue};
use cfdclean::cfd::{Cfd, Sigma};
use cfdclean::model::csv::{read_relation_in, write_relation};
use cfdclean::model::snapshot::{
    edit_log_to_vec, read_edit_log_in, read_snapshot, snapshot_to_vec,
};
use cfdclean::model::ValuePool;
use cfdclean::model::{AttrId, Catalog, Relation, Schema, Tuple, TupleId, Value};
use cfdclean::repair::{
    batch_repair, repair_via_incremental, BatchConfig, IncConfig, PickStrategy,
};

const ARITY: usize = 4;

fn schema() -> Schema {
    Schema::new("diff", &["a", "b", "c", "d"]).unwrap()
}

/// A small value universe keeps collision (and thus violation) rates high.
fn rand_value(rng: &mut ChaCha8Rng) -> Value {
    if rng.gen_range(0..6u32) == 0 {
        Value::Null
    } else {
        Value::str(format!("v{}", rng.gen_range(0..6u32)))
    }
}

fn rand_tuple(rng: &mut ChaCha8Rng, weights: bool, pool: &ValuePool) -> Tuple {
    let values: Vec<Value> = (0..ARITY).map(|_| rand_value(rng)).collect();
    let mut t = Tuple::new_in(values, pool);
    if weights {
        for a in 0..ARITY {
            t.set_weight(AttrId(a as u16), (rng.gen_range(0..=10u32) as f64) / 10.0);
        }
    }
    t
}

/// An empty relation on a fresh pool.
fn empty(schema: Schema) -> Relation {
    Relation::new_in(schema, ValuePool::new_handle())
}

/// Random CFDs mixing a wildcard FD row with constant rows, like the
/// paper's tableaus. Returned un-normalized so each relation under test
/// can normalize them into its *own* pool (snapshot loads get a fresh
/// pool per load).
fn rand_cfds(rng: &mut ChaCha8Rng) -> Vec<Cfd> {
    let n = rng.gen_range(1..=3usize);
    let mut cfds = Vec::new();
    for i in 0..n {
        let l = rng.gen_range(0..ARITY);
        let mut r = rng.gen_range(0..ARITY);
        if l == r {
            r = (r + 1) % ARITY;
        }
        let pat = |rng: &mut ChaCha8Rng| {
            if rng.gen_bool(0.5) {
                PatternValue::Const(Value::str(format!("v{}", rng.gen_range(0..4u32))))
            } else {
                PatternValue::Wildcard
            }
        };
        let row = PatternRow::new(vec![pat(rng)], vec![pat(rng)]);
        cfds.push(
            Cfd::new(
                &format!("phi{i}"),
                vec![AttrId(l as u16)],
                vec![AttrId(r as u16)],
                vec![row],
            )
            .unwrap(),
        );
    }
    cfds
}

/// Normalize `cfds` against `rel`'s schema into `rel`'s pool.
fn sigma_for(rel: &Relation, cfds: &[Cfd]) -> Sigma {
    Sigma::normalize_in(rel.schema().clone(), cfds.to_vec(), rel.pool()).unwrap()
}

/// Bit-level equality of two relations through the public API: same id
/// space, same liveness, same cell ids, same weight bits.
fn assert_same_contents(a: &Relation, b: &Relation, ctx: &str) {
    assert_eq!(a.len(), b.len(), "{ctx}: live count");
    assert_eq!(a.slot_count(), b.slot_count(), "{ctx}: slot count");
    for slot in 0..a.slot_count() {
        let id = TupleId(slot as u32);
        match (a.tuple(id), b.tuple(id)) {
            (None, None) => {}
            (Some(x), Some(y)) => {
                for i in 0..ARITY {
                    let attr = AttrId(i as u16);
                    assert_eq!(x.value(attr), y.value(attr), "{ctx}: {id} attr {i} value");
                    assert_eq!(
                        x.weight(attr).to_bits(),
                        y.weight(attr).to_bits(),
                        "{ctx}: {id} attr {i} weight"
                    );
                }
            }
            (x, y) => panic!("{ctx}: liveness of {id} diverged ({x:?} vs {y:?})"),
        }
    }
}

fn rand_pick(rng: &mut ChaCha8Rng) -> PickStrategy {
    if rng.gen_bool(0.5) {
        PickStrategy::GlobalBest
    } else {
        PickStrategy::DependencyOrdered
    }
}

#[test]
fn differential_snapshot_round_trip_and_repair() {
    trials(150, 0x5AA9_D1FF, |rng| {
        let mut rel = empty(schema());
        for _ in 0..rng.gen_range(2..14usize) {
            rel.insert(rand_tuple(rng, true, rel.pool())).unwrap();
        }
        // A few tombstones so the persisted id space is non-dense.
        for _ in 0..rng.gen_range(0..3usize) {
            let id = TupleId(rng.gen_range(0..rel.slot_count() as u32));
            let _ = rel.delete(id);
        }
        // Move onto a pool that counts only the live cells (the deleted
        // rows were counted when they were built), matching what any
        // ingest path produces.
        let rel = rel.rekey_into(&ValuePool::new_handle());
        let cfds = rand_cfds(rng);

        // Round trip, including canonical re-encoding.
        let bytes = snapshot_to_vec(&rel, Some("embedded rule text"));
        let loaded = read_snapshot(&bytes).expect("valid snapshot loads");
        assert_eq!(loaded.rules.as_deref(), Some("embedded rule text"));
        assert_same_contents(&rel, &loaded.relation, "round trip");
        assert_eq!(
            bytes,
            snapshot_to_vec(&loaded.relation, Some("embedded rule text")),
            "re-saving the loaded relation must be byte-identical"
        );

        // The loaded relation lives in its own pool, so each side
        // normalizes Σ into its own dictionary: repairs must still be
        // bit-identical, stats and cost bits included.
        let config = BatchConfig {
            pick: rand_pick(rng),
            ..Default::default()
        };
        let out_a = batch_repair(&rel, &sigma_for(&rel, &cfds), config.clone()).unwrap();
        let out_b = batch_repair(
            &loaded.relation,
            &sigma_for(&loaded.relation, &cfds),
            config,
        )
        .unwrap();
        assert_same_contents(&out_a.repair, &out_b.repair, "batch repair");
        assert_eq!(out_a.stats, out_b.stats, "batch stats");
        assert_eq!(
            out_a.stats.cost.to_bits(),
            out_b.stats.cost.to_bits(),
            "cost bits"
        );

        // The repair as a persisted edit log: snapshot + log replays to
        // the byte-exact repair.
        let log = out_a.edit_log(&rel).expect("repair preserves ids");
        let log_bytes = edit_log_to_vec(&log, rel.schema().name(), ARITY, rel.pool());
        // Round trip through the pool the log was derived in: identical
        // ids; then re-read into the snapshot's pool to replay there.
        let parsed = read_edit_log_in(&log_bytes, rel.pool()).expect("valid log parses");
        assert_eq!(parsed.log, log, "edit log round trip");
        let mut replayed = loaded.relation.clone();
        let parsed_b =
            read_edit_log_in(&log_bytes, replayed.pool()).expect("valid log parses again");
        parsed_b.log.apply(&mut replayed).expect("log replays");
        assert_same_contents(&out_a.repair, &replayed, "snapshot + edit log");
    });
}

#[test]
fn differential_csv_vs_snapshot_ingest() {
    trials(150, 0xC5F_5AA9, |rng| {
        // Build the dirty data, render it to CSV text — the common
        // ancestor of both ingest paths. (CSV carries no weights or
        // tombstones, so this family exercises the unweighted path.)
        let mut built = empty(schema());
        for _ in 0..rng.gen_range(2..14usize) {
            built.insert(rand_tuple(rng, false, built.pool())).unwrap();
        }
        let cfds = rand_cfds(rng);
        let mut csv = Vec::new();
        write_relation(&built, &mut csv).unwrap();

        // Path A: CSV load (per-cell interning, fresh pool per load).
        let via_csv =
            read_relation_in("diff", &mut csv.as_slice(), ValuePool::new_handle()).unwrap();
        // Path B: snapshot save → load (dictionary install + remap,
        // into a pool of its own).
        let via_snap = read_snapshot(&snapshot_to_vec(&via_csv, None))
            .expect("valid snapshot loads")
            .relation;
        assert_same_contents(&via_csv, &via_snap, "ingest");
        let sigma_csv = sigma_for(&via_csv, &cfds);
        let sigma_snap = sigma_for(&via_snap, &cfds);

        let config = BatchConfig {
            pick: rand_pick(rng),
            ..Default::default()
        };
        let out_csv = batch_repair(&via_csv, &sigma_csv, config.clone()).unwrap();
        let out_snap = batch_repair(&via_snap, &sigma_snap, config).unwrap();
        assert_same_contents(&out_csv.repair, &out_snap.repair, "batch repair");
        assert_eq!(out_csv.stats, out_snap.stats, "batch stats");
        assert_eq!(
            out_csv.stats.cost.to_bits(),
            out_snap.stats.cost.to_bits(),
            "cost bits"
        );

        // The §5.3 incremental bridge must be ingest-blind too.
        let inc_csv = repair_via_incremental(&via_csv, &sigma_csv, IncConfig::default()).unwrap();
        let inc_snap =
            repair_via_incremental(&via_snap, &sigma_snap, IncConfig::default()).unwrap();
        assert_same_contents(&inc_csv.repair, &inc_snap.repair, "incremental repair");
        assert_eq!(inc_csv.reinserted, inc_snap.reinserted, "reinserted ids");
        assert_eq!(inc_csv.stats, inc_snap.stats, "incremental stats");

        // And the incremental repair's edit log replays on the snapshot
        // side as well.
        let log = inc_csv.edit_log(&via_csv).expect("§5.3 preserves ids");
        let log_bytes = edit_log_to_vec(&log, "diff", ARITY, via_csv.pool());
        let mut replayed = via_snap.clone();
        let parsed = read_edit_log_in(&log_bytes, replayed.pool()).expect("valid log parses");
        parsed.log.apply(&mut replayed).expect("log replays");
        assert_same_contents(&inc_csv.repair, &replayed, "snapshot + inc edit log");
    });
}

/// A catalog open reproduces the relation that was saved: 300 seeded
/// trials where a random weighted, tombstoned relation is saved to a
/// catalog file and opened back through [`Catalog::load`]. The opened
/// relation must be cell-, weight-, and liveness-identical to the saved
/// one, re-save byte-identically, and produce bit-identical repairs
/// (stats and cost bits included). Two loads of the same file are
/// independent: a cell write to one leaves the other equal to the file.
#[test]
fn differential_catalog_open_vs_saved_relation() {
    let dir = std::env::temp_dir().join(format!("cfd-diff-catalog-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cat = Catalog::open(&dir).unwrap();
    trials(300, 0x3A99_ED0F, |rng| {
        let mut rel = empty(schema());
        for _ in 0..rng.gen_range(2..14usize) {
            let weighted = rng.gen_bool(0.5);
            rel.insert(rand_tuple(rng, weighted, rel.pool())).unwrap();
        }
        for _ in 0..rng.gen_range(0..3usize) {
            let id = TupleId(rng.gen_range(0..rel.slot_count() as u32));
            let _ = rel.delete(id);
        }
        let rel = rel.rekey_into(&ValuePool::new_handle());
        let cfds = rand_cfds(rng);
        let bytes = std::fs::read(cat.save("trial", &rel, None).unwrap()).unwrap();

        let opened = cat.load("trial").expect("catalog load").relation;
        assert_same_contents(&rel, &opened, "opened vs saved contents");

        // Re-saving the opened relation must reproduce the file — the
        // canonical-encoding proof.
        assert_eq!(
            bytes,
            snapshot_to_vec(&opened, None),
            "re-saving the opened relation must be byte-identical"
        );

        // Bit-identical repairs of the saved relation and the opened one.
        let config = BatchConfig {
            pick: rand_pick(rng),
            ..Default::default()
        };
        let out_saved = batch_repair(&rel, &sigma_for(&rel, &cfds), config.clone()).unwrap();
        let out_opened = batch_repair(&opened, &sigma_for(&opened, &cfds), config).unwrap();
        assert_same_contents(&out_saved.repair, &out_opened.repair, "opened batch repair");
        assert_eq!(out_saved.stats, out_opened.stats, "opened batch stats");
        assert_eq!(
            out_saved.stats.cost.to_bits(),
            out_opened.stats.cost.to_bits(),
            "opened cost bits"
        );

        let mut first = cat.load("trial").expect("catalog load").relation;
        let second = cat.load("trial").expect("catalog load").relation;
        let first_id = first.ids().next();
        if let Some(id) = first_id {
            let attr = AttrId(rng.gen_range(0..ARITY as u64) as u16);
            first.set_value(id, attr, Value::str("WRITE")).unwrap();
        }
        assert_eq!(
            snapshot_to_vec(&second, None),
            bytes,
            "a write to one load must leave its sibling equal to the file"
        );
    });
    let _ = std::fs::remove_dir_all(&dir);
}

/// Degenerate shapes survive persistence: empty relations, all-null
/// rows, arity-0 schemas, and relations that are pure tombstones.
#[test]
fn degenerate_snapshots_round_trip() {
    // empty, arity 4
    let nothing = empty(schema());
    let loaded = read_snapshot(&snapshot_to_vec(&nothing, None)).unwrap();
    assert_same_contents(&nothing, &loaded.relation, "empty");

    // arity 0 — empty, and with empty-tuple inserts + a tombstone (an
    // arity-0 relation still carries slots; the snapshot must round-trip
    // them through the explicit slot count, not infer 0 from no columns)
    let zero = empty(Schema::new("zero", &[] as &[&str]).unwrap());
    let loaded = read_snapshot(&snapshot_to_vec(&zero, None)).unwrap();
    assert_eq!(loaded.relation.schema().arity(), 0);
    assert_eq!(loaded.relation.len(), 0);
    let mut zero_rows = empty(Schema::new("zero", &[] as &[&str]).unwrap());
    zero_rows.insert(Tuple::from_ids(vec![])).unwrap();
    zero_rows.insert(Tuple::from_ids(vec![])).unwrap();
    zero_rows.delete(TupleId(0)).unwrap();
    let loaded = read_snapshot(&snapshot_to_vec(&zero_rows, None)).unwrap();
    assert_eq!(loaded.relation.slot_count(), 2);
    assert_eq!(loaded.relation.len(), 1);
    assert!(!loaded.relation.is_live(TupleId(0)));
    assert!(loaded.relation.is_live(TupleId(1)));

    // all-null rows + full tombstoning
    let mut nulls = empty(schema());
    for _ in 0..3 {
        nulls
            .insert(Tuple::from_ids(vec![cfdclean::model::NULL_ID; ARITY]))
            .unwrap();
    }
    nulls.delete(TupleId(0)).unwrap();
    nulls.delete(TupleId(1)).unwrap();
    nulls.delete(TupleId(2)).unwrap();
    let loaded = read_snapshot(&snapshot_to_vec(&nulls, None)).unwrap();
    assert_same_contents(&nulls, &loaded.relation, "all-null tombstoned");
    assert_eq!(loaded.relation.slot_count(), 3);
    assert_eq!(loaded.relation.len(), 0);
}
