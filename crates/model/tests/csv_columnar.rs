//! CSV round-trips under the columnar bulk-install import path.
//!
//! `read_relation_in` deduplicates each column's fields, installs the
//! distinct values with their counts in one `ValuePool::install_column`
//! call per column, and builds the `ColumnStore` directly. These tests
//! pin the tricky encodings — quoting, embedded separators and
//! newline-free quotes, null markers, empty strings, integer tags —
//! through import → export → import, plus weight columns through their
//! own round trip.

use cfd_model::csv::{read_relation_in, read_weights, write_relation, write_weights};
use cfd_model::{AttrId, ModelError, Relation, Schema, Tuple, TupleId, Value, ValuePool};

/// Read `input` into a fresh pool.
fn read(name: &str, input: &[u8]) -> Result<Relation, ModelError> {
    read_relation_in(name, &mut &*input, ValuePool::new_handle())
}

fn round_trip(rel: &Relation) -> Relation {
    let mut buf = Vec::new();
    write_relation(rel, &mut buf).unwrap();
    read(rel.schema().name(), &buf).unwrap()
}

fn assert_identical(a: &Relation, b: &Relation) {
    assert_eq!(a.len(), b.len());
    for (id, t) in a.iter() {
        let u = b.tuple(id).expect("same liveness");
        for i in 0..a.schema().arity() {
            let attr = AttrId(i as u16);
            assert_eq!(t.value(attr), u.value(attr), "{id} attr {i}");
        }
    }
}

#[test]
fn import_is_columnar_with_bulk_interned_columns() {
    let input = "a,b\nx,1\ny,2\n";
    let rel = read("r", input.as_bytes()).unwrap();
    // Columns are directly addressable after import.
    let col = rel.column(AttrId(0));
    assert_eq!(col.len(), 2);
    assert_eq!(rel.pool().resolve(col[0]), Value::str("x"));
    assert_eq!(rel.pool().resolve(col[1]), Value::str("y"));
}

#[test]
fn quoting_and_embedded_separators_survive_two_round_trips() {
    let schema = Schema::new("q", &["a", "b"]).unwrap();
    let mut rel = Relation::new_in(schema, ValuePool::new_handle());
    for (a, b) in [
        ("plain", "x, y, z"),
        ("says \"hi\", eh", "comma,inside"),
        ("\"fully quoted\"", ",leading"),
        ("trailing,", "\"\""),
        ("commas,,doubled", "quote\"mid"),
    ] {
        rel.insert(Tuple::new_in([a, b], rel.pool())).unwrap();
    }
    let once = round_trip(&rel);
    assert_identical(&rel, &once);
    // Export of the imported relation must be byte-stable.
    let (mut first, mut second) = (Vec::new(), Vec::new());
    write_relation(&once, &mut first).unwrap();
    let twice = round_trip(&once);
    write_relation(&twice, &mut second).unwrap();
    assert_eq!(first, second, "second round trip must be the identity");
    assert_identical(&once, &twice);
}

#[test]
fn null_markers_and_empty_strings_stay_distinct() {
    let schema = Schema::new("n", &["a", "b", "c"]).unwrap();
    let mut rel = Relation::new_in(schema, ValuePool::new_handle());
    rel.insert(Tuple::new_in(
        vec![
            Value::Null,
            Value::str(""),
            Value::str("\\N"), // the literal two-character string, not null
        ],
        rel.pool(),
    ))
    .unwrap();
    rel.insert(Tuple::new_in(
        vec![Value::str("x"), Value::Null, Value::Null],
        rel.pool(),
    ))
    .unwrap();
    let back = round_trip(&rel);
    assert!(back.tuple(TupleId(0)).unwrap().is_null(AttrId(0)));
    assert_eq!(
        back.tuple(TupleId(0)).unwrap().value(AttrId(1)),
        Value::str("")
    );
    assert_eq!(
        back.tuple(TupleId(0)).unwrap().value(AttrId(2)),
        Value::str("\\N"),
        "a quoted \\N must stay a string"
    );
    assert!(back.tuple(TupleId(1)).unwrap().is_null(AttrId(1)));
    assert!(back.tuple(TupleId(1)).unwrap().is_null(AttrId(2)));
}

#[test]
fn integer_tags_round_trip_through_columns() {
    let schema = Schema::new("i", &["n", "s"]).unwrap();
    let mut rel = Relation::new_in(schema, ValuePool::new_handle());
    rel.insert(Tuple::new_in(
        vec![Value::int(212), Value::str("212")],
        rel.pool(),
    ))
    .unwrap();
    rel.insert(Tuple::new_in(
        vec![Value::int(-7), Value::str("#i:212")],
        rel.pool(),
    ))
    .unwrap();
    rel.insert(Tuple::new_in(
        vec![Value::int(0), Value::str("#i:a\"b")],
        rel.pool(),
    ))
    .unwrap();
    let back = round_trip(&rel);
    assert_eq!(
        back.tuple(TupleId(0)).unwrap().value(AttrId(0)),
        Value::int(212)
    );
    assert_eq!(
        back.tuple(TupleId(0)).unwrap().value(AttrId(1)),
        Value::str("212"),
        "string of digits must not become an int"
    );
    assert_eq!(
        back.tuple(TupleId(1)).unwrap().value(AttrId(0)),
        Value::int(-7)
    );
    assert_eq!(
        back.tuple(TupleId(1)).unwrap().value(AttrId(1)),
        Value::str("#i:212"),
        "a tagged-looking string must stay a string"
    );
    assert_eq!(
        back.tuple(TupleId(2)).unwrap().value(AttrId(1)),
        Value::str("#i:a\"b"),
        "forced quoting must still double embedded quotes"
    );
}

#[test]
fn weight_columns_round_trip_alongside_values() {
    let schema = Schema::new("w", &["a", "b"]).unwrap();
    let mut rel = Relation::new_in(schema, ValuePool::new_handle());
    rel.insert(Tuple::new_in(["x", "y"], rel.pool())).unwrap();
    rel.insert(Tuple::new_in(["u", "v"], rel.pool())).unwrap();
    rel.set_weights(TupleId(0), &[0.25, 1.0]).unwrap();
    rel.set_weights(TupleId(1), &[0.0, 0.125]).unwrap();

    let mut values = Vec::new();
    let mut weights = Vec::new();
    write_relation(&rel, &mut values).unwrap();
    write_weights(&rel, &mut weights).unwrap();

    let mut back = read("w", &values).unwrap();
    read_weights(&mut back, &mut weights.as_slice()).unwrap();
    assert_identical(&rel, &back);
    assert_eq!(back.weight_column(AttrId(0)), &[0.25, 0.0]);
    assert_eq!(back.weight_column(AttrId(1)), &[1.0, 0.125]);

    // ... and the whole pair survives a second export unchanged.
    let (mut v2, mut w2) = (Vec::new(), Vec::new());
    write_relation(&back, &mut v2).unwrap();
    write_weights(&back, &mut w2).unwrap();
    assert_eq!(values, v2);
    assert_eq!(weights, w2);
}

#[test]
fn tombstoned_relations_export_only_live_rows() {
    let schema = Schema::new("t", &["a"]).unwrap();
    let mut rel = Relation::new_in(schema, ValuePool::new_handle());
    rel.insert(Tuple::new_in(["keep1"], rel.pool())).unwrap();
    let dead = rel.insert(Tuple::new_in(["drop"], rel.pool())).unwrap();
    rel.insert(Tuple::new_in(["keep2"], rel.pool())).unwrap();
    rel.delete(dead).unwrap();
    let back = round_trip(&rel);
    assert_eq!(back.len(), 2);
    assert_eq!(
        back.tuple(TupleId(0)).unwrap().value(AttrId(0)),
        Value::str("keep1")
    );
    assert_eq!(
        back.tuple(TupleId(1)).unwrap().value(AttrId(0)),
        Value::str("keep2")
    );
}
