//! Corruption robustness of the snapshot and edit-log readers.
//!
//! Every byte of a snapshot file after the magic/version prefix is
//! covered by a segment checksum, and every length, count, and local id
//! is bounds-checked before use — so *any* single corrupted byte and
//! *any* truncation must surface as a typed [`SnapshotError`]: never a
//! panic, never an out-of-bounds allocation, and never a silently
//! mis-loaded relation. These seeded trials pin that contract by
//! exhaustive single-bit flips over small files plus randomized flip,
//! multi-byte-scramble, and truncation trials over larger ones.
//!
//! A second suite keeps every checksum valid and breaks one content rule
//! at a time, so the content checks themselves are exercised — through
//! the reader and through `snapshot_info`.
//!
//! (A flip in the magic or version bytes is caught by the direct
//! magic/version check; everything else lands in a checksummed region.
//! FNV-1a is not a formal error-detecting code, but these trials are
//! deterministic — any seed that found a colliding flip would fail
//! loudly here, not intermittently in production.)

use cfd_model::snapshot::{
    edit_log_to_vec, read_edit_log_in, read_snapshot, snapshot_info, snapshot_segments,
    snapshot_to_vec, LoadedEditLog, SnapshotError,
};
use cfd_model::{EditLog, Relation, Schema, Tuple, TupleId, Value, ValuePool};
use cfd_prng::{trials, Rng};

fn sample(rows: usize) -> Relation {
    let schema = Schema::new("orders", &["id", "city", "qty"]).unwrap();
    let mut r = Relation::new_in(schema, ValuePool::new_handle());
    for i in 0..rows {
        r.insert(Tuple::new_in(
            vec![
                Value::str(format!("id{i}")),
                Value::str(if i % 3 == 0 { "NYC" } else { "PHI" }),
                Value::int(i as i64 % 5),
            ],
            r.pool(),
        ))
        .unwrap();
    }
    if rows > 2 {
        r.delete(TupleId(1)).unwrap();
        r.set_weights(TupleId(0), &[0.5, 1.0, 0.25]).unwrap();
    }
    r
}

fn edit_log_bytes(r: &Relation) -> Vec<u8> {
    let mut repaired = r.clone();
    let id = r.ids().next().unwrap();
    repaired
        .set_value(id, cfd_model::AttrId(1), Value::str("BOS"))
        .unwrap();
    repaired
        .set_value(id, cfd_model::AttrId(2), Value::Null)
        .unwrap();
    let log = EditLog::between(r, &repaired).unwrap();
    edit_log_to_vec(&log, "orders", 3, r.pool())
}

/// The reader must reject `bytes` with a typed error. The `Err` match is
/// the whole point: a panic aborts the test, an `Ok` is a silent
/// mis-load.
fn assert_snapshot_rejected(bytes: &[u8], ctx: &str) {
    match read_snapshot(bytes) {
        Err(
            SnapshotError::NotASnapshot
            | SnapshotError::UnsupportedVersion(_)
            | SnapshotError::Truncated { .. }
            | SnapshotError::Checksum { .. }
            | SnapshotError::Corrupt { .. }
            | SnapshotError::Model(_),
        ) => {}
        Err(other) => panic!("{ctx}: unexpected error class {other:?}"),
        Ok(_) => panic!("{ctx}: corrupted snapshot loaded successfully"),
    }
    // `info` walks the same frames and must agree.
    assert!(snapshot_info(bytes).is_err(), "{ctx}: info accepted it");
    // The best-effort segment walker tolerates bad checksums (it exists
    // to *report* them) but must never panic, and structural damage
    // (truncation, bad magic, bad lengths) stays a typed error.
    let _ = snapshot_segments(bytes);
}

fn read_edit_log(bytes: &[u8]) -> Result<LoadedEditLog, SnapshotError> {
    read_edit_log_in(bytes, &ValuePool::new())
}

fn assert_edit_log_rejected(bytes: &[u8], ctx: &str) {
    match read_edit_log(bytes) {
        Err(
            SnapshotError::NotAnEditLog
            | SnapshotError::UnsupportedVersion(_)
            | SnapshotError::Truncated { .. }
            | SnapshotError::Checksum { .. }
            | SnapshotError::Corrupt { .. },
        ) => {}
        Err(other) => panic!("{ctx}: unexpected error class {other:?}"),
        Ok(_) => panic!("{ctx}: corrupted edit log parsed successfully"),
    }
}

#[test]
fn every_single_bit_flip_in_a_small_snapshot_is_rejected() {
    let bytes = snapshot_to_vec(&sample(4), Some("phi: [id] -> [city]"));
    assert!(read_snapshot(&bytes).is_ok(), "pristine file must load");
    for pos in 0..bytes.len() {
        for bit in 0..8 {
            let mut corrupt = bytes.clone();
            corrupt[pos] ^= 1 << bit;
            assert_snapshot_rejected(&corrupt, &format!("bit {bit} of byte {pos}"));
        }
    }
}

#[test]
fn every_truncation_of_a_small_snapshot_is_rejected() {
    let bytes = snapshot_to_vec(&sample(4), None);
    for len in 0..bytes.len() {
        assert_snapshot_rejected(&bytes[..len], &format!("truncated to {len} bytes"));
    }
    // Trailing garbage is corruption too.
    let mut padded = bytes.clone();
    padded.extend_from_slice(b"xx");
    assert_snapshot_rejected(&padded, "trailing bytes");
}

#[test]
fn random_corruption_trials_over_a_larger_snapshot() {
    let bytes = snapshot_to_vec(&sample(120), Some("phi: [id] -> [city, qty]"));
    assert!(read_snapshot(&bytes).is_ok());
    trials(300, 0x5EEDC0DE, |rng| {
        let mut corrupt = bytes.clone();
        match rng.gen_range(0..3u32) {
            0 => {
                // single-bit flip anywhere
                let pos = rng.gen_range(0..corrupt.len() as u64) as usize;
                corrupt[pos] ^= 1 << rng.gen_range(0..8u32);
                assert_snapshot_rejected(&corrupt, &format!("flip at {pos}"));
            }
            1 => {
                // scramble a short run of bytes
                let pos = rng.gen_range(0..corrupt.len() as u64) as usize;
                let run = (rng.gen_range(1..16u64) as usize).min(corrupt.len() - pos);
                let mut changed = false;
                for b in &mut corrupt[pos..pos + run] {
                    let x = rng.gen_range(0..=255u64) as u8;
                    changed |= x != *b;
                    *b = x;
                }
                if changed {
                    assert_snapshot_rejected(&corrupt, &format!("scramble {run}@{pos}"));
                }
            }
            _ => {
                // truncate
                let len = rng.gen_range(0..corrupt.len() as u64) as usize;
                assert_snapshot_rejected(&corrupt[..len], &format!("truncate to {len}"));
            }
        }
    });
}

#[test]
fn edit_log_corruption_trials() {
    let bytes = edit_log_bytes(&sample(6));
    assert!(read_edit_log(&bytes).is_ok(), "pristine log must parse");
    for pos in 0..bytes.len() {
        for bit in 0..8 {
            let mut corrupt = bytes.clone();
            corrupt[pos] ^= 1 << bit;
            assert_edit_log_rejected(&corrupt, &format!("bit {bit} of byte {pos}"));
        }
    }
    for len in 0..bytes.len() {
        assert_edit_log_rejected(&bytes[..len], &format!("truncated to {len}"));
    }
}

#[test]
fn cross_family_files_are_rejected_by_magic() {
    let r = sample(3);
    let snap = snapshot_to_vec(&r, None);
    let log = edit_log_bytes(&r);
    assert!(matches!(
        read_edit_log(&snap),
        Err(SnapshotError::NotAnEditLog)
    ));
    assert!(matches!(
        read_snapshot(&log),
        Err(SnapshotError::NotASnapshot)
    ));
    assert!(matches!(
        read_snapshot(b"short"),
        Err(SnapshotError::NotASnapshot)
    ));
}

// ---------------------------------------------------------------------------
// Content checks
//
// The trials above break a checksum before they break a format rule, so
// they never reach the readers' content validation. The cases below
// rewrite one segment's payload *and recompute its checksum*: every
// frame verifies, and only the rule the case breaks can reject the file.

const SEG_META: u8 = 1;
const SEG_DICT: u8 = 3;
const SEG_COLS: u8 = 4;
const SEG_VALIDITY: u8 = 5;

/// Magic + version.
const PREFIX: usize = 12;

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(*b)).wrapping_mul(0x0100_0000_01b3)
    })
}

fn u32_at(bytes: &[u8], at: usize) -> u32 {
    u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap())
}

fn u64_at(bytes: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap())
}

/// A snapshot's framed segments as `(tag, payload)` pairs, in file order.
fn frames(bytes: &[u8]) -> Vec<(u8, Vec<u8>)> {
    let mut out = Vec::new();
    let mut pos = PREFIX;
    while pos < bytes.len() {
        let tag = bytes[pos];
        let len = u64_at(bytes, pos + 1) as usize;
        out.push((tag, bytes[pos + 9..pos + 9 + len].to_vec()));
        pos += 1 + 8 + len + 8;
    }
    out
}

/// `bytes` with the payload of segment `tag` replaced by `edit(payload)`
/// and that segment's length and checksum recomputed.
fn rewrite(bytes: &[u8], tag: u8, edit: impl FnOnce(&mut Vec<u8>)) -> Vec<u8> {
    let mut frames = frames(bytes);
    let (_, payload) = frames
        .iter_mut()
        .find(|(t, _)| *t == tag)
        .expect("segment present");
    edit(payload);
    let mut out = bytes[..PREFIX].to_vec();
    for (tag, payload) in &frames {
        let len = (payload.len() as u64).to_le_bytes();
        let mut framed = vec![*tag];
        framed.extend_from_slice(&len);
        framed.extend_from_slice(payload);
        let checksum = fnv1a(&framed);
        out.extend_from_slice(&framed);
        out.extend_from_slice(&checksum.to_le_bytes());
    }
    out
}

fn put_string(out: &mut Vec<u8>, s: &str) {
    out.extend_from_slice(&(s.len() as u64).to_le_bytes());
    out.extend_from_slice(s.as_bytes());
}

/// The fields of a snapshot META payload, decoded so a case can change
/// one and re-encode the rest unchanged.
struct Meta {
    name: String,
    slots: u64,
    live: u64,
    flags: u32,
    attrs: Vec<String>,
}

impl Meta {
    fn decode(p: &[u8]) -> Meta {
        let mut pos = 0;
        let string = |pos: &mut usize| {
            let n = u64_at(p, *pos) as usize;
            let s = String::from_utf8(p[*pos + 8..*pos + 8 + n].to_vec()).unwrap();
            *pos += 8 + n;
            s
        };
        let name = string(&mut pos);
        let arity = u16::from_le_bytes([p[pos], p[pos + 1]]);
        let slots = u64_at(p, pos + 2);
        let live = u64_at(p, pos + 10);
        let flags = u32_at(p, pos + 18);
        pos += 22;
        let attrs = (0..arity).map(|_| string(&mut pos)).collect();
        Meta {
            name,
            slots,
            live,
            flags,
            attrs,
        }
    }

    fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        put_string(&mut out, &self.name);
        out.extend_from_slice(&(self.attrs.len() as u16).to_le_bytes());
        out.extend_from_slice(&self.slots.to_le_bytes());
        out.extend_from_slice(&self.live.to_le_bytes());
        out.extend_from_slice(&self.flags.to_le_bytes());
        for a in &self.attrs {
            put_string(&mut out, a);
        }
        out
    }
}

fn rewrite_meta(bytes: &[u8], edit: impl FnOnce(&mut Meta)) -> Vec<u8> {
    rewrite(bytes, SEG_META, |p| {
        let mut meta = Meta::decode(p);
        edit(&mut meta);
        *p = meta.encode();
    })
}

/// Byte ranges of each DICT entry (value ‖ occurrences) in its payload.
fn dict_entries(p: &[u8]) -> Vec<std::ops::Range<usize>> {
    let mut pos = 4;
    (0..u32_at(p, 0))
        .map(|_| {
            let start = pos;
            pos += match p[pos] {
                0 => 1,
                1 => 9,
                _ => 9 + u64_at(p, pos + 1) as usize,
            };
            pos += 8;
            start..pos
        })
        .collect()
}

/// The content-check fixture: 70 slots (so the last VALIDITY word has a
/// tail), slot 1 tombstoned, three attributes, embedded rules.
fn content_fixture() -> (Relation, Vec<u8>) {
    let r = sample(70);
    let bytes = snapshot_to_vec(&r, Some("phi: [id] -> [city]"));
    (r, bytes)
}

/// Where a content case must be rejected.
#[derive(Clone, Copy, Debug)]
enum Expect {
    /// `SnapshotError::Corrupt` naming this segment.
    Corrupt(&'static str),
    /// `SnapshotError::Model` (the schema rejected the stored names).
    Model,
}

fn check_error(got: Result<(), SnapshotError>, expect: Expect, ctx: &str) {
    match (got, expect) {
        (Err(SnapshotError::Corrupt { segment, .. }), Expect::Corrupt(want)) => {
            assert_eq!(segment, want, "{ctx}: rejected in the wrong segment")
        }
        (Err(SnapshotError::Model(_)), Expect::Model) => {}
        (Err(other), _) => panic!("{ctx}: expected {expect:?}, got {other:?}"),
        (Ok(()), _) => panic!("{ctx}: a file that breaks a content rule was accepted"),
    }
}

fn assert_content_rejected(bytes: &[u8], expect: Expect, ctx: &str) {
    let segs = snapshot_segments(bytes).expect("frames walk");
    assert!(
        segs.iter().all(|s| s.checksum_ok),
        "{ctx}: every checksum must verify, so only the content check can reject"
    );
    check_error(read_snapshot(bytes).map(drop), expect, ctx);
    // `info` runs the same validation: it must not describe a file
    // that will not load.
    check_error(
        snapshot_info(bytes).map(drop),
        expect,
        &format!("{ctx} (info)"),
    );
}

#[test]
fn checksum_valid_files_that_break_a_content_rule_are_rejected() {
    let (r, bytes) = content_fixture();
    let slots = r.slot_count();
    assert!(slots % 64 != 0, "fixture needs a VALIDITY tail");
    let frames = frames(&bytes);
    let dict = &frames.iter().find(|(t, _)| *t == SEG_DICT).unwrap().1;
    let dict_len = u32_at(dict, 0);
    let validity = &frames.iter().find(|(t, _)| *t == SEG_VALIDITY).unwrap().1;
    assert_eq!(validity.len(), 16);
    assert_eq!(validity[0] & 1, 1, "slot 0 is live");

    let mut cases: Vec<(String, Vec<u8>, Expect)> = Vec::new();

    // COLS: a local id past the dictionary, first and last attribute.
    for (attr, slot, id) in [(0, 0, dict_len), (2, slots - 1, u32::MAX)] {
        let at = attr * slots * 12 + slot * 4;
        cases.push((
            format!("local id {id} at attribute {attr} slot {slot}"),
            rewrite(&bytes, SEG_COLS, |p| {
                p[at..at + 4].copy_from_slice(&id.to_le_bytes())
            }),
            Expect::Corrupt("COLS"),
        ));
    }
    // COLS: weights outside [0, 1] or not finite.
    for w in [f64::NAN, -0.5, 1.5, f64::INFINITY] {
        let at = slots * 12 + slots * 4 + 3 * 8;
        cases.push((
            format!("weight {w}"),
            rewrite(&bytes, SEG_COLS, |p| {
                p[at..at + 8].copy_from_slice(&w.to_bits().to_le_bytes())
            }),
            Expect::Corrupt("COLS"),
        ));
    }
    // META: counts and flags.
    cases.push((
        "live > slots".into(),
        rewrite_meta(&bytes, |m| m.live = m.slots + 1),
        Expect::Corrupt("META"),
    ));
    cases.push((
        "unknown flag bits".into(),
        rewrite_meta(&bytes, |m| m.flags |= 0b10),
        Expect::Corrupt("META"),
    ));
    cases.push((
        "slots > u32::MAX".into(),
        rewrite_meta(&bytes, |m| m.slots = u64::from(u32::MAX) + 1),
        Expect::Corrupt("META"),
    ));
    // DICT: entry 0 must be null, and no other entry may be.
    cases.push((
        "DICT entry 0 not null".into(),
        rewrite(&bytes, SEG_DICT, |p| {
            let mut int0 = vec![1u8];
            int0.extend_from_slice(&0i64.to_le_bytes());
            p.splice(4..5, int0);
        }),
        Expect::Corrupt("DICT"),
    ));
    cases.push((
        "second null in DICT".into(),
        rewrite(&bytes, SEG_DICT, |p| {
            let n = u32_at(p, 0) + 1;
            p[..4].copy_from_slice(&n.to_le_bytes());
            p.push(0);
            p.extend_from_slice(&0u64.to_le_bytes());
        }),
        Expect::Corrupt("DICT"),
    ));
    // VALIDITY: popcount must equal META's live count; the tail is zero.
    cases.push((
        "validity popcount mismatch".into(),
        rewrite(&bytes, SEG_VALIDITY, |p| p[0] &= !1),
        Expect::Corrupt("VALIDITY"),
    ));
    cases.push((
        "validity bit past the last slot".into(),
        // Move a live bit into the tail: the popcount still matches.
        rewrite(&bytes, SEG_VALIDITY, |p| {
            p[0] &= !1;
            p[15] |= 0x80;
        }),
        Expect::Corrupt("VALIDITY"),
    ));
    // META: the stored schema must be a valid schema.
    cases.push((
        "duplicate attribute names".into(),
        rewrite_meta(&bytes, |m| m.attrs[2] = m.attrs[0].clone()),
        Expect::Model,
    ));

    for (ctx, corrupt, expect) in &cases {
        assert_content_rejected(corrupt, *expect, ctx);
    }
}

/// A checksum-valid but non-canonical file: one cell references a second
/// DICT entry holding the same value as an earlier one. The fresh pool's
/// install folds the duplicate, so on-disk ids are not pool ids and the
/// reader's local→pool remap must send both entries to one pool id.
#[test]
fn a_duplicated_dictionary_entry_loads_through_the_owned_remap() {
    let (r, bytes) = content_fixture();
    let slots = r.slot_count();
    let city = 1;
    let slot = 2; // live, city "PHI"
    assert!(r.is_live(TupleId(slot as u32)));
    let at = city * slots * 12 + slot * 4;
    let cols = &frames(&bytes)
        .into_iter()
        .find(|(t, _)| *t == SEG_COLS)
        .unwrap()
        .1;
    let local = u32_at(cols, at) as usize;

    // Split the value's occurrence count between the entry and its copy,
    // so the pool's summed count stays the canonical one.
    let mut dict_len = 0;
    let dup = rewrite(&bytes, SEG_DICT, |p| {
        let entries = dict_entries(p);
        let entry = p[entries[local].clone()].to_vec();
        let count_at = entries[local].end - 8;
        let n = u64_at(p, count_at);
        assert!(n >= 2, "the split needs a value with two live cells");
        p[count_at..count_at + 8].copy_from_slice(&(n - 1).to_le_bytes());
        let mut copy = entry[..entry.len() - 8].to_vec();
        copy.extend_from_slice(&1u64.to_le_bytes());
        p.extend_from_slice(&copy);
        dict_len = u32_at(p, 0);
        p[..4].copy_from_slice(&(dict_len + 1).to_le_bytes());
    });
    let dup = rewrite(&dup, SEG_COLS, |p| {
        p[at..at + 4].copy_from_slice(&dict_len.to_le_bytes())
    });
    assert_ne!(dup, bytes);

    let canonical = read_snapshot(&bytes).unwrap();
    let loaded = read_snapshot(&dup).unwrap();
    let rel = &loaded.relation;
    assert_eq!(loaded.rules, canonical.rules, "rules");
    assert_eq!(rel.slot_count(), r.slot_count(), "slots");
    for s in 0..rel.slot_count() {
        let id = TupleId(s as u32);
        assert_eq!(rel.is_live(id), r.is_live(id), "liveness {id}");
    }
    for id in r.ids() {
        for a in r.schema().attr_ids() {
            assert_eq!(
                rel.tuple(id).unwrap().value(a),
                r.tuple(id).unwrap().value(a),
                "{id} {a}"
            );
            assert_eq!(
                rel.cell_weight(id, a).unwrap().to_bits(),
                r.cell_weight(id, a).unwrap().to_bits(),
                "{id} {a} weight"
            );
        }
    }
    let phi = Value::str("PHI");
    let count = |rel: &Relation| rel.pool().use_count(rel.pool().lookup(&phi).unwrap());
    assert_eq!(count(rel), count(&canonical.relation), "use count");
    assert_eq!(
        snapshot_to_vec(rel, loaded.rules.as_deref()),
        bytes,
        "re-saving yields the canonical file"
    );
}
