//! Persistent snapshots: the on-disk dictionary + columnar-segment
//! format, the [`Catalog`] of named datasets, and id-stable edit logs.
//!
//! A snapshot persists everything the pipeline needs to resume work on a
//! dataset without re-parsing CSV or re-interning values: the relation's
//! schema, the dictionary slice of its own [`ValuePool`] (with per-value
//! occurrence counts, so `FINDV`'s frequency tie-break
//! sees exactly the state a cell-by-cell load would have produced), the
//! per-attribute `ValueId` and weight column segments straight out of the
//! [`ColumnStore`], the validity bitmap, and (optionally) the CFD rule
//! text the dataset is governed by. Loading validates the whole file,
//! bulk-installs the dictionary (one hash operation per *distinct* value
//! instead of per cell) into a **fresh pool scoped to the dataset**, and
//! then copies the id columns out of the file bytes through the
//! dictionary's local→pool id remap — no text parsing, no per-cell
//! hashing. A [`Catalog`] therefore gives every loaded dataset its own
//! dictionary: nothing about a load depends on, or leaks into, the rest
//! of the process.
//!
//! [`write_edit_log`] / [`read_edit_log_in`] persist a repair as an
//! [`EditLog`] in the same framing: each edit names a tuple, an
//! attribute, and the old and new value through the file's own embedded
//! dictionary, so the log is self-contained and replayable in any
//! process. Snapshot + edit log replays to the byte-exact repaired
//! relation the in-memory pipeline produced.
//!
//! # On-disk format, version 1
//!
//! **Endianness.** Every integer is **little-endian**, regardless of
//! host. Floats are stored as the IEEE-754 bit pattern in a `u64`.
//!
//! **Magic + version.** A snapshot file starts with the 8 bytes
//! `CFDSNAP1`, an edit log with `CFDEDIT1`, each followed by a `u32`
//! format version (currently `1`).
//!
//! **Segments.** Everything after the version is a sequence of framed
//! segments in a fixed order. Each segment is
//!
//! ```text
//! tag: u8 | len: u64 | payload: len bytes | checksum: u64
//! ```
//!
//! where `checksum` is FNV-1a 64 over `tag ‖ len ‖ payload`. Strings are
//! `u64` byte length + UTF-8 bytes. A file must end exactly at its last
//! segment; trailing bytes are an error.
//!
//! Snapshot segments, in order:
//!
//! | tag | segment  | payload |
//! |----:|----------|---------|
//! | 1   | META     | relation name, `arity: u16`, `slots: u64` (≤ `u32::MAX`), `live: u64` (≤ slots), `flags: u32` (bit 0 = RULES present, other bits must be zero), `arity` attribute-name strings |
//! | 2   | RULES    | the rule text as one string (present iff flag bit 0) |
//! | 3   | DICT     | `count: u32`, then `count` entries of `value ‖ occurrences: u64`; a value is tagged `0` = null, `1` = `i64`, `2` = string; entry 0 **must** be null; occurrences count the value's live cells (null is never counted) |
//! | 4   | COLS     | per attribute in schema order: `slots` × `u32` local dictionary ids, then `slots` × `u64` weight bits (each a finite `f64` in `[0, 1]`) |
//! | 5   | VALIDITY | `ceil(slots/64)` × `u64`; bit *i* set ⟺ slot *i* live; popcount must equal `live`; bits at or beyond `slots` must be zero |
//!
//! Edit-log segments, in order: META (tag 1 — relation name, `arity:
//! u16`, `edits: u64`, `flags: u32` = 0), DICT (tag 3, occurrence counts
//! all zero), EDITS (tag 6 — per edit `tuple: u32 ‖ attr: u16 ‖ from:
//! u32 ‖ to: u32` with `from`/`to` local dictionary ids, strictly
//! increasing `(tuple, attr)`, `from ≠ to`).
//!
//! **Local ids are the stable on-disk references.** Column segments and
//! edits never store pool ids (which depend on a process's interning
//! history); they store indexes into the file's own DICT segment,
//! assigned by the writer in first-occurrence order — attribute-major
//! over slots, exactly the order a fresh pool would assign when
//! bulk-importing the same columns. Snapshot bytes are therefore
//! canonical: saving the same relation always produces the same file,
//! whatever the pool looked like.
//!
//! **Corruption.** Readers validate the magic and version directly;
//! every other byte of the file is covered by a segment checksum, and
//! every length and id is bounds-checked before use. Any flipped byte or
//! truncation surfaces as a typed [`SnapshotError`] — never a panic and
//! never a silently wrong relation.
//!
//! **Compatibility policy.** The version is bumped on any layout change;
//! a reader accepts exactly the versions it knows (currently `1`) and
//! rejects anything else with [`SnapshotError::UnsupportedVersion`] —
//! there is no best-effort parsing of unknown versions. The magic pins
//! the file family, so a snapshot handed to the edit-log reader (or vice
//! versa) fails with [`SnapshotError::NotASnapshot`] /
//! [`SnapshotError::NotAnEditLog`] rather than a confusing checksum
//! error.
//!
//! # Reader
//!
//! One private `parse` defines a valid version-1 file: magic and
//! version, every segment checksum, and every content rule of the table
//! above (META counts and flags, DICT nulls, each COLS local id and
//! weight, the VALIDITY popcount and tail, the exact end, and a valid
//! schema). It installs nothing, and every entry point goes through it:
//!
//! * [`read_snapshot`] parses bytes already in memory and installs them;
//! * [`snapshot_info`] is `parse` alone, so `info` never describes a
//!   file that will not load;
//! * [`Catalog::load`] reads the whole file and hands its bytes to
//!   [`read_snapshot`].
//!
//! The install always copies into buffers the relation owns:
//!
//! * **Id columns remap.** The dictionary goes into a fresh pool of its
//!   own, which returns the pool id of every local id; each attribute's
//!   `slots × u32` local-id run becomes an owned `Vec<ValueId>` through
//!   that remap. On a canonical file the remap is the identity (local
//!   ids are assigned in first-occurrence order, the order a fresh
//!   pool's bulk install interns in); a checksum-valid file with
//!   duplicate dictionary entries remaps them onto one pool id.
//! * **Weights and validity** are the vectors `parse` already decoded
//!   while validating them element by element.
//! * **The dictionary installs lazily where it can.** Ids and occurrence
//!   counts install eagerly (they seed `FINDV`'s frequency tie-break);
//!   rendered text is materialized on demand through the pool's
//!   [`rendered`](crate::pool::ValuePool::rendered) cache, so opening a
//!   snapshot does not pay for strings no repair ever looks at.
//!
//! A loaded relation shares nothing with its file or with any other
//! load of it: every dataset opened from one snapshot is independent.

use std::fmt;
use std::fs;
use std::io::Write;
use std::path::{Path, PathBuf};

use crate::diff::{Edit, EditLog};
use crate::error::ModelError;
use crate::hash::FixedMap;
use crate::pool::{ValueId, ValuePool, NULL_ID};
use crate::relation::{Relation, TupleId};
use crate::schema::{AttrId, Schema};
use crate::storage::ColumnStore;
use crate::value::Value;

/// Magic bytes opening a snapshot file.
pub const SNAPSHOT_MAGIC: &[u8; 8] = b"CFDSNAP1";
/// Magic bytes opening an edit-log file.
pub const EDIT_LOG_MAGIC: &[u8; 8] = b"CFDEDIT1";
/// The format version this module writes and accepts.
pub const FORMAT_VERSION: u32 = 1;

/// File extension of catalog snapshot files.
pub const SNAPSHOT_EXT: &str = "cfds";
/// File extension conventionally used for edit-log files.
pub const EDIT_LOG_EXT: &str = "cfde";

const SEG_META: u8 = 1;
const SEG_RULES: u8 = 2;
const SEG_DICT: u8 = 3;
const SEG_COLS: u8 = 4;
const SEG_VALIDITY: u8 = 5;
const SEG_EDITS: u8 = 6;

const VAL_NULL: u8 = 0;
const VAL_INT: u8 = 1;
const VAL_STR: u8 = 2;

/// Errors surfaced by snapshot and edit-log I/O. Every failure mode of
/// reading untrusted bytes is a variant here — readers never panic.
#[derive(Debug)]
pub enum SnapshotError {
    /// The file does not start with the snapshot magic.
    NotASnapshot,
    /// The file does not start with the edit-log magic.
    NotAnEditLog,
    /// The file's format version is not one this reader understands.
    UnsupportedVersion(u32),
    /// The file ends before the structure it promised.
    Truncated {
        /// Byte offset at which more input was needed.
        offset: usize,
    },
    /// A segment's checksum does not match its contents.
    Checksum {
        /// Which segment failed verification.
        segment: &'static str,
    },
    /// A structural invariant of the format is violated.
    Corrupt {
        /// Which segment the violation was found in.
        segment: &'static str,
        /// Human-readable description.
        detail: String,
    },
    /// A dataset name unusable as a catalog file stem.
    DatasetName(String),
    /// A dataset the catalog does not contain.
    UnknownDataset(String),
    /// The catalog directory does not exist (read paths never create it).
    MissingCatalog(PathBuf),
    /// Underlying filesystem failure.
    Io(std::io::Error),
    /// The decoded data violates relational invariants (e.g. duplicate
    /// attribute names in the stored schema).
    Model(ModelError),
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::NotASnapshot => write!(f, "not a snapshot file (bad magic)"),
            SnapshotError::NotAnEditLog => write!(f, "not an edit-log file (bad magic)"),
            SnapshotError::UnsupportedVersion(v) => {
                write!(
                    f,
                    "unsupported format version {v} (this build reads {FORMAT_VERSION})"
                )
            }
            SnapshotError::Truncated { offset } => {
                write!(f, "file truncated at byte {offset}")
            }
            SnapshotError::Checksum { segment } => {
                write!(f, "checksum mismatch in {segment} segment")
            }
            SnapshotError::Corrupt { segment, detail } => {
                write!(f, "corrupt {segment} segment: {detail}")
            }
            SnapshotError::DatasetName(n) => {
                write!(
                    f,
                    "invalid dataset name {n:?} (use letters, digits, '.', '_', '-'; \
                     no leading '.')"
                )
            }
            SnapshotError::UnknownDataset(n) => write!(f, "no snapshot named {n:?} in catalog"),
            SnapshotError::MissingCatalog(d) => {
                write!(f, "catalog directory {} does not exist", d.display())
            }
            SnapshotError::Io(e) => write!(f, "i/o error: {e}"),
            SnapshotError::Model(e) => write!(f, "invalid snapshot contents: {e}"),
        }
    }
}

impl std::error::Error for SnapshotError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SnapshotError::Io(e) => Some(e),
            SnapshotError::Model(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for SnapshotError {
    fn from(e: std::io::Error) -> Self {
        SnapshotError::Io(e)
    }
}

impl From<ModelError> for SnapshotError {
    fn from(e: ModelError) -> Self {
        SnapshotError::Model(e)
    }
}

// ---------------------------------------------------------------------------
// checksums + primitive encoding

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0100_0000_01b3;

fn fnv1a(parts: &[&[u8]]) -> u64 {
    let mut h = FNV_OFFSET;
    for part in parts {
        for b in *part {
            h ^= *b as u64;
            h = h.wrapping_mul(FNV_PRIME);
        }
    }
    h
}

fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_string(out: &mut Vec<u8>, s: &str) {
    put_u64(out, s.len() as u64);
    out.extend_from_slice(s.as_bytes());
}

fn put_value(out: &mut Vec<u8>, v: &Value) {
    match v {
        Value::Null => out.push(VAL_NULL),
        Value::Int(i) => {
            out.push(VAL_INT);
            out.extend_from_slice(&i.to_le_bytes());
        }
        Value::Str(s) => {
            out.push(VAL_STR);
            put_string(out, s);
        }
    }
}

fn put_segment(out: &mut Vec<u8>, tag: u8, payload: &[u8]) {
    let len = (payload.len() as u64).to_le_bytes();
    let checksum = fnv1a(&[&[tag], &len, payload]);
    out.push(tag);
    out.extend_from_slice(&len);
    out.extend_from_slice(payload);
    out.extend_from_slice(&checksum.to_le_bytes());
}

/// A bounds-checked cursor over untrusted bytes. Every read that would
/// run past the end is a typed [`SnapshotError::Truncated`]; nothing is
/// allocated from a length before the bytes backing it are known to
/// exist.
struct Cur<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Name of the segment being parsed, for error context.
    segment: &'static str,
}

impl<'a> Cur<'a> {
    fn new(bytes: &'a [u8], segment: &'static str) -> Self {
        Cur {
            bytes,
            pos: 0,
            segment,
        }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], SnapshotError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|e| *e <= self.bytes.len())
            .ok_or(SnapshotError::Truncated { offset: self.pos })?;
        let s = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, SnapshotError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, SnapshotError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    fn u32(&mut self) -> Result<u32, SnapshotError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, SnapshotError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn i64(&mut self) -> Result<i64, SnapshotError> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// A `u64` that must fit the remaining input when interpreted as a
    /// count of at-least-one-byte items — the guard that keeps a flipped
    /// length field from asking for a multi-gigabyte allocation.
    fn len(&mut self) -> Result<usize, SnapshotError> {
        let n = self.u64()?;
        let n = usize::try_from(n).map_err(|_| self.corrupt(format!("length {n} overflows")))?;
        if n > self.bytes.len() - self.pos {
            return Err(SnapshotError::Truncated { offset: self.pos });
        }
        Ok(n)
    }

    fn string(&mut self) -> Result<String, SnapshotError> {
        let n = self.len()?;
        let bytes = self.take(n)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| self.corrupt("string is not UTF-8".into()))
    }

    fn value(&mut self) -> Result<Value, SnapshotError> {
        match self.u8()? {
            VAL_NULL => Ok(Value::Null),
            VAL_INT => Ok(Value::Int(self.i64()?)),
            VAL_STR => Ok(Value::from(self.string()?)),
            tag => Err(self.corrupt(format!("unknown value tag {tag}"))),
        }
    }

    fn finish(&self) -> Result<(), SnapshotError> {
        if self.pos != self.bytes.len() {
            return Err(self.corrupt(format!(
                "{} trailing byte(s) after the payload",
                self.bytes.len() - self.pos
            )));
        }
        Ok(())
    }

    fn corrupt(&self, detail: String) -> SnapshotError {
        SnapshotError::Corrupt {
            segment: self.segment,
            detail,
        }
    }
}

/// Read one framed segment: expect `tag`, verify the checksum, return a
/// cursor over the payload.
fn read_segment<'a>(
    file: &mut Cur<'a>,
    tag: u8,
    name: &'static str,
) -> Result<Cur<'a>, SnapshotError> {
    let got = file.u8()?;
    if got != tag {
        return Err(SnapshotError::Corrupt {
            segment: name,
            detail: format!("expected segment tag {tag}, found {got}"),
        });
    }
    let len_bytes: [u8; 8] = file.take(8)?.try_into().unwrap();
    let len = u64::from_le_bytes(len_bytes);
    let len = usize::try_from(len).map_err(|_| SnapshotError::Corrupt {
        segment: name,
        detail: format!("segment length {len} overflows"),
    })?;
    if len > file.bytes.len() - file.pos {
        return Err(SnapshotError::Truncated { offset: file.pos });
    }
    let payload = file.take(len)?;
    let stored = file.u64()?;
    if fnv1a(&[&[tag], &len_bytes, payload]) != stored {
        return Err(SnapshotError::Checksum { segment: name });
    }
    Ok(Cur::new(payload, name))
}

fn check_magic(
    file: &mut Cur<'_>,
    magic: &[u8; 8],
    bad_magic: fn() -> SnapshotError,
) -> Result<(), SnapshotError> {
    let got = file.take(8).map_err(|_| bad_magic())?;
    if got != magic {
        return Err(bad_magic());
    }
    let version = file.u32()?;
    if version != FORMAT_VERSION {
        return Err(SnapshotError::UnsupportedVersion(version));
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// dictionary building (writer side)

/// Pool-id → local-id assignment in first-occurrence order, null pinned
/// at local 0. `count` accumulates live-cell occurrences (never null).
struct DictBuilder {
    locals: FixedMap<ValueId, u32>,
    order: Vec<ValueId>,
    counts: Vec<u64>,
}

impl DictBuilder {
    fn new() -> Self {
        DictBuilder {
            locals: FixedMap::from_iter([(NULL_ID, 0)]),
            order: vec![NULL_ID],
            counts: vec![0],
        }
    }

    fn local_of(&mut self, id: ValueId) -> u32 {
        match self.locals.get(&id) {
            Some(l) => *l,
            None => {
                let l = self.order.len() as u32;
                self.locals.insert(id, l);
                self.order.push(id);
                self.counts.push(0);
                l
            }
        }
    }

    fn observe_live(&mut self, id: ValueId) -> u32 {
        let l = self.local_of(id);
        if !id.is_null() {
            self.counts[l as usize] += 1;
        }
        l
    }

    fn encode(&self, pool: &ValuePool) -> Vec<u8> {
        let mut out = Vec::new();
        put_u32(&mut out, self.order.len() as u32);
        for (id, n) in self.order.iter().zip(&self.counts) {
            pool.with_value(*id, |v| put_value(&mut out, v));
            put_u64(&mut out, *n);
        }
        out
    }
}

// ---------------------------------------------------------------------------
// snapshot write

/// Serialize `rel` plus optional rule text into `w` in the
/// version-1 snapshot format. The bytes are canonical: independent of
/// the process's pool history and of whether slots were tombstoned
/// before or after their neighbours.
pub fn write_snapshot(
    rel: &Relation,
    rules: Option<&str>,
    w: &mut dyn Write,
) -> Result<(), SnapshotError> {
    w.write_all(&snapshot_to_vec(rel, rules))?;
    Ok(())
}

/// [`write_snapshot`] into a fresh buffer.
pub fn snapshot_to_vec(rel: &Relation, rules: Option<&str>) -> Vec<u8> {
    let pool = rel.pool();
    let schema = rel.schema();
    let arity = schema.arity();
    let slots = rel.slot_count();

    // Dictionary + local-id columns, attribute-major in slot order — the
    // same order a fresh pool meets the values in when bulk-importing the
    // CSV rendering of this relation, so local ids are canonical. Dead
    // slots keep their stale cell contents and weights; their occurrence
    // counts are never accumulated.
    let mut dict = DictBuilder::new();
    let mut local_cols: Vec<Vec<u32>> = Vec::with_capacity(arity);
    let mut weight_cols: Vec<Vec<f64>> = Vec::with_capacity(arity);
    for a in schema.attr_ids() {
        let mut locals = Vec::with_capacity(slots);
        let mut weights = Vec::with_capacity(slots);
        let col = rel.column(a);
        for (slot, &v) in col.iter().enumerate() {
            locals.push(if rel.is_live(TupleId(slot as u32)) {
                dict.observe_live(v)
            } else {
                dict.local_of(v)
            });
        }
        weights.extend_from_slice(rel.weight_column(a));
        local_cols.push(locals);
        weight_cols.push(weights);
    }

    let mut meta = Vec::new();
    put_string(&mut meta, schema.name());
    put_u16(&mut meta, arity as u16);
    put_u64(&mut meta, slots as u64);
    put_u64(&mut meta, rel.len() as u64);
    put_u32(&mut meta, if rules.is_some() { 1 } else { 0 });
    for a in schema.attr_ids() {
        put_string(&mut meta, schema.attr_name(a));
    }

    let mut cols = Vec::new();
    for (locals, weights) in local_cols.iter().zip(&weight_cols) {
        for l in locals {
            put_u32(&mut cols, *l);
        }
        for wt in weights {
            put_u64(&mut cols, wt.to_bits());
        }
    }

    let mut validity = Vec::new();
    let words = slots.div_ceil(64);
    for word in 0..words {
        let mut bits = 0u64;
        for bit in 0..64 {
            let slot = word * 64 + bit;
            if slot < slots && rel.is_live(TupleId(slot as u32)) {
                bits |= 1 << bit;
            }
        }
        put_u64(&mut validity, bits);
    }

    let mut out = Vec::new();
    out.extend_from_slice(SNAPSHOT_MAGIC);
    put_u32(&mut out, FORMAT_VERSION);
    put_segment(&mut out, SEG_META, &meta);
    if let Some(text) = rules {
        let mut payload = Vec::new();
        put_string(&mut payload, text);
        put_segment(&mut out, SEG_RULES, &payload);
    }
    put_segment(&mut out, SEG_DICT, &dict.encode(pool));
    put_segment(&mut out, SEG_COLS, &cols);
    put_segment(&mut out, SEG_VALIDITY, &validity);
    out
}

// ---------------------------------------------------------------------------
// snapshot read

/// What a snapshot file declares about itself — readable without
/// installing anything into the pool.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SnapshotInfo {
    /// The stored relation name.
    pub relation: String,
    /// Attribute names in schema order.
    pub attrs: Vec<String>,
    /// Slot count (live + tombstoned).
    pub slots: usize,
    /// Live tuple count.
    pub live: usize,
    /// Distinct dictionary entries (including null).
    pub dict_entries: usize,
    /// Whether rule text is embedded.
    pub has_rules: bool,
    /// Total file size in bytes.
    pub bytes: usize,
}

/// A fully installed snapshot: the relation (columnar, ids remapped into
/// the process pool) and the embedded rule text, if any.
#[derive(Debug)]
pub struct LoadedSnapshot {
    /// The reconstructed relation.
    pub relation: Relation,
    /// The embedded CFD rule text, when the snapshot carries one.
    pub rules: Option<String>,
}

struct Meta {
    name: String,
    attrs: Vec<String>,
    slots: usize,
    live: usize,
    has_rules: bool,
}

fn read_meta(file: &mut Cur<'_>) -> Result<Meta, SnapshotError> {
    let mut meta = read_segment(file, SEG_META, "META")?;
    let name = meta.string()?;
    let arity = meta.u16()? as usize;
    let slots = meta.u64()?;
    if slots > u32::MAX as u64 {
        return Err(meta.corrupt(format!("{slots} slots exceed the 32-bit tuple-id space")));
    }
    let slots = slots as usize;
    let live = meta.u64()? as usize;
    if live > slots {
        return Err(meta.corrupt(format!("{live} live tuples in {slots} slots")));
    }
    let flags = meta.u32()?;
    if flags & !1 != 0 {
        return Err(meta.corrupt(format!("unknown flag bits {flags:#x}")));
    }
    let mut attrs = Vec::with_capacity(arity.min(meta.bytes.len()));
    for _ in 0..arity {
        attrs.push(meta.string()?);
    }
    meta.finish()?;
    Ok(Meta {
        name,
        attrs,
        slots,
        live,
        has_rules: flags & 1 == 1,
    })
}

/// Dictionary entries as (values, occurrence counts). Entry 0 must be
/// null; no other entry may be.
fn read_dict(file: &mut Cur<'_>) -> Result<(Vec<Value>, Vec<u64>), SnapshotError> {
    let mut dict = read_segment(file, SEG_DICT, "DICT")?;
    let count = dict.u32()? as usize;
    if count == 0 {
        return Err(dict.corrupt("empty dictionary (entry 0 must be null)".into()));
    }
    if count > dict.bytes.len() {
        return Err(SnapshotError::Truncated { offset: dict.pos });
    }
    let mut values = Vec::with_capacity(count);
    let mut counts = Vec::with_capacity(count);
    for i in 0..count {
        let v = dict.value()?;
        match (i, v.is_null()) {
            (0, false) => return Err(dict.corrupt("entry 0 is not null".into())),
            (i, true) if i > 0 => return Err(dict.corrupt(format!("duplicate null at entry {i}"))),
            _ => {}
        }
        counts.push(dict.u64()?);
        values.push(v);
    }
    dict.finish()?;
    Ok((values, counts))
}

/// A version-1 snapshot that passed every check of the format, with
/// nothing installed yet. The local-id runs stay in the file: attribute
/// `a`'s `slots × u32` ids start at byte `cols + a·slots·12`.
struct Parsed {
    meta: Meta,
    schema: Schema,
    rules: Option<String>,
    values: Vec<Value>,
    counts: Vec<u64>,
    cols: usize,
    weights: Vec<Vec<f64>>,
    validity: Vec<u64>,
}

/// The one definition of a valid version-1 snapshot: magic and version,
/// every segment checksum, META's counts and flags, DICT's nulls, every
/// COLS local id and weight, the VALIDITY popcount and tail bits, the
/// exact end of the file, and the stored schema. Installs nothing.
fn parse(bytes: &[u8]) -> Result<Parsed, SnapshotError> {
    let mut file = Cur::new(bytes, "FILE");
    check_magic(&mut file, SNAPSHOT_MAGIC, || SnapshotError::NotASnapshot)?;
    let meta = read_meta(&mut file)?;
    let (arity, slots) = (meta.attrs.len(), meta.slots);

    let rules = if meta.has_rules {
        let mut seg = read_segment(&mut file, SEG_RULES, "RULES")?;
        let text = seg.string()?;
        seg.finish()?;
        Some(text)
    } else {
        None
    };

    let (values, counts) = read_dict(&mut file)?;
    let dict_len = values.len();

    // The payload starts past the segment's tag and length.
    let cols = file.pos + 1 + 8;
    let cols_seg = read_segment(&mut file, SEG_COLS, "COLS")?;
    let expected = arity
        .checked_mul(slots)
        .and_then(|n| n.checked_mul(12))
        .ok_or_else(|| cols_seg.corrupt("column extent overflows".into()))?;
    if cols_seg.bytes.len() != expected {
        return Err(cols_seg.corrupt(format!(
            "column payload is {} bytes, expected {expected}",
            cols_seg.bytes.len()
        )));
    }
    let mut weights = Vec::with_capacity(arity);
    for a in 0..arity {
        let run = &cols_seg.bytes[a * slots * 12..(a + 1) * slots * 12];
        let (ids, wbytes) = run.split_at(slots * 4);
        for (slot, chunk) in ids.chunks_exact(4).enumerate() {
            let l = u32::from_le_bytes(chunk.try_into().unwrap());
            if l as usize >= dict_len {
                return Err(cols_seg.corrupt(format!(
                    "attribute {a} slot {slot} references dictionary entry {l} of {dict_len}"
                )));
            }
        }
        let mut col = Vec::with_capacity(slots);
        for (slot, chunk) in wbytes.chunks_exact(8).enumerate() {
            let wt = f64::from_bits(u64::from_le_bytes(chunk.try_into().unwrap()));
            if !wt.is_finite() || !(0.0..=1.0).contains(&wt) {
                return Err(cols_seg.corrupt(format!(
                    "attribute {a} slot {slot} weight {wt} outside [0, 1]"
                )));
            }
            col.push(wt);
        }
        weights.push(col);
    }

    let mut validity_seg = read_segment(&mut file, SEG_VALIDITY, "VALIDITY")?;
    let words = slots.div_ceil(64);
    let mut validity = Vec::with_capacity(words);
    for _ in 0..words {
        validity.push(validity_seg.u64()?);
    }
    validity_seg.finish()?;
    let live: usize = validity.iter().map(|w| w.count_ones() as usize).sum();
    if live != meta.live {
        return Err(validity_seg.corrupt(format!(
            "bitmap has {live} live slots, META declares {}",
            meta.live
        )));
    }
    if !slots.is_multiple_of(64) && validity.last().is_some_and(|w| w >> (slots % 64) != 0) {
        return Err(validity_seg.corrupt("bits set beyond the last slot".into()));
    }
    file.finish().map_err(|_| SnapshotError::Corrupt {
        segment: "FILE",
        detail: "trailing bytes after the last segment".into(),
    })?;

    let schema = Schema::new(&meta.name, &meta.attrs)?;
    Ok(Parsed {
        meta,
        schema,
        rules,
        values,
        counts,
        cols,
        weights,
        validity,
    })
}

/// Parse and install a version-1 snapshot held in memory: the file is
/// validated in full first (a rejected file installs nothing), then the
/// dictionary goes into a **fresh pool of its own** and the id columns
/// are copied out through the local→pool id remap (see the module docs'
/// *Reader* section). Nothing the process loaded before can influence
/// the relation's ids or frequency counters, and evicting the dataset
/// frees its whole dictionary.
pub fn read_snapshot(bytes: &[u8]) -> Result<LoadedSnapshot, SnapshotError> {
    let p = parse(bytes)?;
    let slots = p.meta.slots;

    let pool = ValuePool::new_handle();
    let pool_ids = pool.install_column(&p.values, &p.counts);
    let cols: Vec<Vec<ValueId>> = (0..p.schema.arity())
        .map(|a| {
            let offset = p.cols + a * slots * 12;
            bytes[offset..offset + slots * 4]
                .chunks_exact(4)
                .map(|c| pool_ids[u32::from_le_bytes(c.try_into().unwrap()) as usize])
                .collect()
        })
        .collect();
    let store = ColumnStore::from_parts(slots, cols, p.weights, p.validity, pool);
    let relation = Relation::from_store(p.schema, store)?;
    Ok(LoadedSnapshot {
        relation,
        rules: p.rules,
    })
}

/// Read a snapshot's self-description without installing anything.
///
/// The file goes through the same validation as a load, so `info` on a
/// file that will not load errors rather than describing it.
pub fn snapshot_info(bytes: &[u8]) -> Result<SnapshotInfo, SnapshotError> {
    let Parsed { meta, values, .. } = parse(bytes)?;
    Ok(SnapshotInfo {
        relation: meta.name,
        attrs: meta.attrs,
        slots: meta.slots,
        live: meta.live,
        dict_entries: values.len(),
        has_rules: meta.has_rules,
        bytes: bytes.len(),
    })
}

/// One framed segment as the diagnostic walker saw it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SegmentInfo {
    /// Segment name from its tag (`"UNKNOWN"` for a corrupted tag byte).
    pub name: &'static str,
    /// Payload size in bytes (framing excluded).
    pub payload_bytes: usize,
    /// Whether the stored checksum matches the payload.
    pub checksum_ok: bool,
}

/// Walk a snapshot's frames for diagnostics: per-segment payload sizes
/// and checksum status. Unlike [`snapshot_info`] (which is strict — a
/// corrupt file errors), this keeps walking past checksum mismatches so
/// `snapshot info` can say *which* segment of a damaged file is bad;
/// only structural damage (bad magic/version, a truncated frame) is a
/// typed error.
pub fn snapshot_segments(bytes: &[u8]) -> Result<Vec<SegmentInfo>, SnapshotError> {
    let mut file = Cur::new(bytes, "FILE");
    check_magic(&mut file, SNAPSHOT_MAGIC, || SnapshotError::NotASnapshot)?;
    let mut out = Vec::new();
    while file.pos < file.bytes.len() {
        let tag = file.u8()?;
        let name = match tag {
            SEG_META => "META",
            SEG_RULES => "RULES",
            SEG_DICT => "DICT",
            SEG_COLS => "COLS",
            SEG_VALIDITY => "VALIDITY",
            SEG_EDITS => "EDITS",
            _ => "UNKNOWN",
        };
        let len_bytes: [u8; 8] = file.take(8)?.try_into().unwrap();
        let len = u64::from_le_bytes(len_bytes);
        let len = usize::try_from(len).map_err(|_| SnapshotError::Corrupt {
            segment: "FILE",
            detail: format!("segment length {len} overflows"),
        })?;
        if len > file.bytes.len() - file.pos {
            return Err(SnapshotError::Truncated { offset: file.pos });
        }
        let payload = file.take(len)?;
        let stored = file.u64()?;
        out.push(SegmentInfo {
            name,
            payload_bytes: len,
            checksum_ok: fnv1a(&[&[tag], &len_bytes, payload]) == stored,
        });
    }
    Ok(out)
}

// ---------------------------------------------------------------------------
// edit logs

/// Serialize an [`EditLog`] against `rel_name`/`arity` into `w`. `pool`
/// is the pool the log's ids were produced in (the repaired relation's —
/// see [`Relation::pool`]). The log carries its own dictionary of every
/// value it touches, so it replays in any process.
pub fn write_edit_log(
    log: &EditLog,
    rel_name: &str,
    arity: usize,
    pool: &ValuePool,
    w: &mut dyn Write,
) -> Result<(), SnapshotError> {
    w.write_all(&edit_log_to_vec(log, rel_name, arity, pool))?;
    Ok(())
}

/// [`write_edit_log`] into a fresh buffer.
pub fn edit_log_to_vec(log: &EditLog, rel_name: &str, arity: usize, pool: &ValuePool) -> Vec<u8> {
    let mut dict = DictBuilder::new();
    let mut edits = Vec::new();
    for e in log.edits() {
        let from = dict.local_of(e.from);
        let to = dict.local_of(e.to);
        put_u32(&mut edits, e.tuple.0);
        put_u16(&mut edits, e.attr.0);
        put_u32(&mut edits, from);
        put_u32(&mut edits, to);
    }

    let mut meta = Vec::new();
    put_string(&mut meta, rel_name);
    put_u16(&mut meta, arity as u16);
    put_u64(&mut meta, log.len() as u64);
    put_u32(&mut meta, 0);

    let mut out = Vec::new();
    out.extend_from_slice(EDIT_LOG_MAGIC);
    put_u32(&mut out, FORMAT_VERSION);
    put_segment(&mut out, SEG_META, &meta);
    put_segment(&mut out, SEG_DICT, &dict.encode(pool));
    put_segment(&mut out, SEG_EDITS, &edits);
    out
}

/// An edit log parsed back from bytes, with the context it was written
/// against.
#[derive(Debug)]
pub struct LoadedEditLog {
    /// The replayable log, ids remapped into the process pool.
    pub log: EditLog,
    /// The relation name the log was derived for.
    pub relation: String,
    /// The arity the log was derived for.
    pub arity: usize,
}

/// Parse a version-1 edit-log file, remapping its dictionary into
/// `pool` — the pool of the relation the log will replay against.
/// Dictionary values are interned (with no occurrence-count
/// contribution); edits come back in canonical order ready for
/// [`EditLog::apply`].
pub fn read_edit_log_in(bytes: &[u8], pool: &ValuePool) -> Result<LoadedEditLog, SnapshotError> {
    let mut file = Cur::new(bytes, "FILE");
    check_magic(&mut file, EDIT_LOG_MAGIC, || SnapshotError::NotAnEditLog)?;

    let mut meta = read_segment(&mut file, SEG_META, "META")?;
    let relation = meta.string()?;
    let arity = meta.u16()? as usize;
    let count = meta.u64()?;
    let flags = meta.u32()?;
    if flags != 0 {
        return Err(meta.corrupt(format!("unknown flag bits {flags:#x}")));
    }
    meta.finish()?;

    let (values, counts) = read_dict(&mut file)?;
    // The edit-log spec fixes every dictionary occurrence count at zero:
    // replaying a log must never perturb the pool's frequency counters
    // (FINDV's tie-break). Enforce it like every
    // other "must" of the format.
    if let Some(i) = counts.iter().position(|n| *n != 0) {
        return Err(SnapshotError::Corrupt {
            segment: "DICT",
            detail: format!(
                "edit-log dictionary entry {i} carries occurrence count {} (must be 0)",
                counts[i]
            ),
        });
    }
    let dict_len = values.len();

    let mut seg = read_segment(&mut file, SEG_EDITS, "EDITS")?;
    let expected = count.checked_mul(14).and_then(|n| usize::try_from(n).ok());
    if expected != Some(seg.bytes.len()) {
        return Err(seg.corrupt(format!(
            "edit payload is {} bytes, expected 14 × {count}",
            seg.bytes.len()
        )));
    }
    let mut edits = Vec::with_capacity(seg.bytes.len() / 14);
    for _ in 0..count {
        let tuple = TupleId(seg.u32()?);
        let attr = seg.u16()?;
        if attr as usize >= arity {
            return Err(seg.corrupt(format!("edit on {tuple} names attribute {attr} of {arity}")));
        }
        let from = seg.u32()?;
        let to = seg.u32()?;
        for l in [from, to] {
            if l as usize >= dict_len {
                return Err(seg.corrupt(format!(
                    "edit on {tuple} references dictionary entry {l} of {dict_len}"
                )));
            }
        }
        edits.push((tuple, AttrId(attr), from, to));
    }
    seg.finish()?;
    file.finish().map_err(|_| SnapshotError::Corrupt {
        segment: "FILE",
        detail: "trailing bytes after the last segment".into(),
    })?;

    let pool_ids = pool.install_column(&values, &counts);
    let edits: Vec<Edit> = edits
        .into_iter()
        .map(|(tuple, attr, from, to)| Edit {
            tuple,
            attr,
            from: pool_ids[from as usize],
            to: pool_ids[to as usize],
        })
        .collect();
    let log = EditLog::from_edits(edits).map_err(|e| SnapshotError::Corrupt {
        segment: "EDITS",
        detail: e.to_string(),
    })?;
    Ok(LoadedEditLog {
        log,
        relation,
        arity,
    })
}

// ---------------------------------------------------------------------------
// catalog

/// A directory of named dataset snapshots.
///
/// The catalog owns the mapping *dataset name → snapshot file*
/// (`<dir>/<name>.cfds`), validates names so they stay portable file
/// stems, and writes through a temp-file + rename so a crashed save
/// never leaves a half-written snapshot under a dataset name.
#[derive(Clone, Debug)]
pub struct Catalog {
    dir: PathBuf,
}

impl Catalog {
    /// A handle on the catalog directory. Nothing is touched on disk:
    /// read operations (`load`, `info`, `list`) error with
    /// [`SnapshotError::MissingCatalog`] when the directory does not
    /// exist — a mistyped `--catalog` path must not silently create an
    /// empty catalog — and only [`Catalog::save`] creates it.
    pub fn open(dir: impl Into<PathBuf>) -> Result<Catalog, SnapshotError> {
        Ok(Catalog { dir: dir.into() })
    }

    fn require_dir(&self) -> Result<(), SnapshotError> {
        if self.dir.is_dir() {
            Ok(())
        } else {
            Err(SnapshotError::MissingCatalog(self.dir.clone()))
        }
    }

    /// The backing directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn checked_name(name: &str) -> Result<&str, SnapshotError> {
        let ok = !name.is_empty()
            && name.len() <= 128
            && !name.starts_with('.')
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '.' | '_' | '-'));
        if ok {
            Ok(name)
        } else {
            Err(SnapshotError::DatasetName(name.to_string()))
        }
    }

    /// The path a dataset's snapshot lives at (whether or not it exists).
    pub fn snapshot_path(&self, name: &str) -> Result<PathBuf, SnapshotError> {
        Ok(self
            .dir
            .join(format!("{}.{SNAPSHOT_EXT}", Self::checked_name(name)?)))
    }

    fn read_file(&self, name: &str) -> Result<Vec<u8>, SnapshotError> {
        let path = self.snapshot_path(name)?;
        self.require_dir()?;
        match fs::read(&path) {
            Ok(bytes) => Ok(bytes),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                Err(SnapshotError::UnknownDataset(name.to_string()))
            }
            Err(e) => Err(e.into()),
        }
    }

    /// Save `rel` (plus optional rule text) under `name`, replacing any
    /// previous snapshot of that dataset. Returns the file path.
    pub fn save(
        &self,
        name: &str,
        rel: &Relation,
        rules: Option<&str>,
    ) -> Result<PathBuf, SnapshotError> {
        let path = self.snapshot_path(name)?;
        fs::create_dir_all(&self.dir)?;
        let tmp = path.with_extension(format!("{SNAPSHOT_EXT}.tmp"));
        fs::write(&tmp, snapshot_to_vec(rel, rules))?;
        fs::rename(&tmp, &path)?;
        Ok(path)
    }

    /// Load the dataset `name`: read its snapshot file and install it
    /// through [`read_snapshot`].
    pub fn load(&self, name: &str) -> Result<LoadedSnapshot, SnapshotError> {
        read_snapshot(&self.read_file(name)?)
    }

    /// Describe the dataset `name` without installing it.
    pub fn info(&self, name: &str) -> Result<SnapshotInfo, SnapshotError> {
        snapshot_info(&self.read_file(name)?)
    }

    /// Per-segment byte sizes and checksum status of `name`'s snapshot
    /// file — [`snapshot_segments`] over the catalog file.
    pub fn segments(&self, name: &str) -> Result<Vec<SegmentInfo>, SnapshotError> {
        snapshot_segments(&self.read_file(name)?)
    }

    /// Dataset names present in the catalog, sorted.
    pub fn list(&self) -> Result<Vec<String>, SnapshotError> {
        self.require_dir()?;
        let mut names = Vec::new();
        for entry in fs::read_dir(&self.dir)? {
            let path = entry?.path();
            if path.extension().and_then(|e| e.to_str()) == Some(SNAPSHOT_EXT) {
                if let Some(stem) = path.file_stem().and_then(|s| s.to_str()) {
                    if Self::checked_name(stem).is_ok() {
                        names.push(stem.to_string());
                    }
                }
            }
        }
        names.sort();
        Ok(names)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tuple::Tuple;

    fn sample() -> Relation {
        let schema = Schema::new("order", &["id", "name", "qty"]).unwrap();
        let mut r = Relation::new_in(schema, ValuePool::new_handle());
        for row in [
            [Value::str("a23"), Value::str("H. Porter"), Value::int(2)],
            [Value::str("a12"), Value::str("says \"hi\""), Value::Null],
            [Value::str("a23"), Value::Null, Value::int(-7)],
        ] {
            r.insert(Tuple::new_in(row, r.pool())).unwrap();
        }
        r.set_weights(TupleId(1), &[0.25, 1.0, 0.0]).unwrap();
        r
    }

    fn assert_same(a: &Relation, b: &Relation) {
        assert_eq!(a.schema().name(), b.schema().name());
        assert_eq!(a.schema().arity(), b.schema().arity());
        assert_eq!(a.slot_count(), b.slot_count());
        assert_eq!(a.len(), b.len());
        for slot in 0..a.slot_count() {
            let id = TupleId(slot as u32);
            assert_eq!(a.is_live(id), b.is_live(id), "liveness of {id}");
            if !a.is_live(id) {
                continue;
            }
            for attr in a.schema().attr_ids() {
                assert_eq!(
                    a.tuple(id).unwrap().value(attr),
                    b.tuple(id).unwrap().value(attr),
                    "{id} {attr}"
                );
                assert_eq!(
                    a.cell_weight(id, attr).unwrap().to_bits(),
                    b.cell_weight(id, attr).unwrap().to_bits(),
                    "{id} {attr} weight"
                );
            }
        }
    }

    #[test]
    fn snapshot_round_trips_values_weights_and_rules() {
        let r = sample();
        let bytes = snapshot_to_vec(&r, Some("phi: [id] -> [name]"));
        let loaded = read_snapshot(&bytes).unwrap();
        assert_same(&r, &loaded.relation);
        assert_eq!(loaded.rules.as_deref(), Some("phi: [id] -> [name]"));
        let no_rules = read_snapshot(&snapshot_to_vec(&r, None)).unwrap();
        assert!(no_rules.rules.is_none());
    }

    #[test]
    fn snapshot_preserves_tombstones() {
        let mut r = sample();
        r.delete(TupleId(1)).unwrap();
        let loaded = read_snapshot(&snapshot_to_vec(&r, None)).unwrap();
        assert_same(&r, &loaded.relation);
        assert!(!loaded.relation.is_live(TupleId(1)));
        assert_eq!(loaded.relation.slot_count(), 3);
    }

    #[test]
    fn snapshot_bytes_are_canonical() {
        // Saving the loaded relation reproduces the file byte for byte,
        // even though pool ids may differ between the two relations'
        // construction histories.
        let r = sample();
        let bytes = snapshot_to_vec(&r, Some("rules"));
        let loaded = read_snapshot(&bytes).unwrap();
        assert_eq!(bytes, snapshot_to_vec(&loaded.relation, Some("rules")));
    }

    #[test]
    fn read_snapshot_installs_into_a_fresh_pool() {
        let r = sample();
        let loaded = read_snapshot(&snapshot_to_vec(&r, None)).unwrap();
        // The dataset gets its own pool — not the saved relation's — with
        // counts exactly as a cell-by-cell load would produce.
        assert!(!std::sync::Arc::ptr_eq(loaded.relation.pool(), r.pool()));
        let pool = loaded.relation.pool();
        let id = pool.lookup(&Value::str("a23")).unwrap();
        assert_eq!(pool.use_count(id), 2, "a23 occurs in two live cells");
        // Loading again yields another independent pool.
        let again = read_snapshot(&snapshot_to_vec(&r, None)).unwrap();
        assert!(!std::sync::Arc::ptr_eq(
            again.relation.pool(),
            loaded.relation.pool()
        ));
    }

    #[test]
    fn snapshot_info_reports_without_installing() {
        let r = sample();
        let info = snapshot_info(&snapshot_to_vec(&r, Some("x"))).unwrap();
        assert_eq!(info.relation, "order");
        assert_eq!(info.attrs, vec!["id", "name", "qty"]);
        assert_eq!(info.slots, 3);
        assert_eq!(info.live, 3);
        assert!(info.has_rules);
        // null + a23, H. Porter, 2, a12, says "hi", -7
        assert_eq!(info.dict_entries, 7);
    }

    #[test]
    fn wrong_magic_and_version_are_typed_errors() {
        let r = sample();
        let mut bytes = snapshot_to_vec(&r, None);
        assert!(matches!(
            read_snapshot(b"not a snapshot at all"),
            Err(SnapshotError::NotASnapshot)
        ));
        assert!(matches!(
            read_edit_log_in(&bytes, &ValuePool::new()),
            Err(SnapshotError::NotAnEditLog)
        ));
        bytes[9] = 0xFF; // version byte
        assert!(matches!(
            read_snapshot(&bytes),
            Err(SnapshotError::UnsupportedVersion(_))
        ));
        assert!(matches!(
            read_snapshot(&[]),
            Err(SnapshotError::NotASnapshot)
        ));
    }

    #[test]
    fn payload_corruption_is_a_checksum_error() {
        let r = sample();
        let bytes = snapshot_to_vec(&r, None);
        // Flip one byte somewhere in the middle of the dictionary.
        let mut corrupt = bytes.clone();
        let mid = bytes.len() / 2;
        corrupt[mid] ^= 0x40;
        match read_snapshot(&corrupt) {
            Err(
                SnapshotError::Checksum { .. }
                | SnapshotError::Corrupt { .. }
                | SnapshotError::Truncated { .. },
            ) => {}
            other => panic!("expected corruption error, got {other:?}"),
        }
        // Trailing garbage is rejected too.
        let mut padded = bytes.clone();
        padded.push(0);
        assert!(read_snapshot(&padded).is_err());
    }

    #[test]
    fn edit_log_round_trips() {
        let r = sample();
        let mut repaired = r.clone();
        repaired
            .set_value(TupleId(0), AttrId(1), Value::str("Harry Porter"))
            .unwrap();
        repaired
            .set_value(TupleId(2), AttrId(2), Value::Null)
            .unwrap();
        let log = EditLog::between(&r, &repaired).unwrap();
        let bytes = edit_log_to_vec(&log, "order", 3, r.pool());
        let loaded = read_edit_log_in(&bytes, r.pool()).unwrap();
        assert_eq!(loaded.relation, "order");
        assert_eq!(loaded.arity, 3);
        assert_eq!(loaded.log, log);
        let mut replayed = r.clone();
        loaded.log.apply(&mut replayed).unwrap();
        assert_same(&repaired, &replayed);
    }

    #[test]
    fn edit_log_rejects_nonzero_dictionary_counts() {
        // Hand-assemble a structurally valid log whose DICT carries a
        // nonzero occurrence count — checksums pass, the count rule
        // must still reject it, or replays would skew the pool's
        // frequency counters.
        let mut meta = Vec::new();
        put_string(&mut meta, "r");
        put_u16(&mut meta, 1);
        put_u64(&mut meta, 0); // zero edits
        put_u32(&mut meta, 0);
        let mut dict = Vec::new();
        put_u32(&mut dict, 2);
        put_value(&mut dict, &Value::Null);
        put_u64(&mut dict, 0);
        put_value(&mut dict, &Value::str("x"));
        put_u64(&mut dict, 7); // the violation
        let mut bytes = Vec::new();
        bytes.extend_from_slice(EDIT_LOG_MAGIC);
        put_u32(&mut bytes, FORMAT_VERSION);
        put_segment(&mut bytes, SEG_META, &meta);
        put_segment(&mut bytes, SEG_DICT, &dict);
        put_segment(&mut bytes, SEG_EDITS, &[]);
        match read_edit_log_in(&bytes, &ValuePool::new()) {
            Err(SnapshotError::Corrupt { segment, detail }) => {
                assert_eq!(segment, "DICT");
                assert!(detail.contains("occurrence count 7"), "{detail}");
            }
            other => panic!("expected DICT corruption error, got {other:?}"),
        }
    }

    #[test]
    fn catalog_read_paths_do_not_create_the_directory() {
        let dir = std::env::temp_dir().join(format!(
            "cfd-catalog-missing-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = fs::remove_dir_all(&dir);
        let cat = Catalog::open(&dir).unwrap();
        for result in [
            cat.load("x").map(|_| ()).err(),
            cat.info("x").map(|_| ()).err(),
            cat.list().map(|_| ()).err(),
        ] {
            assert!(
                matches!(result, Some(SnapshotError::MissingCatalog(_))),
                "{result:?}"
            );
        }
        assert!(!dir.exists(), "read paths must not create the catalog");
        // save creates it
        cat.save("d", &sample(), None).unwrap();
        assert!(dir.is_dir());
        assert_eq!(cat.list().unwrap(), vec!["d".to_string()]);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn snapshot_segments_lists_frames_in_file_order() {
        let r = sample();
        let bytes = snapshot_to_vec(&r, Some("x"));
        let segs = snapshot_segments(&bytes).unwrap();
        let names: Vec<&str> = segs.iter().map(|s| s.name).collect();
        assert_eq!(names, vec!["META", "RULES", "DICT", "COLS", "VALIDITY"]);
        assert!(segs.iter().all(|s| s.checksum_ok));
        // Payload bytes + framing must account for the whole file.
        let framed: usize = segs.iter().map(|s| s.payload_bytes + 1 + 8 + 8).sum();
        assert_eq!(framed + SNAPSHOT_MAGIC.len() + 4, bytes.len());
        // A payload flip marks exactly the damaged segment; the walk
        // still completes (best effort) so info can say *which* one.
        let rules_off = SNAPSHOT_MAGIC.len() + 4 + 1 + 8 + segs[0].payload_bytes + 8 + 1 + 8;
        let mut corrupt = bytes.clone();
        corrupt[rules_off] ^= 0x01;
        let segs = snapshot_segments(&corrupt).unwrap();
        assert!(!segs[1].checksum_ok, "RULES must report BAD");
        assert!(segs[0].checksum_ok && segs[2].checksum_ok);
        // Structural damage stays a typed error.
        assert!(snapshot_segments(&bytes[..bytes.len() - 3]).is_err());
        assert!(snapshot_segments(b"junk").is_err());
    }

    #[test]
    fn catalog_saves_loads_lists_and_validates_names() {
        let dir = std::env::temp_dir().join(format!("cfd-catalog-test-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let cat = Catalog::open(&dir).unwrap();
        let r = sample();
        cat.save("orders-v1", &r, Some("rules here")).unwrap();
        assert_eq!(cat.list().unwrap(), vec!["orders-v1".to_string()]);
        let loaded = cat.load("orders-v1").unwrap();
        assert_same(&r, &loaded.relation);
        assert_eq!(loaded.rules.as_deref(), Some("rules here"));
        let info = cat.info("orders-v1").unwrap();
        assert_eq!(info.live, 3);
        assert!(matches!(
            cat.load("missing"),
            Err(SnapshotError::UnknownDataset(_))
        ));
        for bad in ["", "../evil", "a/b", ".hidden", "nul\0byte"] {
            assert!(
                matches!(cat.save(bad, &r, None), Err(SnapshotError::DatasetName(_))),
                "{bad:?} must be rejected"
            );
        }
        let _ = fs::remove_dir_all(&dir);
    }
}
