//! Minimal CSV import/export for relations.
//!
//! Hand-rolled (RFC-4180-style quoting) to avoid external dependencies; the
//! examples use it to persist generated datasets and repairs. `null` is
//! encoded as the unquoted token `\N` (PostgreSQL convention), so the empty
//! string stays distinguishable from `null`. Integers round-trip as digits;
//! anything that parses as `i64` *and* was written by [`write_relation`]
//! from an `Int` is prefixed with `#i:` to keep types stable.
//!
//! Import splits each line with one walk over its bytes, eight at a
//! time, noting the commas. A line without a `"` yields its fields in
//! place, borrowed from the input; only a line that contains a quote goes
//! through the unescaping splitter.
//!
//! [`read_relation_in`] reads the input into one buffer, and each column
//! deduplicates its unquoted fields on their borrowed text (a quoted
//! line's fields on text plus quoting) in first-occurrence order, so a
//! cell costs one hash probe and no allocation. The distinct fields are
//! decoded once and installed with their occurrence counts through
//! [`ValuePool::install_column`] — the same bulk install snapshot load
//! uses — one call per column in schema order. A pool allocates ids in
//! first-occurrence order within a column, so this gives exactly the ids
//! and `use_count`s that interning every cell in row order would. Two
//! fields that decode to one value (`#i:7` and `#i:07`, or `x` on a plain
//! line and `x` on a quoted one) simply install the same value twice and
//! add up their counts. The id columns go straight into a
//! [`ColumnStore`](crate::ColumnStore) via [`Relation::from_columns_in`];
//! no intermediate [`Tuple`](crate::Tuple) objects are built.
//!
//! [`read_weights`] needs nothing to outlive its line, so it reads one
//! line at a time through a reused buffer, parses each row with
//! `str::parse::<f64>`, and writes it straight into the live slots'
//! weight columns.
//!
//! Export encodes each distinct id once per call and streams rows to the
//! writer in bounded chunks.

use std::borrow::Cow;
use std::fmt::Write as _;
use std::io::{self, BufRead, Write};

use crate::error::ModelError;
use crate::hash::FixedMap;
use crate::pool::{ValueId, ValuePool};
use crate::relation::{Relation, TupleId};
use crate::schema::{AttrId, Schema};
use crate::storage::RowRef;
use crate::value::Value;

const NULL_TOKEN: &str = "\\N";
const INT_PREFIX: &str = "#i:";

/// Rendered bytes [`write_relation`] buffers before handing them to the
/// writer.
const WRITE_CHUNK: usize = 64 * 1024;

fn escape(field: &str, out: &mut String) {
    escape_with(field, out, false)
}

/// Like [`escape`], but `force` quotes the field even when its characters
/// would not require it — used for literal strings that would otherwise
/// decode as the null token or an int tag.
fn escape_with(field: &str, out: &mut String, force: bool) {
    // Empty fields are quoted so a row of empty strings is never mistaken
    // for a blank line.
    let needs_quotes = force || field.is_empty() || field.contains([',', '"', '\n', '\r']);
    if needs_quotes {
        out.push('"');
        for c in field.chars() {
            if c == '"' {
                out.push('"');
            }
            out.push(c);
        }
        out.push('"');
    } else {
        out.push_str(field);
    }
}

fn encode_value(v: &Value, out: &mut String) {
    match v {
        Value::Null => out.push_str(NULL_TOKEN),
        Value::Int(i) => {
            out.push_str(INT_PREFIX);
            out.push_str(&i.to_string());
        }
        // A literal string that *looks like* the null token or an int tag
        // is force-quoted (with standard quote doubling), and quoted
        // fields always decode verbatim — so `Str("\\N")` and
        // `Str("#i:212")` survive the round trip.
        Value::Str(s) if &**s == NULL_TOKEN || s.starts_with(INT_PREFIX) => {
            escape_with(s, out, true)
        }
        Value::Str(s) => escape(s, out),
    }
}

fn decode_value(field: &Field) -> Value {
    if field.quoted {
        Value::str(&*field.text)
    } else {
        decode_unquoted(&field.text)
    }
}

/// The value of an unquoted field: the null token, an int tag, or a
/// string.
fn decode_unquoted(text: &str) -> Value {
    if text == NULL_TOKEN {
        Value::Null
    } else if let Some(rest) = text.strip_prefix(INT_PREFIX) {
        rest.parse::<i64>()
            .map(Value::Int)
            .unwrap_or_else(|_| Value::str(text))
    } else {
        Value::str(text)
    }
}

/// One CSV field plus whether any part of it was quoted — quoting marks a
/// field as a verbatim string for [`decode_value`]. The text borrows from
/// the input unless unescaping had to rewrite it.
#[derive(PartialEq, Eq, Hash)]
struct Field<'a> {
    text: Cow<'a, str>,
    quoted: bool,
}

/// Write `rel` as CSV: a header row of attribute names, then one row per
/// live tuple (in id order). Weights are not persisted.
pub fn write_relation<W: Write>(rel: &Relation, w: &mut W) -> Result<(), ModelError> {
    let mut out = String::new();
    write_header(rel, &mut out);
    write_tuples(rel, rel.iter().map(|(_, t)| t), out, w)
}

/// Write the rows of the live tuples `ids`, in the given order and without
/// a header, byte-for-byte as [`write_relation`] renders them: each row's
/// encoding depends on its own cells only, so a cached rendering of a
/// relation followed by `write_rows` over later ids equals a full render.
pub fn write_rows<W: Write>(rel: &Relation, ids: &[TupleId], w: &mut W) -> Result<(), ModelError> {
    let rows = ids
        .iter()
        .map(|id| rel.require(*id))
        .collect::<Result<Vec<_>, _>>()?;
    write_tuples(rel, rows.into_iter(), String::new(), w)
}

/// Append `rows` to `out` and write it all through `w` in chunks.
fn write_tuples<'r, W: Write>(
    rel: &'r Relation,
    rows: impl Iterator<Item = RowRef<'r>>,
    mut out: String,
    w: &mut W,
) -> Result<(), ModelError> {
    // The encoded text of every id met so far, as spans of `encoded`
    // indexed by id: each distinct value is resolved and escaped once.
    let mut encoded = String::new();
    let mut spans: Vec<Option<(usize, usize)>> = Vec::new();
    let pool = rel.pool();
    let arity = rel.schema().arity();
    for t in rows {
        for a in 0..arity {
            if a > 0 {
                out.push(',');
            }
            let id = t.id(AttrId(a as u16));
            if id.index() >= spans.len() {
                spans.resize(id.index() + 1, None);
            }
            let (start, end) = *spans[id.index()].get_or_insert_with(|| {
                let start = encoded.len();
                pool.with_value(id, |v| encode_value(v, &mut encoded));
                (start, encoded.len())
            });
            out.push_str(&encoded[start..end]);
        }
        out.push('\n');
        if out.len() >= WRITE_CHUNK {
            w.write_all(out.as_bytes())?;
            out.clear();
        }
    }
    w.write_all(out.as_bytes())?;
    Ok(())
}

/// The attribute names of `rel`, escaped, as one CSV line.
fn write_header(rel: &Relation, out: &mut String) {
    for (i, a) in rel.schema().attr_ids().enumerate() {
        if i > 0 {
            out.push(',');
        }
        escape(rel.schema().attr_name(a), out);
    }
    out.push('\n');
}

/// Split one CSV record, honoring quotes. Returns an error message on
/// malformed quoting.
fn split_record(line: &str) -> Result<Vec<Field<'static>>, String> {
    let mut fields = Vec::new();
    let mut cur = String::new();
    let mut cur_quoted = false;
    let mut chars = line.chars().peekable();
    let mut in_quotes = false;
    while let Some(c) = chars.next() {
        if in_quotes {
            match c {
                '"' => {
                    if chars.peek() == Some(&'"') {
                        chars.next();
                        cur.push('"');
                    } else {
                        in_quotes = false;
                    }
                }
                _ => cur.push(c),
            }
        } else {
            match c {
                '"' => {
                    if cur.is_empty() {
                        in_quotes = true;
                        cur_quoted = true;
                    } else {
                        return Err("quote inside unquoted field".to_string());
                    }
                }
                ',' => {
                    fields.push(Field {
                        text: Cow::Owned(std::mem::take(&mut cur)),
                        quoted: std::mem::take(&mut cur_quoted),
                    });
                }
                _ => cur.push(c),
            }
        }
    }
    if in_quotes {
        return Err("unterminated quote".to_string());
    }
    fields.push(Field {
        text: Cow::Owned(cur),
        quoted: cur_quoted,
    });
    Ok(fields)
}

/// One data or weight record: the unquoted fields of a quote-free line,
/// borrowed in place, or what [`split_record`] made of a line with a
/// `"`.
enum Record<'a, 'e> {
    /// A quote-free line and the end offset of each of its fields.
    Plain(&'a str, &'e [usize]),
    /// The unescaped fields of a line that holds a quote.
    Split(Vec<Field<'static>>),
}

impl<'a, 'e> Record<'a, 'e> {
    /// Split `line` with one walk over its bytes, eight at a time,
    /// noting each comma in `ends` (reused across lines). The first `"`
    /// hands the whole line to [`split_record`]. A quote-free line yields
    /// exactly what [`split_record`] would, without copying.
    fn split(line: &'a str, ends: &'e mut Vec<usize>) -> Result<Self, String> {
        ends.clear();
        let mut words = line.as_bytes().chunks_exact(8);
        let mut at = 0;
        for word in &mut words {
            let word = u64::from_le_bytes(word.try_into().expect("eight bytes"));
            if bytes_equal(word, b'"') != 0 {
                return split_record(line).map(Record::Split);
            }
            let mut commas = bytes_equal(word, b',');
            while commas != 0 {
                ends.push(at + commas.trailing_zeros() as usize / 8);
                commas &= commas - 1;
            }
            at += 8;
        }
        for (i, &b) in words.remainder().iter().enumerate() {
            match b {
                b',' => ends.push(at + i),
                b'"' => return split_record(line).map(Record::Split),
                _ => {}
            }
        }
        ends.push(line.len());
        Ok(Record::Plain(line, ends))
    }

    fn len(&self) -> usize {
        match self {
            Record::Plain(_, ends) => ends.len(),
            Record::Split(fields) => fields.len(),
        }
    }

    /// Call `f` on each field's text in order, quoting forgotten (a
    /// weight is read from its text alone), stopping at its first error.
    fn try_for_each_text<E>(&self, mut f: impl FnMut(&str) -> Result<(), E>) -> Result<(), E> {
        match self {
            Record::Plain(line, ends) => plain_fields(line, ends).try_for_each(f),
            Record::Split(fields) => fields.iter().try_for_each(|field| f(&field.text)),
        }
    }
}

/// `0x80` in each byte of the little-endian `word` that equals `byte`,
/// `0` in every other byte. Exact: no carry crosses a byte boundary.
#[inline]
fn bytes_equal(word: u64, byte: u8) -> u64 {
    const LOW7: u64 = 0x7f7f_7f7f_7f7f_7f7f;
    let x = word ^ (u64::from(byte) * 0x0101_0101_0101_0101);
    !(((x & LOW7) + LOW7) | x | LOW7)
}

/// The fields of a quote-free `line` whose field ends are `ends`.
fn plain_fields<'a, 'e>(line: &'a str, ends: &'e [usize]) -> impl Iterator<Item = &'a str> + 'e
where
    'a: 'e,
{
    let mut start = 0;
    ends.iter().map(move |&end| {
        let field = &line[start..end];
        start = end + 1;
        field
    })
}

/// The text of split fields, quoting forgotten — for headers, where
/// quoting carries no meaning.
fn field_texts(fields: Vec<Field>) -> Vec<String> {
    fields.into_iter().map(|f| f.text.into_owned()).collect()
}

/// The error `BufRead::lines` raises for a line that is not UTF-8.
fn not_utf8() -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidData,
        "stream did not contain valid UTF-8",
    )
}

/// All of `r` as text, for line-wise parsing from one buffer. When the
/// input is not valid UTF-8, the text stops before the first line that is
/// not, and that line's place holds the error `BufRead::lines` raises
/// there — so every error surfaces at the same point it used to.
fn read_text<R: BufRead>(r: &mut R) -> Result<(String, Option<io::Error>), ModelError> {
    let mut buf = Vec::new();
    r.read_to_end(&mut buf)?;
    match String::from_utf8(buf) {
        Ok(text) => Ok((text, None)),
        Err(e) => {
            let valid = e.utf8_error().valid_up_to();
            let mut bytes = e.into_bytes();
            let end = bytes[..valid]
                .iter()
                .rposition(|&b| b == b'\n')
                .map_or(0, |p| p + 1);
            bytes.truncate(end);
            let text = String::from_utf8(bytes).expect("whole lines before the first bad byte");
            Ok((text, Some(not_utf8())))
        }
    }
}

/// The lines of `text` exactly as `BufRead::lines` yields them (`\n` or
/// `\r\n` stripped, no empty line after a final newline), then `bad`.
fn text_lines(text: &str, bad: Option<io::Error>) -> impl Iterator<Item = io::Result<&str>> {
    text.split_inclusive('\n')
        .map(|l| {
            Ok(match l.strip_suffix('\n') {
                Some(l) => l.strip_suffix('\r').unwrap_or(l),
                None => l,
            })
        })
        .chain(bad.map(Err))
}

/// The header line of a CSV input (its first line, if any), split into
/// attribute names.
fn read_header(first: Option<io::Result<&str>>) -> Result<Vec<String>, ModelError> {
    let header = match first {
        Some(h) => h?,
        None => {
            return Err(ModelError::Csv {
                line: 1,
                message: "missing header".to_string(),
            })
        }
    };
    let fields = split_record(header).map_err(|message| ModelError::Csv { line: 1, message })?;
    Ok(field_texts(fields))
}

/// One column being read: its distinct fields in first-occurrence order
/// with their decoded values and occurrence counts, and each row's index
/// into that list (a local code until [`ColumnDict::install`] maps it to
/// a pool id).
#[derive(Default)]
struct ColumnDict<'a> {
    /// Unquoted fields of quote-free lines, by their borrowed text.
    plain: FixedMap<&'a str, u32>,
    /// Fields of lines that went through [`split_record`].
    split: FixedMap<Field<'static>, u32>,
    values: Vec<Value>,
    counts: Vec<u64>,
    cells: Vec<ValueId>,
}

impl<'a> ColumnDict<'a> {
    fn push_plain(&mut self, text: &'a str) {
        let values = &mut self.values;
        let code = *self.plain.entry(text).or_insert_with(|| {
            values.push(decode_unquoted(text));
            (values.len() - 1) as u32
        });
        self.count(code);
    }

    fn push_split(&mut self, field: Field<'static>) {
        let values = &mut self.values;
        let code = *self.split.entry(field).or_insert_with_key(|f| {
            values.push(decode_value(f));
            (values.len() - 1) as u32
        });
        self.count(code);
    }

    /// One more cell holding the field with local code `code`.
    fn count(&mut self, code: u32) {
        if code as usize == self.counts.len() {
            self.counts.push(0);
        }
        self.counts[code as usize] += 1;
        self.cells.push(ValueId(code));
    }

    /// Install the distinct values into `pool` and return the column as
    /// pool ids.
    fn install(self, pool: &ValuePool) -> Vec<ValueId> {
        let ids = pool.install_column(&self.values, &self.counts);
        let mut cells = self.cells;
        for c in &mut cells {
            *c = ids[c.index()];
        }
        cells
    }
}

/// Read a relation written by [`write_relation`], constructing the schema
/// from the header and naming the relation `name`, interning every cell
/// into `pool`. The result is columnar (see the module docs for how the
/// columns are deduplicated and installed).
pub fn read_relation_in<R: BufRead>(
    name: &str,
    r: &mut R,
    pool: std::sync::Arc<ValuePool>,
) -> Result<Relation, ModelError> {
    let (text, bad) = read_text(r)?;
    relation_from_text(name, &text, bad, pool)
}

/// The body of [`read_relation_in`] once the input is text. Not generic,
/// so the per-cell loop is compiled (and inlined) here, not in each
/// caller's crate.
fn relation_from_text(
    name: &str,
    text: &str,
    bad: Option<io::Error>,
    pool: std::sync::Arc<ValuePool>,
) -> Result<Relation, ModelError> {
    let mut lines = text_lines(text, bad);
    let attrs = read_header(lines.next())?;
    let schema = Schema::new(name, &attrs)?;
    let arity = schema.arity();
    let mut columns: Vec<ColumnDict> = (0..arity).map(|_| ColumnDict::default()).collect();
    let mut ends = Vec::with_capacity(arity);
    for (i, line) in lines.enumerate() {
        let line_no = i + 2;
        let line = line?;
        if line.is_empty() {
            continue;
        }
        let record = Record::split(line, &mut ends).map_err(|message| ModelError::Csv {
            line: line_no,
            message,
        })?;
        if record.len() != arity {
            return Err(ModelError::Csv {
                line: line_no,
                message: format!("expected {arity} fields, found {}", record.len()),
            });
        }
        match record {
            Record::Plain(line, ends) => {
                for (col, text) in columns.iter_mut().zip(plain_fields(line, ends)) {
                    col.push_plain(text);
                }
            }
            Record::Split(fields) => {
                for (col, field) in columns.iter_mut().zip(fields) {
                    col.push_split(field);
                }
            }
        }
    }
    let id_cols = columns.into_iter().map(|c| c.install(&pool)).collect();
    Relation::from_columns_in(schema, id_cols, None, pool)
}

/// Write the per-attribute confidence weights of `rel` as CSV: the same
/// header as [`write_relation`], then one row of decimal weights per live
/// tuple, aligned with the relation's id order. Kept separate from the
/// value CSV so plain data files stay interoperable with other tools.
pub fn write_weights<W: Write>(rel: &Relation, w: &mut W) -> Result<(), ModelError> {
    let mut line = String::new();
    write_header(rel, &mut line);
    w.write_all(line.as_bytes())?;
    for (_, t) in rel.iter() {
        line.clear();
        for (i, wt) in t.weights().iter().enumerate() {
            if i > 0 {
                line.push(',');
            }
            write!(line, "{wt}").expect("formatting into a String cannot fail");
        }
        line.push('\n');
        w.write_all(line.as_bytes())?;
    }
    Ok(())
}

/// Apply a weight file written by [`write_weights`] to `rel`, row-aligned
/// with the relation's live tuples in id order. The header must name the
/// relation's attributes in schema order, every weight must parse as a
/// finite `f64` in `[0, 1]`, and the row count must match. Each row is
/// checked whole, then written straight into the weight columns; on an
/// error the rows before the failing line stay written.
pub fn read_weights<R: BufRead>(rel: &mut Relation, r: &mut R) -> Result<(), ModelError> {
    weights_from_reader(rel, r)
}

/// The next line of `r`, read into `buf` and returned exactly as
/// `BufRead::lines` yields it.
fn next_line<'b>(r: &mut dyn BufRead, buf: &'b mut Vec<u8>) -> Option<io::Result<&'b str>> {
    buf.clear();
    match r.read_until(b'\n', buf) {
        Ok(0) => None,
        Ok(_) => {
            let mut line = &buf[..];
            if let Some(l) = line.strip_suffix(b"\n") {
                line = l.strip_suffix(b"\r").unwrap_or(l);
            }
            Some(std::str::from_utf8(line).map_err(|_| not_utf8()))
        }
        Err(e) => Some(Err(e)),
    }
}

/// The body of [`read_weights`]: one line at a time, through one reused
/// buffer. Not generic, like [`relation_from_text`].
fn weights_from_reader(rel: &mut Relation, r: &mut dyn BufRead) -> Result<(), ModelError> {
    let mut buf = Vec::new();
    let attrs = read_header(next_line(r, &mut buf))?;
    let expected: Vec<&str> = rel
        .schema()
        .attr_ids()
        .map(|a| rel.schema().attr_name(a))
        .collect();
    if attrs != expected {
        return Err(ModelError::Csv {
            line: 1,
            message: format!("weight header {attrs:?} does not match schema {expected:?}"),
        });
    }
    let arity = rel.schema().arity();
    let tuples = rel.len();
    let (mut live, columns) = rel.live_weight_columns_mut();
    let mut rows = 0usize;
    let mut ends = Vec::with_capacity(arity);
    let mut row = Vec::with_capacity(arity);
    let mut line_no = 1;
    while let Some(line) = next_line(r, &mut buf) {
        line_no += 1;
        let line = line?;
        if line.is_empty() {
            continue;
        }
        let csv_error = |message| ModelError::Csv {
            line: line_no,
            message,
        };
        let record = Record::split(line, &mut ends).map_err(csv_error)?;
        if record.len() != arity {
            return Err(csv_error(format!(
                "expected {arity} weights, found {}",
                record.len()
            )));
        }
        let slot = live
            .next()
            .ok_or_else(|| csv_error(format!("more weight rows than tuples ({tuples})")))?;
        row.clear();
        record.try_for_each_text(|f| {
            let wt: f64 = f
                .trim()
                .parse()
                .map_err(|_| csv_error(format!("weight {f:?} is not a number")))?;
            if !wt.is_finite() || !(0.0..=1.0).contains(&wt) {
                return Err(csv_error(format!("weight {wt} outside [0, 1]")));
            }
            row.push(wt);
            Ok(())
        })?;
        for (col, wt) in columns.iter_mut().zip(&row) {
            col[slot] = *wt;
        }
        rows += 1;
    }
    if rows != tuples {
        return Err(ModelError::Csv {
            line: rows + 2,
            message: format!("{rows} weight rows for {tuples} tuples"),
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tuple::Tuple;
    use cfd_prng::{ChaCha8Rng, Rng};

    /// A relation over `attrs` holding `rows`, on a fresh pool.
    fn relation(attrs: &[&str], rows: Vec<Vec<Value>>) -> Relation {
        let schema = Schema::new("r", attrs).unwrap();
        let mut r = Relation::new_in(schema, ValuePool::new_handle());
        for row in rows {
            r.insert(Tuple::new_in(row, r.pool())).unwrap();
        }
        r
    }

    fn sample() -> Relation {
        relation(
            &["id", "name", "qty"],
            vec![
                vec![Value::str("a23"), Value::str("H. Porter"), Value::int(2)],
                vec![
                    Value::str("a12"),
                    Value::str("says \"hi\", eh"),
                    Value::Null,
                ],
            ],
        )
    }

    /// Read `input` into a fresh pool.
    fn read(input: &[u8]) -> Result<Relation, ModelError> {
        read_relation_in("r", &mut &*input, ValuePool::new_handle())
    }

    fn round_trip(rel: &Relation) -> Relation {
        let mut buf = Vec::new();
        write_relation(rel, &mut buf).unwrap();
        read(&buf).unwrap()
    }

    #[test]
    fn round_trips_values_nulls_and_ints() {
        let r = sample();
        let r2 = round_trip(&r);
        assert_eq!(r2.len(), 2);
        let t0 = r2.tuple(crate::TupleId(0)).unwrap();
        assert_eq!(t0.value(AttrId(2)), Value::int(2));
        let t1 = r2.tuple(crate::TupleId(1)).unwrap();
        assert_eq!(t1.value(AttrId(1)), Value::str("says \"hi\", eh"));
        assert_eq!(t1.value(AttrId(2)), Value::Null);
    }

    #[test]
    fn read_relation_in_scopes_to_its_pool() {
        let r = sample();
        let mut buf = Vec::new();
        write_relation(&r, &mut buf).unwrap();
        let pool = ValuePool::new_handle();
        let r2 = read_relation_in("order", &mut buf.as_slice(), pool.clone()).unwrap();
        assert!(std::sync::Arc::ptr_eq(r2.pool(), &pool));
        // Cells resolve through the scoped pool; counts reflect this
        // dataset only.
        let t0 = r2.tuple(crate::TupleId(0)).unwrap();
        assert_eq!(t0.value(AttrId(0)), Value::str("a23"));
        let id = r2.value_id(crate::TupleId(0), AttrId(0)).unwrap();
        assert_eq!(pool.use_count(id), 1);
    }

    #[test]
    fn empty_string_is_not_null() {
        let r = relation(&["a"], vec![vec![Value::str("")]]);
        let r2 = round_trip(&r);
        assert_eq!(
            r2.tuple(crate::TupleId(0)).unwrap().value(AttrId(0)),
            Value::str("")
        );
    }

    #[test]
    fn header_preserves_attribute_names() {
        let r = sample();
        let r2 = round_trip(&r);
        assert_eq!(r2.schema().attr("name"), Some(AttrId(1)));
    }

    #[test]
    fn arity_mismatch_reports_line() {
        let input = "a,b\n1,2\n3\n";
        let err = read(input.as_bytes()).unwrap_err();
        match err {
            ModelError::Csv { line, .. } => assert_eq!(line, 3),
            other => panic!("expected csv error, got {other}"),
        }
    }

    #[test]
    fn unterminated_quote_rejected() {
        let input = "a\n\"oops\n";
        assert!(read(input.as_bytes()).is_err());
    }

    #[test]
    fn missing_header_rejected() {
        let input = "";
        assert!(read(input.as_bytes()).is_err());
    }

    #[test]
    fn weights_round_trip() {
        let mut r = sample();
        r.set_weights(crate::TupleId(0), &[0.25, 0.5, 0.75])
            .unwrap();
        r.set_weights(crate::TupleId(1), &[1.0, 0.0, 0.125])
            .unwrap();
        let mut buf = Vec::new();
        write_weights(&r, &mut buf).unwrap();
        let mut r2 = sample();
        read_weights(&mut r2, &mut buf.as_slice()).unwrap();
        let t0 = r2.tuple(crate::TupleId(0)).unwrap();
        assert_eq!(t0.weight(AttrId(0)), 0.25);
        assert_eq!(t0.weight(AttrId(2)), 0.75);
        let t1 = r2.tuple(crate::TupleId(1)).unwrap();
        assert_eq!(t1.weight(AttrId(1)), 0.0);
        assert_eq!(t1.weight(AttrId(2)), 0.125);
    }

    #[test]
    fn weights_header_mismatch_rejected() {
        let mut r = sample();
        let input = "id,wrong,qty\n0.5,0.5,0.5\n0.5,0.5,0.5\n";
        assert!(read_weights(&mut r, &mut input.as_bytes()).is_err());
    }

    #[test]
    fn weights_row_count_mismatch_rejected() {
        let mut r = sample();
        let input = "id,name,qty\n0.5,0.5,0.5\n";
        assert!(read_weights(&mut r, &mut input.as_bytes()).is_err());
    }

    #[test]
    fn weights_out_of_range_rejected() {
        let mut r = sample();
        let input = "id,name,qty\n0.5,0.5,1.5\n0.5,0.5,0.5\n";
        assert!(read_weights(&mut r, &mut input.as_bytes()).is_err());
        let input = "id,name,qty\n0.5,NaN,0.5\n0.5,0.5,0.5\n";
        assert!(read_weights(&mut r, &mut input.as_bytes()).is_err());
    }

    /// The pre-dictionary reader, kept as the parity oracle: `lines()`,
    /// [`split_record`] on every line, cells decoded into per-attribute
    /// columns, then each column interned cell by cell into `pool`.
    fn reference_read(input: &[u8], pool: &ValuePool) -> Result<Vec<Vec<ValueId>>, ModelError> {
        let mut lines = input.lines();
        let header = match lines.next() {
            Some(h) => h?,
            None => {
                return Err(ModelError::Csv {
                    line: 1,
                    message: "missing header".to_string(),
                })
            }
        };
        let attrs = field_texts(
            split_record(&header).map_err(|message| ModelError::Csv { line: 1, message })?,
        );
        let arity = Schema::new("r", &attrs)?.arity();
        let mut columns: Vec<Vec<Value>> = vec![Vec::new(); arity];
        for (i, line) in lines.enumerate() {
            let line_no = i + 2;
            let line = line?;
            if line.is_empty() {
                continue;
            }
            let fields = split_record(&line).map_err(|message| ModelError::Csv {
                line: line_no,
                message,
            })?;
            if fields.len() != arity {
                return Err(ModelError::Csv {
                    line: line_no,
                    message: format!("expected {arity} fields, found {}", fields.len()),
                });
            }
            for (col, f) in columns.iter_mut().zip(&fields) {
                col.push(decode_value(f));
            }
        }
        Ok(columns
            .iter()
            .map(|c| c.iter().map(|v| pool.intern(v)).collect())
            .collect())
    }

    /// The pre-dictionary weight reader, kept as the parity oracle.
    fn reference_read_weights(rel: &mut Relation, input: &[u8]) -> Result<(), ModelError> {
        let mut lines = input.lines();
        let header = match lines.next() {
            Some(h) => h?,
            None => {
                return Err(ModelError::Csv {
                    line: 1,
                    message: "missing header".to_string(),
                })
            }
        };
        let attrs = field_texts(
            split_record(&header).map_err(|message| ModelError::Csv { line: 1, message })?,
        );
        let expected: Vec<&str> = rel
            .schema()
            .attr_ids()
            .map(|a| rel.schema().attr_name(a))
            .collect();
        if attrs != expected {
            return Err(ModelError::Csv {
                line: 1,
                message: format!("weight header {attrs:?} does not match schema {expected:?}"),
            });
        }
        let arity = rel.schema().arity();
        let ids: Vec<crate::TupleId> = rel.ids().collect();
        let mut idx = 0usize;
        for (i, line) in lines.enumerate() {
            let line_no = i + 2;
            let line = line?;
            if line.is_empty() {
                continue;
            }
            let fields = field_texts(split_record(&line).map_err(|message| ModelError::Csv {
                line: line_no,
                message,
            })?);
            if fields.len() != arity {
                return Err(ModelError::Csv {
                    line: line_no,
                    message: format!("expected {arity} weights, found {}", fields.len()),
                });
            }
            let id = *ids.get(idx).ok_or_else(|| ModelError::Csv {
                line: line_no,
                message: format!("more weight rows than tuples ({})", ids.len()),
            })?;
            let mut weights = Vec::with_capacity(arity);
            for f in &fields {
                let wt: f64 = f.trim().parse().map_err(|_| ModelError::Csv {
                    line: line_no,
                    message: format!("weight {f:?} is not a number"),
                })?;
                if !wt.is_finite() || !(0.0..=1.0).contains(&wt) {
                    return Err(ModelError::Csv {
                        line: line_no,
                        message: format!("weight {wt} outside [0, 1]"),
                    });
                }
                weights.push(wt);
            }
            rel.set_weights(id, &weights)?;
            idx += 1;
        }
        if idx != ids.len() {
            return Err(ModelError::Csv {
                line: idx + 2,
                message: format!("{} weight rows for {} tuples", idx, ids.len()),
            });
        }
        Ok(())
    }

    fn assert_same_error(got: &ModelError, want: &ModelError, ctx: &str) {
        match (got, want) {
            (
                ModelError::Csv { line, message },
                ModelError::Csv {
                    line: want_line,
                    message: want_message,
                },
            ) => assert_eq!((line, message), (want_line, want_message), "{ctx}"),
            (ModelError::Io(a), ModelError::Io(b)) => {
                assert_eq!(
                    (a.kind(), a.to_string()),
                    (b.kind(), b.to_string()),
                    "{ctx}"
                )
            }
            _ => panic!("{ctx}: got {got:?}, want {want:?}"),
        }
    }

    /// One awkward CSV field, as written in the file; never one with a
    /// quote when `quote_free`.
    fn awkward_field(rng: &mut ChaCha8Rng, quote_free: bool) -> &'static str {
        const FIELDS: &[&str] = &[
            "plain",
            "H. Porter",
            "\\N",
            "\"\\N\"",
            "#i:7",
            "#i:07",
            "\"#i:7\"",
            "#i:-3",
            "#i:x",
            "\"#i:x\"",
            "#i:99999999999999999999",
            "\"\"",
            "",
            "\"a,b\"",
            "\"say \"\"hi\"\", eh\"",
            "\"plain\"",
            "naïve café",
            "\"東京, 日本\"",
            "\"x\ry\"",
            "7",
        ];
        loop {
            let f = FIELDS[rng.gen_range(0..FIELDS.len())];
            if !(quote_free && f.contains('"')) {
                return f;
            }
        }
    }

    /// A malformed record, or a line that is not UTF-8; never one with a
    /// quote when `quote_free`.
    fn broken_line(rng: &mut ChaCha8Rng, quote_free: bool) -> Vec<u8> {
        let kind = if quote_free {
            [0, 3][rng.gen_range(0..2usize)]
        } else {
            rng.gen_range(0..4u32)
        };
        match kind {
            0 => b"only,two".to_vec(),
            1 => b"a,b\"c,d".to_vec(),
            2 => b"\"unterminated,b,c".to_vec(),
            _ => vec![b'x', b',', 0xff, b',', b'z'],
        }
    }

    /// A random CSV document over three attributes mixing every encoding
    /// corner: CRLF and LF endings, blank lines, no final newline, and
    /// (sometimes) one malformed line. A third of the documents hold no
    /// quote at all, so every line takes the in-place split; those run
    /// longer.
    fn awkward_csv(rng: &mut ChaCha8Rng, broken: bool) -> Vec<u8> {
        let quote_free = rng.gen_bool(1.0 / 3.0);
        let mut out: Vec<u8> = if quote_free || rng.gen_bool(0.5) {
            b"a,b,c".to_vec()
        } else {
            b"\"a\",b,\"c\"".to_vec()
        };
        let rows = rng.gen_range(0..if quote_free { 120 } else { 40usize });
        let bad_at = broken.then(|| rng.gen_range(0..=rows));
        for r in 0..=rows {
            out.extend_from_slice(if rng.gen_bool(0.3) { b"\r\n" } else { b"\n" });
            if rng.gen_bool(0.1) {
                out.extend_from_slice(b"\n");
            }
            if bad_at == Some(r) {
                out.extend(broken_line(rng, quote_free));
            } else if r < rows {
                let fields: Vec<&str> = (0..3).map(|_| awkward_field(rng, quote_free)).collect();
                out.extend_from_slice(fields.join(",").as_bytes());
            }
        }
        if rng.gen_bool(0.5) {
            out.push(b'\n');
        }
        out
    }

    #[test]
    fn ingest_matches_cell_by_cell_interning() {
        use cfd_prng::trials;
        let mut errors = 0;
        // Quote-free documents read fine, fail a CSV check, fail UTF-8.
        let mut quote_free = [0; 3];
        trials(400, 0x00c5_1f3e, |rng| {
            let broken = rng.gen_bool(0.3);
            let input = awkward_csv(rng, broken);
            let tally = if input.contains(&b'"') {
                &mut [0; 3]
            } else {
                &mut quote_free
            };
            let ctx = format!("input {:?}", String::from_utf8_lossy(&input));
            let (pool, ref_pool) = (ValuePool::new_handle(), ValuePool::new());
            let got = read_relation_in("r", &mut input.as_slice(), pool.clone());
            match (got, reference_read(&input, &ref_pool)) {
                (Ok(rel), Ok(want)) => {
                    for (a, col) in want.iter().enumerate() {
                        assert_eq!(rel.column(AttrId(a as u16)), col, "{ctx}");
                    }
                    assert_eq!(pool.len(), ref_pool.len(), "{ctx}");
                    for id in (0..ref_pool.len() as u32).map(ValueId) {
                        assert_eq!(pool.resolve(id), ref_pool.resolve(id), "{ctx}");
                        assert_eq!(pool.use_count(id), ref_pool.use_count(id), "{ctx}");
                    }
                    tally[0] += 1;
                }
                (Err(got), Err(want)) => {
                    errors += 1;
                    let io = matches!(got, ModelError::Io(_));
                    tally[1 + usize::from(io)] += 1;
                    assert_same_error(&got, &want, &ctx);
                }
                (got, want) => panic!("{ctx}: got {got:?}, want {want:?}"),
            }
        });
        assert!(errors > 0, "the trials exercise the error paths");
        assert!(
            quote_free.iter().all(|&n| n > 0),
            "quote-free documents (ok, csv error, io error): {quote_free:?}"
        );
    }

    /// The word-at-a-time walk against [`split_record`], with commas and
    /// quotes at every offset of lines that straddle word boundaries.
    #[test]
    fn record_split_matches_split_record() {
        use cfd_prng::trials;
        const BYTES: &[&str] = &[",", "a", "7", " ", "é", "東", "\"", ",,"];
        let mut ends = Vec::new();
        trials(2000, 0x5e11_0b1e, |rng| {
            let quote_free = rng.gen_bool(0.7);
            let len = rng.gen_range(0..40usize);
            let line: String = (0..len)
                .map(|_| loop {
                    let b = BYTES[rng.gen_range(0..BYTES.len())];
                    if !(quote_free && b == "\"") {
                        return b;
                    }
                })
                .collect();
            let want = split_record(&line).map(field_texts);
            let got = Record::split(&line, &mut ends).map(|r| match r {
                Record::Plain(line, ends) => plain_fields(line, ends).map(str::to_string).collect(),
                Record::Split(fields) => field_texts(fields),
            });
            assert_eq!(got, want, "{line:?}");
        });
    }

    #[test]
    fn int_tags_and_null_tokens_dedup_by_value() {
        let input = "a\n#i:7\n#i:07\n\"#i:7\"\n\\N\n\"\\N\"\n#i:7\n";
        let pool = ValuePool::new_handle();
        let rel = read_relation_in("r", &mut input.as_bytes(), pool.clone()).unwrap();
        let col = rel.column(AttrId(0));
        // `#i:7` and `#i:07` are one value; the quoted forms are strings.
        assert_eq!(col[0], col[1]);
        assert_eq!(col[0], col[5]);
        assert_eq!(pool.use_count(col[0]), 3);
        assert_eq!(pool.resolve(col[2]), Value::str("#i:7"));
        assert_eq!(col[3], crate::NULL_ID);
        assert_eq!(pool.resolve(col[4]), Value::str("\\N"));
        assert_eq!(pool.len(), 4);
    }

    #[test]
    fn weights_match_the_reference_reader() {
        use cfd_prng::trials;
        /// Mostly the first five; half of the documents hold no quote.
        const WEIGHTS: &[&str] = &[
            "0.5", " 0.25 ", "1", "0", "\"0.75\"", "1e-1", "-0", "NaN", "1.5", "-0.1", "abc", "",
        ];
        let weight = |rng: &mut ChaCha8Rng, quote_free: bool| loop {
            let w = if rng.gen_bool(0.9) {
                WEIGHTS[rng.gen_range(0..5usize)]
            } else {
                WEIGHTS[rng.gen_range(0..WEIGHTS.len())]
            };
            if !(quote_free && w.contains('"')) {
                return w;
            }
        };
        // Four live tuples, once densely and once between tombstones: the
        // rows land in the live slots only.
        let base = |slots: i64, dead: &[u32]| {
            let mut r = Relation::new_in(
                Schema::new("r", &["a", "b"]).unwrap(),
                ValuePool::new_handle(),
            );
            for i in 0..slots {
                r.insert(Tuple::new_in([Value::int(i), Value::int(i)], r.pool()))
                    .unwrap();
            }
            for &d in dead {
                r.delete(crate::TupleId(d)).unwrap();
            }
            r
        };
        let bases = [base(4, &[]), base(7, &[0, 3, 5])];
        let (mut oks, mut errors) = (0, 0);
        trials(400, 0x0077_e1a5, |rng| {
            let quote_free = rng.gen_bool(0.5);
            let mut input: Vec<u8> = match rng.gen_range(0..10u32) {
                0 => b"a,wrong".to_vec(),
                1 if !quote_free => b"\"a\",\"b\"".to_vec(),
                _ => b"a,b".to_vec(),
            };
            let rows = rng.gen_range(3..6usize);
            for _ in 0..rows {
                input.extend_from_slice(if rng.gen_bool(0.3) { b"\r\n" } else { b"\n" });
                if rng.gen_bool(0.1) {
                    input.extend_from_slice(b"\n");
                }
                if rng.gen_bool(0.03) {
                    input.extend_from_slice(&[b'0', b',', 0xff]);
                    continue;
                }
                let n = if rng.gen_bool(0.05) { 3 } else { 2 };
                let row: Vec<&str> = (0..n).map(|_| weight(rng, quote_free)).collect();
                input.extend_from_slice(row.join(",").as_bytes());
            }
            if rng.gen_bool(0.5) {
                input.push(b'\n');
            }
            let ctx = format!("input {:?}", String::from_utf8_lossy(&input));
            let base = &bases[rng.gen_range(0..bases.len())];
            let (mut got_rel, mut want_rel) = (base.clone(), base.clone());
            let got = read_weights(&mut got_rel, &mut input.as_slice());
            match (got, reference_read_weights(&mut want_rel, &input)) {
                (Ok(()), Ok(())) => oks += 1,
                (Err(got), Err(want)) => {
                    errors += 1;
                    assert_same_error(&got, &want, &ctx);
                }
                (got, want) => panic!("{ctx}: got {got:?}, want {want:?}"),
            }
            for a in 0..2 {
                let bits = |r: &Relation| -> Vec<u64> {
                    r.weight_column(AttrId(a))
                        .iter()
                        .map(|w| w.to_bits())
                        .collect()
                };
                assert_eq!(bits(&got_rel), bits(&want_rel), "{ctx}");
            }
        });
        assert!(oks > 0 && errors > 0, "{oks} ok, {errors} errors");
    }

    #[test]
    fn newline_in_quoted_field_is_out_of_scope_but_commas_work() {
        // embedded commas round-trip
        let r = relation(&["a"], vec![vec![Value::str("x, y, z")]]);
        let r2 = round_trip(&r);
        assert_eq!(
            r2.tuple(crate::TupleId(0)).unwrap().value(AttrId(0)),
            Value::str("x, y, z")
        );
    }
}
