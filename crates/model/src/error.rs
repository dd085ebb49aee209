//! Error type for the relational substrate.

use std::fmt;

/// Errors raised by schema construction, tuple validation and CSV I/O.
#[derive(Debug)]
pub enum ModelError {
    /// An attribute name appeared twice in a schema definition.
    DuplicateAttribute(String),
    /// More attributes than `AttrId` can address.
    TooManyAttributes(usize),
    /// Name lookup failed.
    UnknownAttribute {
        /// Relation whose schema was consulted.
        relation: String,
        /// The attribute that could not be resolved.
        attribute: String,
    },
    /// A tuple's arity does not match its relation's schema.
    ArityMismatch {
        /// Expected arity (schema).
        expected: usize,
        /// Actual number of values supplied.
        actual: usize,
    },
    /// A weight outside `[0, 1]` was supplied.
    WeightOutOfRange(f64),
    /// A stable tuple id did not resolve (e.g. the tuple was deleted).
    UnknownTuple(u32),
    /// An id-level edit log could not be derived or replayed: the
    /// relations do not share a tuple-id space, or an edit's expected
    /// old value no longer matches the relation (a stale log).
    EditConflict(String),
    /// Two relations that must share a value pool — an id-level edit log
    /// names ids of one pool — intern into different ones.
    PoolMismatch,
    /// CSV input could not be parsed.
    Csv {
        /// 1-based line number.
        line: usize,
        /// Human-readable description.
        message: String,
    },
    /// Underlying I/O failure.
    Io(std::io::Error),
}

impl fmt::Display for ModelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ModelError::DuplicateAttribute(a) => write!(f, "duplicate attribute `{a}` in schema"),
            ModelError::TooManyAttributes(n) => {
                write!(
                    f,
                    "schema has {n} attributes; at most {} supported",
                    u16::MAX
                )
            }
            ModelError::UnknownAttribute {
                relation,
                attribute,
            } => {
                write!(f, "relation `{relation}` has no attribute `{attribute}`")
            }
            ModelError::ArityMismatch { expected, actual } => {
                write!(
                    f,
                    "tuple arity {actual} does not match schema arity {expected}"
                )
            }
            ModelError::WeightOutOfRange(w) => {
                write!(f, "attribute weight {w} outside [0, 1]")
            }
            ModelError::UnknownTuple(t) => write!(f, "no live tuple with id {t}"),
            ModelError::EditConflict(m) => write!(f, "edit log conflict: {m}"),
            ModelError::PoolMismatch => write!(
                f,
                "the relations intern into different value pools; id-level edits need one"
            ),
            ModelError::Csv { line, message } => {
                write!(f, "csv parse error on line {line}: {message}")
            }
            ModelError::Io(e) => write!(f, "i/o error: {e}"),
        }
    }
}

impl std::error::Error for ModelError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ModelError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for ModelError {
    fn from(e: std::io::Error) -> Self {
        ModelError::Io(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_are_descriptive() {
        let e = ModelError::ArityMismatch {
            expected: 9,
            actual: 3,
        };
        assert!(e.to_string().contains("arity 3"));
        let e = ModelError::WeightOutOfRange(1.5);
        assert!(e.to_string().contains("1.5"));
        let e = ModelError::Csv {
            line: 4,
            message: "unterminated quote".into(),
        };
        assert!(e.to_string().contains("line 4"));
    }

    #[test]
    fn io_error_source_preserved() {
        let io = std::io::Error::new(std::io::ErrorKind::NotFound, "gone");
        let e = ModelError::from(io);
        assert!(std::error::Error::source(&e).is_some());
    }
}
