//! Relation schemas and attribute identifiers.
//!
//! The paper considers schemas of a single relation `R` with attribute set
//! `attr(R)` (§2); CFDs and repairs address one relation at a time, so a
//! [`Schema`] is simply an ordered list of named attributes. Attributes are
//! referred to positionally through the copy-type [`AttrId`] everywhere in
//! the hot paths, with name lookup reserved for parsing and display.

use crate::hash::FixedMap;
use std::fmt;
use std::sync::Arc;

use crate::error::ModelError;

/// Positional identifier of an attribute within a [`Schema`].
///
/// A `u16` keeps cell identifiers `(TupleId, AttrId)` small — equivalence
/// classes store millions of them on large repairs.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct AttrId(pub u16);

impl AttrId {
    /// The attribute's position as a usize, for indexing tuple storage.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for AttrId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "#{}", self.0)
    }
}

/// Schema of a single relation: a relation name plus ordered attribute names.
#[derive(Clone, Debug)]
pub struct Schema {
    name: Arc<str>,
    attrs: Vec<Arc<str>>,
    by_name: FixedMap<Arc<str>, AttrId>,
}

impl Schema {
    /// Build a schema from a relation name and attribute names.
    ///
    /// Returns an error on duplicate attribute names or more than `u16::MAX`
    /// attributes.
    pub fn new<S: AsRef<str>>(name: &str, attrs: &[S]) -> Result<Self, ModelError> {
        if attrs.len() > u16::MAX as usize {
            return Err(ModelError::TooManyAttributes(attrs.len()));
        }
        let mut by_name = FixedMap::with_capacity_and_hasher(attrs.len(), Default::default());
        let mut names = Vec::with_capacity(attrs.len());
        for (i, a) in attrs.iter().enumerate() {
            let a: Arc<str> = Arc::from(a.as_ref());
            if by_name.insert(a.clone(), AttrId(i as u16)).is_some() {
                return Err(ModelError::DuplicateAttribute(a.to_string()));
            }
            names.push(a);
        }
        Ok(Schema {
            name: Arc::from(name),
            attrs: names,
            by_name,
        })
    }

    /// The relation name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of attributes, `|attr(R)|`.
    pub fn arity(&self) -> usize {
        self.attrs.len()
    }

    /// All attribute ids in schema order.
    pub fn attr_ids(&self) -> impl Iterator<Item = AttrId> + '_ {
        (0..self.attrs.len() as u16).map(AttrId)
    }

    /// The name of attribute `a`.
    ///
    /// # Panics
    /// Panics if `a` is out of range for this schema; `AttrId`s are only
    /// meaningful for the schema that minted them.
    pub fn attr_name(&self, a: AttrId) -> &str {
        &self.attrs[a.index()]
    }

    /// Resolve an attribute name to its id.
    pub fn attr(&self, name: &str) -> Option<AttrId> {
        self.by_name.get(name).copied()
    }

    /// Resolve an attribute name, erroring with context if unknown.
    pub fn require_attr(&self, name: &str) -> Result<AttrId, ModelError> {
        self.attr(name).ok_or_else(|| ModelError::UnknownAttribute {
            relation: self.name.to_string(),
            attribute: name.to_string(),
        })
    }

    /// Resolve a list of attribute names.
    pub fn attrs_named<S: AsRef<str>>(&self, names: &[S]) -> Result<Vec<AttrId>, ModelError> {
        names
            .iter()
            .map(|n| self.require_attr(n.as_ref()))
            .collect()
    }

    /// True when `a` belongs to this schema.
    pub fn contains(&self, a: AttrId) -> bool {
        a.index() < self.attrs.len()
    }
}

impl fmt::Display for Schema {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}(", self.name)?;
        for (i, a) in self.attrs.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{a}")?;
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn order_schema() -> Schema {
        Schema::new(
            "order",
            &["id", "name", "PR", "AC", "PN", "STR", "CT", "ST", "zip"],
        )
        .unwrap()
    }

    #[test]
    fn builds_and_resolves_names() {
        let s = order_schema();
        assert_eq!(s.name(), "order");
        assert_eq!(s.arity(), 9);
        assert_eq!(s.attr("AC"), Some(AttrId(3)));
        assert_eq!(s.attr_name(AttrId(3)), "AC");
        assert_eq!(s.attr("nope"), None);
    }

    #[test]
    fn duplicate_attribute_rejected() {
        let err = Schema::new("r", &["a", "b", "a"]).unwrap_err();
        assert!(matches!(err, ModelError::DuplicateAttribute(ref n) if n == "a"));
    }

    #[test]
    fn require_attr_reports_relation() {
        let s = order_schema();
        let err = s.require_attr("CTY").unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("CTY") && msg.contains("order"), "{msg}");
    }

    #[test]
    fn attrs_named_resolves_in_order() {
        let s = order_schema();
        let ids = s.attrs_named(&["CT", "STR"]).unwrap();
        assert_eq!(ids, vec![AttrId(6), AttrId(5)]);
    }

    #[test]
    fn attr_ids_covers_all() {
        let s = order_schema();
        let ids: Vec<_> = s.attr_ids().collect();
        assert_eq!(ids.len(), 9);
        assert_eq!(ids[0], AttrId(0));
        assert_eq!(ids[8], AttrId(8));
        assert!(s.contains(AttrId(8)));
        assert!(!s.contains(AttrId(9)));
    }

    #[test]
    fn display_lists_attributes() {
        let s = Schema::new("r", &["a", "b"]).unwrap();
        assert_eq!(s.to_string(), "r(a, b)");
    }
}
