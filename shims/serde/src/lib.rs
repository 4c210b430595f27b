//! Offline shim for `serde`: the subset this workspace uses, reimplemented
//! over an explicit JSON-shaped [`Content`] data model.
//!
//! The build environment has no access to crates.io, so the real serde
//! cannot be fetched. This shim keeps the workspace's source unchanged
//! (`use serde::{Serialize, Deserialize}` + `#[derive(...)]` still work) by
//! pairing two one-method traits with the hand-rolled derive macros in the
//! sibling `serde_derive` shim. `serde_json` (also shimmed) converts
//! [`Content`] to and from JSON text using serde's standard conventions:
//! structs as objects, newtype structs transparent, enums externally
//! tagged.

pub use serde_derive::{Deserialize, Serialize};

/// The serialized form of a value — serde's data model collapsed to what
/// JSON can carry, plus explicit enum-variant nodes so `serde_json` can
/// apply the externally-tagged convention.
#[derive(Debug, Clone, PartialEq)]
pub enum Content {
    Null,
    Bool(bool),
    I64(i64),
    U64(u64),
    F64(f64),
    Str(String),
    Seq(Vec<Content>),
    /// Insertion-ordered key/value map (struct fields, JSON objects).
    Map(Vec<(String, Content)>),
    /// A unit enum variant, e.g. `DType::Int` -> `"Int"`.
    UnitVariant(&'static str),
    /// A newtype enum variant, e.g. `Value::Int(3)` -> `{"Int": 3}`.
    NewtypeVariant(&'static str, Box<Content>),
}

impl Content {
    /// Look up a struct field in a `Map`; used by derived `Deserialize`.
    pub fn field(&self, name: &str) -> Result<&Content, DeError> {
        match self {
            Content::Map(entries) => entries
                .iter()
                .find(|(k, _)| k == name)
                .map(|(_, v)| v)
                .ok_or_else(|| DeError::custom(format!("missing field `{name}`"))),
            other => Err(DeError::custom(format!(
                "expected map with field `{name}`, got {}",
                other.kind()
            ))),
        }
    }

    /// Interpret this content as an externally-tagged enum variant.
    pub fn variant(&self) -> Result<(&str, Option<&Content>), DeError> {
        match self {
            Content::UnitVariant(v) => Ok((v, None)),
            Content::Str(s) => Ok((s.as_str(), None)),
            Content::NewtypeVariant(v, inner) => Ok((v, Some(inner))),
            Content::Map(entries) if entries.len() == 1 => {
                Ok((entries[0].0.as_str(), Some(&entries[0].1)))
            }
            other => Err(DeError::custom(format!(
                "expected enum variant, got {}",
                other.kind()
            ))),
        }
    }

    /// Short name for error messages.
    pub fn kind(&self) -> &'static str {
        match self {
            Content::Null => "null",
            Content::Bool(_) => "bool",
            Content::I64(_) | Content::U64(_) | Content::F64(_) => "number",
            Content::Str(_) => "string",
            Content::Seq(_) => "sequence",
            Content::Map(_) => "map",
            Content::UnitVariant(_) => "unit variant",
            Content::NewtypeVariant(_, _) => "newtype variant",
        }
    }
}

/// Deserialization error.
#[derive(Debug, Clone, PartialEq)]
pub struct DeError(pub String);

impl DeError {
    pub fn custom(msg: impl Into<String>) -> Self {
        DeError(msg.into())
    }
}

impl std::fmt::Display for DeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}
impl std::error::Error for DeError {}

/// Serialize into the [`Content`] data model.
pub trait Serialize {
    fn to_content(&self) -> Content;
}

/// Deserialize from the [`Content`] data model.
pub trait Deserialize: Sized {
    fn from_content(c: &Content) -> Result<Self, DeError>;
}

// ---- primitive impls -------------------------------------------------------

macro_rules! int_impls {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_content(&self) -> Content { Content::I64(*self as i64) }
        }
        impl Deserialize for $t {
            fn from_content(c: &Content) -> Result<Self, DeError> {
                let v: i64 = match c {
                    Content::I64(v) => *v,
                    Content::U64(v) if *v <= i64::MAX as u64 => *v as i64,
                    Content::F64(v) if v.fract() == 0.0 => *v as i64,
                    other => return Err(DeError::custom(format!(
                        "expected integer, got {}", other.kind()))),
                };
                <$t>::try_from(v).map_err(|_| DeError::custom("integer out of range"))
            }
        }
    )*};
}
int_impls!(i8, i16, i32, i64, isize, u8, u16, u32, usize);

impl Serialize for u64 {
    fn to_content(&self) -> Content {
        Content::U64(*self)
    }
}
impl Deserialize for u64 {
    fn from_content(c: &Content) -> Result<Self, DeError> {
        match c {
            Content::U64(v) => Ok(*v),
            Content::I64(v) if *v >= 0 => Ok(*v as u64),
            Content::F64(v) if v.fract() == 0.0 && *v >= 0.0 => Ok(*v as u64),
            other => Err(DeError::custom(format!("expected u64, got {}", other.kind()))),
        }
    }
}

impl Serialize for f64 {
    fn to_content(&self) -> Content {
        Content::F64(*self)
    }
}
impl Deserialize for f64 {
    fn from_content(c: &Content) -> Result<Self, DeError> {
        match c {
            Content::F64(v) => Ok(*v),
            Content::I64(v) => Ok(*v as f64),
            Content::U64(v) => Ok(*v as f64),
            other => Err(DeError::custom(format!("expected number, got {}", other.kind()))),
        }
    }
}

impl Serialize for f32 {
    fn to_content(&self) -> Content {
        Content::F64(*self as f64)
    }
}
impl Deserialize for f32 {
    fn from_content(c: &Content) -> Result<Self, DeError> {
        f64::from_content(c).map(|v| v as f32)
    }
}

impl Serialize for bool {
    fn to_content(&self) -> Content {
        Content::Bool(*self)
    }
}
impl Deserialize for bool {
    fn from_content(c: &Content) -> Result<Self, DeError> {
        match c {
            Content::Bool(b) => Ok(*b),
            other => Err(DeError::custom(format!("expected bool, got {}", other.kind()))),
        }
    }
}

impl Serialize for String {
    fn to_content(&self) -> Content {
        Content::Str(self.clone())
    }
}
impl Deserialize for String {
    fn from_content(c: &Content) -> Result<Self, DeError> {
        match c {
            Content::Str(s) => Ok(s.clone()),
            other => Err(DeError::custom(format!("expected string, got {}", other.kind()))),
        }
    }
}

impl Serialize for str {
    fn to_content(&self) -> Content {
        Content::Str(self.to_string())
    }
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn to_content(&self) -> Content {
        (**self).to_content()
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn to_content(&self) -> Content {
        match self {
            None => Content::Null,
            Some(v) => v.to_content(),
        }
    }
}
impl<T: Deserialize> Deserialize for Option<T> {
    fn from_content(c: &Content) -> Result<Self, DeError> {
        match c {
            Content::Null => Ok(None),
            other => T::from_content(other).map(Some),
        }
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn to_content(&self) -> Content {
        Content::Seq(self.iter().map(Serialize::to_content).collect())
    }
}
impl<T: Deserialize> Deserialize for Vec<T> {
    fn from_content(c: &Content) -> Result<Self, DeError> {
        match c {
            Content::Seq(items) => items.iter().map(T::from_content).collect(),
            other => Err(DeError::custom(format!(
                "expected sequence, got {}",
                other.kind()
            ))),
        }
    }
}

impl<T: Serialize> Serialize for [T] {
    fn to_content(&self) -> Content {
        Content::Seq(self.iter().map(Serialize::to_content).collect())
    }
}

/// Shared ownership is invisible on the wire: an `Arc<T>` serializes
/// exactly as `T`, and deserializes into a fresh allocation.
impl<T: Serialize + ?Sized> Serialize for std::sync::Arc<T> {
    fn to_content(&self) -> Content {
        (**self).to_content()
    }
}
impl<T: Deserialize> Deserialize for std::sync::Arc<T> {
    fn from_content(c: &Content) -> Result<Self, DeError> {
        T::from_content(c).map(std::sync::Arc::new)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_round_trip() {
        assert_eq!(i64::from_content(&42i64.to_content()).unwrap(), 42);
        assert_eq!(String::from_content(&"hi".to_string().to_content()).unwrap(), "hi");
        assert_eq!(Option::<i64>::from_content(&Content::Null).unwrap(), None);
        assert_eq!(
            Vec::<f64>::from_content(&vec![1.0, 2.5].to_content()).unwrap(),
            vec![1.0, 2.5]
        );
    }

    #[test]
    fn field_lookup_and_variant() {
        let m = Content::Map(vec![("a".into(), Content::I64(1))]);
        assert_eq!(m.field("a").unwrap(), &Content::I64(1));
        assert!(m.field("b").is_err());
        let v = Content::NewtypeVariant("Int", Box::new(Content::I64(3)));
        let (name, inner) = v.variant().unwrap();
        assert_eq!(name, "Int");
        assert_eq!(inner.unwrap(), &Content::I64(3));
    }

    #[test]
    fn arc_is_transparent() {
        let shared = std::sync::Arc::new(vec![Some(1i64), None]);
        assert_eq!(shared.to_content(), vec![Some(1i64), None].to_content());
        let back = std::sync::Arc::<Vec<Option<i64>>>::from_content(&shared.to_content()).unwrap();
        assert_eq!(back, shared);
    }
}
