//! Offline stand-in for `serde`, reduced to what this repository
//! needs: JSON text in and out for plain data types. `Serialize`
//! writes JSON straight into a `String`; `Deserialize` reads from a
//! pull [`json::Parser`]. The derive macros come from the sibling
//! `serde_derive` stand-in; `serde_json` wraps the two traits.

use std::collections::{BTreeMap, HashMap};

pub use serde_derive::{Deserialize, Serialize};

pub mod json;

/// A value that can write itself as JSON text.
pub trait Serialize {
    fn serialize_json(&self, out: &mut String);
}

/// A value that can be read from JSON text.
pub trait Deserialize: Sized {
    fn deserialize_json(parser: &mut json::Parser<'_>) -> Result<Self, json::Error>;

    /// What an absent struct field becomes (`None` for `Option`).
    fn missing_field(name: &'static str) -> Result<Self, json::Error> {
        Err(json::Error::message(format!("missing field `{name}`")))
    }
}

pub mod de {
    pub use super::Deserialize;
    pub trait DeserializeOwned: Deserialize {}
    impl<T: Deserialize> DeserializeOwned for T {}
}

pub mod ser {
    pub use super::Serialize;
}

macro_rules! integers {
    ($($ty:ty),*) => {$(
        impl Serialize for $ty {
            fn serialize_json(&self, out: &mut String) {
                use std::fmt::Write;
                let _ = write!(out, "{self}");
            }
        }
        impl Deserialize for $ty {
            fn deserialize_json(parser: &mut json::Parser<'_>) -> Result<Self, json::Error> {
                let text = parser.number_text()?;
                text.parse::<$ty>()
                    .map_err(|_| parser.error(format!("invalid {} `{text}`", stringify!($ty))))
            }
        }
    )*};
}
integers!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

macro_rules! floats {
    ($($ty:ty),*) => {$(
        impl Serialize for $ty {
            fn serialize_json(&self, out: &mut String) {
                use std::fmt::Write;
                if !self.is_finite() {
                    out.push_str("null");
                } else if self.fract() == 0.0 && self.abs() < 1e16 {
                    let _ = write!(out, "{self:.1}");
                } else {
                    let _ = write!(out, "{self}");
                }
            }
        }
        impl Deserialize for $ty {
            fn deserialize_json(parser: &mut json::Parser<'_>) -> Result<Self, json::Error> {
                let text = parser.number_text()?;
                text.parse::<$ty>()
                    .map_err(|_| parser.error(format!("invalid number `{text}`")))
            }
        }
    )*};
}
floats!(f32, f64);

impl Serialize for bool {
    fn serialize_json(&self, out: &mut String) {
        out.push_str(if *self { "true" } else { "false" });
    }
}

impl Deserialize for bool {
    fn deserialize_json(parser: &mut json::Parser<'_>) -> Result<Self, json::Error> {
        parser.parse_bool()
    }
}

impl Serialize for str {
    fn serialize_json(&self, out: &mut String) {
        json::write_string(self, out);
    }
}

impl Serialize for String {
    fn serialize_json(&self, out: &mut String) {
        json::write_string(self, out);
    }
}

impl Deserialize for String {
    fn deserialize_json(parser: &mut json::Parser<'_>) -> Result<Self, json::Error> {
        parser.parse_string()
    }
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn serialize_json(&self, out: &mut String) {
        (**self).serialize_json(out);
    }
}

impl<T: Serialize + ?Sized> Serialize for Box<T> {
    fn serialize_json(&self, out: &mut String) {
        (**self).serialize_json(out);
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn serialize_json(&self, out: &mut String) {
        match self {
            Some(value) => value.serialize_json(out),
            None => out.push_str("null"),
        }
    }
}

impl<T: Deserialize> Deserialize for Option<T> {
    fn deserialize_json(parser: &mut json::Parser<'_>) -> Result<Self, json::Error> {
        if parser.parse_null()? {
            Ok(None)
        } else {
            T::deserialize_json(parser).map(Some)
        }
    }

    fn missing_field(_name: &'static str) -> Result<Self, json::Error> {
        Ok(None)
    }
}

impl<T: Serialize> Serialize for [T] {
    fn serialize_json(&self, out: &mut String) {
        out.push('[');
        for (i, item) in self.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            item.serialize_json(out);
        }
        out.push(']');
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn serialize_json(&self, out: &mut String) {
        self.as_slice().serialize_json(out);
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn deserialize_json(parser: &mut json::Parser<'_>) -> Result<Self, json::Error> {
        let mut items = Vec::new();
        parser.begin_array()?;
        let mut first = true;
        while parser.next_element(&mut first)? {
            items.push(T::deserialize_json(parser)?);
        }
        Ok(items)
    }
}

/// Map keys: JSON object keys are strings, so integer keys are quoted.
pub trait MapKey: Sized {
    fn write_key(&self, out: &mut String);
    fn parse_key(text: &str) -> Option<Self>;
}

impl MapKey for String {
    fn write_key(&self, out: &mut String) {
        json::write_string(self, out);
    }
    fn parse_key(text: &str) -> Option<Self> {
        Some(text.to_string())
    }
}

macro_rules! integer_keys {
    ($($ty:ty),*) => {$(
        impl MapKey for $ty {
            fn write_key(&self, out: &mut String) {
                use std::fmt::Write;
                let _ = write!(out, "\"{self}\"");
            }
            fn parse_key(text: &str) -> Option<Self> {
                text.parse().ok()
            }
        }
    )*};
}
integer_keys!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

fn write_map<'a, K: MapKey + 'a, V: Serialize + 'a>(
    entries: impl Iterator<Item = (&'a K, &'a V)>,
    out: &mut String,
) {
    out.push('{');
    for (i, (key, value)) in entries.enumerate() {
        if i > 0 {
            out.push(',');
        }
        key.write_key(out);
        out.push(':');
        value.serialize_json(out);
    }
    out.push('}');
}

fn read_map<K: MapKey, V: Deserialize>(
    parser: &mut json::Parser<'_>,
    mut insert: impl FnMut(K, V),
) -> Result<(), json::Error> {
    parser.begin_object()?;
    let mut first = true;
    while let Some(text) = parser.next_key(&mut first)? {
        let key =
            K::parse_key(&text).ok_or_else(|| parser.error(format!("invalid key `{text}`")))?;
        insert(key, V::deserialize_json(parser)?);
    }
    Ok(())
}

impl<K: MapKey, V: Serialize> Serialize for BTreeMap<K, V> {
    fn serialize_json(&self, out: &mut String) {
        write_map(self.iter(), out);
    }
}

impl<K: MapKey + Ord, V: Deserialize> Deserialize for BTreeMap<K, V> {
    fn deserialize_json(parser: &mut json::Parser<'_>) -> Result<Self, json::Error> {
        let mut map = BTreeMap::new();
        read_map(parser, |k, v| {
            map.insert(k, v);
        })?;
        Ok(map)
    }
}

impl<K: MapKey, V: Serialize, S> Serialize for HashMap<K, V, S> {
    fn serialize_json(&self, out: &mut String) {
        write_map(self.iter(), out);
    }
}

impl<K, V, S> Deserialize for HashMap<K, V, S>
where
    K: MapKey + std::hash::Hash + Eq,
    V: Deserialize,
    S: std::hash::BuildHasher + Default,
{
    fn deserialize_json(parser: &mut json::Parser<'_>) -> Result<Self, json::Error> {
        let mut map = HashMap::default();
        read_map(parser, |k, v| {
            map.insert(k, v);
        })?;
        Ok(map)
    }
}
