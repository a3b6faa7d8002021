//! Offline stand-in for the part of `serde_json` 1 that the UniAsk
//! crates call: `to_string`, `from_str`, and
//! `Deserializer::from_str(..).into_iter::<T>()` for reading a value
//! that is followed by other text.

use std::marker::PhantomData;

use serde::json::Parser;
use serde::{Deserialize, Serialize};

pub use serde::json::Error;

pub type Result<T> = std::result::Result<T, Error>;

pub fn to_string<T: Serialize + ?Sized>(value: &T) -> Result<String> {
    let mut out = String::with_capacity(128);
    value.serialize_json(&mut out);
    Ok(out)
}

pub fn from_str<T: Deserialize>(text: &str) -> Result<T> {
    let mut parser = Parser::new(text);
    let value = T::deserialize_json(&mut parser)?;
    if parser.at_end() {
        Ok(value)
    } else {
        Err(parser.error("trailing characters".into()))
    }
}

pub struct Deserializer<'a> {
    parser: Parser<'a>,
}

impl<'a> Deserializer<'a> {
    #[allow(clippy::should_implement_trait)]
    pub fn from_str(text: &'a str) -> Self {
        Deserializer {
            parser: Parser::new(text),
        }
    }

    #[allow(clippy::should_implement_trait)]
    pub fn into_iter<T: Deserialize>(self) -> StreamDeserializer<'a, T> {
        StreamDeserializer {
            parser: self.parser,
            failed: false,
            _marker: PhantomData,
        }
    }
}

/// Yields consecutive whitespace-separated values until the input ends
/// or one fails to parse.
pub struct StreamDeserializer<'a, T> {
    parser: Parser<'a>,
    failed: bool,
    _marker: PhantomData<T>,
}

impl<T> StreamDeserializer<'_, T> {
    pub fn byte_offset(&self) -> usize {
        self.parser.byte_offset()
    }
}

impl<T: Deserialize> Iterator for StreamDeserializer<'_, T> {
    type Item = Result<T>;

    fn next(&mut self) -> Option<Result<T>> {
        if self.failed || self.parser.at_end() {
            return None;
        }
        let item = T::deserialize_json(&mut self.parser);
        self.failed = item.is_err();
        Some(item)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    #[derive(Debug, PartialEq, serde::Serialize, serde::Deserialize)]
    #[serde(rename_all = "snake_case")]
    enum Kind {
        Plain,
        TwoWords,
    }

    #[derive(Debug, PartialEq, serde::Serialize, serde::Deserialize)]
    struct Record {
        /// A doc comment must not confuse the derive.
        pub id: usize,
        text: String,
        tags: Vec<String>,
        note: Option<String>,
        scores: BTreeMap<usize, f64>,
        kind: Kind,
    }

    fn record() -> Record {
        Record {
            id: 7,
            text: "riga \"uno\"\n\tè qui \\ \u{1}".into(),
            tags: vec!["a".into(), "b".into()],
            note: None,
            scores: BTreeMap::from([(1, 0.5), (10, 2.0)]),
            kind: Kind::TwoWords,
        }
    }

    #[test]
    fn struct_round_trips_and_matches_the_expected_text() {
        let json = to_string(&record()).unwrap();
        assert_eq!(
            json,
            "{\"id\":7,\"text\":\"riga \\\"uno\\\"\\n\\tè qui \\\\ \\u0001\",\
             \"tags\":[\"a\",\"b\"],\"note\":null,\"scores\":{\"1\":0.5,\"10\":2.0},\
             \"kind\":\"two_words\"}"
        );
        assert_eq!(from_str::<Record>(&json).unwrap(), record());
    }

    #[test]
    fn missing_option_is_none_and_unknown_fields_are_skipped() {
        let json =
            "{ \"extra\": [1, {\"x\": null}], \"id\": 1, \"text\": \"\\u00e8\\ud83d\\ude00\", \
                    \"tags\": [], \"scores\": {}, \"kind\": \"plain\" }";
        let parsed: Record = from_str(json).unwrap();
        assert_eq!(parsed.note, None);
        assert_eq!(parsed.text, "è😀");
        assert_eq!(parsed.kind, Kind::Plain);
    }

    #[test]
    fn errors_are_reported() {
        assert!(from_str::<Record>("{\"id\":1}").is_err());
        assert!(from_str::<Vec<usize>>("[1,2] x").is_err());
        assert!(from_str::<Kind>("\"other\"").is_err());
    }

    #[test]
    fn stream_reads_a_value_followed_by_other_text() {
        let mut stream = Deserializer::from_str("[1,2,3]\n\nREGOLE: ...").into_iter::<Vec<u32>>();
        assert_eq!(stream.next().unwrap().unwrap(), vec![1, 2, 3]);
        assert!(stream.next().unwrap().is_err());
        assert!(stream.next().is_none());
    }
}
