//! A minimal JSON serializer over `serde::Serialize`.
//!
//! The workspace's offline dependency set includes `serde` but not
//! `serde_json`, so this module implements just enough of
//! [`serde::Serializer`] to dump experiment-result structs (numbers,
//! strings, booleans, options, sequences, maps with string keys, structs)
//! as JSON for the `results/` directory. It is not a general-purpose JSON
//! library: unsupported shapes (byte strings, non-string map keys) return
//! an error instead of guessing.

use std::fmt::Write as _;

use serde::ser::{self, Serialize};

/// Serialization error.
#[derive(Debug)]
pub struct Error(String);

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for Error {}

impl ser::Error for Error {
    fn custom<T: std::fmt::Display>(msg: T) -> Self {
        Error(msg.to_string())
    }
}

/// Serializes a value to a JSON string.
///
/// # Examples
///
/// ```
/// #[derive(serde::Serialize)]
/// struct Point {
///     x: f64,
///     label: String,
/// }
/// let json = rcbench::json::to_string(&Point {
///     x: 1.5,
///     label: "a".into(),
/// })
/// .unwrap();
/// assert_eq!(json, r#"{"x":1.5,"label":"a"}"#);
/// ```
pub fn to_string<T: Serialize>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    value.serialize(Json { out: &mut out })?;
    Ok(out)
}

/// Writes an `f64` in the crate's canonical JSON form: Rust's
/// shortest-roundtrip decimal for finite values, `null` for NaN and
/// infinities (which JSON cannot represent). Every float this crate
/// emits — serializer output and diff/report text alike — funnels
/// through here, so artifacts agree on formatting byte-for-byte.
///
/// # Examples
///
/// ```
/// let mut s = String::new();
/// rcbench::json::write_f64(&mut s, 1.25);
/// rcbench::json::write_f64(&mut s, f64::NAN);
/// assert_eq!(s, "1.25null");
/// ```
pub fn write_f64(out: &mut String, v: f64) {
    if v.is_finite() {
        let _ = write!(out, "{v}");
    } else {
        out.push_str("null");
    }
}

/// [`write_f64`] into a fresh string — for formatting a float into
/// report or diff text with the same canonical form as the artifacts.
pub fn f64_string(v: f64) -> String {
    let mut s = String::new();
    write_f64(&mut s, v);
    s
}

fn escape_into(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

struct Json<'a> {
    out: &'a mut String,
}

/// Compound serializer state: tracks whether a separator is needed.
struct Compound<'a> {
    out: &'a mut String,
    first: bool,
    close: char,
}

impl Compound<'_> {
    fn sep(&mut self) {
        if self.first {
            self.first = false;
        } else {
            self.out.push(',');
        }
    }
}

impl<'a> ser::Serializer for Json<'a> {
    type Ok = ();
    type Error = Error;
    type SerializeSeq = Compound<'a>;
    type SerializeTuple = Compound<'a>;
    type SerializeTupleStruct = Compound<'a>;
    type SerializeTupleVariant = Compound<'a>;
    type SerializeMap = Compound<'a>;
    type SerializeStruct = Compound<'a>;
    type SerializeStructVariant = Compound<'a>;

    fn serialize_bool(self, v: bool) -> Result<(), Error> {
        self.out.push_str(if v { "true" } else { "false" });
        Ok(())
    }
    fn serialize_i8(self, v: i8) -> Result<(), Error> {
        self.serialize_i64(v as i64)
    }
    fn serialize_i16(self, v: i16) -> Result<(), Error> {
        self.serialize_i64(v as i64)
    }
    fn serialize_i32(self, v: i32) -> Result<(), Error> {
        self.serialize_i64(v as i64)
    }
    fn serialize_i64(self, v: i64) -> Result<(), Error> {
        let _ = write!(self.out, "{v}");
        Ok(())
    }
    fn serialize_u8(self, v: u8) -> Result<(), Error> {
        self.serialize_u64(v as u64)
    }
    fn serialize_u16(self, v: u16) -> Result<(), Error> {
        self.serialize_u64(v as u64)
    }
    fn serialize_u32(self, v: u32) -> Result<(), Error> {
        self.serialize_u64(v as u64)
    }
    fn serialize_u64(self, v: u64) -> Result<(), Error> {
        let _ = write!(self.out, "{v}");
        Ok(())
    }
    fn serialize_f32(self, v: f32) -> Result<(), Error> {
        self.serialize_f64(v as f64)
    }
    fn serialize_f64(self, v: f64) -> Result<(), Error> {
        write_f64(self.out, v);
        Ok(())
    }
    fn serialize_char(self, v: char) -> Result<(), Error> {
        escape_into(self.out, &v.to_string());
        Ok(())
    }
    fn serialize_str(self, v: &str) -> Result<(), Error> {
        escape_into(self.out, v);
        Ok(())
    }
    fn serialize_bytes(self, _v: &[u8]) -> Result<(), Error> {
        Err(ser::Error::custom("bytes unsupported"))
    }
    fn serialize_none(self) -> Result<(), Error> {
        self.out.push_str("null");
        Ok(())
    }
    fn serialize_some<T: Serialize + ?Sized>(self, value: &T) -> Result<(), Error> {
        value.serialize(Json { out: self.out })
    }
    fn serialize_unit(self) -> Result<(), Error> {
        self.out.push_str("null");
        Ok(())
    }
    fn serialize_unit_struct(self, _name: &'static str) -> Result<(), Error> {
        self.serialize_unit()
    }
    fn serialize_unit_variant(
        self,
        _name: &'static str,
        _idx: u32,
        variant: &'static str,
    ) -> Result<(), Error> {
        escape_into(self.out, variant);
        Ok(())
    }
    fn serialize_newtype_struct<T: Serialize + ?Sized>(
        self,
        _name: &'static str,
        value: &T,
    ) -> Result<(), Error> {
        value.serialize(Json { out: self.out })
    }
    fn serialize_newtype_variant<T: Serialize + ?Sized>(
        self,
        _name: &'static str,
        _idx: u32,
        variant: &'static str,
        value: &T,
    ) -> Result<(), Error> {
        self.out.push('{');
        escape_into(self.out, variant);
        self.out.push(':');
        value.serialize(Json { out: self.out })?;
        self.out.push('}');
        Ok(())
    }
    fn serialize_seq(self, _len: Option<usize>) -> Result<Compound<'a>, Error> {
        self.out.push('[');
        Ok(Compound {
            out: self.out,
            first: true,
            close: ']',
        })
    }
    fn serialize_tuple(self, len: usize) -> Result<Compound<'a>, Error> {
        self.serialize_seq(Some(len))
    }
    fn serialize_tuple_struct(
        self,
        _name: &'static str,
        len: usize,
    ) -> Result<Compound<'a>, Error> {
        self.serialize_seq(Some(len))
    }
    fn serialize_tuple_variant(
        self,
        _name: &'static str,
        _idx: u32,
        variant: &'static str,
        _len: usize,
    ) -> Result<Compound<'a>, Error> {
        self.out.push('{');
        escape_into(self.out, variant);
        self.out.push_str(":[");
        Ok(Compound {
            out: self.out,
            first: true,
            close: ']', // Note: trailing '}' appended in `end` via close2.
        })
    }
    fn serialize_map(self, _len: Option<usize>) -> Result<Compound<'a>, Error> {
        self.out.push('{');
        Ok(Compound {
            out: self.out,
            first: true,
            close: '}',
        })
    }
    fn serialize_struct(self, _name: &'static str, _len: usize) -> Result<Compound<'a>, Error> {
        self.out.push('{');
        Ok(Compound {
            out: self.out,
            first: true,
            close: '}',
        })
    }
    fn serialize_struct_variant(
        self,
        _name: &'static str,
        _idx: u32,
        variant: &'static str,
        _len: usize,
    ) -> Result<Compound<'a>, Error> {
        self.out.push('{');
        escape_into(self.out, variant);
        self.out.push_str(":{");
        Ok(Compound {
            out: self.out,
            first: true,
            close: '}',
        })
    }
}

impl ser::SerializeSeq for Compound<'_> {
    type Ok = ();
    type Error = Error;
    fn serialize_element<T: Serialize + ?Sized>(&mut self, value: &T) -> Result<(), Error> {
        self.sep();
        value.serialize(Json { out: self.out })
    }
    fn end(self) -> Result<(), Error> {
        self.out.push(self.close);
        Ok(())
    }
}

impl ser::SerializeTuple for Compound<'_> {
    type Ok = ();
    type Error = Error;
    fn serialize_element<T: Serialize + ?Sized>(&mut self, value: &T) -> Result<(), Error> {
        ser::SerializeSeq::serialize_element(self, value)
    }
    fn end(self) -> Result<(), Error> {
        ser::SerializeSeq::end(self)
    }
}

impl ser::SerializeTupleStruct for Compound<'_> {
    type Ok = ();
    type Error = Error;
    fn serialize_field<T: Serialize + ?Sized>(&mut self, value: &T) -> Result<(), Error> {
        ser::SerializeSeq::serialize_element(self, value)
    }
    fn end(self) -> Result<(), Error> {
        ser::SerializeSeq::end(self)
    }
}

impl ser::SerializeTupleVariant for Compound<'_> {
    type Ok = ();
    type Error = Error;
    fn serialize_field<T: Serialize + ?Sized>(&mut self, value: &T) -> Result<(), Error> {
        ser::SerializeSeq::serialize_element(self, value)
    }
    fn end(self) -> Result<(), Error> {
        self.out.push(']');
        self.out.push('}');
        Ok(())
    }
}

impl ser::SerializeMap for Compound<'_> {
    type Ok = ();
    type Error = Error;
    fn serialize_key<T: Serialize + ?Sized>(&mut self, key: &T) -> Result<(), Error> {
        self.sep();
        // Keys must serialize as strings; enforce by probing.
        let mut probe = String::new();
        key.serialize(Json { out: &mut probe })?;
        if !probe.starts_with('"') {
            return Err(ser::Error::custom("non-string map key"));
        }
        self.out.push_str(&probe);
        self.out.push(':');
        Ok(())
    }
    fn serialize_value<T: Serialize + ?Sized>(&mut self, value: &T) -> Result<(), Error> {
        value.serialize(Json { out: self.out })
    }
    fn end(self) -> Result<(), Error> {
        self.out.push(self.close);
        Ok(())
    }
}

impl ser::SerializeStruct for Compound<'_> {
    type Ok = ();
    type Error = Error;
    fn serialize_field<T: Serialize + ?Sized>(
        &mut self,
        key: &'static str,
        value: &T,
    ) -> Result<(), Error> {
        self.sep();
        escape_into(self.out, key);
        self.out.push(':');
        value.serialize(Json { out: self.out })
    }
    fn end(self) -> Result<(), Error> {
        self.out.push(self.close);
        Ok(())
    }
}

impl ser::SerializeStructVariant for Compound<'_> {
    type Ok = ();
    type Error = Error;
    fn serialize_field<T: Serialize + ?Sized>(
        &mut self,
        key: &'static str,
        value: &T,
    ) -> Result<(), Error> {
        ser::SerializeStruct::serialize_field(self, key, value)
    }
    fn end(self) -> Result<(), Error> {
        self.out.push('}');
        self.out.push('}');
        Ok(())
    }
}

/// A parsed JSON value.
///
/// The complement of [`to_string`]: just enough of a parser to validate
/// that emitted artifacts (experiment results, trace exports) are
/// well-formed JSON and to probe their structure in tests. Objects keep
/// their key order.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (parsed as `f64`, like JavaScript).
    Number(f64),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<Value>),
    /// An object, in source order.
    Object(Vec<(String, Value)>),
}

impl Value {
    /// Member lookup on an object; `None` on other kinds or missing keys.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The elements if this is an array.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(v) => Some(v),
            _ => None,
        }
    }

    /// The contents if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    /// The value if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Number(n) => Some(*n),
            _ => None,
        }
    }
}

/// Parses a complete JSON document (one value plus trailing whitespace).
///
/// # Examples
///
/// ```
/// use rcbench::json::{parse, Value};
///
/// let v = parse(r#"{"a":[1,true,"x"]}"#).unwrap();
/// assert_eq!(v.get("a").unwrap().as_array().unwrap().len(), 3);
/// assert_eq!(parse("1e3").unwrap(), Value::Number(1000.0));
/// assert!(parse("{").is_err());
/// ```
pub fn parse(input: &str) -> Result<Value, Error> {
    let mut p = Parser {
        bytes: input.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(Error(format!("trailing data at byte {}", p.pos)));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), Error> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(Error(format!(
                "expected '{}' at byte {}",
                b as char, self.pos
            )))
        }
    }

    fn literal(&mut self, lit: &str, v: Value) -> Result<Value, Error> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(Error(format!("invalid literal at byte {}", self.pos)))
        }
    }

    fn value(&mut self) -> Result<Value, Error> {
        match self.peek() {
            Some(b'n') => self.literal("null", Value::Null),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'"') => Ok(Value::String(self.string()?)),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(Error(format!("unexpected byte at {}", self.pos))),
        }
    }

    fn array(&mut self) -> Result<Value, Error> {
        self.expect(b'[')?;
        let mut out = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(out));
        }
        loop {
            self.skip_ws();
            out.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(out));
                }
                _ => return Err(Error(format!("expected ',' or ']' at byte {}", self.pos))),
            }
        }
    }

    fn object(&mut self) -> Result<Value, Error> {
        self.expect(b'{')?;
        let mut out = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(out));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            out.push((key, self.value()?));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(out));
                }
                _ => return Err(Error(format!("expected ',' or '}}' at byte {}", self.pos))),
            }
        }
    }

    fn string(&mut self) -> Result<String, Error> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(Error("unterminated string".into())),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            self.pos += 1;
                            let c = self.unicode_escape()?;
                            out.push(c);
                            continue;
                        }
                        _ => return Err(Error(format!("bad escape at byte {}", self.pos))),
                    }
                    self.pos += 1;
                }
                Some(b) if b < 0x80 => {
                    out.push(b as char);
                    self.pos += 1;
                }
                Some(b) => {
                    // Consume one multi-byte UTF-8 character. The input is
                    // a &str, so the sequence is valid; decode only its
                    // own bytes (validating the whole remaining input here
                    // would make string parsing quadratic).
                    let width = match b {
                        0xC0..=0xDF => 2,
                        0xE0..=0xEF => 3,
                        _ => 4,
                    };
                    let end = (self.pos + width).min(self.bytes.len());
                    let s = std::str::from_utf8(&self.bytes[self.pos..end])
                        .map_err(|e| Error(e.to_string()))?;
                    let c = s.chars().next().unwrap();
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, Error> {
        let end = self.pos + 4;
        let hex = self
            .bytes
            .get(self.pos..end)
            .and_then(|h| std::str::from_utf8(h).ok())
            .ok_or_else(|| Error("truncated \\u escape".into()))?;
        let v = u32::from_str_radix(hex, 16).map_err(|_| Error("bad \\u escape".into()))?;
        self.pos = end;
        Ok(v)
    }

    fn unicode_escape(&mut self) -> Result<char, Error> {
        let hi = self.hex4()?;
        if (0xd800..0xdc00).contains(&hi) {
            // High surrogate: require a following \uXXXX low surrogate.
            if self.bytes.get(self.pos..self.pos + 2) != Some(b"\\u") {
                return Err(Error("lone high surrogate".into()));
            }
            self.pos += 2;
            let lo = self.hex4()?;
            if !(0xdc00..0xe000).contains(&lo) {
                return Err(Error("bad low surrogate".into()));
            }
            let c = 0x10000 + ((hi - 0xd800) << 10) + (lo - 0xdc00);
            char::from_u32(c).ok_or_else(|| Error("bad surrogate pair".into()))
        } else if (0xdc00..0xe000).contains(&hi) {
            Err(Error("lone low surrogate".into()))
        } else {
            char::from_u32(hi).ok_or_else(|| Error("bad \\u escape".into()))
        }
    }

    fn number(&mut self) -> Result<Value, Error> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let digits = |p: &mut Self| {
            let s = p.pos;
            while matches!(p.peek(), Some(b'0'..=b'9')) {
                p.pos += 1;
            }
            p.pos > s
        };
        if !digits(self) {
            return Err(Error(format!("bad number at byte {start}")));
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            if !digits(self) {
                return Err(Error(format!("bad number at byte {start}")));
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if !digits(self) {
                return Err(Error(format!("bad number at byte {start}")));
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        text.parse::<f64>()
            .map(Value::Number)
            .map_err(|e| Error(e.to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    #[derive(serde::Serialize)]
    struct Nested {
        name: String,
        values: Vec<f64>,
        flag: bool,
        opt: Option<u32>,
        none: Option<u32>,
    }

    #[test]
    fn struct_roundtrip_shape() {
        let v = Nested {
            name: "hi \"there\"\n".into(),
            values: vec![1.0, 2.5],
            flag: true,
            opt: Some(7),
            none: None,
        };
        let s = to_string(&v).unwrap();
        assert_eq!(
            s,
            r#"{"name":"hi \"there\"\n","values":[1,2.5],"flag":true,"opt":7,"none":null}"#
        );
    }

    #[test]
    fn primitives() {
        assert_eq!(to_string(&42u64).unwrap(), "42");
        assert_eq!(to_string(&-3i32).unwrap(), "-3");
        assert_eq!(to_string(&1.25f64).unwrap(), "1.25");
        assert_eq!(to_string(&f64::NAN).unwrap(), "null");
        assert_eq!(to_string(&()).unwrap(), "null");
        assert_eq!(to_string(&'x').unwrap(), "\"x\"");
    }

    #[test]
    fn maps_with_string_keys() {
        let mut m = BTreeMap::new();
        m.insert("a".to_string(), 1);
        m.insert("b".to_string(), 2);
        assert_eq!(to_string(&m).unwrap(), r#"{"a":1,"b":2}"#);
    }

    #[test]
    fn non_string_map_keys_rejected() {
        let mut m = BTreeMap::new();
        m.insert(1u32, 2u32);
        assert!(to_string(&m).is_err());
    }

    #[test]
    fn enums() {
        #[derive(serde::Serialize)]
        enum E {
            Unit,
            New(u32),
            Tuple(u32, u32),
            Struct { x: u32 },
        }
        assert_eq!(to_string(&E::Unit).unwrap(), "\"Unit\"");
        assert_eq!(to_string(&E::New(1)).unwrap(), r#"{"New":1}"#);
        assert_eq!(to_string(&E::Tuple(1, 2)).unwrap(), r#"{"Tuple":[1,2]}"#);
        assert_eq!(
            to_string(&E::Struct { x: 3 }).unwrap(),
            r#"{"Struct":{"x":3}}"#
        );
    }

    #[test]
    fn control_chars_escaped() {
        let s = to_string(&"\u{1}").unwrap();
        assert_eq!(s, "\"\\u0001\"");
    }

    #[test]
    fn parse_scalars() {
        assert_eq!(parse("null").unwrap(), Value::Null);
        assert_eq!(parse(" true ").unwrap(), Value::Bool(true));
        assert_eq!(parse("-2.5e2").unwrap(), Value::Number(-250.0));
        assert_eq!(parse(r#""a\nb""#).unwrap(), Value::String("a\nb".into()));
        assert_eq!(parse(r#""\u0041""#).unwrap(), Value::String("A".into()));
        assert_eq!(
            parse(r#""\ud83d\ude00""#).unwrap(),
            Value::String("😀".into())
        );
    }

    #[test]
    fn parse_rejects_malformed() {
        for bad in [
            "", "{", "[1,", "{\"a\"}", "01x", "\"\\q\"", "tru", "1 2", "{\"a\":}",
        ] {
            assert!(parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn parse_nested_and_lookup() {
        let v = parse(r#"{"xs":[{"n":1},{"n":2}],"s":"hi"}"#).unwrap();
        let xs = v.get("xs").unwrap().as_array().unwrap();
        assert_eq!(xs.len(), 2);
        assert_eq!(xs[1].get("n").unwrap().as_f64(), Some(2.0));
        assert_eq!(v.get("s").unwrap().as_str(), Some("hi"));
        assert_eq!(v.get("missing"), None);
    }

    #[test]
    fn serializer_output_round_trips() {
        let v = Nested {
            name: "q\"\u{1}\u{7f}".into(),
            values: vec![0.125, -3.0],
            flag: false,
            opt: Some(9),
            none: None,
        };
        let s = to_string(&v).unwrap();
        let parsed = parse(&s).unwrap();
        assert_eq!(parsed.get("name").unwrap().as_str(), Some("q\"\u{1}\u{7f}"));
        assert_eq!(
            parsed.get("values").unwrap().as_array().unwrap()[0].as_f64(),
            Some(0.125)
        );
        assert_eq!(parsed.get("none"), Some(&Value::Null));
    }
}
