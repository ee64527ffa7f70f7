//! Offline stand-in for the `serde` surface this workspace uses: the
//! `Serialize` / `Deserialize` derives and nothing of serde's data model.
//!
//! The only format the workspace serialises to is JSON (model snapshots),
//! so the two traits here are JSON-shaped directly: `Serialize` appends
//! JSON text, `Deserialize` reads from a parsed [`Value`] tree. The text
//! layout matches `serde_json`'s defaults (externally tagged enums,
//! tuples as arrays, non-finite floats as `null`). Numbers are kept as
//! their source text until a target type asks for them, so `u64` keys
//! above 2^53 and every `f64` round-trip bit-exactly. See `../rand` for
//! why the stubs exist.

#[cfg(feature = "derive")]
pub use serde_derive::{Deserialize, Serialize};

use std::fmt::Write as _;

/// A parsed JSON document.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// A number, as written in the source text.
    Number(String),
    /// A string, unescaped.
    String(String),
    /// An array.
    Array(Vec<Value>),
    /// An object, in source order.
    Object(Vec<(String, Value)>),
}

/// Why a document failed to parse or did not fit the target type.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Error(String);

impl Error {
    /// "expected X while reading T".
    pub fn expected(what: &str, target: &str) -> Error {
        Error(format!("invalid type: expected {what} for {target}"))
    }
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for Error {}

/// Types that can append themselves as JSON text.
pub trait Serialize {
    /// Appends this value's JSON to `out`.
    fn write_json(&self, out: &mut String);
}

/// Types that can be rebuilt from a parsed JSON value.
pub trait Deserialize: Sized {
    /// Reads `Self` out of `value`.
    fn from_value(value: &Value) -> Result<Self, Error>;

    /// What a struct field of this type holds when the key is absent;
    /// `None` makes the absence an error (only `Option` overrides it).
    fn if_missing() -> Option<Self> {
        None
    }
}

// ---------------------------------------------------------------------
// Helpers the derive expands to.

/// The entries of an object value.
pub fn object<'v>(value: &'v Value, target: &str) -> Result<&'v [(String, Value)], Error> {
    match value {
        Value::Object(entries) => Ok(entries),
        _ => Err(Error::expected("an object", target)),
    }
}

/// The elements of an array value of exactly `len` elements.
pub fn tuple<'v>(value: &'v Value, len: usize, target: &str) -> Result<&'v [Value], Error> {
    match value {
        Value::Array(items) if items.len() == len => Ok(items),
        _ => Err(Error::expected(&format!("an array of {len}"), target)),
    }
}

/// Field `name` of a struct: read when present, else the type's
/// [`Deserialize::if_missing`], else an error.
pub fn field<T: Deserialize>(
    entries: &[(String, Value)],
    name: &str,
    target: &str,
) -> Result<T, Error> {
    match entries.iter().find(|(k, _)| k == name) {
        Some((_, v)) => T::from_value(v),
        None => T::if_missing().ok_or_else(|| Error(format!("missing field `{name}` of {target}"))),
    }
}

/// Field `name` of a struct, or `default()` when the key is absent.
pub fn field_or<T: Deserialize>(
    entries: &[(String, Value)],
    name: &str,
    default: impl FnOnce() -> T,
) -> Result<T, Error> {
    match entries.iter().find(|(k, _)| k == name) {
        Some((_, v)) => T::from_value(v),
        None => Ok(default()),
    }
}

/// Splits an externally tagged enum value into `(variant, payload)`.
pub fn variant<'v>(value: &'v Value, target: &str) -> Result<(&'v str, Option<&'v Value>), Error> {
    match value {
        Value::String(name) => Ok((name, None)),
        Value::Object(entries) if entries.len() == 1 => {
            Ok((entries[0].0.as_str(), Some(&entries[0].1)))
        }
        _ => Err(Error::expected(
            "a variant name or single-key object",
            target,
        )),
    }
}

/// The payload of a non-unit variant.
pub fn payload<'v>(payload: Option<&'v Value>, target: &str) -> Result<&'v Value, Error> {
    payload.ok_or_else(|| Error::expected("variant content", target))
}

/// "unknown variant" error.
pub fn unknown_variant(name: &str, target: &str) -> Error {
    Error(format!("unknown variant `{name}` of {target}"))
}

/// Appends `s` as a JSON string literal.
pub fn write_str(s: &str, out: &mut String) {
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

// ---------------------------------------------------------------------
// Primitive and container impls.

macro_rules! int_impls {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn write_json(&self, out: &mut String) {
                let _ = write!(out, "{self}");
            }
        }
        impl Deserialize for $t {
            fn from_value(value: &Value) -> Result<$t, Error> {
                match value {
                    Value::Number(text) => text
                        .parse()
                        .map_err(|_| Error(format!("number {text} does not fit {}", stringify!($t)))),
                    _ => Err(Error::expected("a number", stringify!($t))),
                }
            }
        }
    )*};
}
int_impls!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

macro_rules! float_impls {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn write_json(&self, out: &mut String) {
                if self.is_finite() {
                    // `{:?}` prints the shortest text that parses back to
                    // the same bits, and always marks it as a float.
                    let _ = write!(out, "{self:?}");
                } else {
                    out.push_str("null");
                }
            }
        }
        impl Deserialize for $t {
            fn from_value(value: &Value) -> Result<$t, Error> {
                match value {
                    Value::Number(text) => text
                        .parse()
                        .map_err(|_| Error(format!("unparsable number {text}"))),
                    _ => Err(Error::expected("a number", stringify!($t))),
                }
            }
        }
    )*};
}
float_impls!(f32, f64);

impl Serialize for bool {
    fn write_json(&self, out: &mut String) {
        out.push_str(if *self { "true" } else { "false" });
    }
}

impl Deserialize for bool {
    fn from_value(value: &Value) -> Result<bool, Error> {
        match value {
            Value::Bool(b) => Ok(*b),
            _ => Err(Error::expected("a boolean", "bool")),
        }
    }
}

impl Serialize for str {
    fn write_json(&self, out: &mut String) {
        write_str(self, out);
    }
}

impl Serialize for String {
    fn write_json(&self, out: &mut String) {
        write_str(self, out);
    }
}

impl Deserialize for String {
    fn from_value(value: &Value) -> Result<String, Error> {
        match value {
            Value::String(s) => Ok(s.clone()),
            _ => Err(Error::expected("a string", "String")),
        }
    }
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn write_json(&self, out: &mut String) {
        (**self).write_json(out);
    }
}

impl<T: Serialize + ?Sized> Serialize for Box<T> {
    fn write_json(&self, out: &mut String) {
        (**self).write_json(out);
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn write_json(&self, out: &mut String) {
        match self {
            Some(v) => v.write_json(out),
            None => out.push_str("null"),
        }
    }
}

impl<T: Deserialize> Deserialize for Option<T> {
    fn from_value(value: &Value) -> Result<Option<T>, Error> {
        match value {
            Value::Null => Ok(None),
            v => T::from_value(v).map(Some),
        }
    }

    fn if_missing() -> Option<Option<T>> {
        Some(None)
    }
}

impl<T: Serialize> Serialize for [T] {
    fn write_json(&self, out: &mut String) {
        out.push('[');
        for (i, item) in self.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            item.write_json(out);
        }
        out.push(']');
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn write_json(&self, out: &mut String) {
        self.as_slice().write_json(out);
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn from_value(value: &Value) -> Result<Vec<T>, Error> {
        match value {
            Value::Array(items) => items.iter().map(T::from_value).collect(),
            _ => Err(Error::expected("an array", "Vec")),
        }
    }
}

impl<A: Serialize, B: Serialize> Serialize for (A, B) {
    fn write_json(&self, out: &mut String) {
        out.push('[');
        self.0.write_json(out);
        out.push(',');
        self.1.write_json(out);
        out.push(']');
    }
}

impl<A: Deserialize, B: Deserialize> Deserialize for (A, B) {
    fn from_value(value: &Value) -> Result<(A, B), Error> {
        let items = tuple(value, 2, "pair")?;
        Ok((A::from_value(&items[0])?, B::from_value(&items[1])?))
    }
}

// ---------------------------------------------------------------------
// JSON text -> Value.

/// Parses one JSON document (surrounding whitespace allowed).
pub fn parse_json(text: &str) -> Result<Value, Error> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
        depth: 0,
    };
    let value = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.error("trailing characters"));
    }
    Ok(value)
}

/// Nesting limit, so hostile input cannot overflow the stack.
const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl Parser<'_> {
    fn error(&self, what: &str) -> Error {
        Error(format!("{what} at byte {}", self.pos))
    }

    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, literal: &str) -> bool {
        if self.bytes[self.pos..].starts_with(literal.as_bytes()) {
            self.pos += literal.len();
            true
        } else {
            false
        }
    }

    fn value(&mut self) -> Result<Value, Error> {
        self.skip_ws();
        match self.bytes.get(self.pos) {
            None => Err(self.error("unexpected end of input")),
            Some(b'n') if self.eat("null") => Ok(Value::Null),
            Some(b't') if self.eat("true") => Ok(Value::Bool(true)),
            Some(b'f') if self.eat("false") => Ok(Value::Bool(false)),
            Some(b'"') => self.string().map(Value::String),
            Some(b'[') => self.nested(Parser::array),
            Some(b'{') => self.nested(Parser::object),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => Err(self.error("unexpected character")),
        }
    }

    fn nested(&mut self, f: fn(&mut Self) -> Result<Value, Error>) -> Result<Value, Error> {
        if self.depth == MAX_DEPTH {
            return Err(self.error("nesting too deep"));
        }
        self.depth += 1;
        let value = f(self);
        self.depth -= 1;
        value
    }

    fn number(&mut self) -> Result<Value, Error> {
        let start = self.pos;
        while matches!(
            self.bytes.get(self.pos),
            Some(b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9')
        ) {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ASCII digits");
        if text.parse::<f64>().is_err() {
            return Err(self.error("malformed number"));
        }
        Ok(Value::Number(text.to_string()))
    }

    fn string(&mut self) -> Result<String, Error> {
        self.pos += 1; // opening quote
        let mut out = String::new();
        loop {
            let start = self.pos;
            while !matches!(self.bytes.get(self.pos), None | Some(b'"' | b'\\')) {
                self.pos += 1;
            }
            let chunk = std::str::from_utf8(&self.bytes[start..self.pos])
                .map_err(|_| self.error("invalid UTF-8 in string"))?;
            out.push_str(chunk);
            match self.bytes.get(self.pos) {
                None => return Err(self.error("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(_) => {
                    self.pos += 1;
                    let escape = *self
                        .bytes
                        .get(self.pos)
                        .ok_or_else(|| self.error("unterminated escape"))?;
                    self.pos += 1;
                    match escape {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .and_then(char::from_u32)
                                .ok_or_else(|| self.error("unsupported \\u escape"))?;
                            self.pos += 4;
                            out.push(hex);
                        }
                        _ => return Err(self.error("unknown escape")),
                    }
                }
            }
        }
    }

    fn array(&mut self) -> Result<Value, Error> {
        self.pos += 1; // '['
        let mut items = Vec::new();
        self.skip_ws();
        if self.eat("]") {
            return Ok(Value::Array(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            if self.eat("]") {
                return Ok(Value::Array(items));
            }
            if !self.eat(",") {
                return Err(self.error("expected `,` or `]`"));
            }
        }
    }

    fn object(&mut self) -> Result<Value, Error> {
        self.pos += 1; // '{'
        let mut entries = Vec::new();
        self.skip_ws();
        if self.eat("}") {
            return Ok(Value::Object(entries));
        }
        loop {
            self.skip_ws();
            if self.bytes.get(self.pos) != Some(&b'"') {
                return Err(self.error("expected a string key"));
            }
            let key = self.string()?;
            self.skip_ws();
            if !self.eat(":") {
                return Err(self.error("expected `:`"));
            }
            entries.push((key, self.value()?));
            self.skip_ws();
            if self.eat("}") {
                return Ok(Value::Object(entries));
            }
            if !self.eat(",") {
                return Err(self.error("expected `,` or `}`"));
            }
        }
    }
}
