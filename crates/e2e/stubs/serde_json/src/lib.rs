//! Offline stand-in for the `serde_json` surface this workspace uses:
//! `to_string`, `from_str`, `Value` and `Error`, over the JSON-shaped
//! traits of the stub `serde` in `../serde` (which also holds the parser).

pub use serde::{Error, Value};

/// `Result` with this crate's error.
pub type Result<T> = std::result::Result<T, Error>;

/// Serialises `value` as compact JSON text.
pub fn to_string<T: serde::Serialize + ?Sized>(value: &T) -> Result<String> {
    let mut out = String::new();
    value.write_json(&mut out);
    Ok(out)
}

/// Parses `text` as JSON and reads a `T` out of it.
pub fn from_str<T: serde::Deserialize>(text: &str) -> Result<T> {
    T::from_value(&serde::parse_json(text)?)
}
