//! The byte layer under both binary formats of this workspace: the
//! `QPPSNAP` model snapshot ([`crate::TrainedModel::encode`] and the types
//! around it) and the `QPPWIRE` frames of `serve::codec`.
//!
//! Integers travel little-endian, floats as their IEEE-754 bits (so NaN
//! payloads and signed zeros survive), sequences as a `u32` count followed
//! by the elements, strings as a `u16` length followed by UTF-8.
//!
//! Bytes being decoded come from outside the program — a file, a socket —
//! so every [`Reader`] method is bounds-checked and [`Reader::count`]
//! validates an announced length against the bytes actually left *before*
//! the caller allocates for it. Arbitrary input yields `Err(Malformed)`,
//! never a panic or an unbounded allocation.

/// Longest string [`put_str`] writes and [`Reader::str`] accepts, in bytes.
pub(crate) const MAX_STRING: usize = 4096;

/// Why bytes failed to decode; the message names the gate that refused
/// them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Malformed(pub &'static str);

impl std::fmt::Display for Malformed {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.0)
    }
}

impl std::error::Error for Malformed {}

/// A bounds-checked cursor over a byte slice.
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A reader at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Reader<'a> {
        Reader { buf, pos: 0 }
    }

    /// True when every byte has been consumed.
    pub fn is_empty(&self) -> bool {
        self.pos >= self.buf.len()
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], Malformed> {
        if self.remaining() < n {
            return Err(Malformed("payload shorter than announced"));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N], Malformed> {
        let mut out = [0; N];
        out.copy_from_slice(self.take(N)?);
        Ok(out)
    }

    /// One byte.
    pub fn u8(&mut self) -> Result<u8, Malformed> {
        Ok(self.take(1)?[0])
    }

    /// A byte that must be 0 or 1.
    pub fn bool(&mut self) -> Result<bool, Malformed> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(Malformed("flag byte is neither 0 nor 1")),
        }
    }

    /// A little-endian `u16`.
    pub fn u16(&mut self) -> Result<u16, Malformed> {
        Ok(u16::from_le_bytes(self.array()?))
    }

    /// A little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, Malformed> {
        Ok(u32::from_le_bytes(self.array()?))
    }

    /// A little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, Malformed> {
        Ok(u64::from_le_bytes(self.array()?))
    }

    /// A little-endian `i32`.
    pub fn i32(&mut self) -> Result<i32, Malformed> {
        Ok(self.u32()? as i32)
    }

    /// A little-endian `i64`.
    pub fn i64(&mut self) -> Result<i64, Malformed> {
        Ok(self.u64()? as i64)
    }

    /// An `f64` from its IEEE-754 bits.
    pub fn f64(&mut self) -> Result<f64, Malformed> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// A `u32` element count, validated against the bytes that are
    /// actually left (`min_elem` bytes per element), so a hostile length
    /// can never trigger an oversized allocation.
    pub fn count(&mut self, min_elem: usize) -> Result<usize, Malformed> {
        let n = self.u32()? as usize;
        if n.saturating_mul(min_elem.max(1)) > self.remaining() {
            return Err(Malformed("element count exceeds payload"));
        }
        Ok(n)
    }

    /// `n` floats.
    pub(crate) fn f64s(&mut self, n: usize) -> Result<Vec<f64>, Malformed> {
        let len = n
            .checked_mul(8)
            .ok_or(Malformed("element count exceeds payload"))?;
        let floats = self.take(len)?.chunks_exact(8);
        Ok(floats
            .map(|b| f64::from_bits(u64::from_le_bytes(b.try_into().expect("8-byte chunk"))))
            .collect())
    }

    /// A counted sequence of floats, as [`put_f64s`] writes it.
    pub(crate) fn counted_f64s(&mut self) -> Result<Vec<f64>, Malformed> {
        let n = self.count(8)?;
        self.f64s(n)
    }

    /// A length-prefixed UTF-8 string of at most `MAX_STRING` (4096) bytes.
    pub fn str(&mut self) -> Result<&'a str, Malformed> {
        let n = self.u16()? as usize;
        if n > MAX_STRING {
            return Err(Malformed("string too long"));
        }
        std::str::from_utf8(self.take(n)?).map_err(|_| Malformed("invalid utf-8"))
    }
}

/// Appends a `u32`, little-endian.
pub fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends a sequence length as the `u32` [`Reader::count`] reads.
///
/// # Panics
/// When `n` does not fit a `u32`: no structure of this workspace comes
/// near, and a wrapped count would write a payload that decodes wrongly.
pub fn put_count(out: &mut Vec<u8>, n: usize) {
    put_u32(out, u32::try_from(n).expect("sequence length fits u32"));
}

/// Appends a `u64`, little-endian.
pub fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends an `f64` as its IEEE-754 bits.
pub fn put_f64(out: &mut Vec<u8>, v: f64) {
    put_u64(out, v.to_bits());
}

/// Appends a count followed by the floats.
pub(crate) fn put_f64s(out: &mut Vec<u8>, values: &[f64]) {
    put_count(out, values.len());
    for &v in values {
        put_f64(out, v);
    }
}

/// Appends a length-prefixed string, cut at the last character boundary
/// within `MAX_STRING` (4096) bytes so the reader never refuses what this
/// wrote.
pub fn put_str(out: &mut Vec<u8>, s: &str) {
    let mut end = s.len().min(MAX_STRING);
    while !s.is_char_boundary(end) {
        end -= 1;
    }
    out.extend_from_slice(&(end as u16).to_le_bytes());
    out.extend_from_slice(&s.as_bytes()[..end]);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_round_trip_bit_exactly() {
        let mut out = Vec::new();
        put_u32(&mut out, 0xDEAD_BEEF);
        put_u64(&mut out, u64::MAX - 1);
        let nan = f64::from_bits(0x7ff8_0000_0000_1234);
        put_f64(&mut out, nan);
        put_f64(&mut out, -0.0);
        put_str(&mut out, "héllo");
        put_f64s(&mut out, &[1.5, f64::INFINITY]);
        let mut r = Reader::new(&out);
        assert_eq!(r.u32(), Ok(0xDEAD_BEEF));
        assert_eq!(r.u64(), Ok(u64::MAX - 1));
        assert_eq!(r.f64().unwrap().to_bits(), nan.to_bits());
        assert_eq!(r.f64().unwrap().to_bits(), (-0.0f64).to_bits());
        assert_eq!(r.str(), Ok("héllo"));
        assert_eq!(r.counted_f64s(), Ok(vec![1.5, f64::INFINITY]));
        assert!(r.is_empty());
        assert_eq!(r.u8(), Err(Malformed("payload shorter than announced")));
    }

    #[test]
    fn a_count_larger_than_the_payload_is_refused_before_allocation() {
        let mut out = Vec::new();
        put_u32(&mut out, u32::MAX);
        out.extend_from_slice(&[0; 16]);
        let mut r = Reader::new(&out);
        assert_eq!(r.count(8), Err(Malformed("element count exceeds payload")));
        let mut r = Reader::new(&out);
        assert_eq!(
            r.counted_f64s(),
            Err(Malformed("element count exceeds payload"))
        );
    }

    #[test]
    fn long_strings_are_cut_on_a_character_boundary() {
        // Byte MAX_STRING falls inside a two-byte character.
        let long = format!("a{}", "é".repeat(MAX_STRING));
        let mut out = Vec::new();
        put_str(&mut out, &long);
        let back = Reader::new(&out).str().unwrap();
        assert_eq!(back.len(), MAX_STRING - 1);
        assert!(long.starts_with(back));
    }

    #[test]
    fn flags_other_than_zero_and_one_are_refused() {
        assert_eq!(Reader::new(&[0]).bool(), Ok(false));
        assert_eq!(Reader::new(&[1]).bool(), Ok(true));
        assert!(Reader::new(&[2]).bool().is_err());
    }
}
