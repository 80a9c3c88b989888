//! Hand-rolled binary codec.
//!
//! Fixed-width little-endian integers, length-prefixed UTF-8 strings,
//! and tagged unions for the domain types the toolkit's log records
//! mention ([`Value`], [`ItemId`], times). The encoding is
//! deterministic — the same value always produces the same bytes — so
//! a record's encoding can be pinned byte-for-byte.
//!
//! A table-driven CRC32 (IEEE 802.3, reflected, polynomial
//! `0xEDB88320`) guards every log record; see
//! [`crc32`].

use hcm_core::{ItemId, SimDuration, SimTime, Sym, Value};
use std::fmt;

/// A decode failure. Encoding is infallible; decoding is not, because
/// the bytes may come from a torn or corrupted file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// The buffer ended before the value did.
    Truncated,
    /// An unknown tag byte for the expected union type.
    BadTag(u8),
    /// A string payload was not valid UTF-8.
    BadUtf8,
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::Truncated => write!(f, "codec: input truncated"),
            CodecError::BadTag(t) => write!(f, "codec: unknown tag {t}"),
            CodecError::BadUtf8 => write!(f, "codec: invalid utf-8 in string"),
        }
    }
}

impl std::error::Error for CodecError {}

const CRC_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
};

/// CRC32 (IEEE 802.3, reflected) of `data`.
#[must_use]
pub fn crc32(data: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    for &b in data {
        crc = (crc >> 8) ^ CRC_TABLE[((crc ^ u32::from(b)) & 0xFF) as usize];
    }
    !crc
}

/// Append-only byte-buffer writer.
#[derive(Debug, Default)]
pub struct Encoder {
    buf: Vec<u8>,
}

impl Encoder {
    /// An empty encoder.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// The encoded bytes.
    #[must_use]
    pub fn finish(self) -> Vec<u8> {
        self.buf
    }

    /// The bytes encoded since the last [`Encoder::clear`].
    #[must_use]
    pub fn bytes(&self) -> &[u8] {
        &self.buf
    }

    /// Drop the encoded bytes but keep the buffer, so one encoder can
    /// write record after record without allocating.
    pub fn clear(&mut self) {
        self.buf.clear();
    }

    /// Write one raw byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Write a bool as one byte.
    pub fn bool(&mut self, v: bool) {
        self.u8(u8::from(v));
    }

    /// Write a `u32`, little-endian.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Write a `u64`, little-endian.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Write an `i64`, little-endian.
    pub(crate) fn i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Write an `f64` as its IEEE-754 bit pattern, little-endian.
    pub(crate) fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Write a length-prefixed UTF-8 string.
    pub fn str(&mut self, s: &str) {
        self.u32(s.len() as u32);
        self.buf.extend_from_slice(s.as_bytes());
    }

    /// Write a [`SimTime`] (milliseconds).
    pub fn time(&mut self, t: SimTime) {
        self.u64(t.as_millis());
    }

    /// Write a [`SimDuration`] (milliseconds).
    pub fn duration(&mut self, d: SimDuration) {
        self.u64(d.as_millis());
    }

    /// Write a [`Value`] (tagged union).
    pub fn value(&mut self, v: &Value) {
        match v {
            Value::Null => self.u8(0),
            Value::Bool(b) => {
                self.u8(1);
                self.bool(*b);
            }
            Value::Int(i) => {
                self.u8(2);
                self.i64(*i);
            }
            Value::Float(f) => {
                self.u8(3);
                self.f64(*f);
            }
            Value::Str(s) => {
                self.u8(4);
                self.str(s);
            }
        }
    }

    /// Write an [`ItemId`]: base name + parameter values.
    pub fn item(&mut self, item: &ItemId) {
        self.str(item.base.as_str());
        self.u32(item.params.len() as u32);
        for p in item.params.iter() {
            self.value(p);
        }
    }
}

/// Cursor-based reader over encoded bytes.
#[derive(Debug)]
pub struct Decoder<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Decoder<'a> {
    /// A decoder over `buf`, starting at offset 0.
    #[must_use]
    pub fn new(buf: &'a [u8]) -> Self {
        Decoder { buf, pos: 0 }
    }

    /// Whether every byte has been consumed.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.pos >= self.buf.len()
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        if self.pos + n > self.buf.len() {
            return Err(CodecError::Truncated);
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Read one raw byte.
    pub fn u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.take(1)?[0])
    }

    /// Read a bool.
    pub fn bool(&mut self) -> Result<bool, CodecError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            t => Err(CodecError::BadTag(t)),
        }
    }

    /// Read a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, CodecError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Read a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, CodecError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Read a little-endian `i64`.
    pub(crate) fn i64(&mut self) -> Result<i64, CodecError> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Read an `f64` from its bit pattern.
    pub(crate) fn f64(&mut self) -> Result<f64, CodecError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Read a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<String, CodecError> {
        self.str_ref().map(str::to_owned)
    }

    /// Read a length-prefixed UTF-8 string in place.
    fn str_ref(&mut self) -> Result<&'a str, CodecError> {
        let len = self.u32()? as usize;
        std::str::from_utf8(self.take(len)?).map_err(|_| CodecError::BadUtf8)
    }

    /// Read a [`SimTime`].
    pub fn time(&mut self) -> Result<SimTime, CodecError> {
        Ok(SimTime::from_millis(self.u64()?))
    }

    /// Read a [`SimDuration`].
    pub fn duration(&mut self) -> Result<SimDuration, CodecError> {
        Ok(SimDuration::from_millis(self.u64()?))
    }

    /// Read a [`Value`].
    pub fn value(&mut self) -> Result<Value, CodecError> {
        match self.u8()? {
            0 => Ok(Value::Null),
            1 => Ok(Value::Bool(self.bool()?)),
            2 => Ok(Value::Int(self.i64()?)),
            3 => Ok(Value::Float(self.f64()?)),
            4 => Ok(Value::Str(self.str()?)),
            t => Err(CodecError::BadTag(t)),
        }
    }

    /// Read an [`ItemId`].
    pub fn item(&mut self) -> Result<ItemId, CodecError> {
        let base = Sym::intern(self.str_ref()?);
        let n = self.u32()? as usize;
        // Every value takes at least its tag byte; a larger count is a
        // torn record, refused before it sizes the parameter slice.
        if n > self.buf.len() - self.pos {
            return Err(CodecError::Truncated);
        }
        // The parameters fill the item's shared slice in one allocation;
        // the first value that fails to decode fails the item.
        let mut failed = None;
        let item = ItemId::with(
            base,
            (0..n).map(|_| {
                self.value().unwrap_or_else(|e| {
                    failed.get_or_insert(e);
                    Value::Null
                })
            }),
        );
        failed.map_or(Ok(item), Err)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_known_vectors() {
        // IEEE 802.3 check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_ne!(crc32(b"a"), crc32(b"b"));
    }

    #[test]
    fn primitives_round_trip() {
        let mut e = Encoder::new();
        e.u8(7);
        e.bool(true);
        e.u32(0xDEAD_BEEF);
        e.u64(u64::MAX);
        e.i64(-42);
        e.f64(1.5);
        e.str("héllo");
        e.time(SimTime::from_millis(123));
        e.duration(SimDuration::from_secs(9));
        let bytes = e.finish();
        let mut d = Decoder::new(&bytes);
        assert_eq!(d.u8().unwrap(), 7);
        assert!(d.bool().unwrap());
        assert_eq!(d.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(d.u64().unwrap(), u64::MAX);
        assert_eq!(d.i64().unwrap(), -42);
        assert_eq!(d.f64().unwrap(), 1.5);
        assert_eq!(d.str().unwrap(), "héllo");
        assert_eq!(d.time().unwrap(), SimTime::from_millis(123));
        assert_eq!(d.duration().unwrap(), SimDuration::from_secs(9));
        assert!(d.is_empty());
    }

    #[test]
    fn truncation_is_an_error_not_a_panic() {
        let mut e = Encoder::new();
        e.str("hello");
        let bytes = e.finish();
        let mut d = Decoder::new(&bytes[..bytes.len() - 1]);
        assert_eq!(d.str(), Err(CodecError::Truncated));
        let mut d2 = Decoder::new(&[]);
        assert_eq!(d2.u64(), Err(CodecError::Truncated));
    }

    #[test]
    fn bad_tags_rejected() {
        let mut d = Decoder::new(&[9]);
        assert_eq!(d.value(), Err(CodecError::BadTag(9)));
        let mut d2 = Decoder::new(&[2]);
        assert_eq!(d2.bool(), Err(CodecError::BadTag(2)));
    }

    #[test]
    fn item_round_trip() {
        let item = ItemId::with("salary1", [Value::from("e42"), Value::Int(3)]);
        let mut e = Encoder::new();
        e.item(&item);
        let bytes = e.finish();
        assert_eq!(Decoder::new(&bytes).item().unwrap(), item);
    }
}
